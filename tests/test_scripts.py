"""The scripts in `scripts/` run on small arguments and exit 0, and each
exits 1 when its checks disagree: two compare deciders, and one compares the
token thresholds of the canonical families with the paper's."""

from pathlib import Path

import pytest

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(name: str, *args: str, patch: str = ""):
    """Run a script as __main__ in a fresh interpreter, after `patch`."""
    return run_python(f"""
import runpy, sys
{patch}
sys.argv = {[name, *args]!r}
runpy.run_path({str(SCRIPTS / name)!r}, run_name="__main__")
""")


@pytest.mark.parametrize("name, args", [
    ("omega_hardness_demo.py", ()),
    ("hd_survey.py", ("--count", "5")),
    ("token_thresholds.py", ("--max-ak", "2", "--max-bk", "1")),
])
def test_script_exits_0(name, args):
    done = _run(name, *args)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("name, args, patch", [
    ("omega_hardness_demo.py", (),
     "import explora.omega; explora.omega.is_omega_explorable_cobuchi = lambda a: True"),
    ("hd_survey.py", ("--count", "5"),
     "import explora.hdgames as h; h.g2_winner = lambda a: h.ADAM"),
    ("token_thresholds.py", ("--max-ak", "2", "--max-bk", "1"),
     "import explora.explorability as e; e.is_k_explorable = lambda a, k: True"),
], ids=["omega_hardness_demo", "hd_survey", "token_thresholds"])
def test_script_exits_1_on_a_mismatch(name, args, patch):
    done = _run(name, *args, patch=patch)
    assert done.returncode == 1, done.stdout + done.stderr
