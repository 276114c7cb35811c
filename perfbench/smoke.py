"""Smoke test of the benchmark harness on a short run of every workload.

    python3 perfbench/smoke.py

Checks that
* every metric of BENCHMARK.json prints by name with its unit, untraced and
  traced, and the run is correct;
* the answer check fails an operation whose expected verdict or exit code is
  wrong;
* two traced runs on one seed report the same counts;
* the benchmark refuses to run, without a result, where the explora
  sources are missing.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3  # workload seed of the short runs
SECONDS = 1  # --seconds of the short runs


def bench(workload, seed, seconds, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(workload, out, trace) -> dict:
    lines = out.stdout.strip().splitlines()
    assert out.returncode == 0, (workload, out.returncode, out.stderr)
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], workload
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), (m, got)
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), f"{m['name']} is not printed with its unit"
    return result["metrics"]


def check_answer_check():
    from worker import cli, instances, run_op

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ops = instances.write_instances("finite-explore", 0, Path(tmp), cli.main)
        op = next(o for o in ops if o.argv[0] == "explorable")
        assert run_op(op)[0], "a correct expected verdict must pass"
        assert not run_op(dataclasses.replace(op, verdict=op.verdict + "0"))[0], \
            "a wrong expected verdict must fail"
        assert not run_op(dataclasses.replace(op, code=op.code + 1))[0], \
            "a wrong expected exit code must fail"


def check_bare_directory():
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = bench("finite-explore", 1, 1, 0, cwd=tmp)
        assert out.returncode != 0, "must fail without the explora sources"
        assert "{" not in out.stdout, "must print no result without the sources"


def main() -> int:
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    check_answer_check()
    print("answer check rejects wrong verdicts and exit codes: ok")
    check_bare_directory()
    print("no result without the explora sources: ok")
    counts = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_metrics(workload, bench(workload, SEED, SECONDS, 0), 0)
        first, second = (check_metrics(workload, bench(workload, SEED, SECONDS, 1), 1)
                         for _ in range(2))
        differ = [n for n in counts if first[n]["value"] != second[n]["value"]]
        assert not differ, f"{workload}: counts differ between traced runs: {differ}"
        print(f"{workload}: every metric printed with its unit, counts repeat: ok")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
