"""Every name the bench tracer patches must exist in the library, and a
traced run must give the untraced verdicts.

`perfbench/tracer.py` wraps functions under the names their callers look them
up by.  A name moved or renamed in `src/` would make `--trace` runs and the
bench smoke test fail at patch time, so this reads the tracer's probe lists
and resolves each entry.  A wrapper that stands in for a class, such as the
count probe on `explorability.Arena`, fails only when the program uses it, so
a short traced run of the CLI checks that too.
"""

import importlib.util
from pathlib import Path
from random import Random

import explora.cli as cli
from explora.games import MaxEvenParity
from explora.generators import gen_ak, gen_fig4, random_automaton
from explora.textio import format_automaton

from conftest import shifted_cob3
from reference import format_arena, random_ranked_game

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_resolves_to_a_callable():
    tracer = load_tracer()
    probes = [(m, attr) for m, attr, *_ in tracer.PROBES + tracer.COUNT_PROBES]
    assert probes
    missing = [(m, attr) for m, attr in probes
               if not callable(getattr(importlib.import_module(m), attr, None))]
    assert missing == []


def test_traced_runs_give_the_untraced_verdicts(tmp_path, capsys):
    # eight commands that between them run every explored game, once plain
    # and once with the tracer installed: the same exit codes, stdout and
    # witness files, and afterwards every patched name is its original again.
    # cob3 is not history-deterministic, so `k-explorable -k 3` plays the
    # 1-token game and then the 3-token one; with its ranks shifted by 2 and
    # its breakpoint monitor passed as `--monitor`, it plays both rounds on
    # token tuples.  `solve-game` solves an arena on six ranks: no solve,
    # however wide, records a `verify_strategy` span
    shifted, monitor = shifted_cob3(20)
    inputs = {"cob3": random_automaton(Random(20), 3, "ab", "cobuchi"),
              "ak3": gen_ak(3), "fig4": gen_fig4("left"), "shifted": shifted, "monitor": monitor}
    for name, a in inputs.items():
        (tmp_path / f"{name}.aut").write_text(format_automaton(a))
    wide = random_ranked_game(Random(39), 40, range(6))
    (tmp_path / "wide.aut").write_text(format_arena(wide, MaxEvenParity(0)))
    commands = [["k-explorable", "-k", "2", "cob3"],
                ["k-explorable", "-k", "3", "--witness", "{w}", "cob3"],
                ["k-explorable", "-k", "3", "--witness", "{w}", "--monitor",
                 str(tmp_path / "monitor.aut"), "shifted"],
                ["explorable", "--max-k", "3", "--witness", "{w}", "ak3"],
                ["omega-explorable", "fig4"],
                ["hd", "--via-g2", "--witness-k", "2", "cob3"],
                ["hd", "--exact", "cob3"],
                ["solve-game", "wide"]]

    def run_all(tag):
        out = []
        for i, command in enumerate(commands):
            witness = tmp_path / f"{tag}-{i}.json"
            argv = [str(witness) if arg == "{w}" else arg for arg in command]
            argv[-1] = str(tmp_path / f"{argv[-1]}.aut")
            code = cli.main(argv)
            out.append((code, capsys.readouterr().out,
                        witness.read_text() if witness.exists() else None))
        return out

    tracer_module = load_tracer()
    probes = [(importlib.import_module(m), attr)
              for m, attr, *_ in tracer_module.PROBES + tracer_module.COUNT_PROBES]
    originals = [getattr(module, attr) for module, attr in probes]
    plain = run_all("plain")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        traced = run_all("traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert [code for code, _, _ in plain] == [0, 0, 0, 0, 0, 1, 1, 0]
    assert '"winning_region_1": [' in plain[7][1]
    names = {span[0] for span in tracer.spans}
    assert "explora.games.solve_parity" in names
    assert "explora.games.verify_strategy" not in names
    assert all(plain[i][2] is not None for i in (1, 2, 3))
    assert tracer.counts["omega.elim_positions"] > 0
    assert tracer.counts["hdgames.token_positions"] > 0
    assert all(getattr(module, attr) is original
               for (module, attr), original in zip(probes, originals))
