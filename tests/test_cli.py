import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from explora import cli
from explora.cli import main
from explora.generators import format_atm, gen_ak, gen_c, gen_fig4
from explora.textio import format_automaton, parse_automaton

from conftest import ATM_CORPUS


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_k_explorable_exit_codes(tmp_path):
    a2 = write(tmp_path, "a2.aut", format_automaton(gen_ak(2)))
    assert main(["k-explorable", "-k", "2", a2]) == 0
    assert main(["k-explorable", "-k", "1", a2]) == 1


def test_explorable_inconclusive_exit_code(tmp_path, capsys):
    c = write(tmp_path, "c.aut", format_automaton(gen_c()))
    assert main(["--json", "explorable", "--max-k", "4", c]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["verdict"] == "not-explorable-up-to: 4"
    assert payload["channel_budget"] == 5
    assert payload["lasso_bound"] == 6
    assert "timings_ms" in payload


def test_explorable_positive_with_witness(tmp_path, capsys):
    a2 = write(tmp_path, "a2.aut", format_automaton(gen_ak(2)))
    out = str(tmp_path / "witness.json")
    assert main(["--json", "explorable", "--max-k", "3", "--witness", out, a2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["witness_k"] == 2
    moves = json.loads((tmp_path / "witness.json").read_text())
    assert moves


def test_omega_explorable_exit_codes(tmp_path):
    left = write(tmp_path, "l.aut", format_automaton(gen_fig4("left")))
    right = write(tmp_path, "r.aut", format_automaton(gen_fig4("right")))
    assert main(["omega-explorable", left]) == 0
    assert main(["omega-explorable", right]) == 1


def test_omega_unknown_emits_reduction(tmp_path):
    text = """automaton p
alphabet: a b
states: 1
initial: 0
condition: parity 1 4
t 0 a 0 2
t 0 b 0 3
"""
    p = write(tmp_path, "p.aut", text)
    out = str(tmp_path / "reduced.aut")
    assert main(["omega-explorable", "--emit-reduction", out, p]) == 2
    reduced = parse_automaton((tmp_path / "reduced.aut").read_text())
    assert reduced.condition == "buchi"


def test_hd_subcommand(tmp_path):
    c = write(tmp_path, "c.aut", format_automaton(gen_c()))
    assert main(["hd", "--exact", c]) == 1
    det = """automaton d
alphabet: a
states: 1
initial: 0
condition: buchi
t 0 a 0 2
"""
    d = write(tmp_path, "d.aut", det)
    assert main(["hd", "--exact", d]) == 0
    assert main(["hd", "--via-g2", "--witness-k", "1", d]) == 0


@pytest.mark.parametrize("flags", [["--witness-k", "2"], ["--unchecked"],
                                   ["--exact", "--witness-k", "1"]],
                         ids=["witness-k", "unchecked", "exact-witness-k"])
def test_hd_token_game_flags_need_via_g2(tmp_path, capsys, flags):
    c = write(tmp_path, "c.aut", format_automaton(gen_c()))
    assert main(["hd", *flags, c]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "--via-g2" in out.err


# nondeterministic coBuchi: 0 -a-> 0 or 1
NONDET_COBUCHI = """automaton cob
alphabet: a b
states: 2
initial: 0
condition: cobuchi
t 0 a 0 0
t 0 a 1 1
t 0 b 0 1
t 1 a 1 0
t 1 b 0 0
"""


@pytest.mark.parametrize("command", [
    ["k-explorable", "-k", "4"], ["explorable", "--max-k", "2"], ["hd", "--exact"],
], ids=["k-explorable", "explorable", "hd-exact"])
@pytest.mark.parametrize("condition", ["finite", "cobuchi"])
def test_monitor_refused_where_explora_builds_it(tmp_path, capsys, command, condition):
    text = format_automaton(gen_ak(2)) if condition == "finite" else NONDET_COBUCHI
    x = write(tmp_path, "x.aut", text)
    assert main([*command, "--monitor", x, x]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and f"{condition} automaton" in out.err
    assert "explora builds its monitor" in out.err


def test_pcp_pipeline(tmp_path):
    a2 = write(tmp_path, "a2.aut", format_automaton(gen_ak(2)))
    pcp = str(tmp_path / "a2.pcp")
    assert main(["pcp-reduce", a2, "-o", pcp]) == 0
    assert main(["population", "-k", "2", pcp]) == 0
    assert main(["population", "-k", "1", pcp]) == 1
    nfa_out = str(tmp_path / "prod.aut")
    assert main(["pcp-to-nfa", pcp, "-o", nfa_out]) == 0
    product = parse_automaton((tmp_path / "prod.aut").read_text())
    assert product.condition == "finite"


def test_generate_and_construct(tmp_path):
    out = str(tmp_path / "gen.aut")
    assert main(["generate", "ak", "-k", "2", "-o", out]) == 0
    assert parse_automaton((tmp_path / "gen.aut").read_text()) == gen_ak(2)
    assert main(["generate", "fig4", "left", "-o", out]) == 0
    assert main(["construct", "cond02", "-k", "2", "-o", out]) == 0
    cond = parse_automaton((tmp_path / "gen.aut").read_text())
    assert cond.num_states == 4

    power_out = str(tmp_path / "sq.aut")
    a2 = write(tmp_path, "a2.aut", format_automaton(gen_ak(2)))
    assert main(["construct", "power", "-k", "2", a2, "-o", power_out]) == 0

    name, machine, word, _ = ATM_CORPUS[0]
    atm_path = write(tmp_path, "m.atm", format_atm(machine))
    assert main(["generate", "atm", atm_path, word, "-o", out]) == 0
    reduced = parse_automaton((tmp_path / "gen.aut").read_text())
    assert reduced.condition == "safety"


def test_solve_game(tmp_path, capsys):
    text = """arena
positions: 2
initial: 0
channels: 2
range: 0 1 2
range: 1 1 2
owner: 0 0
e 0 1 2 1
e 1 0 1 2
objective: or p0 p1
"""
    arena = write(tmp_path, "g.arena", text)
    assert main(["solve-game", arena]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["winning_region_0"] == [0, 1]
    assert payload["initial_winner"] == 0


def test_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.aut", "automaton x\nalphabet a\n")
    assert main(["k-explorable", "-k", "1", bad]) == 3
    assert "expected" in capsys.readouterr().err


HEAD = "automaton x\nalphabet: a b\nstates: 2\ninitial: 0\n"


@pytest.mark.parametrize("command, text, line", [
    # transition target outside the 2 states
    (["k-explorable", "-k", "1"], HEAD + "condition: finite\nt 0 a 7\n", 6),
    # letter outside the alphabet
    (["omega-explorable"], HEAD + "condition: safety\nt 0 a 1 1\nt 1 c 0 1\n", 7),
    # rank outside the Buchi range [1, 2]
    (["hd"], HEAD + "condition: buchi\nt 0 a 1 9\n", 6),
    # rank outside a declared channel range
    (["construct", "flatten"],
     HEAD + "channels: 2\nrange: 0 1 2\nrange: 1 1 2\nt 0 a 1 1 3\n", 8),
    # initial state and accepting state outside the 2 states
    (["k-explorable", "-k", "1"],
     HEAD.replace("initial: 0", "initial: 2") + "condition: finite\n", 4),
    (["k-explorable", "-k", "1"],
     HEAD + "condition: finite\naccepting: 0 2\nt 0 a 1\n", 6),
    # a letter listed twice, and empty parity and channel ranges
    (["k-explorable", "-k", "1"],
     HEAD.replace("alphabet: a b", "alphabet: a a") + "condition: finite\n", 2),
    (["k-explorable", "-k", "1"], HEAD + "condition: parity 3 1\n", 5),
    (["construct", "flatten"], HEAD + "channels: 1\nrange: 0 2 1\n", 6),
    # the i-th range line names channel i
    (["construct", "flatten"], HEAD + "channels: 2\nrange: 7 0 1\nrange: 7 1 2\n", 6),
    (["construct", "flatten"], HEAD + "channels: 2\nrange: 0 0 1\nrange: 0 1 2\n", 7),
], ids=["state", "letter", "buchi-rank", "channel-rank", "initial", "accepting",
        "duplicate-letter", "empty-parity-range", "empty-channel-range",
        "channel-number", "channel-repeated"])
def test_malformed_automaton_is_parse_error(tmp_path, capsys, command, text, line):
    p = write(tmp_path, "bad.aut", text)
    assert main(command + [p]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{p}:{line}: expected" in out.err


MULTI = HEAD + "channels: 2\nrange: 0 1 2\nrange: 1 1 2\n" + "".join(
    f"t {q} {x} {q} 1 2\n" for q in (0, 1) for x in "ab")


@pytest.mark.parametrize("command", [
    ["omega-explorable"],
    ["hd", "--via-g2", "--unchecked"],
    ["pcp-reduce"],
    ["construct", "to13"],
    ["construct", "power", "-k", "2"],
    # a monitor is a single-channel automaton, whatever its source is
    ["k-explorable", "-k", "1", "--monitor", "{x}"],
], ids=["omega-explorable", "hd-via-g2", "pcp-reduce", "to13", "power", "monitor"])
def test_multi_channel_file_for_single_channel_command(tmp_path, capsys, command):
    p = write(tmp_path, "multi.aut", MULTI)
    assert main([p if arg == "{x}" else arg for arg in command + ["{x}"]]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{p}:1: expected a single-channel automaton" in out.err


PCP_BODY = "alphabet: a b\nstates: 2\ninitial: 0\n"


@pytest.mark.parametrize("command, text, line", [
    # population instances have finite acceptance
    (["population", "-k", "1"],
     "# target: 1\nautomaton x\n" + PCP_BODY + "condition: cobuchi\nt 0 a 1 0\n", 6),
    (["pcp-to-nfa"],
     "# target: 1\nautomaton x\n" + PCP_BODY + "condition: cobuchi\nt 0 a 1 0\n", 6),
    # target outside the 2 states, or not an integer
    (["population", "-k", "1"],
     "automaton x\n" + PCP_BODY + "condition: finite\n# target: 7\nt 0 a 1\n", 6),
    (["population", "-k", "1"],
     "automaton x\n" + PCP_BODY + "condition: finite\nt 0 a 1\n# target: one\n", 7),
], ids=["cobuchi-population", "cobuchi-pcp-to-nfa", "target-range", "target-int"])
def test_malformed_pcp_is_parse_error(tmp_path, capsys, command, text, line):
    p = write(tmp_path, "bad.pcp", text)
    assert main(command + [p]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{p}:{line}: expected" in out.err


def test_arena_edge_out_of_range_is_parse_error(tmp_path, capsys):
    text = """arena
positions: 2
initial: 0
channels: 1
range: 0 0 1
owner: 0 1
e 0 1 0
e 5 0 1
objective: p0
"""
    arena = write(tmp_path, "bad.arena", text)
    assert main(["solve-game", arena]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{arena}:8: expected" in out.err


ARENA_BODY = """arena
positions: 2
initial: 0
channels: 1
range: 0 0 1
owner: 0 1
e 0 1 0
e 1 0 1
objective: p0
"""


@pytest.mark.parametrize("old, new, line", [
    ("e 1 0 1\n", "e 1 0 5\n", 8),
    ("objective: p0", "objective: and p0", 9),
    ("objective: p0", "objective: p3", 9),
    ("initial: 0", "initial: 2", 3),
    ("e 1 0 1\n", "", 9),
    ("objective: p0\n", "", 9),
    ("objective: p0", "objective: " + "not " * 2000 + "p0", 9),
], ids=["rank-outside-range", "objective-syntax", "objective-channel",
        "initial-outside", "no-edge-out", "no-objective", "objective-too-deep"])
def test_arena_error_reported_at_its_line(tmp_path, capsys, old, new, line):
    arena = write(tmp_path, "bad.arena", ARENA_BODY.replace(old, new))
    assert main(["solve-game", arena]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{arena}:{line}: expected" in out.err


ARENA_HEAD = "arena\npositions: 2\ninitial: 0\n"
ARENA_TAIL = "owner: 0 1\ne 0 1 0 1\ne 1 0 1 1\nobjective: or p0 p1\n"


@pytest.mark.parametrize("ranges, line", [
    # the i-th range line names channel i, with lo <= hi
    ("range: 7 0 1\nrange: 7 1 2\n", 5),
    ("range: 0 0 1\nrange: 0 1 2\n", 6),
    ("range: 0 0 1\nrange: 1 2 1\n", 6),
], ids=["channel-number", "channel-repeated", "empty-range"])
def test_arena_range_line_is_parse_error(tmp_path, capsys, ranges, line):
    arena = write(tmp_path, "bad.arena", ARENA_HEAD + "channels: 2\n" + ranges + ARENA_TAIL)
    assert main(["solve-game", arena]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{arena}:{line}: expected" in out.err


def test_missing_monitor_is_usage_error(tmp_path, capsys):
    text = """automaton nb
alphabet: a
states: 2
initial: 0
condition: buchi
t 0 a 0 1
t 0 a 1 2
t 1 a 1 1
"""
    p = write(tmp_path, "nb.aut", text)
    assert main(["k-explorable", "-k", "1", p]) == 3
    assert "monitor" in capsys.readouterr().err


def test_bad_usage_exit_code():
    assert main(["no-such-command"]) == 3


def test_env_knobs_surface_in_json(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EXPLORE_CHANNEL_BUDGET", "7")
    monkeypatch.setenv("EXPLORE_LASSO_BOUND", "4")
    a2 = write(tmp_path, "a2.aut", format_automaton(gen_ak(2)))
    assert main(["--json", "k-explorable", "-k", "2", a2]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["channel_budget"] == 7
    assert payload["lasso_bound"] == 4


DET = "automaton d\nalphabet: a\nstates: 1\ninitial: 0\ncondition: buchi\nt 0 a 0 2\n"

# One sequence of calls, with and without optional flags, mixing verdicts with
# usage errors, a parse error and help; "{w}" is a fresh witness file path.
REUSE_CALLS = [
    (["k-explorable", "-k", "2", "--witness", "{w}", "{a2}"], 0),
    (["k-explorable", "-k", "2", "{a2}"], 0),
    (["hd", "--via-g2", "--witness-k", "1", "{d}"], 0),
    (["hd", "{d}"], 0),
    (["hd", "--via-g2", "--witness-k", "1", "{c}"], 3),
    (["hd", "{c}"], 1),
    (["--json", "explorable", "--max-k", "3", "--witness", "{w}", "{a2}"], 0),
    (["explorable", "--max-k", "3", "{a2}"], 0),
    (["--json", "hd", "--exact", "{c}"], 1),
    (["hd", "--exact", "{c}"], 1),
    (["k-explorable", "{a2}"], 3),
    (["hd", "--witness-k", "1", "{d}"], 3),
    (["k-explorable", "-k", "1", "{bad}"], 3),
    (["--help"], 0),
    (["hd", "--help"], 0),
    (["--help"], 0),
    (["--json", "k-explorable", "-k", "1", "{a2}"], 1),
]


def _run_calls(inputs, outdir, capsys):
    """Exit code, stdout (JSON `timings_ms` dropped), stderr and the files
    each call of REUSE_CALLS writes."""
    outdir.mkdir()
    seen = []
    for i, (argv, _) in enumerate(REUSE_CALLS):
        argv = [str(outdir / f"w{i}.json") if arg == "{w}" else inputs.get(arg, arg)
                for arg in argv]
        code = main(argv)
        out, err = capsys.readouterr()
        lines = []
        for line in out.splitlines():
            if line.startswith("{"):
                payload = json.loads(line)
                payload.pop("timings_ms")
                line = json.dumps(payload)
            lines.append(line)
        files = {}
        for path in sorted(outdir.iterdir()):
            files[path.name] = path.read_text()
            path.unlink()
        seen.append((code, lines, err, files))
    return seen


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    inputs = {
        "{a2}": write(tmp_path, "a2.aut", format_automaton(gen_ak(2))),
        "{c}": write(tmp_path, "c.aut", format_automaton(gen_c())),
        "{d}": write(tmp_path, "d.aut", DET),
        "{bad}": write(tmp_path, "bad.aut", "automaton x\nalphabet a\n"),
    }
    reused = _run_calls(inputs, tmp_path / "reused", capsys)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _run_calls(inputs, tmp_path / "fresh", capsys)
    assert [code for code, *_ in reused] == [code for _, code in REUSE_CALLS]
    # only the calls with --witness write a file
    assert [sorted(files) for *_, files in reused[:2]] == [["w0.json"], []]
    assert reused[13] == reused[15]
    for call, got, want in zip(REUSE_CALLS, reused, fresh):
        assert got == want, call


def test_main_builds_its_parser_once(tmp_path):
    a2 = write(tmp_path, "a2.aut", format_automaton(gen_ak(2)))
    cli.build_parser.cache_clear()
    assert main(["k-explorable", "-k", "2", a2]) == 0
    assert main(["k-explorable", "-k", "1", a2]) == 1
    assert main(["no-such-command"]) == 3
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_import_builds_no_parser():
    script = "import explora.cli as c; print(c.build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
