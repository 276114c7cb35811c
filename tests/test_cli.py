import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from explora import cli
from explora.automata import MultiAutomaton
from explora.cli import main
from explora.constructions import power_channels
from explora.generators import gen_ak, gen_c, gen_fig4
from explora.textio import format_atm, format_automaton, parse_automaton

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


@pytest.mark.parametrize("flags, named", [
    (["--witness-k", "2"], ["--via-g2"]),
    (["--unchecked"], ["--via-g2"]),
    (["--exact", "--witness-k", "1"], ["--via-g2"]),
    (["--via-g2", "--unchecked", "--witness-k", "0"], ["--unchecked", "--witness-k"]),
    # a finite-word file, which no re-check reads
    (["--via-g2", "--unchecked", "--monitor", "c.aut"], ["--unchecked", "--monitor"]),
], ids=["witness-k", "unchecked", "exact-witness-k", "unchecked-witness-k",
        "unchecked-monitor"])
def test_hd_token_game_flags_need_via_g2(tmp_path, capsys, flags, named):
    c = write(tmp_path, "c.aut", format_automaton(gen_c()))
    flags = [c if flag == "c.aut" else flag for flag in flags]
    assert main(["hd", *flags, c]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and "--via-g2" in out.err
    assert all(flag in out.err for flag in named)


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


ARTIFACT_COMMANDS = [["generate", "ak", "-k", "3"], ["pcp-reduce", "a2.aut"],
                     ["pcp-to-nfa", "a2.pcp"], ["construct", "to13", "p14.aut"],
                     ["construct", "power", "-k", "2", "a2.aut"],
                     ["construct", "cond02", "-k", "2"]]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", ARTIFACT_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_artifact_on_stdout_alone(tmp_path, capsys, monkeypatch, argv, flags):
    # with -o - (the default) stdout holds what -o FILE writes, and the
    # verdict line or JSON report goes to stderr
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "a2.aut", format_automaton(gen_ak(2)))
    write(tmp_path, "p14.aut", "automaton p\nalphabet: a b\nstates: 1\ninitial: 0\n"
                               "condition: parity 1 4\nt 0 a 0 2\nt 0 b 0 3\n")
    assert main(["pcp-reduce", "a2.aut", "-o", "a2.pcp"]) == 0
    capsys.readouterr()
    assert main([*flags, *argv, "-o", "file.out"]) == 0
    to_file = capsys.readouterr()
    assert to_file.err == ""
    assert main([*flags, *argv]) == 0
    to_stdout = capsys.readouterr()
    assert to_stdout.out == (tmp_path / "file.out").read_text()
    if flags:
        reports = [json.loads(text) for text in (to_file.out, to_stdout.err)]
        for report in reports:
            del report["timings_ms"]
        assert reports[0] == reports[1]
    else:
        assert to_stdout.err == to_file.out


def test_generated_file_on_stdout_is_read_back(tmp_path, capsys, monkeypatch):
    # explora generate ak -k 3 > a3.aut; explora explorable --max-k 3 a3.aut
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "ak", "-k", "3"]) == 0
    write(tmp_path, "a3.aut", capsys.readouterr().out)
    assert main(["explorable", "--max-k", "3", "a3.aut"]) == 0
    assert capsys.readouterr().out == "explorable-with: 3\n"
    assert main(["pcp-reduce", "a3.aut"]) == 0
    write(tmp_path, "a3.pcp", capsys.readouterr().out)
    assert main(["population", "-k", "3", "a3.pcp"]) == 0
    assert capsys.readouterr().out == "determiniser-wins: True\n"
    write(tmp_path, "p14.aut", "automaton p\nalphabet: a b\nstates: 1\ninitial: 0\n"
                               "condition: parity 1 4\nt 0 a 0 2\nt 0 b 0 3\n")
    assert main(["omega-explorable", "--emit-reduction", "-", "p14.aut"]) == 2
    reduction = capsys.readouterr()
    assert reduction.err == "unknown (Buchi reduction available)\n"
    write(tmp_path, "buchi.aut", reduction.out)
    assert main(["omega-explorable", "buchi.aut"]) == 2


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


def test_solve_game_json_report(tmp_path, capsys, monkeypatch):
    # the standard report plus the regions; without --json, the regions alone
    monkeypatch.delenv("EXPLORE_CHANNEL_BUDGET", raising=False)
    monkeypatch.delenv("EXPLORE_LASSO_BOUND", raising=False)
    arena = write(tmp_path, "g.arena", "arena\npositions: 2\ninitial: 0\nchannels: 1\n"
                                       "range: 0 0 1\nowner: 0 1\ne 0 1 0\ne 1 1 1\n"
                                       "objective: p0\n")
    assert main(["solve-game", arena]) == 1
    regions = ('"objective": "p0", "winning_region_0": [], '
               '"winning_region_1": [0, 1], "initial_winner": 1')
    assert capsys.readouterr().out == '{"schema": 1, ' + regions + '}\n'
    assert main(["--json", "solve-game", arena]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload.pop("timings_ms") >= 0
    assert json.dumps(payload) == (
        f'{{"schema": 1, "command": "solve-game", "input": "{arena}", '
        '"verdict": "initial-winner: 1", "channel_budget": 5, "lasso_bound": 6, '
        + regions + '}')


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
    # a monitor is a single-channel automaton, whatever its source is
    ["k-explorable", "-k", "1", "--monitor", "{x}"],
], ids=["omega-explorable", "hd-via-g2", "pcp-reduce", "to13", "monitor"])
def test_multi_channel_file_for_single_channel_command(tmp_path, capsys, command):
    p = write(tmp_path, "multi.aut", MULTI)
    assert main([p if arg == "{x}" else arg for arg in command + ["{x}"]]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert f"{p}:1: expected a single-channel automaton" in out.err


@pytest.mark.parametrize("k", [1, 2])
def test_construct_power_of_multi_channel_file(tmp_path, capsys, k):
    p = write(tmp_path, "multi.aut", MULTI)
    out = tmp_path / "power.aut"
    assert main(["construct", "power", "-k", str(k), p, "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    power = parse_automaton(out.read_text())
    assert isinstance(power, MultiAutomaton)
    # one channel per copy and channel; power_channels adds one for a monitor
    assert 1 + len(power.channels) == power_channels(parse_automaton(MULTI), k)


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


@pytest.mark.parametrize("name, value, message", [
    ("EXPLORE_LASSO_BOUND", "0", "EXPLORE_LASSO_BOUND must be at least 1, got 0"),
    ("EXPLORE_LASSO_BOUND", "-3", "EXPLORE_LASSO_BOUND must be at least 1, got -3"),
    ("EXPLORE_LASSO_BOUND", "abc", "EXPLORE_LASSO_BOUND must be an integer, got 'abc'"),
    ("EXPLORE_CHANNEL_BUDGET", "abc", "EXPLORE_CHANNEL_BUDGET must be an integer, got 'abc'"),
    ("EXPLORE_CHANNEL_BUDGET", "0", "EXPLORE_CHANNEL_BUDGET must be at least 2, got 0"),
    ("EXPLORE_CHANNEL_BUDGET", "-3", "EXPLORE_CHANNEL_BUDGET must be at least 2, got -3"),
], ids=["lasso-bound-0", "lasso-bound-negative", "lasso-bound-abc", "channel-budget-abc",
        "channel-budget-0", "channel-budget-negative"])
@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_broken_knob_is_refused(tmp_path, capsys, monkeypatch, name, value, message, flags):
    # a deterministic Buchi input monitors itself: the lasso oracle checks it,
    # and its game on token tuples counts channels against the budget
    monkeypatch.setenv(name, value)
    d = write(tmp_path, "d.aut", DET)
    witness = tmp_path / "w.json"
    assert main([*flags, "k-explorable", "-k", "1", "--witness", str(witness), d]) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"
    assert not witness.exists()


README = Path(__file__).resolve().parents[1] / "README.md"

# the --json keys README's CLI section names
JSON_KEYS = {"schema", "command", "input", "verdict", "timings_ms", "channel_budget",
             "lasso_bound", "witness_k", "target", "objective", "winning_region_0",
             "winning_region_1", "initial_winner"}


def _readme_cli_lines():
    """The `explora ...` lines of README's CLI block, as argument lists, each
    with the exit code its comment names, or None."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = []
    for line in block.splitlines():
        if line.startswith("explora "):
            command, _, comment = line.partition("#")
            words = comment.split()
            code = int(words[1].rstrip(",")) if words[:1] == ["exit"] else None
            lines.append((command.split()[1:], code))
    return lines


def _commands(parser, prefix=()):
    """Every command the parser knows, with its subcommand: "generate ak"."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield " ".join(prefix)


def test_readme_cli_lines_parse():
    lines = _readme_cli_lines()
    assert len(lines) == 17
    for argv, _ in lines:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: explora {' '.join(argv)}")


def test_json_keys_stay_within_readme(tmp_path, capsys, monkeypatch):
    # README's CLI block as a script, each line with --json, plus the two
    # commands it leaves out
    monkeypatch.chdir(tmp_path)
    parity = "automaton p\nalphabet: a b\nstates: 1\ninitial: 0\ncondition: parity {}\n" \
             "t 0 a 0 {}\nt 0 b 0 {}\n"
    write(tmp_path, "det.aut", DET)
    write(tmp_path, "p14.aut", parity.format("1 4", 2, 3))
    write(tmp_path, "d02.aut", parity.format("0 2", 0, 1))
    write(tmp_path, "machine.atm", format_atm(ATM_CORPUS[0][1]))
    write(tmp_path, "arena.txt", "arena\npositions: 1\ninitial: 0\nchannels: 1\n"
                                 "range: 0 0 1\nowner: 0\ne 0 0 0\nobjective: p0\n")
    calls = _readme_cli_lines() + [
        (["generate", "bk", "-k", "2", "-o", "b2.aut"], 0),
        (["construct", "power", "-k", "2", "det.aut", "-o", "detsq.aut"], 0),
        (["construct", "flatten", "detsq.aut", "-o", "flat.aut"], 0)]
    seen = set()
    for argv, want in calls:
        code = main(["--json", *argv])
        assert code != 3 and want in (None, code), argv
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) <= JSON_KEYS, argv
        seen.add(payload["command"])
    assert seen == set(_commands(cli.build_parser()))
