"""The exit-code contract of `cli.main` under mutated input files.

Each example takes a small valid input, drops, duplicates or garbles some of
its lines or puts a number out of range, and runs a command on it.  Whatever
the text, the exit code is one of 0-3, no exception escapes, and a run that
exits 3 (usage or parse error) prints no verdict; for a machine file, its
message starts with the file and line.  Mutated lasso text makes
`parse_lasso` raise `ParseError` or nothing.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from explora.automata import Automaton
from explora.cli import _format_pcp, main
from explora.constructions import union_power
from explora.errors import ParseError
from explora.explorability import pcp_reduce
from explora.generators import format_atm, gen_ak, gen_bk, gen_fig4
from explora.textio import format_automaton, format_lasso, parse_lasso

from conftest import ATM_CORPUS

COBUCHI = Automaton.build("cob", "ab", 2, 0, "cobuchi",
                          [(0, "a", 0, 0), (0, "a", 1, 1), (0, "b", 0, 1),
                           (1, "a", 1, 0), (1, "b", 0, 0)])
BUCHI = Automaton.build("b", "ab", 1, 0, "buchi", [(0, "a", 0, 2), (0, "b", 0, 1)])
# infinitely many a's: a nondeterministic automaton ("{b}", never mutated) and
# a deterministic monitor for it, the mutated input of the --monitor seed
NONDET_BUCHI = Automaton.build("nb", "ab", 2, 0, "buchi",
                               [(0, "a", 0, 2), (0, "a", 1, 2), (0, "b", 0, 1),
                                (1, "a", 1, 2), (1, "b", 0, 1)])
MONITOR = Automaton.build("m", "ab", 2, 0, "buchi",
                          [(0, "a", 1, 2), (0, "b", 0, 1), (1, "a", 1, 2), (1, "b", 0, 1)])
ARENA = """arena
positions: 3
initial: 0
channels: 2
range: 0 1 2
range: 1 0 3
owner: 0 1 0
e 0 1 2 1
e 0 2 1 3
e 1 0 1 0
e 2 2 2 2
objective: or p0 not p1
"""

# (input text, commands run on it; "{x}" is the input file, "{b}" a file
# holding NONDET_BUCHI)
SEEDS = [
    (format_automaton(gen_ak(2)),
     [["k-explorable", "-k", "2", "{x}"], ["explorable", "--max-k", "2", "{x}"],
      ["pcp-reduce", "{x}"], ["hd", "--exact", "{x}"]]),
    (format_automaton(COBUCHI),
     [["k-explorable", "-k", "2", "{x}"], ["omega-explorable", "{x}"],
      ["hd", "--via-g2", "--witness-k", "2", "{x}"], ["construct", "to13", "{x}"]]),
    (format_automaton(gen_fig4("left")), [["omega-explorable", "{x}"]]),
    (format_automaton(union_power(BUCHI, 2)),
     [["k-explorable", "-k", "1", "{x}"], ["construct", "flatten", "{x}"]]),
    (_format_pcp(pcp_reduce(gen_bk(1))),
     [["population", "-k", "2", "{x}"], ["pcp-to-nfa", "{x}"]]),
    (ARENA, [["solve-game", "{x}"]]),
    (format_atm(ATM_CORPUS[0][1]), [["generate", "atm", "{x}", "0"]]),
    (format_automaton(MONITOR),
     [["k-explorable", "-k", "1", "--monitor", "{x}", "{b}"],
      ["hd", "--exact", "--monitor", "{x}", "{b}"]]),
]

# In and out of range for state ids, ranks, channel and position counts, plus
# two non-integers; small enough that a file they leave valid still solves in
# milliseconds.
NUMBERS = ["-1", "0", "1", "2", "3", "5", "9", "17", "x", "1.5"]
JUNK = st.text(alphabet="atpe: #01-9()\t", max_size=12)


@st.composite
def mutated(draw, seeds=SEEDS):
    """A seed input with one to three line mutations, and a command for it."""
    text, commands = draw(st.sampled_from(seeds))
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["drop", "duplicate", "garble", "number"]))
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "garble":
            words = lines[i].split() or [""]
            j = draw(st.integers(0, len(words) - 1))
            words[j] = draw(JUNK)
            lines[i] = " ".join(words)
        else:
            words = lines[i].split()
            spots = [j for j, w in enumerate(words) if w.lstrip("-").isdigit()]
            if spots:
                words[draw(st.sampled_from(spots))] = draw(st.sampled_from(NUMBERS))
                lines[i] = " ".join(words)
    return "\n".join(lines) + "\n", draw(st.sampled_from(commands))


def _run(text, command):
    """(exit code, stdout, stderr, input path) of `command` on `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text)
        buchi = Path(tmp) / "buchi.txt"
        buchi.write_text(format_automaton(NONDET_BUCHI))
        files = {"{x}": str(path), "{b}": str(buchi)}
        argv = [files.get(arg, arg) for arg in command]
        if argv[0] in ("pcp-reduce", "pcp-to-nfa", "generate", "construct"):
            argv += ["-o", str(Path(tmp) / "out.txt")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue(), err.getvalue(), str(path)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_inputs_keep_the_exit_code_contract(case):
    text, command = case
    code, out, err, _ = _run(text, command)
    assert code in (0, 1, 2, 3), (code, text, command)
    if code == 3:
        assert out == "", (text, command, out)
        assert err.startswith("error: "), (text, command, err)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(mutated([s for s in SEEDS if s[1][0][:2] == ["generate", "atm"]]))
def test_mutated_machine_files_name_file_and_line(case):
    text, command = case
    code, _, err, path = _run(text, command)
    assert code in (0, 3), (code, text)
    if code == 3:
        assert err.startswith(f"error: {path}:"), (text, err)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(["drop", "duplicate", "insert"]),
                          st.integers(0, 20), st.sampled_from("ab() \t\n")),
                max_size=4))
def test_mutated_lasso_text_raises_only_parse_errors(edits):
    chars = list("ab(ba)")
    for kind, i, c in edits:
        i %= len(chars) + 1
        if kind == "drop" and i < len(chars):
            del chars[i]
        elif kind == "duplicate" and i < len(chars):
            chars.insert(i, chars[i])
        else:
            chars.insert(i, c)
    text = "".join(chars)
    try:
        w = parse_lasso(text, "lasso")
    except ParseError as e:
        assert str(e).startswith("lasso:1: expected"), e
    else:
        assert w.period and parse_lasso(format_lasso(w)) == w
