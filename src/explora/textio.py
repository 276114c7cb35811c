"""Every file format explora reads or writes: each parser raises `ParseError`
with the file and line of the first malformed line.

Automaton files::

    # optional comments
    automaton <name>
    alphabet: <letters, space separated>
    states: <n>
    initial: <id>
    condition: finite|safety|reachability|buchi|cobuchi|parity <lo> <hi>
    accepting: <ids>            # finite mode only
    t <src> <letter> <dst> <rank>   # rank omitted in finite mode

Multi-channel files replace the condition line with ``channels: <k>`` plus one
``range: <channel> <lo> <hi>`` line per channel; transitions then carry k
ranks.

Arena files (``solve-game``) hold an ``arena`` header, ``positions: <n>``,
``initial: <id>``, ``channels: <k>`` with its ``range:`` lines, ``owner:`` and
one bit per position, ``e <src> <dst>`` lines plus k ranks, and one
``objective:`` line.  Objectives are written in prefix notation: ``p<channel>``,
``not E``, ``and E E``, ``or E E``.

Alternating-machine files hold an ``atm`` header, ``states:``, an optional
``initial:`` (default 0), ``existential:``, ``accepting:``, ``space:`` and
``t <q> <read> <q'> <write> <L|R>`` lines.

A population instance is a finite-acceptance automaton file whose target
state is named by a ``# target: <id>`` comment line.

A witness file is a JSON object that maps each position of a winning
strategy, written with `str`, to its move, written the same way.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .automata import (TAG_RANGE, Automaton, MultiAutomaton, MultiTransition,
                       Transition)
from .errors import ParseError
from .explorability import PCPInstance
from .games import (And, Arena, MaxEvenParity, Not, Objective, Or, Strategy,
                    max_channel)
from .generators import ATM


def _logical_lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


class _Reader:
    def __init__(self, text: str, source: str):
        self.lines = list(_logical_lines(text))
        self.pos = 0
        self.source = source

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    @property
    def end(self) -> int:
        """The line number just past the last line with content."""
        return self.lines[-1][0] + 1 if self.lines else 1

    def next(self, expected: str):
        if self.pos >= len(self.lines):
            raise ParseError(self.source, self.end, expected)
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def keyword_line(self, key: str):
        no, line = self.next(f"'{key}: ...' line")
        if not line.startswith(key + ":"):
            raise ParseError(self.source, no, f"'{key}: ...' line, got {line!r}")
        return no, line[len(key) + 1:].split()

    def int_field(self, key: str, lo: Optional[int] = None,
                  hi: Optional[int] = None) -> int:
        """One integer, at least `lo` and at most `hi` when they are given."""
        no, parts = self.keyword_line(key)
        if len(parts) != 1 or not _is_int(parts[0]):
            raise ParseError(self.source, no, f"one integer after '{key}:'")
        value = int(parts[0])
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            bounds = f"at least {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise ParseError(self.source, no, f"'{key}:' {bounds}, got {value}")
        return value

    def state_ids(self, key: str, num_states: int):
        """Line number and set of the state ids in [0, num_states) after ``key:``."""
        no, parts = self.keyword_line(key)
        if not all(_is_int(p) and 0 <= int(p) < num_states for p in parts):
            raise ParseError(self.source, no, f"state ids in [0, {num_states - 1}] "
                                              f"after '{key}:'")
        return no, frozenset(int(p) for p in parts)

    def channel_ranges(self, k: int) -> list[tuple[int, int]]:
        """k ``range: <channel> <lo> <hi>`` lines, the i-th naming channel i,
        each with lo <= hi."""
        ranges = []
        for c in range(k):
            no, parts = self.keyword_line("range")
            if (len(parts) != 3 or not all(_is_int(p) for p in parts)
                    or int(parts[0]) != c or int(parts[1]) > int(parts[2])):
                raise ParseError(self.source, no, f"'range: {c} <lo> <hi>' with lo <= hi")
            ranges.append((int(parts[1]), int(parts[2])))
        return ranges


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


def parse_automaton(text: str, source: str = "<string>") -> Union[Automaton, MultiAutomaton]:
    r = _Reader(text, source)
    no, header = r.next("'automaton <name>' header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "automaton":
        raise ParseError(source, no, f"'automaton <name>' header, got {header!r}")
    name = parts[1]
    no, alphabet = r.keyword_line("alphabet")
    if not alphabet or len(set(alphabet)) != len(alphabet):
        raise ParseError(source, no, "at least one letter, all distinct, after 'alphabet:'")
    num_states = r.int_field("states", 1)
    initial = r.int_field("initial", 0, num_states - 1)

    item = r.peek()
    if item is not None and item[1].startswith("channels:"):
        return _parse_multi_body(r, name, alphabet, num_states, initial)
    return _parse_single_body(r, name, alphabet, num_states, initial)


def _parse_single_body(r: _Reader, name, alphabet, num_states, initial) -> Automaton:
    no, parts = r.keyword_line("condition")
    if not parts:
        raise ParseError(r.source, no, "condition tag")
    tag = parts[0]
    parity = None
    if tag == "parity":
        if (len(parts) != 3 or not all(_is_int(p) for p in parts[1:])
                or int(parts[1]) > int(parts[2])):
            raise ParseError(r.source, no, "'condition: parity <lo> <hi>' with lo <= hi")
        parity = (int(parts[1]), int(parts[2]))
    elif tag not in ("finite", "safety", "reachability", "buchi", "cobuchi") or len(parts) != 1:
        raise ParseError(r.source, no, f"a condition tag, got {' '.join(parts)!r}")

    accepting: frozenset[int] = frozenset()
    item = r.peek()
    if item is not None and item[1].startswith("accepting:"):
        if tag != "finite":
            raise ParseError(r.source, item[0], "no 'accepting:' line outside finite mode")
        _, accepting = r.state_ids("accepting", num_states)

    transitions = []
    want_rank = tag != "finite"
    ranges = (parity or TAG_RANGE[tag],) if want_rank else ()
    letters = frozenset(alphabet)
    while r.peek() is not None:
        no, line = r.next("transition line")
        parts = line.split()
        if parts[0] != "t" or len(parts) != (5 if want_rank else 4):
            raise ParseError(r.source, no,
                             "'t <src> <letter> <dst>" + (" <rank>'" if want_rank else "'"))
        if not (_is_int(parts[1]) and _is_int(parts[3])):
            raise ParseError(r.source, no, "integer state ids in transition")
        if want_rank and not _is_int(parts[4]):
            raise ParseError(r.source, no, "integer rank in transition")
        rank = int(parts[4]) if want_rank else 0
        t = Transition(int(parts[1]), parts[2], int(parts[3]), rank)
        _check_transition(r, no, num_states, letters, t, (rank,), ranges)
        transitions.append(t)
    return Automaton.build(name, alphabet, num_states, initial, tag,
                           transitions, accepting, parity)


def _parse_multi_body(r: _Reader, name, alphabet, num_states, initial) -> MultiAutomaton:
    k = r.int_field("channels", 1)
    ranges = r.channel_ranges(k)
    letters = frozenset(alphabet)
    transitions = []
    while r.peek() is not None:
        no, line = r.next("transition line")
        parts = line.split()
        if parts[0] != "t" or len(parts) != 4 + k:
            raise ParseError(r.source, no, f"'t <src> <letter> <dst>' plus {k} ranks")
        if not all(_is_int(p) for p in parts[1:2] + parts[3:]):
            raise ParseError(r.source, no, "integer state ids and ranks in transition")
        t = MultiTransition(int(parts[1]), parts[2], int(parts[3]),
                            tuple(int(p) for p in parts[4:]))
        _check_transition(r, no, num_states, letters, t, t.ranks, ranges)
        transitions.append(t)
    return MultiAutomaton(name, tuple(alphabet), num_states, initial,
                          tuple(ranges), frozenset(transitions))


def _check_transition(r: _Reader, no: int, num_states: int, letters, t,
                      ranks, ranges) -> None:
    """Endpoints, letter and ranks of one transition line."""
    if not (0 <= t.src < num_states and 0 <= t.dst < num_states):
        raise ParseError(r.source, no, f"state ids in [0, {num_states - 1}], "
                                       f"got {t.src} and {t.dst}")
    if t.letter not in letters:
        raise ParseError(r.source, no, f"a letter of the alphabet, got {t.letter!r}")
    for rank, (lo, hi) in zip(ranks, ranges):
        if not lo <= rank <= hi:
            raise ParseError(r.source, no, f"a rank in [{lo}, {hi}], got {rank}")


def format_automaton(a: Union[Automaton, MultiAutomaton]) -> str:
    out = [f"automaton {a.name}"]
    out.append("alphabet: " + " ".join(a.alphabet))
    out.append(f"states: {a.num_states}")
    out.append(f"initial: {a.initial}")
    if isinstance(a, MultiAutomaton):
        out.append(f"channels: {len(a.channels)}")
        for c, (lo, hi) in enumerate(a.channels):
            out.append(f"range: {c} {lo} {hi}")
        for t in sorted(a.transitions):
            out.append(f"t {t.src} {t.letter} {t.dst} " + " ".join(map(str, t.ranks)))
    else:
        if a.condition == "parity":
            out.append(f"condition: parity {a.lo} {a.hi}")
        else:
            out.append(f"condition: {a.condition}")
        if a.condition == "finite" and a.accepting:
            out.append("accepting: " + " ".join(map(str, sorted(a.accepting))))
        for t in sorted(a.transitions):
            rank = "" if a.condition == "finite" else f" {t.rank}"
            out.append(f"t {t.src} {t.letter} {t.dst}{rank}")
    return "\n".join(out) + "\n"


def format_objective(obj: Objective) -> str:
    if isinstance(obj, MaxEvenParity):
        return f"p{obj.channel}"
    if isinstance(obj, Not):
        return f"not {format_objective(obj.sub)}"
    tag = "and" if isinstance(obj, And) else "or"
    return f"{tag} {format_objective(obj.left)} {format_objective(obj.right)}"


OBJECTIVE_DEPTH = 100  # operators on one path, well inside the recursion limit


def parse_objective(text: str, source: str = "<objective>", line: int = 1) -> Objective:
    """An objective in prefix notation, nested at most OBJECTIVE_DEPTH
    operators deep; errors are reported at `line` of `source`."""
    tokens = text.split()
    pos = 0

    def expr(depth: int = 0) -> Objective:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(source, line, "an objective term")
        tok = tokens[pos]
        pos += 1
        if tok in ("not", "and", "or") and depth == OBJECTIVE_DEPTH:
            raise ParseError(source, line, f"at most {OBJECTIVE_DEPTH} nested operators")
        if tok == "not":
            return Not(expr(depth + 1))
        if tok in ("and", "or"):
            cls = And if tok == "and" else Or
            return cls(expr(depth + 1), expr(depth + 1))
        if tok.startswith("p") and tok[1:].isdigit():
            return MaxEvenParity(int(tok[1:]))
        raise ParseError(source, line, f"p<channel>/not/and/or, got {tok!r}")

    result = expr()
    if pos != len(tokens):
        raise ParseError(source, line, "end of objective expression")
    return result


def parse_arena(text: str, source: str = "<string>") -> tuple[Arena, Objective]:
    r = _Reader(text, source)
    no, line = r.next("'arena' header")
    if line != "arena":
        raise ParseError(source, no, "'arena' header")
    n = r.int_field("positions", 1)
    initial = r.int_field("initial", 0, n - 1)
    k = r.int_field("channels", 1)
    channels = r.channel_ranges(k)
    no, parts = r.keyword_line("owner")
    if len(parts) != n or not all(p in ("0", "1") for p in parts):
        raise ParseError(source, no, f"{n} owner bits after 'owner:'")
    owner = tuple(int(p) for p in parts)
    edges: list[list] = [[] for _ in range(n)]
    obj = None
    while r.peek() is not None:
        no, line = r.next("edge or objective line")
        if line.startswith("objective:"):
            obj = parse_objective(line.split(":", 1)[1], source, no)
            if max_channel(obj) >= k:
                raise ParseError(source, no, f"objective channels below {k}, "
                                 f"got p{max_channel(obj)}")
            continue
        parts = line.split()
        if parts[0] != "e" or len(parts) != 3 + k:
            raise ParseError(source, no, f"'e <src> <dst>' plus {k} ranks")
        if not all(_is_int(p) for p in parts[1:]):
            raise ParseError(source, no, "integer positions and ranks in edge")
        src, dst = int(parts[1]), int(parts[2])
        if not (0 <= src < n and 0 <= dst < n):
            raise ParseError(source, no, f"positions in [0, {n - 1}], got {src} and {dst}")
        color = tuple(int(p) for p in parts[3:])
        for c, ((lo, hi), rank) in enumerate(zip(channels, color)):
            if not lo <= rank <= hi:
                raise ParseError(source, no, f"channel {c} rank in [{lo}, {hi}], got {rank}")
        edges[src].append((dst, color))
    for p, out in enumerate(edges):
        if not out:
            raise ParseError(source, r.end, f"an edge out of position {p}")
    if obj is None:
        raise ParseError(source, r.end, "an 'objective:' line")
    return Arena(owner, tuple(tuple(e) for e in edges), initial, tuple(channels)), obj


def parse_atm(text: str, source: str = "<string>") -> ATM:
    """Everything `generators.validate_atm` checks is checked here too, at
    the offending line."""
    r = _Reader(text, source)
    no, line = r.next("'atm' header")
    if line != "atm":
        raise ParseError(source, no, "'atm' header")
    num_states = r.int_field("states", 1)
    initial = 0
    item = r.peek()
    if item is not None and item[1].startswith("initial:"):
        initial = r.int_field("initial", 0, num_states - 1)
    no, existential = r.state_ids("existential", num_states)
    if initial not in existential:
        raise ParseError(source, no, f"initial state {initial} among the existential ones")
    accepting = r.int_field("accepting", 0, num_states - 1)
    space = r.int_field("space", 1)
    transitions = []
    while r.peek() is not None:
        no, line = r.next("transition line")
        parts = line.split()
        if len(parts) != 6 or parts[0] != "t" or not (_is_int(parts[1]) and _is_int(parts[3])):
            raise ParseError(source, no, "'t <q> <read> <q2> <write> <L|R>'")
        if not (parts[2] in ("0", "1") and parts[4] in ("0", "1") and parts[5] in ("L", "R")):
            raise ParseError(source, no, "tape symbols 0 or 1 and a direction L or R")
        q, q2 = int(parts[1]), int(parts[3])
        if not (0 <= q < num_states and 0 <= q2 < num_states):
            raise ParseError(source, no, f"state ids in [0, {num_states - 1}] in transition")
        if (q in existential) == (q2 in existential):
            raise ParseError(source, no, "a transition between an existential and "
                             "a universal state")
        transitions.append((q, parts[2], q2, parts[4], parts[5]))
    return ATM(num_states, existential, frozenset(transitions), initial,
               accepting, space)


def format_atm(m: ATM) -> str:
    out = ["atm", f"states: {m.num_states}", f"initial: {m.initial}",
           "existential: " + " ".join(map(str, sorted(m.existential))),
           f"accepting: {m.accepting}", f"space: {m.space}"]
    for q, read, q2, write, d in sorted(m.transitions):
        out.append(f"t {q} {read} {q2} {write} {d}")
    return "\n".join(out) + "\n"


def parse_pcp(text: str, source: str = "<string>") -> PCPInstance:
    nfa = parse_automaton(text, source)
    lines = [raw.strip() for raw in text.splitlines()]
    if isinstance(nfa, MultiAutomaton) or nfa.condition != "finite":
        no = next(i for i, line in enumerate(lines, start=1)
                  if line.startswith(("condition:", "channels:")))
        raise ParseError(source, no, "'condition: finite' in a population instance")
    found = [i for i, line in enumerate(lines, start=1) if line.startswith("# target:")]
    if not found:
        raise ParseError(source, 1, "a '# target: <id>' comment line")
    no = found[-1]
    target = lines[no - 1].split(":", 1)[1].strip()
    if not _is_int(target) or not 0 <= int(target) < nfa.num_states:
        raise ParseError(source, no, f"a target state in [0, {nfa.num_states - 1}] "
                                     "after '# target:'")
    return PCPInstance(nfa, int(target))


def format_pcp(inst: PCPInstance) -> str:
    return f"# target: {inst.target}\n" + format_automaton(inst.nfa)


def format_witness(strategy: Strategy) -> str:
    return json.dumps({str(p): str(move) for p, move in strategy.moves.items()}, indent=1)
