"""Line-oriented text formats.

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
ranks.  Lassos are written ``u(v)`` with single-symbol letters, e.g. ``ab(ba)``.
"""

from __future__ import annotations

from typing import Optional, Union

from .automata import (_TAG_RANGE, Automaton, LassoWord, MultiAutomaton,
                       MultiTransition, Transition)
from .errors import ParseError


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

    accepting: list[int] = []
    item = r.peek()
    if item is not None and item[1].startswith("accepting:"):
        no, parts = r.keyword_line("accepting")
        if tag != "finite":
            raise ParseError(r.source, no, "no 'accepting:' line outside finite mode")
        if not all(_is_int(p) and 0 <= int(p) < num_states for p in parts):
            raise ParseError(r.source, no, f"state ids in [0, {num_states - 1}] "
                                           "after 'accepting:'")
        accepting = [int(p) for p in parts]

    transitions = []
    want_rank = tag != "finite"
    ranges = (parity or _TAG_RANGE[tag],) if want_rank else ()
    letters = frozenset(alphabet)
    while r.peek() is not None:
        no, line = r.next("transition line")
        parts = line.split()
        if parts[0] != "t" or len(parts) != (5 if want_rank else 4):
            raise ParseError(r.source, no,
                             "'t <src> <letter> <dst>" + (" <rank>'" if want_rank else "'"))
        if not (_is_int(parts[1]) and _is_int(parts[3])):
            raise ParseError(r.source, no, "integer state ids in transition")
        rank = 0
        if want_rank:
            if not _is_int(parts[4]):
                raise ParseError(r.source, no, "integer rank in transition")
            rank = int(parts[4])
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
            if a.condition == "finite":
                out.append(f"t {t.src} {t.letter} {t.dst}")
            else:
                out.append(f"t {t.src} {t.letter} {t.dst} {t.rank}")
    return "\n".join(out) + "\n"


def parse_lasso(text: str, source: str = "<string>") -> LassoWord:
    """``u(v)`` with single-symbol letters, e.g. ``ab(ba)``."""
    s = text.strip()
    open_at = s.find("(")
    if open_at < 0 or not s.endswith(")"):
        raise ParseError(source, 1, "lasso of the form u(v)")
    prefix, period = s[:open_at], s[open_at + 1:-1]
    if not period:
        raise ParseError(source, 1, "nonempty lasso period")
    return LassoWord(tuple(prefix), tuple(period))


def format_lasso(w: LassoWord) -> str:
    return str(w)
