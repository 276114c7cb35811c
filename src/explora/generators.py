"""Canonical instance families and stress generators.

The fixed families: a k-way branching NFA that needs exactly k tokens, a
4-state all-accepting NFA that no finite token count can explore, a leveled
NFA whose token demand doubles per level, and the two 3-state safety automata
separating omega-explorability from explorability.  The alternating-machine
reduction turns acceptance of a space-bounded alternating Turing machine into
non-omega-explorability of a safety automaton.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional

from .automata import Automaton, Transition, complete
from .errors import ConfigSpaceTooLarge, ParseError


def gen_ak(k: int) -> Automaton:
    """Branching NFA that is k-explorable but not (k-1)-explorable: the first
    letter forces a blind k-way split, the second reveals the right branch."""
    if k < 1:
        raise ValueError("k must be at least 1")
    alphabet = ["a"] + [f"a{i}" for i in range(1, k + 1)]
    transitions = [(0, "a", i) for i in range(1, k + 1)]
    transitions += [(i, f"a{i}", k + 1) for i in range(1, k + 1)]
    a = Automaton.build(f"ak{k}", alphabet, k + 2, 0, "finite",
                        [Transition(s, l, d, 0) for s, l, d in transitions],
                        accepting={k + 1})
    return complete(a)


def gen_c() -> Automaton:
    """4-state NFA accepting every word over {a, b} that no finite number of
    tokens can explore: each round forces a blind guess of the next letter."""
    transitions = [
        (0, "a", 1), (0, "b", 1), (0, "a", 2), (0, "b", 2),
        (1, "a", 0), (1, "b", 3),
        (2, "b", 0), (2, "a", 3),
        (3, "a", 3), (3, "b", 3),
    ]
    return Automaton.build("c", ["a", "b"], 4, 0, "finite",
                           [Transition(s, l, d, 0) for s, l, d in transitions],
                           accepting={0, 1, 2})


def gen_bk(k: int) -> Automaton:
    """Leveled NFA (3k+1 states plus sink) that is explorable but needs 2^k
    tokens: every level splits blindly and the adversary prunes the thinner
    half."""
    if k < 1:
        raise ValueError("k must be at least 1")
    # level i: p_i = 3i-2, r_i = 3i-1, q_i = 3i; q_0 = 0
    transitions = []
    for i in range(1, k + 1):
        q_prev, p_i, r_i, q_i = 3 * (i - 1), 3 * i - 2, 3 * i - 1, 3 * i
        for letter in ("a", "b"):
            transitions.append((q_prev, letter, p_i))
            transitions.append((q_prev, letter, r_i))
        transitions.append((p_i, "a", q_i))
        transitions.append((r_i, "b", q_i))
    a = Automaton.build(f"bk{k}", ["a", "b"], 3 * k + 1, 0, "finite",
                        [Transition(s, l, d, 0) for s, l, d in transitions],
                        accepting={3 * k})
    return complete(a)


def gen_fig4(side: str) -> Automaton:
    """The two safety automata separating the explorability notions: 'left'
    is omega-explorable but not explorable, 'right' is not omega-explorable.
    Rank 1 marks the accepting transition set; state 3 is the rejecting sink.
    """
    if side == "left":
        transitions = [
            (0, "a", 0, 1), (0, "a", 1, 1), (1, "b", 2, 1),
            (2, "a", 2, 1), (2, "b", 2, 1),
            (0, "b", 3, 0), (1, "a", 3, 0),
            (3, "a", 3, 0), (3, "b", 3, 0),
        ]
        name = "fig4_left"
    elif side == "right":
        transitions = [
            (0, "a", 1, 1), (0, "a", 2, 1), (1, "a", 0, 1), (2, "b", 0, 1),
            (0, "b", 3, 0), (1, "b", 3, 0), (2, "a", 3, 0),
            (3, "a", 3, 0), (3, "b", 3, 0),
        ]
        name = "fig4_right"
    else:
        raise ValueError("side must be 'left' or 'right'")
    return Automaton.build(name, ["a", "b"], 4, 0, "safety",
                           [Transition(*t) for t in transitions])


# ---------------------------------------------------------------------------
# alternating Turing machines


@dataclass(frozen=True)
class ATM:
    """Space-bounded alternating Turing machine over tape alphabet {0, 1}.

    Transitions are (state, read, state', write, direction); the existential
    player resolves choices in `existential` states, the universal player the
    rest, and the existential player wins by reaching `accepting`.  States
    must strictly alternate between the two kinds, starting existential.
    """

    num_states: int
    existential: frozenset[int]
    transitions: frozenset[tuple[int, str, int, str, str]]
    initial: int
    accepting: int
    space: int


def validate_atm(m: ATM) -> list[str]:
    out = []
    if m.initial not in m.existential:
        out.append("initial state must be existential")
    if not (0 <= m.initial < m.num_states and 0 <= m.accepting < m.num_states):
        out.append("initial/accepting state out of range")
    if m.space < 1:
        out.append("space bound must be positive")
    for q, read, q2, write, d in sorted(m.transitions):
        if not (0 <= q < m.num_states and 0 <= q2 < m.num_states):
            out.append(f"transition endpoint out of range in {(q, read, q2, write, d)}")
        if read not in "01" or write not in "01" or d not in "LR":
            out.append(f"malformed transition {(q, read, q2, write, d)}")
        if (q in m.existential) == (q2 in m.existential):
            out.append(f"transition {(q, read, q2, write, d)} breaks alternation")
    return out


def atm_accepts(m: ATM, word: str) -> bool:
    """Brute-force oracle: attractor computation on the configuration game.

    The existential player wins iff the play reaches the accepting state;
    stuck and non-terminating plays reject.  Moves that would push the head
    outside [1, space] are unavailable.
    """
    problems = validate_atm(m)
    if problems:
        raise ValueError("; ".join(problems))
    P = m.space
    if m.num_states * P * 2 ** P > 100_000:
        raise ConfigSpaceTooLarge(
            f"{m.num_states * P * 2 ** P} configurations exceed the budget")
    tape0 = tuple((word[i] if i < len(word) else "0") for i in range(P))
    start = (m.initial, 1, tape0)
    by_src: dict[int, list] = {}
    for t in sorted(m.transitions):
        by_src.setdefault(t[0], []).append(t)

    def moves(cfg):
        q, head, tape = cfg
        out = []
        for _, read, q2, write, d in by_src.get(q, ()):
            if read != tape[head - 1]:
                continue
            head2 = head + 1 if d == "R" else head - 1
            if not (1 <= head2 <= P):
                continue
            tape2 = tape[:head - 1] + (write,) + tape[head:]
            out.append((q2, head2, tape2))
        return out

    # forward reachable configuration graph
    succ = {}
    stack = [start]
    while stack:
        cfg = stack.pop()
        if cfg in succ:
            continue
        succ[cfg] = moves(cfg)
        stack.extend(succ[cfg])
    pred: dict = {cfg: [] for cfg in succ}
    for cfg, nxt in succ.items():
        for n in nxt:
            pred[n].append(cfg)
    winning = {cfg for cfg in succ if cfg[0] == m.accepting}
    queue = list(winning)
    cnt = {}
    while queue:
        cfg = queue.pop()
        for p in pred[cfg]:
            if p in winning:
                continue
            if p[0] in m.existential:
                winning.add(p)
                queue.append(p)
            else:
                if p not in cnt:
                    cnt[p] = len(succ[p])
                cnt[p] -= 1
                if cnt[p] == 0:
                    winning.add(p)
                    queue.append(p)
    return start in winning


def atm_reduce(m: ATM, word: str) -> Automaton:
    """Safety automaton that is omega-explorable iff the machine rejects.

    One block of states mirrors the machine configuration (control state,
    head position, tape cells), another carries the players' transition
    choices; the letter player steers rounds, and each accepted run of the
    machine lets it herd one chosen token into the rejecting sink.  The
    `restart`/`win` letters are self-loops everywhere (present in the
    alphabet for compatibility, without game effect).
    """
    problems = validate_atm(m)
    if problems:
        raise ValueError("; ".join(problems))
    P = m.space
    trans_list = sorted(m.transitions)
    names: list = [("q", q) for q in range(m.num_states)]
    names += [("pos", p) for p in range(1, P + 1)]
    names += [("mem", b, i) for i in range(1, P + 1) for b in "01"]
    names += [("E",)] + [("A", ti) for ti in range(len(trans_list))]
    names += [("q0",), ("store",), ("bot",), ("top",)]
    # the state count is len(names), which the blocks above fix; every block
    # tags its names, so they are distinct and idx numbers all of them
    idx = {nm: i for i, nm in enumerate(names)}

    letters = [f"a_t{ti}_p{p}" for ti in range(len(trans_list))
               for p in range(1, P + 1)]
    letters += ["init", "end", "restart", "win"]
    letters += [f"check_q{q}" for q in range(m.num_states)]
    letters += [f"check_m{b}_{i}" for b in "01" for i in range(1, P + 1)]

    bot, top, q0, store = idx[("bot",)], idx[("top",)], idx[("q0",)], idx[("store",)]
    transitions = []

    def add(src, letter, dst):
        transitions.append(Transition(src, letter, dst, 0 if dst == bot else 1))

    def add_sinks(letter):
        add(top, letter, top)
        add(bot, letter, bot)

    for ti, (q, read, q2, write, d) in enumerate(trans_list):
        for p in range(1, P + 1):
            letter = f"a_t{ti}_p{p}"
            add_sinks(letter)
            # configuration block
            add(idx[("q", q)], letter, idx[("q", q2)])
            for q_other in range(m.num_states):
                if q_other != q:
                    add(idx[("q", q_other)], letter, top)
            p2 = p + 1 if d == "R" else p - 1
            add(idx[("pos", p)], letter, idx[("pos", p2)] if 1 <= p2 <= P else top)
            for p_other in range(1, P + 1):
                if p_other != p:
                    add(idx[("pos", p_other)], letter, top)
            add(idx[("mem", read, p)], letter, idx[("mem", write, p)])
            other = "1" if read == "0" else "0"
            add(idx[("mem", other, p)], letter, top)
            for i in range(1, P + 1):
                if i != p:
                    for b in "01":
                        add(idx[("mem", b, i)], letter, idx[("mem", b, i)])
            # choice block
            for tj in range(len(trans_list)):
                add(idx[("E",)], letter, idx[("A", tj)])
            for tj in range(len(trans_list)):
                if tj == ti:
                    add(idx[("A", tj)], letter, idx[("E",)])
                else:
                    add(idx[("A", tj)], letter, store)
            add(store, letter, store)
            add(q0, letter, q0)  # idle between rounds; only end may kill here

    add_sinks("init")
    add(q0, "init", idx[("E",)])
    add(q0, "init", idx[("q", m.initial)])
    add(q0, "init", idx[("pos", 1)])
    for i in range(1, P + 1):
        bit = word[i - 1] if i - 1 < len(word) else "0"
        add(q0, "init", idx[("mem", bit, i)])
    add(store, "init", store)
    # a mid-round init is inert: routing it to the sink would hand the letter
    # player targeted kills that the round protocol (end / check) must own
    for nm in names:
        if nm[0] in ("q", "pos", "mem", "E", "A"):
            add(idx[nm], "init", idx[nm])

    add_sinks("end")
    for q in range(m.num_states):
        add(idx[("q", q)], "end", bot if q == m.accepting else top)
    add(store, "end", q0)
    for nm in names:
        if nm[0] in ("pos", "mem", "E", "A", "q0"):
            add(idx[nm], "end", bot)

    for letter in ("restart", "win"):
        add_sinks(letter)
        for nm in names:
            if nm[0] not in ("bot", "top"):
                add(idx[nm], letter, idx[nm])

    for q in range(m.num_states):
        letter = f"check_q{q}"
        add_sinks(letter)
        for nm in names:
            if nm[0] in ("bot", "top"):
                continue
            if nm[0] == "A" and trans_list[nm[1]][0] == q:
                add(idx[nm], letter, bot)
            elif nm == ("q", q):
                add(idx[nm], letter, top)
            else:
                add(idx[nm], letter, q0)

    for b in "01":
        for i in range(1, P + 1):
            letter = f"check_m{b}_{i}"
            add_sinks(letter)
            for nm in names:
                if nm[0] in ("bot", "top"):
                    continue
                if nm[0] == "A" and trans_list[nm[1]][1] == b:
                    add(idx[nm], letter, bot)
                elif nm[0] == "pos" and nm[1] != i:
                    add(idx[nm], letter, top)
                elif nm == ("mem", b, i):
                    add(idx[nm], letter, top)
                else:
                    add(idx[nm], letter, q0)

    return Automaton.build(f"atm({m.num_states}s,P{P})", letters, len(names),
                           q0, "safety", transitions)


# ---------------------------------------------------------------------------
# ATM text format


def parse_atm(text: str, source: str = "<string>") -> ATM:
    """Format: ``atm`` header, then ``states:``, optional ``initial:``
    (default 0), ``existential:``, ``accepting:``, ``space:``, and
    ``t <q> <read> <q'> <write> <L|R>`` lines."""
    from .textio import _Reader, _is_int

    r = _Reader(text, source)
    no, line = r.next("'atm' header")
    if line != "atm":
        raise ParseError(source, no, "'atm' header")
    num_states = r.int_field("states")
    initial = 0
    item = r.peek()
    if item is not None and item[1].startswith("initial:"):
        initial = r.int_field("initial")
    no, parts = r.keyword_line("existential")
    existential = frozenset(int(p) for p in parts)
    accepting = r.int_field("accepting")
    space = r.int_field("space")
    transitions = []
    while r.peek() is not None:
        no, line = r.next("transition line")
        parts = line.split()
        if len(parts) != 6 or parts[0] != "t" or not (_is_int(parts[1]) and _is_int(parts[3])):
            raise ParseError(source, no, "'t <q> <read> <q2> <write> <L|R>'")
        transitions.append((int(parts[1]), parts[2], int(parts[3]), parts[4], parts[5]))
    return ATM(num_states, existential, frozenset(transitions), initial,
               accepting, space)


def format_atm(m: ATM) -> str:
    out = ["atm", f"states: {m.num_states}", f"initial: {m.initial}",
           "existential: " + " ".join(map(str, sorted(m.existential))),
           f"accepting: {m.accepting}", f"space: {m.space}"]
    for q, read, q2, write, d in sorted(m.transitions):
        out.append(f"t {q} {read} {q2} {write} {d}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# seeded random corpora


def random_automaton(rng: Random, num_states: int, alphabet, condition: str,
                     max_branch: int = 2, parity: Optional[tuple[int, int]] = None,
                     accept_prob: float = 0.5) -> Automaton:
    """Complete random automaton; deterministic given the Random instance."""
    alphabet = list(alphabet)
    transitions = []
    for q in range(num_states):
        for letter in alphabet:
            branch = rng.randint(1, max_branch)
            dsts = rng.sample(range(num_states), min(branch, num_states))
            for d in dsts:
                transitions.append(Transition(q, letter, d, _random_rank(rng, condition, parity)))
    accepting = ()
    if condition == "finite":
        accepting = [q for q in range(num_states) if rng.random() < accept_prob]
        if not accepting:
            accepting = [rng.randrange(num_states)]
    return Automaton.build(f"rand{rng.randrange(10**6)}", alphabet, num_states,
                           0, condition, transitions, accepting, parity)


def _random_rank(rng: Random, condition: str, parity) -> int:
    if condition == "finite":
        return 0
    if condition in ("safety", "reachability"):
        return rng.randint(0, 1)
    if condition == "buchi":
        return rng.randint(1, 2)
    if condition == "cobuchi":
        return rng.randint(0, 1)
    lo, hi = parity
    return rng.randint(lo, hi)
