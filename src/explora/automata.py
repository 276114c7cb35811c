"""Non-deterministic automata on finite and infinite words.

States are contiguous integers ``0..n-1``.  Acceptance is transition-based:
every transition carries an integer rank whose meaning depends on the
condition tag:

* ``finite``        -- ranks are ignored; a run accepts iff it ends in an
                       accepting state,
* ``safety``        -- rank 1 marks membership in the accepting transition
                       set F; a run accepts iff it stays in F forever,
* ``reachability``  -- rank 1 marks F; a run accepts iff it takes some
                       F-transition,
* ``buchi``         -- ranks in {1, 2}; rank 2 infinitely often accepts,
* ``cobuchi``       -- ranks in {0, 1}; finitely many rank 1 accepts,
* ``parity``        -- ranks in [lo, hi]; a run accepts iff the maximal rank
                       seen infinitely often is even (max-parity convention).

All values are immutable after construction and operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator, NamedTuple, Optional, Sequence, Union

CONDITIONS = ("finite", "safety", "reachability", "buchi", "cobuchi", "parity")

# Fixed rank ranges for the non-parity tags.
_TAG_RANGE = {
    "finite": (0, 0),
    "safety": (0, 1),
    "reachability": (0, 1),
    "buchi": (1, 2),
    "cobuchi": (0, 1),
}


class Transition(NamedTuple):
    src: int
    letter: str
    dst: int
    rank: int = 0


class MultiTransition(NamedTuple):
    src: int
    letter: str
    dst: int
    ranks: tuple[int, ...] = ()


@dataclass(frozen=True)
class Automaton:
    name: str
    alphabet: tuple[str, ...]
    num_states: int
    initial: int
    condition: str
    transitions: frozenset[Transition]
    accepting: frozenset[int] = frozenset()
    lo: int = 0
    hi: int = 0

    @classmethod
    def build(cls, name, alphabet, num_states, initial, condition, transitions,
              accepting=(), parity: Optional[tuple[int, int]] = None) -> "Automaton":
        """Normalizing constructor: fixes collection types and rank bounds."""
        if condition not in CONDITIONS:
            raise ValueError(f"unknown condition tag {condition!r}")
        if condition == "parity":
            if parity is None:
                raise ValueError("parity condition needs (lo, hi)")
            lo, hi = parity
        else:
            lo, hi = _TAG_RANGE[condition]
        return cls(
            name=name,
            alphabet=tuple(alphabet),
            num_states=num_states,
            initial=initial,
            condition=condition,
            transitions=frozenset(Transition(*t) for t in transitions),
            accepting=frozenset(accepting),
            lo=lo,
            hi=hi,
        )

    @property
    def is_infinite(self) -> bool:
        return self.condition != "finite"

    @property
    def rank_range(self) -> tuple[int, int]:
        if self.condition == "parity":
            return (self.lo, self.hi)
        return _TAG_RANGE[self.condition]

    @cached_property
    def delta(self) -> dict[tuple[int, str], tuple[tuple[int, int], ...]]:
        """(state, letter) -> sorted tuple of (dst, rank)."""
        table: dict[tuple[int, str], list[tuple[int, int]]] = {}
        for t in sorted(self.transitions):
            table.setdefault((t.src, t.letter), []).append((t.dst, t.rank))
        return {k: tuple(v) for k, v in table.items()}

    def successors(self, state: int, letter: str) -> tuple[tuple[int, int], ...]:
        if letter not in self.alphabet:
            raise ValueError(f"letter {letter!r} not in alphabet of {self.name}")
        return self.delta.get((state, letter), ())

    def post(self, states, letter: str) -> frozenset[int]:
        """Set of successors of a state set under one letter."""
        if letter not in self.alphabet:
            raise ValueError(f"letter {letter!r} not in alphabet of {self.name}")
        delta = self.delta
        return frozenset(d for q in states for d, _ in delta.get((q, letter), ()))

    @cached_property
    def lasso_view(self) -> "LassoView":
        """The table `member_lasso` reads, built once per automaton: safety and
        reachability are normalized to max-parity ranks first."""
        if self.condition == "finite":
            raise ValueError("lasso membership needs an infinite-word automaton")
        a = self
        if a.condition in ("safety", "reachability"):
            a = canonical_parity(a)
        return LassoView.of((a.rank_range,), {
            k: tuple((d, (r,)) for d, r in v) for k, v in a.delta.items()})


@dataclass(frozen=True)
class MultiAutomaton:
    """Automaton whose transitions carry one rank per channel; a run accepts
    iff some channel's maximal infinitely-occurring rank is even."""

    name: str
    alphabet: tuple[str, ...]
    num_states: int
    initial: int
    channels: tuple[tuple[int, int], ...]
    transitions: frozenset[MultiTransition]

    @property
    def is_infinite(self) -> bool:
        return True

    @cached_property
    def delta(self) -> dict[tuple[int, str], tuple[tuple[int, tuple[int, ...]], ...]]:
        table: dict[tuple[int, str], list] = {}
        for t in sorted(self.transitions):
            table.setdefault((t.src, t.letter), []).append((t.dst, t.ranks))
        return {k: tuple(v) for k, v in table.items()}

    def successors(self, state: int, letter: str):
        if letter not in self.alphabet:
            raise ValueError(f"letter {letter!r} not in alphabet of {self.name}")
        return self.delta.get((state, letter), ())

    @cached_property
    def lasso_view(self) -> "LassoView":
        return LassoView.of(self.channels, self.delta)


class LassoView(NamedTuple):
    """An infinite-word automaton as lasso membership reads it: one max-parity
    range per channel, (state, letter) -> ((dst, rank-vector), ...), and
    whether every (state, letter) has at most one successor."""

    channels: tuple[tuple[int, int], ...]
    delta: dict[tuple[int, str], tuple[tuple[int, tuple[int, ...]], ...]]
    deterministic: bool

    @classmethod
    def of(cls, channels, delta) -> "LassoView":
        return cls(channels, delta, all(len(v) <= 1 for v in delta.values()))


AnyAutomaton = Union[Automaton, MultiAutomaton]


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word prefix . period^omega."""

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self):
        if len(self.period) == 0:
            raise ValueError("lasso period must be nonempty")

    @classmethod
    def of(cls, prefix, period) -> "LassoWord":
        return cls(tuple(prefix), tuple(period))

    def rotate(self, i: int) -> "LassoWord":
        """Push i letters of the period into the prefix (same omega-word)."""
        i %= len(self.period)
        return LassoWord(self.prefix + self.period[:i],
                         self.period[i:] + self.period[:i])

    def unrolled(self) -> "LassoWord":
        """Same word written as prefix.period (period.period)^omega."""
        return LassoWord(self.prefix + self.period, self.period + self.period)

    def __str__(self):
        return "".join(self.prefix) + "(" + "".join(self.period) + ")"


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    counterexample: Union[LassoWord, tuple[str, ...], None] = None


# ---------------------------------------------------------------------------
# completion


def _missing(a: AnyAutomaton) -> list[tuple[int, str]]:
    """The (state, letter) pairs without a transition, over the states
    reachable from the initial state, in BFS order."""
    seen = {(t.src, t.letter) for t in a.transitions}
    if all((q, letter) in seen for q in range(a.num_states) for letter in a.alphabet):
        return []  # no state misses a letter: no search needed
    delta = a.delta
    reachable, _ = explore_graph(
        [a.initial],
        lambda q: [(d, None) for letter in a.alphabet for d, _ in delta.get((q, letter), ())])
    return [(q, letter) for q in reachable for letter in a.alphabet if (q, letter) not in seen]


def is_complete(a: AnyAutomaton) -> bool:
    """Every reachable state has a transition on every letter."""
    return not _missing(a)


def complete(a: Automaton) -> Automaton:
    """Route all missing (state, letter) pairs of reachable states to a fresh
    rejecting sink; unreachable states are left as they are.

    Identity on already-complete automata, so idempotent.  The sink's
    transitions carry the rejecting rank of the condition (the largest odd
    rank; for an all-even parity range the range is widened by one to make
    room).
    """
    missing = _missing(a)
    if not missing:
        return a
    sink = a.num_states
    lo, hi = a.rank_range
    if a.condition == "finite":
        rej = 0
    elif a.condition in ("safety", "reachability"):
        rej = 0  # marker: not in F
    else:
        rej = hi if hi % 2 == 1 else hi - 1
        if rej < lo:  # all-even range: widen
            rej = hi + 1
            hi = rej
    trans = set(a.transitions)
    trans.update(Transition(q, letter, sink, rej) for q, letter in missing)
    trans.update(Transition(sink, letter, sink, rej) for letter in a.alphabet)
    return Automaton(
        name=a.name,
        alphabet=a.alphabet,
        num_states=a.num_states + 1,
        initial=a.initial,
        condition=a.condition,
        transitions=frozenset(trans),
        accepting=a.accepting,
        lo=min(a.lo, lo) if a.condition == "parity" else a.lo,
        hi=hi if a.condition == "parity" else a.hi,
    )


def is_deterministic(a: AnyAutomaton) -> bool:
    """Exactly one successor for every reachable (state, letter), and at most
    one for the others."""
    return all(len(succ) == 1 for succ in a.delta.values()) and is_complete(a)


# ---------------------------------------------------------------------------
# membership


def member_finite(a: Automaton, word: Sequence[str]) -> bool:
    """True iff some run on `word` ends in an accepting state."""
    if a.condition != "finite":
        raise ValueError("member_finite needs a finite-acceptance automaton")
    current = {a.initial}
    for letter in word:
        if letter not in a.alphabet:
            raise ValueError(f"letter {letter!r} not in alphabet of {a.name}")
        current = {d for q in current for d, _ in a.successors(q, letter)}
        if not current:
            return False
    return bool(current & a.accepting)


def canonical_parity(a: Automaton) -> Automaton:
    """Normalize an infinite-word automaton to an equivalent parity automaton.

    Buchi and coBuchi ranks are already max-parity ranks ([1,2] and [0,1]).
    Safety and reachability get ranks [0,1] and a fresh sink, mirror images
    of each other: safety keeps its F-transitions at rank 0 and reroutes the
    others to a rejecting sink that loops with rank 1; reachability keeps its
    other transitions at rank 1 and reroutes its F-transitions to an
    accepting sink that loops with rank 0.  Language is preserved in all
    cases.
    """
    if a.condition == "finite":
        raise ValueError("canonical_parity is undefined for finite acceptance")
    if a.condition == "parity":
        return a
    if a.condition in ("buchi", "cobuchi"):
        lo, hi = a.rank_range
        return Automaton(a.name, a.alphabet, a.num_states, a.initial, "parity",
                         a.transitions, frozenset(), lo, hi)
    sink, sink_rank = a.num_states, int(a.condition == "safety")
    # a transition whose F-mark equals the sink's rank stays, with the other rank
    trans = {Transition(t.src, t.letter, t.dst, 1 - sink_rank) if t.rank == sink_rank
             else Transition(t.src, t.letter, sink, sink_rank) for t in a.transitions}
    trans.update(Transition(sink, letter, sink, sink_rank) for letter in a.alphabet)
    return Automaton(a.name, a.alphabet, a.num_states + 1, a.initial, "parity",
                     frozenset(trans), frozenset(), 0, 1)


def member_lasso(a: AnyAutomaton, w: LassoWord) -> bool:
    """True iff some run on the ultimately periodic word is accepting.

    Unrolls the lasso into |prefix| + |period| positions.  A deterministic
    automaton is decided by its unique run; otherwise see `_member_product`.
    """
    for letter in w.prefix + w.period:
        if letter not in a.alphabet:
            raise ValueError(f"letter {letter!r} not in alphabet of {a.name}")
    view = a.lasso_view
    decide = _member_run if view.deterministic else _member_product
    return decide(view, a.initial, w.prefix + w.period, len(w.prefix))


def _member_run(view: LassoView, initial: int, unroll, wrap: int) -> bool:
    """Follow the unique run over the unrolled lasso until a (state, position)
    pair repeats; the pairs since its first visit form the only reachable
    cycle.  Accepts iff some channel's maximal rank on it is even; rejects if
    the run dies."""
    delta, length = view.delta, len(unroll)
    node = (initial, 0)
    first: dict[tuple[int, int], int] = {}
    vectors = []
    while node not in first:
        first[node] = len(vectors)
        q, i = node
        succ = delta.get((q, unroll[i]))
        if not succ:
            return False
        ((d, vec),) = succ
        vectors.append(vec)
        node = (d, i + 1 if i + 1 < length else wrap)
    cycle = vectors[first[node]:]
    return any(max(vec[c] for vec in cycle) % 2 == 0
               for c in range(len(view.channels)))


def _member_product(view: LassoView, initial: int, unroll, wrap: int) -> bool:
    """Intern the product of the automaton with the unrolled lasso and accept
    iff, on some channel, a cycle of it has an even maximal rank.  Prefix
    nodes lie on no cycle, so only the period layer can contribute."""
    delta, length = view.delta, len(unroll)

    def expand(node):
        q, i = node
        j = i + 1 if i + 1 < length else wrap
        return [((d, j), vec) for d, vec in delta.get((q, unroll[i]), ())]

    _, edges = explore_graph([(initial, 0)], expand)
    return any(parity_cycle(edges, [(c, 0)]) is not None
               for c in range(len(view.channels)))


def parity_cycle(edges, demands) -> Optional[list[tuple[int, int]]]:
    """A closed walk of the graph ``edges[u] = ((v, label), ...)`` whose
    maximal rank on every demanded channel has the demanded parity, or None.

    `demands` lists ``(channel, parity)`` pairs, and ``label[channel]`` is an
    edge's rank on that channel.  The walk is a list of ``(u, i)`` steps
    along ``edges[u][i]``, each starting where the previous one ends and the
    last ending where the first starts.

    Emerson-Lei refinement: split the graph into strongly connected
    components.  In a component whose maximal ranks meet every demand, a walk
    through all its edges meets them too, and so does a walk through one
    top-rank edge per demand, which is returned.  Otherwise every cycle
    through an edge of the first failing demand's top rank fails that demand,
    so the component's edges of that rank or above are dropped and what is
    left is split again.  A split lowers one demand's rank cap, so a node
    takes part in at most one split per occurring rank of each demanded
    channel.  Tarjan's algorithm runs on an explicit stack, so the call depth
    stays constant.
    """
    for c, p in demands:
        if not any(label[c] % 2 == p for out in edges for _, label in out):
            return None  # no cycle has a maximal rank that no edge carries
    n = len(edges)
    channels = [c for c, _ in demands]
    parities = [p for _, p in demands]
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # a visited node is on the stack until it gets one
    work = [(range(n), edges)]  # node set, its out-edges inside the set
    while work:
        nodes, adj = work.pop()
        if adj is not edges:
            for u in nodes:
                index[u] = comp[u] = -1
        count = 0
        stack: list[int] = []
        for root in nodes:
            if index[root] >= 0 or not adj[root]:
                continue
            index[root] = low[root] = count
            count += 1
            stack.append(root)
            frames = [(root, iter(adj[root]))]
            while frames:
                v, it = frames[-1]
                for u, _ in it:
                    if index[u] < 0:
                        index[u] = low[u] = count
                        count += 1
                        stack.append(u)
                        frames.append((u, iter(adj[u])))
                        break
                    if comp[u] < 0 and index[u] < low[v]:
                        low[v] = index[u]
                else:
                    frames.pop()
                    if frames and low[v] < low[frames[-1][0]]:
                        low[frames[-1][0]] = low[v]
                    if low[v] == index[v]:
                        while True:
                            u = stack.pop()
                            comp[u] = v
                            if u == v:
                                break
        # per component with an edge: top and least rank of each demand
        ranges = {}
        for u in nodes:
            cu = comp[u]
            for v, label in adj[u]:
                if comp[v] != cu:
                    continue
                seen = ranges.get(cu)
                if seen is None:
                    ranges[cu] = ([label[c] for c in channels], [label[c] for c in channels])
                    continue
                top, least = seen
                for j, c in enumerate(channels):
                    if label[c] > top[j]:
                        top[j] = label[c]
                    elif label[c] < least[j]:
                        least[j] = label[c]
        splits = {}
        for r, (top, least) in ranges.items():
            failing = [j for j, p in enumerate(parities) if top[j] % 2 != p]
            if not failing:
                members = [u for u in nodes if comp[u] == r]
                return _walk_through(edges, adj, members, comp, channels, top)
            j = failing[0]
            if least[j] < top[j]:  # else dropping the top rank leaves no edge
                splits[r] = (channels[j], top[j] - 1, [])
        if splits:
            for u in nodes:
                split = splits.get(comp[u])
                if split is not None:
                    split[2].append(u)
            for r, (c, cap, members) in splits.items():
                work.append((members, {u: [(v, label) for v, label in adj[u]
                                           if comp[v] == r and label[c] <= cap]
                                       for u in members}))
    return None


def _walk_through(edges, adj, members, comp, channels, top):
    """A closed walk over the `adj` edges inside one strongly connected
    component of `parity_cycle`, taking for each channel an edge of the
    component's top rank there, as ``(u, i)`` steps along ``edges[u][i]``."""
    r = comp[members[0]]
    inner = [(u, e) for u in members for e in adj[u] if comp[e[0]] == r]
    picks = []
    for c, t in zip(channels, top):
        step = next(s for s in inner if s[1][1][c] == t)
        if step not in picks:
            picks.append(step)

    def path(src, dst):
        prev = {src: None}
        queue = [src]
        for u in queue:
            if u == dst:
                break
            for e in adj[u]:
                if comp[e[0]] == r and e[0] not in prev:
                    prev[e[0]] = (u, e)
                    queue.append(e[0])
        steps = []
        while prev[dst] is not None:
            steps.append(prev[dst])
            dst = prev[dst][0]
        return steps[::-1]

    walk = []
    for k, (u, e) in enumerate(picks):
        walk.append((u, e))
        walk += path(e[0], picks[(k + 1) % len(picks)][0])
    # an edge of `adj` is the very tuple of `edges`, or one equal to it
    return [(u, edges[u].index(e)) for u, e in walk]


# ---------------------------------------------------------------------------
# bounded equivalence oracles


def iter_lassos(alphabet, bound: int) -> Iterator[LassoWord]:
    """All lassos with |prefix| + |period| <= bound, in the fixed order
    (total length, prefix length, word content) with sorted letters."""
    letters = sorted(alphabet)
    for total in range(1, bound + 1):
        for plen in range(total):
            for word in product(letters, repeat=total):
                yield LassoWord(word[:plen], word[plen:])


def _is_canonical(w: LassoWord) -> bool:
    """True iff w is the shortest lasso of its omega-word: its period is not a
    power of a shorter word, and its prefix does not end with the period's
    last letter (that letter could move into a rotated period)."""
    prefix, period = w.prefix, w.period
    if prefix and prefix[-1] == period[-1]:
        return False
    n = len(period)
    return all(period != period[:d] * (n // d) for d in range(1, n) if n % d == 0)


def equivalent_on_lassos(a: AnyAutomaton, b: AnyAutomaton, bound: int) -> EquivalenceVerdict:
    """Compare lasso membership on every omega-word with a lasso of length at
    most the bound, checking each word once, on its canonical lasso.

    A lasso that is not canonical has a strictly shorter lasso of the same
    word, which comes earlier in `iter_lassos` order; so the counterexample
    is the first lasso in that order on which the automata differ.  Sound as
    a refutation oracle; as an equivalence check it is exact only relative to
    the bound.  Of the monitors, only user-supplied ones rely on it, for
    L(M) <= L(A); built monitors are validated exactly in `determinize`.
    """
    if set(a.alphabet) != set(b.alphabet):
        raise ValueError("alphabet mismatch")
    for w in iter_lassos(a.alphabet, bound):
        if _is_canonical(w) and member_lasso(a, w) != member_lasso(b, w):
            return EquivalenceVerdict(False, w)
    return EquivalenceVerdict(True)


def explore_graph(roots, expand, visit=None):
    """BFS-intern a lazily expanded graph from the given root keys:
    `expand(key)` yields (successor key, label) pairs.  Returns the keys in
    discovery order, the distinct roots first in their given order (a single
    root is 0), and, per key, its (successor index, label) tuple.

    `visit(index, key, out)`, when given, is called right after each key is
    expanded, with its index and its out tuple; a true result stops the walk,
    and `edges` then covers only the keys expanded so far, a prefix of the
    returned keys."""
    index: dict = {}
    order = []
    for key in roots:
        if key not in index:
            index[key] = len(order)
            order.append(key)
    edges = []
    for i, key in enumerate(order):  # the walk takes in the keys appended on the way
        out = []
        for nxt, label in expand(key):
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(order)
                order.append(nxt)
            out.append((j, label))
        out = tuple(out)
        edges.append(out)
        if visit is not None and visit(i, key, out):
            break
    return order, edges
