"""Deterministic language monitors for use inside game arenas.

A monitor tracks, deterministically, whether the word read so far (or the
infinite word being read) belongs to the language of a source automaton:

* finite acceptance -> subset construction;
* inputs that `automata.ranked_01` admits -> breakpoint construction over
  (reachable set, safe subset) pairs, on their `canonical_parity` ranks;
* every other infinite-word input -> a caller-supplied deterministic
  automaton.

Every monitor is validated against its source when it is made.  A built
monitor is validated exactly: its construction's state labels are checked
transition by transition (translation validation), and a breakpoint monitor
also passes a product check of L(A) <= L(M).  A user monitor carries no
labels: it passes the same product check, and L(M) <= L(A) is checked by the
bounded lasso oracle only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import config
from .automata import (Automaton, AnyAutomaton, LassoWord, Transition,
                       canonical_parity, equivalent_on_lassos, explore_graph,
                       is_deterministic, parity_cycle, ranked_01)
from .errors import MissingMonitor, MonitorCheckFailed, MonitorMismatch


@dataclass(frozen=True)
class Monitor:
    automaton: Automaton
    provenance: str  # "subset" | "breakpoint" | "user"

    @property
    def is_finite(self) -> bool:
        return self.automaton.condition == "finite"


def _check_deterministic(monitor: Automaton) -> None:
    if not is_deterministic(monitor):
        raise MonitorCheckFailed(f"{monitor.name} is not deterministic and complete")


def _check_labels(monitor: Automaton, labels, initial, step_ok) -> None:
    """Raise `MonitorCheckFailed` unless state 0 is initial and labelled
    `initial`, and `step_ok(t)` holds for every transition t."""
    if not (monitor.initial == 0 and labels and labels[0] == initial
            and all(step_ok(t) for t in monitor.transitions)):
        raise MonitorCheckFailed(f"{monitor.name} does not match its state labels")


def _check_included(a: AnyAutomaton, monitor: Automaton) -> None:
    """Raise `MonitorMismatch` unless L(A) <= L(M), for a deterministic and
    complete max-parity monitor M.

    Interns the product of A's lasso view with M; each edge's label is A's
    rank vector, then M's rank, then the letter.  A word in L(A) but not in
    L(M) is exactly a product cycle with an even maximal rank on some channel
    of A and an odd one on M's, so there is one `parity_cycle` call per
    channel of A.  The counterexample is the lasso read off a shortest path
    to the cycle and the cycle itself.
    """
    view = a.lasso_view
    width = len(view.channels)

    def expand(node):
        q, m = node
        for letter in a.alphabet:
            ((m2, rank),) = monitor.delta[(m, letter)]
            for q2, ranks in view.delta.get((q, letter), ()):
                yield (q2, m2), ranks + (rank, letter)

    _, edges = explore_graph([(a.initial, monitor.initial)], expand)
    for c in range(width):
        walk = parity_cycle(edges, [(c, 0), (width, 1)])
        if walk is not None:
            raise MonitorMismatch(_lasso_to(edges, walk))


def _lasso_to(edges, walk) -> LassoWord:
    """The letters of a shortest path from node 0 to the walk, then of the
    walk, for a graph whose edge labels end with their letter."""
    prev = {0: None}
    queue = [0]
    for u in queue:
        for v, label in edges[u]:
            if v not in prev:
                prev[v] = (u, label[-1])
                queue.append(v)
    prefix = []
    node = walk[0][0]
    while prev[node] is not None:
        node, letter = prev[node]
        prefix.append(letter)
    return LassoWord.of(prefix[::-1], [edges[u][i][1][-1] for u, i in walk])


def _subset(a: Automaton) -> tuple[Automaton, list]:
    """The subset monitor and the state subset labelling each of its states."""
    if a.condition != "finite":
        raise ValueError("subset_construction needs a finite-acceptance automaton")
    order, edges = explore_graph(
        [frozenset({a.initial})],
        lambda s: [(a.post(s, letter), letter) for letter in a.alphabet])
    transitions = [Transition(src, letter, dst, 0)
                   for src, out in enumerate(edges) for dst, letter in out]
    # no size check: the interned keys are distinct subsets of A's states
    accepting = frozenset(i for i, s in enumerate(order) if s & a.accepting)
    monitor = Automaton.build(
        f"subset({a.name})", a.alphabet, len(order), 0, "finite",
        transitions, accepting)
    _check_deterministic(monitor)
    return monitor, order


def _check_subset(a: Automaton, monitor: Automaton, labels) -> None:
    """The state M reaches on a word is labelled with the set of states A
    reaches on it (by induction on the word, from the initial label {q0} and
    S' = post(S, x) on every transition), and a state accepts iff its label
    meets A's accepting states; so M and A accept the same finite words."""
    _check_labels(monitor, labels, {a.initial},
                  lambda t: labels[t.dst] == a.post(labels[t.src], t.letter))
    if any((i in monitor.accepting) != bool(s & a.accepting)
           for i, s in enumerate(labels)):
        raise MonitorCheckFailed(f"{monitor.name} accepts off its state labels")


def subset_construction(a: Automaton) -> Monitor:
    """Deterministic finite-word monitor over reachable state subsets."""
    monitor, labels = _subset(a)
    _check_subset(a, monitor, labels)
    return Monitor(monitor, "subset")


def _breakpoint(a: Automaton) -> tuple[Automaton, list]:
    """The breakpoint monitor of a parity automaton ranked in [0, 1], and the
    (S, B) pair labelling each state."""

    def expand(pair):
        s, b = pair
        for letter in a.alphabet:
            s2 = a.post(s, letter)
            safe = frozenset(
                d for q in b for d, rank in a.successors(q, letter) if rank == 0)
            yield ((s2, safe), (letter, 0)) if safe else ((s2, s2), (letter, 1))

    start = frozenset({a.initial})
    order, edges = explore_graph([(start, start)], expand)
    transitions = [Transition(src, letter, dst, rank)
                   for src, out in enumerate(edges) for dst, (letter, rank) in out]
    # no size check: the interned keys are distinct pairs (S, B) with B <= S
    monitor = Automaton.build(
        f"breakpoint({a.name})", a.alphabet, len(order), 0, "parity",
        transitions, parity=(0, 1))
    _check_deterministic(monitor)
    return monitor, order


def _check_breakpoint(a: Automaton, monitor: Automaton, labels) -> None:
    """Translation validation of L(M) <= L(A) for a breakpoint monitor.

    Checked: the initial label is ({q0}, {q0}); on every rank-0 transition on
    x, S' = post(S, x) and B' = post0(B, x) is nonempty, where post0 follows
    A's rank-0 transitions; on every rank-1 transition, post0(B, x) is empty
    and B' = S' = post(S, x).

    Why that suffices: let M accept w, so its run takes only rank-0
    transitions from some position i on; take i = 0 or just after the last
    rank-1 transition, so that B_i = S_i.  By induction S_j is the set of
    states A reaches on w[:j], and every state of B_j (j >= i) is reached
    from a state of B_i by a rank-0 path of A on w[i:j].  These paths form an
    infinite tree (every B_j is nonempty) in which every node has finitely
    many children, so by Konig's lemma it has an infinite branch: a run of A
    from a state of S_i that takes only rank-0 transitions.  A run of A to
    that state on w[:i], followed by the branch, accepts w.
    """
    delta = a.delta

    def step_ok(t):
        s, b = labels[t.src]
        s2, b2 = labels[t.dst]
        safe = frozenset(d for q in b for d, rank in delta.get((q, t.letter), ())
                         if rank == 0)
        if s2 != a.post(s, t.letter):
            return False
        if t.rank == 0:
            return bool(safe) and b2 == safe
        return t.rank == 1 and not safe and b2 == s2

    start = frozenset({a.initial})
    _check_labels(monitor, labels, (start, start), step_ok)


def breakpoint_construction(a: Automaton) -> Monitor:
    """Deterministic coBuchi monitor over (reachable set, safe subset) pairs,
    for an automaton that `ranked_01` admits, built on its `canonical_parity`
    form.

    On letter a from (S, B): S' = post(S, a) and the safe subset follows only
    rank-0 transitions out of B; when nothing survives, the transition is a
    rank-1 breakpoint and the safe subset restarts at S'.  The result is
    validated exactly: `_check_breakpoint` for L(M) <= L(A) and
    `_check_included` for L(A) <= L(M), both on the canonical form.
    """
    if not ranked_01(a):
        raise ValueError("breakpoint_construction needs an automaton ranked in [0, 1]")
    a = canonical_parity(a)
    monitor, labels = _breakpoint(a)
    _check_breakpoint(a, monitor, labels)
    _check_included(a, monitor)
    return Monitor(monitor, "breakpoint")


def resolve_monitor(a: AnyAutomaton, user: Optional[Automaton] = None) -> Monitor:
    """Pick or validate a deterministic monitor for the automaton's language.

    Finite automata and those that `ranked_01` admits get a built monitor,
    validated exactly, and refuse a user-supplied one with a ValueError.  All
    others need a user-supplied monitor (we deliberately do not implement full
    omega-determinization), or monitor themselves when they are deterministic;
    see `_user_monitor` for how it is validated.
    """
    finite = not a.is_infinite
    if not (finite or ranked_01(a)):
        if user is None and isinstance(a, Automaton) and is_deterministic(a):
            return _user_monitor(a, a)  # a deterministic automaton monitors itself
        return _user_monitor(a, user)
    if user is not None:
        raise ValueError(f"{a.condition} automaton {a.name} takes no user monitor: "
                         "explora builds its monitor")
    return subset_construction(a) if finite else breakpoint_construction(a)


def _user_monitor(a: AnyAutomaton, user: Optional[Automaton]) -> Monitor:
    """Validate a user-supplied deterministic (hence complete) monitor M,
    normalized to max parity.

    M carries no state labels, so L(M) <= L(A) is checked only by the bounded
    lasso oracle; L(A) <= L(M) is checked exactly by `_check_included`.  On a
    mismatch the oracle's first counterexample is reported when it has one,
    and the product's lasso otherwise.
    """
    if user is None:
        raise MissingMonitor(
            f"{getattr(a, 'condition', 'multi-channel')} automaton {a.name} needs a "
            "user-supplied deterministic monitor")
    if user.condition == "finite":
        raise ValueError("user monitor must be an infinite-word automaton")
    if not is_deterministic(user):
        raise ValueError("user monitor must be deterministic")
    normalized = canonical_parity(user)
    bound = config.capped_lasso_bound(len(a.alphabet))
    verdict = equivalent_on_lassos(a, normalized, bound)
    if not verdict.equivalent:
        raise MonitorMismatch(verdict.counterexample)
    _check_included(a, normalized)
    return Monitor(normalized, "user")
