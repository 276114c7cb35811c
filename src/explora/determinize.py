"""Deterministic language monitors for use inside game arenas.

A monitor tracks, deterministically, whether the word read so far (or the
infinite word being read) belongs to the language of a source automaton:

* finite acceptance -> subset construction;
* inputs that `automata.ranked_01` admits -> breakpoint construction over
  (reachable set, safe subset) pairs, on their `canonical_parity` ranks;
* every other infinite-word input -> a caller-supplied deterministic
  automaton.

Every monitor is validated against its source when it is made.  A built
monitor passes one exact check, of its construction's state labels,
transition by transition (translation validation), which proves L(M) = L(A);
it keeps the labels in `Monitor.labels`.  A user monitor carries no labels:
L(A) <= L(M) is checked exactly by a product check, and L(M) <= L(A) by the
bounded lasso oracle only.

Both constructions and both label checks hold every state set as an int
bitmask over A's states (bit q for state q), and step it with
`automata.post_mask` on the rows of `Automaton.successor_masks`: every
transition's successors for S, the rank-0 ones for a breakpoint's B.  The
builders intern masks, which are equal exactly when the sets are, so the
monitor's numbering is that of interning the sets; each label becomes a
frozenset once, at the end.  A check reads the labels it is given back into
masks once, and refuses a label that is not a set of A's states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import config
from .automata import (Automaton, AnyAutomaton, LassoWord, Transition,
                       canonical_parity, equivalent_on_lassos, explore_graph,
                       is_deterministic, mask_states, parity_cycle, post_mask,
                       ranked_01, shortest_path)
from .errors import MissingMonitor, MonitorCheckFailed, MonitorMismatch


@dataclass(frozen=True)
class Monitor:
    automaton: Automaton
    provenance: str  # "subset" | "breakpoint" | "user"
    # state i's construction label: S for a subset monitor, (S, B) for a
    # breakpoint one; None for a monitor no construction built
    labels: Optional[tuple] = None

    @property
    def is_finite(self) -> bool:
        return self.automaton.condition == "finite"


def _check_labels(a: Automaton, monitor: Automaton, condition, labels, initial,
                  step_ok) -> None:
    """Raise `MonitorCheckFailed` unless the monitor is deterministic and
    complete over A's alphabet, its condition tag and rank range are
    `condition`, state 0 is initial and labelled `initial`, and `step_ok(t)`
    holds for every transition t."""
    if not (is_deterministic(monitor) and set(monitor.alphabet) == set(a.alphabet)
            and (monitor.condition, monitor.rank_range) == condition):
        raise MonitorCheckFailed(f"{monitor.name} is not a deterministic and complete "
                                 f"{condition[0]} automaton on ranks {condition[1]} "
                                 f"over the alphabet of {a.name}")
    if not (monitor.initial == 0 and labels and labels[0] == initial
            and all(step_ok(t) for t in monitor.transitions)):
        raise MonitorCheckFailed(f"{monitor.name} does not match its state labels")


def _check_included(a: AnyAutomaton, monitor: Automaton) -> None:
    """Raise `MonitorMismatch` unless L(A) <= L(M), for a user-supplied
    deterministic and complete max-parity monitor M; a built monitor's label
    check proves this inclusion without a product.

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
            path = shortest_path(edges, 0, walk[0][0])
            raise MonitorMismatch(LassoWord.of([label[-1] for _, (_, label) in path],
                                               [edges[u][i][1][-1] for u, i in walk]))


def _subset(a: Automaton) -> tuple[Automaton, list]:
    """The subset monitor and the state subset labelling each of its states."""
    if a.condition != "finite":
        raise ValueError("subset_construction needs a finite-acceptance automaton")
    rows = [(letter, every) for letter, (every, _) in a.successor_masks.items()]
    order, edges = explore_graph(
        [1 << a.initial], lambda s: [(post_mask(every, s), letter) for letter, every in rows])
    transitions = [Transition(src, letter, dst, 0)
                   for src, out in enumerate(edges) for dst, letter in out]
    # no size check: the interned keys are distinct subsets of A's states
    accepting_mask = sum(1 << q for q in a.accepting)
    accepting = frozenset(i for i, s in enumerate(order) if s & accepting_mask)
    monitor = Automaton.build(
        f"subset({a.name})", a.alphabet, len(order), 0, "finite",
        transitions, accepting)
    return monitor, [mask_states(s) for s in order]


def _label_masks(a: Automaton, monitor: Automaton, labels, pairs: bool) -> list:
    """The labels with each state set as a bitmask over A's states; raise
    `MonitorCheckFailed` if a label is not a set of A's states, or not a
    pair of them when `pairs`."""
    bits = {q: 1 << q for q in range(a.num_states)}

    def mask(states):
        out = 0
        for q in states:
            out |= bits[q]
        return out

    try:
        return [(mask(s), mask(b)) for s, b in labels] if pairs else list(map(mask, labels))
    except (KeyError, TypeError, ValueError):
        raise MonitorCheckFailed(f"{monitor.name} has a state label that is not "
                                 f"{'a pair of sets' if pairs else 'a set'} "
                                 f"of {a.name}'s states") from None


def _check_subset(a: Automaton, monitor: Automaton, labels) -> None:
    """The state M reaches on a word is labelled with the set of states A
    reaches on it (by induction on the word, from the initial label {q0} and
    S' = post(S, x) on every transition), and a state accepts iff its label
    meets A's accepting states; so M and A accept the same finite words.

    The labels are read once into bitmasks over A's states, and post(S, x)
    is `post_mask` on A's all-rank successor rows for x."""
    masks = _label_masks(a, monitor, labels, False)
    rows = a.successor_masks
    _check_labels(a, monitor, ("finite", (0, 0)), masks, 1 << a.initial,
                  lambda t: masks[t.dst] == post_mask(rows[t.letter][0], masks[t.src]))
    accepting = sum(1 << q for q in a.accepting)
    if any((i in monitor.accepting) != bool(s & accepting) for i, s in enumerate(masks)):
        raise MonitorCheckFailed(f"{monitor.name} accepts off its state labels")


def subset_construction(a: Automaton) -> Monitor:
    """Deterministic finite-word monitor over reachable state subsets."""
    monitor, labels = _subset(a)
    _check_subset(a, monitor, labels)
    return Monitor(monitor, "subset", tuple(labels))


def _breakpoint(a: Automaton) -> tuple[Automaton, list]:
    """The breakpoint monitor of a parity automaton ranked in [0, 1], and the
    (S, B) pair labelling each state."""
    rows = list(a.successor_masks.items())

    def expand(pair):
        s, b = pair
        for letter, (every, safe_rows) in rows:
            s2 = post_mask(every, s)
            safe = post_mask(safe_rows, b)
            yield ((s2, safe), (letter, 0)) if safe else ((s2, s2), (letter, 1))

    start = 1 << a.initial
    order, edges = explore_graph([(start, start)], expand)
    transitions = [Transition(src, letter, dst, rank)
                   for src, out in enumerate(edges) for dst, (letter, rank) in out]
    # no size check: the interned keys are distinct pairs (S, B) with B <= S
    monitor = Automaton.build(
        f"breakpoint({a.name})", a.alphabet, len(order), 0, "parity",
        transitions, parity=(0, 1))
    return monitor, [(mask_states(s), mask_states(b)) for s, b in order]


def _check_breakpoint(a: Automaton, monitor: Automaton, labels) -> None:
    """Translation validation of L(M) = L(A) for a breakpoint monitor M of a
    parity automaton A ranked in [0, 1].

    Checked: M is deterministic and complete, and max-parity on ranks
    [0, 1], so that it accepts a word iff its run takes finitely many rank-1
    transitions; state 0 is initial and labelled ({q0}, {q0}); on every
    rank-0 transition on x, S' = post(S, x) and B' = post0(B, x) is
    nonempty, where post0 follows A's rank-0 transitions; on every rank-1
    transition, post0(B, x) is empty and B' = S' = post(S, x).  By
    induction on w, S_j is the set of states A reaches on w[:j].

    L(M) <= L(A): let M accept w, so its run takes only rank-0 transitions
    from some position i on; take i = 0 or just after the last rank-1
    transition, so that B_i = S_i.  Every state of B_j (j >= i) is reached
    from a state of B_i by a rank-0 path of A on w[i:j].  These paths form an
    infinite tree (every B_j is nonempty) in which every node has finitely
    many children, so by Konig's lemma it has an infinite branch: a run of A
    from a state of S_i that takes only rank-0 transitions.  A run of A to
    that state on w[:i], followed by the branch, accepts w.

    L(A) <= L(M): let a run rho of A accept w, so rho(j) lies in S_j and rho
    takes only rank-0 transitions from some position i on.  If M takes no
    rank-1 transition after i, it accepts.  Otherwise, after its first one
    at j >= i, B_{j+1} = S_{j+1} contains rho(j + 1).  From then on, a B that
    contains rho's state has a post0 that contains rho's next state, so it
    is nonempty, the check forces M's step to rank 0, and B' = post0(B, x)
    contains rho's next state again.  So M takes finitely many rank-1
    transitions, and accepts w.

    The labels are read once into pairs of bitmasks over A's states;
    post(S, x) and post0(B, x) are `post_mask` on A's all-rank and rank-0
    successor rows for x.
    """
    masks = _label_masks(a, monitor, labels, True)
    rows = a.successor_masks

    def step_ok(t):
        s, b = masks[t.src]
        s2, b2 = masks[t.dst]
        every, safe_rows = rows[t.letter]
        if s2 != post_mask(every, s):
            return False
        safe = post_mask(safe_rows, b)
        if t.rank == 0:
            return safe != 0 and b2 == safe
        return t.rank == 1 and not safe and b2 == s2

    start = 1 << a.initial
    _check_labels(a, monitor, ("parity", (0, 1)), masks, (start, start), step_ok)


def breakpoint_construction(a: Automaton) -> Monitor:
    """Deterministic coBuchi monitor over (reachable set, safe subset) pairs,
    for an automaton that `ranked_01` admits, built on its `canonical_parity`
    form.

    On letter a from (S, B): S' = post(S, a) and the safe subset follows only
    rank-0 transitions out of B; when nothing survives, the transition is a
    rank-1 breakpoint and the safe subset restarts at S'.  The result is
    validated exactly, on the canonical form, by `_check_breakpoint` alone,
    which proves both inclusions.
    """
    if not ranked_01(a):
        raise ValueError("breakpoint_construction needs an automaton ranked in [0, 1]")
    a = canonical_parity(a)
    monitor, labels = _breakpoint(a)
    _check_breakpoint(a, monitor, labels)
    return Monitor(monitor, "breakpoint", tuple(labels))


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
