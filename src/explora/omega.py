"""Explorability with countably many tokens.

Reachability automata are always omega-explorable.  For safety and coBuchi
automata the decision goes through the elimination game: a support set of
reachable states evolves deterministically, the protecting player keeps one
challenger token alive inside it, and must relocate the challenger (an
elimination) whenever it crosses a rank-1 transition.  The eliminating player
wins iff eliminations happen infinitely often while the deterministic monitor
accepts the word; ranked 3/2/1 (monitor-rank-1 step / elimination / quiet
step), this is a three-rank parity game, positionally determined.

Buchi and general parity inputs are open territory: they are reduced, with
omega-explorability preserved, to a Buchi automaton that is handed back in an
`unknown` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import (Automaton, Transition, canonical_parity, complete,
                       explore_graph)
from .determinize import breakpoint_construction
from .errors import MonitorCheckFailed
from .games import Arena, solve_parity


@dataclass(frozen=True)
class OmegaVerdict:
    status: str  # "omega-explorable" | "not-omega-explorable" | "unknown"
    reduced: Optional[Automaton] = None  # Buchi reduction in the unknown case


def _as_cobuchi(a: Automaton) -> Automaton:
    if a.condition not in ("safety", "cobuchi", "parity"):
        raise ValueError("elimination game needs a safety or coBuchi automaton")
    b = canonical_parity(complete(a))
    if not (b.lo >= 0 and b.hi <= 1):
        raise ValueError("elimination game needs ranks within [0, 1]")
    return b


def build_elimination_game(a: Automaton) -> Arena:
    """Three-rank parity game deciding omega-explorability.

    Positions are (support, challenger, monitor state) with letter and
    relocation micro-positions; owner 0 is the eliminating player, whose
    objective is the built-in max-even condition (rank 2 = elimination is the
    only even rank).  Rank-3 edges coincide exactly with breakpoint (rank-1)
    monitor transitions, which is checked structurally: a mismatch raises
    `MonitorCheckFailed`.
    """
    a = _as_cobuchi(a)
    monitor = breakpoint_construction(a).automaton
    mon_delta = {key: succ[0] for key, succ in monitor.delta.items()}

    def expand(key):
        if len(key) == 4:  # Protector picks the challenger transition
            support, q, p, letter = key
            support2 = a.post(support, letter)
            p2, mrank = mon_delta[(p, letter)]
            out = []
            for q2, rank in sorted(set(a.successors(q, letter))):
                if rank == 0:
                    out.append(((support2, q2, p2), (3 if mrank == 1 else 1,)))
                else:  # elimination: challenger crossed a rank-1 transition
                    out.append((("elim", support2, p2), (3 if mrank == 1 else 2,)))
            return out
        if key[0] == "elim":  # Protector relocates inside the support
            _, support2, p2 = key
            return [((support2, q2, p2), (1,)) for q2 in sorted(support2)]
        support, q, p = key  # Eliminator picks a letter
        return [((support, q, p, letter), (1,)) for letter in a.alphabet]

    start = (frozenset({a.initial}), a.initial, monitor.initial)
    # no size check: interned keys are distinct tuples over A's and M's states
    order, edges = explore_graph([start], expand)
    arena = Arena(
        owner=tuple(0 if len(key) == 3 and key[0] != "elim" else 1 for key in order),
        edges=tuple(edges),
        initial=0,
        channels=((1, 3),),
        labels=tuple(order),
    )
    # rank-3 edges occur exactly at breakpoint monitor transitions
    for i, key in enumerate(order):
        if len(key) == 4:
            _, mrank = mon_delta[(key[2], key[3])]
            if any((color[0] == 3) != (mrank == 1) for _, color in arena.edges[i]):
                raise MonitorCheckFailed(
                    f"rank-3 edges of position {i} miss the monitor's breakpoints")
    return arena


def is_omega_explorable_cobuchi(a: Automaton) -> bool:
    """True iff the protecting player wins the elimination game."""
    arena = build_elimination_game(a)
    result = solve_parity(arena)
    return arena.initial in result.winning_region_1


def parity_to_buchi_omega(a: Automaton) -> Automaton:
    """Buchi automaton with the same language and omega-explorability status.

    One all-rank-1 copy plus, for each even rank l, a copy where ranks below
    l become 1, rank l becomes 2 and higher ranks are rerouted to a rejecting
    sink; jump transitions lead from the first copy into every l-copy along
    every original transition, regardless of its rank.
    """
    if not a.is_infinite:
        raise ValueError("parity_to_buchi_omega needs an infinite-word automaton")
    a = canonical_parity(complete(a))
    lo, hi = a.rank_range
    evens = [l for l in range(lo, hi + 1) if l % 2 == 0]
    n = a.num_states
    offsets = {l: n * (1 + j) for j, l in enumerate(evens)}
    sink = n * (1 + len(evens))
    transitions = []
    for t in sorted(a.transitions):
        transitions.append(Transition(t.src, t.letter, t.dst, 1))
        for l in evens:
            off = offsets[l]
            if t.rank > l:
                transitions.append(Transition(off + t.src, t.letter, sink, 1))
            else:
                transitions.append(Transition(off + t.src, t.letter, off + t.dst,
                                              2 if t.rank == l else 1))
            transitions.append(Transition(t.src, t.letter, off + t.dst,
                                          2 if t.rank == l else 1))
    for letter in a.alphabet:
        transitions.append(Transition(sink, letter, sink, 1))
    # n * (1 + d/2) + 1 states: the sink is the last, after every l-copy
    return Automaton.build(f"buchi({a.name})", a.alphabet, sink + 1, a.initial,
                           "buchi", transitions)


def is_omega_explorable(a: Automaton) -> OmegaVerdict:
    """Full omega-explorability decision with the open Buchi case reported
    as `unknown`, carrying the status-preserving Buchi reduction."""
    if not a.is_infinite:
        raise ValueError("omega-explorability concerns infinite-word automata")
    if a.condition == "reachability":
        return OmegaVerdict("omega-explorable")
    if a.condition in ("safety", "cobuchi") or \
            (a.condition == "parity" and a.lo >= 0 and a.hi <= 1):
        ok = is_omega_explorable_cobuchi(a)
        return OmegaVerdict("omega-explorable" if ok else "not-omega-explorable")
    return OmegaVerdict("unknown", parity_to_buchi_omega(a))
