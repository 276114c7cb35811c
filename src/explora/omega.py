"""Explorability with countably many tokens.

Reachability automata are always omega-explorable.  For the other automata
that `automata.ranked_01` admits, the decision goes through the elimination
game: the support, the set of states A reaches on the word read so far, is
the S of the breakpoint monitor state's label; the protecting player keeps
one challenger token alive inside it, and must relocate the challenger (an
elimination) whenever it crosses a rank-1 transition.  The eliminating
player wins iff eliminations happen infinitely often while the deterministic
monitor accepts the word; ranked 3/2/1 (monitor-rank-1 step / elimination /
quiet step), this is a three-rank parity game, positionally determined.

The other infinite-word inputs, Buchi and parity beyond [0, 1], are open
territory: they are reduced, with omega-explorability preserved, to a Buchi
automaton that is handed back in an `unknown` verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import Automaton, Transition, canonical_parity, complete, ranked_01
from .determinize import breakpoint_construction
from .errors import MonitorCheckFailed
from .games import Arena, explore_arena, solve_parity


@dataclass(frozen=True)
class OmegaVerdict:
    status: str  # "omega-explorable" | "not-omega-explorable" | "unknown"
    reduced: Optional[Automaton] = None  # Buchi reduction in the unknown case


def build_elimination_game(a: Automaton) -> Arena:
    """Three-rank parity game deciding omega-explorability.

    The eliminating player (owner 0) picks a letter at (challenger, monitor
    state).  The protecting player moves the challenger at (challenger,
    letter, monitor step), shared by every monitor state with that step, and
    relocates it at ("elim", monitor state).  A protector position with one
    move is not built: the letter edge, of the least rank 1, takes that
    move's target and rank instead, which keeps the largest rank seen
    infinitely often.  The objective is the built-in max-even condition
    (rank 2 = elimination is the only even rank).  Rank-3 edges coincide
    exactly with breakpoint (rank-1) monitor transitions, which is checked
    structurally: a mismatch raises `MonitorCheckFailed`.
    """
    if not ranked_01(a):
        raise ValueError("elimination game needs an automaton ranked in [0, 1]")
    a = canonical_parity(complete(a))
    monitor = breakpoint_construction(a)
    supports = [s for s, _ in monitor.labels]
    mon_delta = {key: succ[0] for key, succ in monitor.automaton.delta.items()}
    delta = a.delta

    def moves(q, letter, p2, mrank):
        out = []
        for q2, rank in delta[(q, letter)]:
            if rank == 0:
                out.append(((q2, p2), (3 if mrank == 1 else 1,)))
            else:  # elimination: challenger crossed a rank-1 transition
                out.append((("elim", p2), (3 if mrank == 1 else 2,)))
        return out

    def expand(key):
        if len(key) == 4:  # Protector picks the challenger transition
            return moves(*key)
        if key[0] == "elim":  # Protector relocates inside the support
            p2 = key[1]
            return [((q2, p2), (1,)) for q2 in sorted(supports[p2])]
        q, p = key  # Eliminator picks a letter; a forced move rides its edge
        out = []
        for letter in a.alphabet:
            step = (q, letter) + mon_delta[(p, letter)]
            out.append(moves(*step)[0] if len(delta[(q, letter)]) == 1 else (step, (1,)))
        return out

    # no size check: interned keys are distinct tuples over A's and M's states
    arena = explore_arena((a.initial, monitor.automaton.initial), expand,
                          lambda key: 0 if len(key) == 2 and key[0] != "elim" else 1,
                          ((1, 3),))
    # rank-3 edges occur exactly at breakpoint monitor transitions: an
    # eliminator position has one edge per letter, in alphabet order, that
    # enters the protector position of its monitor step at rank 1 or is
    # contracted; a protector position's monitor step is its key's
    labels, edges = arena.labels, arena.edges
    for i, key in enumerate(labels):
        ok = True
        if len(key) == 4:
            ok = all((color[0] == 3) == (key[3] == 1) for _, color in edges[i])
        elif key[0] != "elim":
            q, p = key
            steps = [(q, letter) + mon_delta[(p, letter)] for letter in a.alphabet]
            ok = len(edges[i]) == len(steps) and all(
                labels[dst] == step and color == (1,) if len(labels[dst]) == 4
                else (color[0] == 3) == (step[3] == 1)
                for step, (dst, color) in zip(steps, edges[i]))
        if not ok:
            raise MonitorCheckFailed(
                f"edges of position {i} miss the monitor's breakpoints")
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
    if ranked_01(a):
        ok = is_omega_explorable_cobuchi(a)
        return OmegaVerdict("omega-explorable" if ok else "not-omega-explorable")
    return OmegaVerdict("unknown", parity_to_buchi_omega(a))
