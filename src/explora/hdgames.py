"""Token games: Eve's single token against Adam's k tokens.

Eve wins a play if her token builds an accepting run or all of Adam's tokens
build rejecting runs.  For explorable automata, Eve winning the 2-token game
characterizes history-determinism, which makes the 2-token game a fast HD
check whose precondition (a verified explorability witness) is enforced by
the API.
"""

from __future__ import annotations

from itertools import product
from typing import Optional

from . import config
from .automata import Automaton, canonical_parity, complete, explore_graph
from .errors import UnverifiedExplorability
from .explorability import is_k_explorable
from .games import (Arena, MaxEvenParity, Not, Objective, Or, all_of, solve)

EVE = "eve"
ADAM = "adam"


def build_token_game(a: Automaton, k: int) -> tuple[Arena, Objective]:
    """Arena of the k-token game, explored from the initial position.

    Positions are (eve, adam-tuple) plus letter micro-positions with an
    E/A turn marker; only those reachable from the initial position are
    built, at most n^(k+1) * (1 + 2|Sigma|) of them.
    Channel 0 carries Eve's transition ranks, channels 1..k Adam's.
    """
    if k < 1:
        raise ValueError("Adam needs at least one token")
    if not a.is_infinite:
        raise ValueError("token games are defined on infinite-word automata")
    config.check_channels(k + 1)
    a = canonical_parity(complete(a))
    lo, hi = a.rank_range
    channels = ((lo, hi),) * (k + 1)
    neutral = tuple(lo for _ in range(k + 1))

    def expand(key):
        if len(key) == k + 1:
            return [(key + (letter, "E"), neutral) for letter in a.alphabet]
        eve, adam, letter, turn = key[0], key[1:k + 1], key[-2], key[-1]
        if turn == "E":
            return [((dst,) + adam + (letter, "A"), (rank,) + (lo,) * k)
                    for dst, rank in a.successors(eve, letter)]
        options = [a.successors(q, letter) for q in adam]
        return [((eve,) + tuple(d for d, _ in combo), (lo,) + tuple(r for _, r in combo))
                for combo in product(*options)]

    order, edges = explore_graph([tuple([a.initial] * (k + 1))], expand)
    arena = Arena(
        owner=tuple(0 if len(key) > k + 1 and key[-1] == "E" else 1 for key in order),
        edges=tuple(edges),
        initial=0,
        channels=channels,
        labels=tuple(order),
    )
    # no size checks: a key is k + 1 states of `a`, alone or with a letter and
    # a turn, and a color is k + 1 ranks of a.rank_range (Buchi, k=2: 8 colors)
    objective = Or(MaxEvenParity(0),
                   all_of([Not(MaxEvenParity(c)) for c in range(1, k + 1)]))
    return arena, objective


def g2_winner(a: Automaton) -> str:
    """Winner of the 2-token game from the initial position."""
    arena, objective = build_token_game(a, 2)
    result = solve(arena, objective)
    return EVE if arena.initial in result.winning_region_0 else ADAM


def is_hd_assuming_explorable(a: Automaton, k_witness: Optional[int] = None,
                              user_monitor: Optional[Automaton] = None,
                              unchecked: bool = False) -> bool:
    """HD check through the 2-token game; only valid on explorable automata.

    The hypothesis is enforced: either pass a token count k_witness that is
    re-verified via the explorability game, or explicitly opt out with
    unchecked=True.
    """
    if not unchecked:
        if k_witness is None:
            raise UnverifiedExplorability(
                "supply k_witness (verified token count) or unchecked=True")
        if not is_k_explorable(a, k_witness, user_monitor):
            raise UnverifiedExplorability(
                f"automaton is not {k_witness}-explorable; the 2-token game "
                "does not characterize HDness here")
    return g2_winner(a) == EVE


def is_hd_exact(a, user_monitor: Optional[Automaton] = None) -> bool:
    """History-determinism as 1-explorability (exact, any condition)."""
    return is_k_explorable(a, 1, user_monitor)
