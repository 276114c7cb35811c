"""Automaton transformations around union products and parity collapse.

Union products run several copies in parallel and accept when any copy does;
on finite words this is a plain product with a union accepting set, on
infinite words the copies keep separate rank channels (a MultiAutomaton), all
the channels of a multi-channel copy included.  The k-fold union power is
also the explorability game's token on tuples: k tokens of an automaton are
one token of its k-fold union power.
The remaining operations convert between such conditions: flattening a union
of Buchi channels into one Buchi condition, collapsing any [1,d] parity
condition to [1,3] while preserving explorability, and the deterministic
union-of-[0,2] condition automaton with its composition operator.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Sequence

from . import config
from .automata import (Automaton, AnyAutomaton, MultiAutomaton,
                       MultiTransition, Transition, canonical_parity,
                       complete, explore_graph, is_deterministic)


def union_product(automata: Sequence[AnyAutomaton]) -> AnyAutomaton:
    """Run the given automata in parallel; accept iff some component accepts.

    All-finite inputs give a finite-acceptance product; infinite-word inputs,
    single- or multi-channel, give a multi-channel automaton whose channels
    are those of the components' `lasso_view`s, concatenated (reachable part
    only).
    """
    if not automata:
        raise ValueError("need at least one automaton")
    alphabet = automata[0].alphabet
    if any(set(b.alphabet) != set(alphabet) for b in automata):
        raise ValueError("alphabet mismatch between components")
    finite = not any(b.is_infinite for b in automata)
    if not finite and not all(b.is_infinite for b in automata):
        raise ValueError("cannot mix finite- and infinite-word components")
    parts = [complete(b) for b in automata]
    # (state, letter) -> ((dst, ranks), ...); a finite component's ranks are unused
    deltas = [p.delta if finite else p.lasso_view.delta for p in parts]

    def expand(key):
        for letter in alphabet:
            options = [delta[(q, letter)] for delta, q in zip(deltas, key)]
            for combo in product(*options):
                yield tuple(d for d, _ in combo), (letter, tuple(r for _, r in combo))

    order, edges = explore_graph([tuple(p.initial for p in parts)], expand)
    transitions = [(src, letter, dst, ranks)
                   for src, out in enumerate(edges) for dst, (letter, ranks) in out]

    name = "x".join(p.name for p in parts)
    if finite:
        accepting = [i for i, key in enumerate(order)
                     if any(q in p.accepting for p, q in zip(parts, key))]
        return Automaton.build(f"union({name})", alphabet, len(order), 0,
                               "finite",
                               [Transition(s, l, d, 0) for s, l, d, _ in transitions],
                               accepting)
    return MultiAutomaton(
        f"union({name})", tuple(alphabet), len(order), 0,
        tuple(chain.from_iterable(p.lasso_view.channels for p in parts)),
        frozenset(MultiTransition(s, l, d, tuple(chain.from_iterable(r)))
                  for s, l, d, r in transitions))


def power_channels(a: AnyAutomaton, k: int) -> int:
    """Rank channels of a game on k parallel runs of `a`: one per copy and
    channel of `a`, plus one for a monitor or an opposing token."""
    return 1 + k * (len(a.channels) if isinstance(a, MultiAutomaton) else 1)


def union_power(a: AnyAutomaton, k: int) -> AnyAutomaton:
    """Union product of k copies of the same automaton (k parallel runs,
    accepting iff one of them accepts)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if a.is_infinite:
        config.check_channels(power_channels(a, k))
    return union_product([a] * k)


def buchi_union_flatten(a: MultiAutomaton) -> Automaton:
    """Union of Buchi channels as a single Buchi condition: a transition is
    accepting iff it is accepting on some component."""
    if any(rng != (1, 2) for rng in a.channels):
        raise ValueError("flattening needs all channels Buchi ([1,2])")
    transitions = [
        Transition(t.src, t.letter, t.dst, 2 if 2 in t.ranks else 1)
        for t in a.transitions
    ]
    return Automaton.build(f"flat({a.name})", a.alphabet, a.num_states,
                           a.initial, "buchi", transitions)


def to_13(a: Automaton) -> Automaton:
    """Equivalent [1,3]-automaton, explorable iff the input is explorable.

    One copy per even rank l remaps ranks to 1 (< l), 2 (= l), 3 (> l); a
    fresh initial state takes, for every letter and copy, the first-letter
    transitions of that copy's initial state (this fuses the initial
    branching into the first move, since the model has no epsilon moves).
    The size is exactly |A| * d/2 + 1.
    """
    a = canonical_parity(complete(a))
    shift = 2 if a.lo == 0 else 0
    lo, hi = a.lo + shift, a.hi + shift
    evens = list(range(2, hi + 1, 2))
    if not evens:
        # no even rank can be the dominating one: language is empty, a single
        # all-rank-1 copy is still faithful
        evens = [2]
    n = a.num_states
    offsets = {l: 1 + n * j for j, l in enumerate(evens)}

    def remap(rank: int, l: int) -> int:
        r = rank + shift
        return 1 if r < l else (2 if r == l else 3)

    transitions = []
    for t in sorted(a.transitions):
        for l in evens:
            off = offsets[l]
            transitions.append(Transition(off + t.src, t.letter, off + t.dst,
                                          remap(t.rank, l)))
            if t.src == a.initial:
                transitions.append(Transition(0, t.letter, off + t.dst,
                                              remap(t.rank, l)))
    # the size |A| * d/2 + 1 is the state count passed here, and every state
    # off + q written above lies below it
    return Automaton.build(f"to13({a.name})", a.alphabet, 1 + n * len(evens), 0,
                           "parity", transitions, parity=(1, 3))


def rank_tuple_letter(ranks: tuple[int, ...]) -> str:
    return ",".join(map(str, ranks))


def union_condition_automaton_02(k: int) -> Automaton:
    """Deterministic [0,2]-automaton over rank tuples that accepts iff some
    channel's tuple stream is [0,2]-accepting.

    States remember which channels saw a 1 since the last reset; any 2 emits
    a global 2 and resets, a 1 on every channel emits a global 1 and resets,
    anything else emits 0 and accumulates.
    """
    if not (1 <= k <= 3):
        raise ValueError("k out of range (1..3)")
    states = list(product((0, 1), repeat=k))
    index = {s: i for i, s in enumerate(states)}
    zero = index[(0,) * k]
    letters = [rank_tuple_letter(b) for b in product((0, 1, 2), repeat=k)]
    transitions = []
    for s in states:
        for b in product((0, 1, 2), repeat=k):
            if any(x == 2 for x in b):
                dst, rank = zero, 2
            elif all(s[i] == 1 or b[i] == 1 for i in range(k)):
                dst, rank = zero, 1
            else:
                dst, rank = index[tuple(s[i] | b[i] for i in range(k))], 0
            transitions.append(Transition(index[s], rank_tuple_letter(b), dst, rank))
    # 2^k states by the product above, one transition per (state, letter);
    # compose_monitor re-checks determinism before it reads the result
    return Automaton.build(f"cond02_{k}", letters, len(states), zero, "parity",
                           transitions, parity=(0, 2))


def compose_monitor(b: MultiAutomaton, c: Automaton) -> Automaton:
    """Let the condition automaton read the rank tuples output by the
    deterministic multi-channel automaton; acceptance is taken from c."""
    if not is_deterministic(b):
        raise ValueError("composition needs a deterministic multi-channel automaton")
    if not is_deterministic(c) or c.condition == "finite":
        raise ValueError("condition automaton must be deterministic over rank tuples")
    for t in b.transitions:
        if rank_tuple_letter(t.ranks) not in c.alphabet:
            raise ValueError(
                f"rank tuple {t.ranks} has no letter in the condition automaton")
    c = canonical_parity(c)

    def expand(key):
        qb, qc = key
        for letter in b.alphabet:
            for dst_b, ranks in b.successors(qb, letter):
                ((dst_c, rank),) = c.successors(qc, rank_tuple_letter(ranks))
                yield (dst_b, dst_c), (letter, rank)

    order, edges = explore_graph([(b.initial, c.initial)], expand)
    transitions = [Transition(src, letter, dst, rank)
                   for src, out in enumerate(edges) for dst, (letter, rank) in out]
    return Automaton.build(f"compose({b.name},{c.name})", b.alphabet,
                           len(order), 0, "parity", transitions,
                           parity=c.rank_range)
