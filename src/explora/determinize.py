"""Deterministic language monitors for use inside game arenas.

A monitor tracks, deterministically, whether the word read so far (or the
infinite word being read) belongs to the language of a source automaton:

* finite acceptance  -> subset construction,
* safety / coBuchi   -> breakpoint construction over (reachable set, safe
                        subset) pairs,
* reachability       -> subset tracking that locks into an accepting sink
                        once the reachable set crosses an accepting
                        transition,
* Buchi / parity     -> caller-supplied deterministic automaton, validated
                        against the source by the bounded lasso oracle.

The breakpoint formulation is our own choice, so its output is always
validated against the source by the lasso oracle at build time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import config
from .automata import (Automaton, AnyAutomaton, MultiAutomaton, Transition,
                       canonical_parity, complete, equivalent_on_lassos,
                       explore_graph, is_complete, is_deterministic)
from .errors import MissingMonitor, MonitorCheckFailed, MonitorMismatch


@dataclass(frozen=True)
class Monitor:
    automaton: Automaton
    provenance: str  # "subset" | "breakpoint" | "user"

    @property
    def is_finite(self) -> bool:
        return self.automaton.condition == "finite"


def _check_deterministic(monitor: Automaton) -> None:
    if not (is_deterministic(monitor) and is_complete(monitor)):
        raise MonitorCheckFailed(f"{monitor.name} is not deterministic and complete")


def subset_construction(a: Automaton) -> Monitor:
    """Deterministic finite-word monitor over reachable state subsets."""
    if a.condition != "finite":
        raise ValueError("subset_construction needs a finite-acceptance automaton")
    order, edges = explore_graph(
        [frozenset({a.initial})],
        lambda s: [(a.post(s, letter), letter) for letter in a.alphabet])
    transitions = [Transition(src, letter, dst, 0)
                   for src, out in enumerate(edges) for dst, letter in out]
    assert len(order) <= 2 ** a.num_states
    accepting = frozenset(i for i, s in enumerate(order) if s & a.accepting)
    monitor = Automaton.build(
        f"subset({a.name})", a.alphabet, len(order), 0, "finite",
        transitions, accepting)
    _check_deterministic(monitor)
    return Monitor(monitor, "subset")


def breakpoint_construction(a: Automaton) -> Monitor:
    """Deterministic coBuchi monitor over (reachable set, safe subset) pairs.

    On letter a from (S, B): S' = post(S, a) and the safe subset follows only
    rank-0 transitions out of B; when nothing survives, the transition is a
    rank-1 breakpoint and the safe subset restarts at S'.
    """
    if not (a.condition == "cobuchi" or
            (a.condition == "parity" and a.rank_range == (0, 1))):
        raise ValueError("breakpoint_construction needs a coBuchi ([0,1]) automaton")

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
    assert len(order) <= 3 ** a.num_states
    monitor = Automaton.build(
        f"breakpoint({a.name})", a.alphabet, len(order), 0, "parity",
        transitions, parity=(0, 1))
    _check_deterministic(monitor)
    bound = config.capped_lasso_bound(len(a.alphabet))
    verdict = equivalent_on_lassos(a, monitor, bound)
    if not verdict.equivalent:
        raise MonitorMismatch(verdict.counterexample)
    return Monitor(monitor, "breakpoint")


def _reachability_monitor(a: Automaton) -> Monitor:
    """Subset tracking with an accepting sink entered when the reachable set
    crosses an accepting transition (deterministic Buchi)."""

    def hit(s, letter) -> bool:
        return any(rank == 1 for q in s for _, rank in a.successors(q, letter))

    order, edges = explore_graph(
        [frozenset({a.initial})],
        lambda s: [(a.post(s, letter), letter)
                   for letter in a.alphabet if not hit(s, letter)])
    sink = len(order)  # numbered after every subset
    transitions = [Transition(src, letter, dst, 1)
                   for src, out in enumerate(edges) for dst, letter in out]
    transitions += [Transition(src, letter, sink, 2)
                    for src, s in enumerate(order)
                    for letter in a.alphabet if hit(s, letter)]
    transitions += [Transition(sink, letter, sink, 2) for letter in a.alphabet]
    monitor = Automaton.build(
        f"reach-subset({a.name})", a.alphabet, sink + 1, 0, "parity",
        transitions, parity=(1, 2))
    _check_deterministic(monitor)
    return Monitor(monitor, "subset")


def resolve_monitor(a: AnyAutomaton, user: Optional[Automaton] = None) -> Monitor:
    """Pick or validate a deterministic monitor for the automaton's language.

    Buchi, general parity and multi-channel automata need a user-supplied
    monitor (we deliberately do not implement full omega-determinization);
    it is validated against the source by the bounded lasso oracle.
    """
    if isinstance(a, MultiAutomaton):
        return _user_monitor(a, user)
    if a.condition == "finite":
        return subset_construction(a)
    if a.condition in ("safety", "cobuchi"):
        return breakpoint_construction(canonical_parity(a))
    if a.condition == "parity" and a.rank_range == (0, 1):
        return breakpoint_construction(a)
    if a.condition == "reachability":
        return _reachability_monitor(a)
    if user is None and is_deterministic(a):
        return _user_monitor(a, a)  # a deterministic automaton monitors itself
    return _user_monitor(a, user)


def monitor_to_text(monitor: Monitor) -> str:
    from .textio import format_automaton
    return format_automaton(monitor.automaton,
                            comment=f"provenance: {monitor.provenance}")


def monitor_from_text(text: str, source: str = "<string>") -> Monitor:
    from .textio import parse_automaton, parse_provenance
    automaton = parse_automaton(text, source)
    return Monitor(automaton, parse_provenance(text) or "user")


def _user_monitor(a: AnyAutomaton, user: Optional[Automaton]) -> Monitor:
    if user is None:
        raise MissingMonitor(
            f"{getattr(a, 'condition', 'multi-channel')} automaton {a.name} needs a "
            "user-supplied deterministic monitor")
    if user.condition == "finite":
        raise ValueError("user monitor must be an infinite-word automaton")
    if not is_deterministic(user):
        raise ValueError("user monitor must be deterministic")
    normalized = complete(canonical_parity(user))
    bound = config.capped_lasso_bound(len(a.alphabet))
    verdict = equivalent_on_lassos(a, normalized, bound)
    if not verdict.equivalent:
        raise MonitorMismatch(verdict.counterexample)
    return Monitor(normalized, "user")
