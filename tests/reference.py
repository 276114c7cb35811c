"""Reference implementations that the tests compare the library against.

Production never calls these.  Each one takes the plain, slower route that the
library's implementation was optimised away from, so an agreement test pins
the optimised code to it.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from explora.automata import EquivalenceVerdict, iter_lassos, member_lasso
from explora.games import (Arena, Color, ConditionAutomaton, condition_automaton,
                           solve_parity, zielonka_tree)


def equivalent_on_all_lassos(a, b, bound: int) -> EquivalenceVerdict:
    """Lasso equivalence checked on every lasso up to the bound, every
    representation of an omega-word included."""
    if set(a.alphabet) != set(b.alphabet):
        raise ValueError("alphabet mismatch")
    for w in iter_lassos(a.alphabet, bound):
        if member_lasso(a, w) != member_lasso(b, w):
            return EquivalenceVerdict(False, w)
    return EquivalenceVerdict(True)


def full_grid_product(arena: Arena, obj) -> tuple[Arena, ConditionAutomaton]:
    """Product of the arena with the objective's condition automaton over all
    n * m pairs: position ``p * m + q`` pairs arena position p with condition
    state q."""
    cond = condition_automaton(zielonka_tree(obj, arena.occurring_colors()))
    m = cond.num_states
    owner, edges = [], []
    for p in range(arena.num_positions):
        for q in range(m):
            owner.append(arena.owner[p])
            out = []
            for dst, color in arena.edges[p]:
                q2, rank = cond.delta[(q, color)]
                out.append((dst * m + q2, (rank,)))
            edges.append(tuple(out))
    product = Arena(tuple(owner), tuple(edges), arena.initial * m + cond.initial,
                    ((cond.lo, cond.hi),))
    return product, cond


def solve_full_grid(arena: Arena, obj) -> tuple[frozenset, frozenset]:
    """Winning regions of `games.solve`, read off the full-grid product at the
    pairs (p, initial condition state)."""
    product, cond = full_grid_product(arena, obj)
    inner = solve_parity(product)
    n, m = arena.num_positions, cond.num_states
    region0 = frozenset(p for p in range(n)
                        if p * m + cond.initial in inner.winning_region_0)
    return region0, frozenset(range(n)) - region0


def _disjunction_member(colors) -> bool:
    return (max(c[0] for c in colors) % 2 == 0) or (max(c[1] for c in colors) % 2 == 0)


def _disjunction_children(colors: frozenset, member: bool) -> list[frozenset]:
    values0 = sorted({c[0] for c in colors})
    values1 = sorted({c[1] for c in colors})
    candidates = set()
    for u0 in values0:
        for u1 in values1:
            sub = frozenset(c for c in colors if c[0] <= u0 and c[1] <= u1)
            if sub and sub != colors and _disjunction_member(sub) != member:
                candidates.add(sub)
    return [s for s in candidates if not any(s < o for o in candidates)]


def _attr_plain(sub, targets, player, owner, succ, pred):
    attr = set(targets)
    queue = deque(targets)
    cnt: dict[int, int] = {}
    while queue:
        v = queue.popleft()
        for u in pred[v]:
            if u not in sub or u in attr:
                continue
            if owner[u] == player:
                attr.add(u)
                queue.append(u)
            else:
                if u not in cnt:
                    cnt[u] = sum(1 for w in succ[u] if w in sub)
                cnt[u] -= 1
                if cnt[u] == 0:
                    attr.add(u)
                    queue.append(u)
    return attr


def solve_parity_disjunction(arena: Arena) -> tuple[frozenset, frozenset]:
    """Winning regions for owner 0 with the fixed objective "max-even on
    channel 0 OR max-even on channel 1", via direct attractor recursion on the
    multi-colored arena (no condition automaton, no product).

    Independent of the Zielonka-tree pipeline; used to cross-check it on the
    disjunction fragment.
    """
    if len(arena.channels) != 2:
        raise ValueError("the direct solver handles exactly two channels")
    n = arena.num_positions
    color: list[Optional[Color]] = [None] * n
    owner = list(arena.owner)
    succ: list[list[int]] = [[] for _ in range(n)]
    for p in range(n):
        for dst, col in arena.edges[p]:
            mid = len(color)
            color.append(col)
            owner.append(0)
            succ[p].append(mid)
            succ.append([dst])
    total = len(color)
    pred: list[list[int]] = [[] for _ in range(total)]
    for v in range(total):
        for u in succ[v]:
            pred[u].append(v)

    def rec(sub: set) -> tuple[set, set]:
        # looping on what the opponent's attractor leaves, instead of
        # recursing on it, keeps the depth to the height of the tree
        won: tuple[set, set] = (set(), set())
        while sub:
            colors = frozenset(color[v] for v in sub if color[v] is not None)
            member = _disjunction_member(colors)
            sigma = 0 if member else 1
            for child in _disjunction_children(colors, member):
                targets = {v for v in sub if color[v] is not None and color[v] not in child}
                attr = _attr_plain(sub, targets, sigma, owner, succ, pred)
                opp = rec(sub - attr)[1 - sigma]
                if opp:
                    battr = _attr_plain(sub, opp, 1 - sigma, owner, succ, pred)
                    won[1 - sigma].update(battr)
                    sub = sub - battr
                    break
            else:
                won[sigma].update(sub)
                break
        return won

    w0, w1 = rec(set(range(total)))
    return (frozenset(v for v in w0 if v < n),
            frozenset(v for v in w1 if v < n))
