"""Reference implementations that the tests compare the library against.

Production never calls these.  Each one takes the plain, slower route that the
library's implementation was optimised away from, so an agreement test pins
the optimised code to it.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations_with_replacement, product
from random import Random
from typing import Iterator, Optional

from explora import config
from explora.automata import (AnyAutomaton, Automaton, EquivalenceVerdict,
                              MultiAutomaton, canonical_parity, complete,
                              explore_graph, iter_lassos, member_finite,
                              member_lasso)
from explora.determinize import Monitor, resolve_monitor
from explora.errors import SolverCheckFailed
from explora.explorability import _token_channels, _tuple_moves
from explora.games import (Arena, Color, ConditionAutomaton, MaxEvenParity,
                           Not, Or, SolveResult, Strategy, _trampoline, any_of,
                           condition_automaton, solve_parity, verify_strategy,
                           zielonka_tree)


def equivalent_on_all_lassos(a, b, bound: int) -> EquivalenceVerdict:
    """Lasso equivalence checked on every lasso up to the bound, every
    representation of an omega-word included."""
    if set(a.alphabet) != set(b.alphabet):
        raise ValueError("alphabet mismatch")
    for w in iter_lassos(a.alphabet, bound):
        if member_lasso(a, w) != member_lasso(b, w):
            return EquivalenceVerdict(False, w)
    return EquivalenceVerdict(True)


def equivalent_on_words(a, b, bound: int) -> EquivalenceVerdict:
    """Language equivalence checked on every finite word up to the bound."""
    if set(a.alphabet) != set(b.alphabet):
        raise ValueError("alphabet mismatch")
    for word in iter_words(a.alphabet, bound):
        if member_finite(a, word) != member_finite(b, word):
            return EquivalenceVerdict(False, word)
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


class _EdgeRankGame:
    """A single-channel parity game as flat adjacency lists of (other end,
    rank, edge index), solved by Zielonka's algorithm directly on edge ranks.

    A subgame is a position set `sub` with a rank cap: it keeps the edges of
    rank <= cap between positions of `sub`, and every position of `sub` keeps
    at least one.  `move[p]` ends up as the edge index the winner of p takes
    there, when p is the winner's.
    """

    def __init__(self, game: Arena):
        self.owner = game.owner
        self.succ = [[(dst, color[0], i) for i, (dst, color) in enumerate(out)]
                     for out in game.edges]
        self.pred: list[list[tuple[int, int, int]]] = [[] for _ in self.succ]
        for u, out in enumerate(self.succ):
            for v, rank, i in out:
                self.pred[v].append((u, rank, i))
        self.move = [0] * len(self.succ)

    def attractor(self, sub, player: int, cap: int, targets=(), top=None) -> set:
        """Positions of the subgame (sub, cap) from which `player` forces
        reaching `targets` or, when `top` is given, taking an edge of rank
        `top`; records the edge each attracted `player` position takes."""
        owner, succ, pred, move = self.owner, self.succ, self.pred, self.move
        attr = set(targets)
        queue = list(attr)
        left: dict[int, int] = {}  # opponent position -> edges not yet pulled

        def pull(u: int, i: int):
            if owner[u] == player:
                move[u] = i
            else:
                k = left.get(u)
                if k is None:
                    k = sum(1 for v, r, _ in succ[u] if r <= cap and v in sub)
                left[u] = k = k - 1
                if k:
                    return
            attr.add(u)
            queue.append(u)

        if top is not None:
            for u in sub:
                for v, r, i in succ[u]:
                    if r == top and v in sub and u not in attr:
                        pull(u, i)
        while queue:
            for u, r, i in pred[queue.pop()]:
                # a rank-top edge was pulled when seeding
                if r <= cap and r != top and u in sub and u not in attr:
                    pull(u, i)
        return attr

    def zielonka(self, sub: set, cap: int):
        """Winning regions of players 0 and 1 in the subgame (sub, cap).

        With d the largest rank left and sigma its parity's player, sigma
        attracts to taking a rank-d edge; what remains is solved below d,
        which is sound because a rank-d edge left there starts at an opponent
        position that also has a lower one.  If the opponent wins nothing
        there, sigma wins `sub`; otherwise the opponent's attractor to its
        region is removed and the loop goes on.

        A generator for `_trampoline`: it yields the subgame below d and is
        sent back its regions, so however many ranks there are, the Python
        call depth stays constant.
        """
        won: tuple[set, set] = (set(), set())
        succ = self.succ
        while sub:
            d = max(r for u in sub for v, r, _ in succ[u] if r <= cap and v in sub)
            sigma = d % 2
            attr = self.attractor(sub, sigma, cap, top=d)
            lost = (yield self.zielonka(sub - attr, d - 1))[1 - sigma]
            if not lost:
                won[sigma].update(sub)
                break
            lost = self.attractor(sub, 1 - sigma, cap, targets=lost)
            won[1 - sigma].update(lost)
            sub = sub - lost
        return won


def solve_parity_reference(game: Arena) -> SolveResult:
    """Zielonka's algorithm on edge ranks over adjacency lists copied from the
    arena, scanning every edge for each subgame's top rank: the solver that
    `games.solve_parity` must match in regions and in both move maps."""
    if len(game.channels) != 1:
        raise ValueError("solve_parity expects a single-channel game")
    n = game.num_positions
    solver = _EdgeRankGame(game)
    cap = max((r for out in solver.succ for _, r, _ in out), default=0)
    w0, w1 = _trampoline(solver.zielonka(set(range(n)), cap))
    region0, region1 = frozenset(w0), frozenset(w1)
    if region0 | region1 != frozenset(range(n)) or region0 & region1:
        raise SolverCheckFailed("winning regions do not partition the positions")

    def moves(region, owner_bit):
        return {p: solver.move[p] for p in sorted(region) if game.owner[p] == owner_bit}

    strategy_0 = Strategy(0, moves(region0, 0))
    strategy_1 = Strategy(1, moves(region1, 1))
    if not (verify_strategy(game, region0, strategy_0, 0)
            and verify_strategy(game, region1, strategy_1, 1)):
        raise SolverCheckFailed("extracted strategies failed verification")
    return SolveResult(region0, region1, strategy_0, strategy_1)


def _spoiler_attractor(arena: Arena, bad_ids) -> set[int]:
    """Positions from which the letter player forces reaching a bad sink,
    computed on the finished arena from a predecessor index."""
    n = arena.num_positions
    pred: list[list[int]] = [[] for _ in range(n)]
    for p in range(n):
        for dst, _ in arena.edges[p]:
            pred[dst].append(p)
    attr = set(bad_ids)
    queue = sorted(attr)
    cnt: dict[int, int] = {}
    while queue:
        v = queue.pop()
        for u in pred[v]:
            if u in attr:
                continue
            if arena.owner[u] == 1:
                attr.add(u)
                queue.append(u)
            else:
                if u not in cnt:
                    cnt[u] = len(arena.edges[u])
                cnt[u] -= 1
                if cnt[u] == 0:
                    attr.add(u)
                    queue.append(u)
    return attr


def is_k_explorable_tuples(a, k: int) -> bool:
    """Finite-word k-explorability decided on token tuples, every joint move
    of the k tokens a separate position, instead of the multisets the library
    plays on: the safety game "never: monitor accepting while no token is",
    lost by the token player on the letter player's attractor to a bad
    position."""
    a = complete(a)
    mon = resolve_monitor(a).automaton
    mon_delta = {key: succ[0][0] for key, succ in mon.delta.items()}

    def bad(tokens, m) -> bool:
        return m in mon.accepting and not any(q in a.accepting for q in tokens)

    def expand(key):
        if len(key) == 2:
            if bad(*key):
                return [(key, (2,))]
            return [((*key, letter), (1,)) for letter in a.alphabet]
        tokens, m, letter = key
        m2 = mon_delta[(m, letter)]
        return [((dsts, m2), (1,)) for dsts, _ in _tuple_moves(a, tokens, letter)]

    order, edges = explore_graph([(tuple([a.initial] * k), mon.initial)], expand)
    arena = Arena(tuple(1 if len(key) == 2 else 0 for key in order), tuple(edges),
                  0, ((1, 2),))
    bad_ids = [i for i, key in enumerate(order) if len(key) == 2 and bad(*key)]
    return arena.initial not in _spoiler_attractor(arena, bad_ids)


def multiset_moves_reference(a, tokens: tuple[int, ...], letter: str):
    """Distinct successor multisets reachable by moving every token."""
    per_state = []
    for state, count in sorted(Counter(tokens).items()):
        dsts = sorted({d for d, *_ in a.successors(state, letter)})
        per_state.append(list(combinations_with_replacement(dsts, count)))
    return sorted({
        tuple(sorted(x for group in combo for x in group))
        for combo in product(*per_state)
    })


def build_finite_game_reference(a, monitor: Monitor, k: int):
    """The finite-word k-token safety game built position by position: token
    moves recomputed at every token-player position, and the bad test run
    again to collect the bad positions."""
    mon = monitor.automaton
    mon_delta = {key: succ[0][0] for key, succ in mon.delta.items()}
    start = tuple([a.initial] * k)

    def bad(tokens, m) -> bool:
        return m in mon.accepting and not any(q in a.accepting for q in tokens)

    def expand(key):
        if len(key) == 2:
            tokens, m = key
            if bad(tokens, m):
                return [(key, (2,))]
            return [((tokens, m, letter), (1,)) for letter in a.alphabet]
        tokens, m, letter = key
        m2 = mon_delta[(m, letter)]
        return [((dsts, m2), (1,)) for dsts in multiset_moves_reference(a, tokens, letter)]

    order, edges = explore_graph([(start, mon.initial)], expand)
    arena = Arena(
        owner=tuple(1 if len(key) == 2 else 0 for key in order),
        edges=tuple(edges),
        initial=0,
        channels=((1, 2),),
        labels=tuple(order),
    )
    bad_ids = [i for i, key in enumerate(order) if len(key) == 2 and bad(*key)]
    return arena, Not(MaxEvenParity(0)), bad_ids


def solve_finite_game_reference(a, monitor: Monitor, k: int, stop: bool = False):
    """The finite-word game built in full and its attractor computed after, in
    a second pass, returned as `_build_finite_game` returns them: no arena
    when `stop` is set and the initial position is attracted."""
    arena, _, bad_ids = build_finite_game_reference(a, monitor, k)
    attr = _spoiler_attractor(arena, bad_ids)
    if stop and arena.initial in attr:
        return None, attr
    return arena, attr


def build_tuple_game_reference(a, monitor: Monitor, k: int):
    """The infinite-word k-token game on token tuples, with one rank channel
    per token and channel of `a`, for every input: the game on breakpoint
    multisets that [0, 1]-ranked inputs play must give the same verdicts."""
    config.check_channels(1 + len(_token_channels(a)) * k)
    if isinstance(a, Automaton):
        a = canonical_parity(a)  # token ranks must be max-parity ranks
    mon = monitor.automaton
    mon_delta = {key: succ[0] for key, succ in mon.delta.items()}
    token_channels = _token_channels(a)
    channels = (mon.rank_range,) + token_channels * k
    neutral = tuple(lo for lo, _ in channels)
    start = (tuple([a.initial] * k), mon.initial)
    token_moves: dict = {}  # (tokens, letter) -> joint moves with ranks

    def expand(key):
        if len(key) == 2:
            tokens, m = key
            return [((tokens, m, letter), neutral) for letter in a.alphabet]
        tokens, m, letter = key
        m2, mrank = mon_delta[(m, letter)]
        moves = token_moves.get((tokens, letter))
        if moves is None:
            moves = token_moves[(tokens, letter)] = _tuple_moves(a, tokens, letter)
        return [((dsts, m2), (mrank,) + ranks) for dsts, ranks in moves]

    order, edges = explore_graph([start], expand)
    arena = Arena(
        owner=tuple(1 if len(key) == 2 else 0 for key in order),
        edges=tuple(edges),
        initial=0,
        channels=channels,
        labels=tuple(order),
    )
    width = len(token_channels) * k
    objective = Or(Not(MaxEvenParity(0)),
                   any_of([MaxEvenParity(c) for c in range(1, width + 1)]))
    return arena, objective


# ---------------------------------------------------------------------------
# test-only helpers


def validate(a: AnyAutomaton) -> list[str]:
    """All invariant violations, empty iff the automaton is well-formed."""
    out: list[str] = []
    if len(a.alphabet) == 0:
        out.append("empty alphabet")
    if len(set(a.alphabet)) != len(a.alphabet):
        out.append("duplicate letters in alphabet")
    if not (0 <= a.initial < a.num_states):
        out.append(f"initial state {a.initial} out of range")
    multi = isinstance(a, MultiAutomaton)
    if multi:
        ranges = a.channels
    else:
        lo, hi = a.rank_range
        if a.condition == "parity" and a.lo > a.hi:
            out.append(f"empty parity range [{a.lo}, {a.hi}]")
        if a.condition != "finite" and a.accepting:
            out.append("accepting state set is only meaningful for finite acceptance")
        for q in a.accepting:
            if not (0 <= q < a.num_states):
                out.append(f"accepting state {q} out of range")
    for t in sorted(a.transitions):
        if not (0 <= t.src < a.num_states and 0 <= t.dst < a.num_states):
            out.append(f"transition endpoint out of range in {t}")
        if t.letter not in a.alphabet:
            out.append(f"letter {t.letter!r} of {t} not in alphabet")
        if multi:
            if len(t.ranks) != len(ranges):
                out.append(f"rank vector arity mismatch in {t}")
            else:
                for c, r in enumerate(t.ranks):
                    clo, chi = ranges[c]
                    if not (clo <= r <= chi):
                        out.append(f"rank {r} outside channel {c} range in {t}")
        elif a.condition != "finite" and not (lo <= t.rank <= hi):
            out.append(f"rank {t.rank} outside [{lo}, {hi}] in {t}")
    seen = {(t.src, t.letter) for t in a.transitions}
    for q in range(a.num_states):
        for letter in a.alphabet:
            if (q, letter) not in seen:
                out.append(f"incomplete at (state {q}, {letter})")
    return out


def iter_words(alphabet, bound: int) -> Iterator[tuple[str, ...]]:
    letters = sorted(alphabet)
    for length in range(bound + 1):
        yield from product(letters, repeat=length)


def random_parity_game(rng: Random, num_positions: int, max_rank: int,
                       max_degree: int = 3) -> Arena:
    """Random single-channel max-parity game, every position non-terminal."""
    owner = tuple(rng.randint(0, 1) for _ in range(num_positions))
    edges = []
    for _ in range(num_positions):
        degree = rng.randint(1, max_degree)
        out = tuple((rng.randrange(num_positions), (rng.randint(0, max_rank),))
                    for _ in range(degree))
        edges.append(out)
    return Arena(owner, tuple(edges), 0, ((0, max_rank),))


def random_multi_arena(rng: Random, num_positions: int,
                       channels: tuple[tuple[int, int], ...],
                       max_degree: int = 3) -> Arena:
    owner = tuple(rng.randint(0, 1) for _ in range(num_positions))
    edges = []
    for _ in range(num_positions):
        degree = rng.randint(1, max_degree)
        out = tuple(
            (rng.randrange(num_positions),
             tuple(rng.randint(lo, hi) for lo, hi in channels))
            for _ in range(degree))
        edges.append(out)
    return Arena(owner, tuple(edges), 0, channels)
