"""Reference implementations that the tests compare the library against.

Production never calls these.  Each one takes the plain, slower route that the
library's implementation was optimised away from, so an agreement test pins
the optimised code to it.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import replace
from itertools import combinations_with_replacement, product
from random import Random
from typing import Iterator, Optional

from explora import config
from explora.automata import (AnyAutomaton, Automaton, EquivalenceVerdict,
                              LassoWord, MultiAutomaton, Transition,
                              canonical_parity, complete, explore_graph,
                              iter_lassos, member_finite, member_lasso,
                              ranked_01)
from explora.determinize import Monitor, breakpoint_construction, resolve_monitor
from explora.errors import MonitorCheckFailed, SolverCheckFailed
from explora.games import (Arena, Color, ConditionAutomaton, MaxEvenParity,
                           Not, Or, SolveResult, Strategy, ZielonkaNode,
                           _trampoline, any_of, condition_automaton,
                           explore_arena, solve_parity, verify_strategy,
                           zielonka_tree)
from explora.textio import format_objective


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


def maximal_differing_subsets_reference(obj, tuples: frozenset[Color],
                                        member: bool) -> list[frozenset[Color]]:
    """`games._maximal_differing_subsets` without its pruning: the set of
    every cap is computed and tested, and the maximal ones kept."""
    width = len(next(iter(tuples)))
    values = [sorted({t[c] for t in tuples}) for c in range(width)]
    candidates = set()
    for caps in product(*values):
        sub = frozenset(t for t in tuples if all(t[c] <= caps[c] for c in range(width)))
        if sub and sub != tuples and obj.holds(sub) != member:
            candidates.add(sub)
    return [s for s in candidates if not any(s < other for other in candidates)]


def zielonka_tree_recursive(obj, occurring) -> ZielonkaNode:
    """`games.zielonka_tree` as a recursion, one call per tree level, that
    evaluates the objective again at every node and tests every cap."""
    tuples = frozenset(occurring)
    if not tuples:
        raise ValueError("need at least one occurring color tuple")

    def build(ts: frozenset[Color]) -> ZielonkaNode:
        member = obj.holds(ts)
        kids = [build(sub) for sub in
                sorted(maximal_differing_subsets_reference(obj, ts, member),
                       key=lambda s: sorted(s))]
        return ZielonkaNode(ts, member, kids)

    return build(tuples)


def condition_automaton_recursive(tree: ZielonkaNode) -> ConditionAutomaton:
    """`games.condition_automaton` from a recursive walk that tables each
    node's depth, parent and first leaf, each leaf rebuilding its branch
    from the parent table."""
    leaves: list[ZielonkaNode] = []
    depth: dict[int, int] = {}
    parent: dict[int, Optional[ZielonkaNode]] = {}
    first_leaf: dict[int, int] = {}

    def walk(node: ZielonkaNode, d: int, par: Optional[ZielonkaNode]):
        depth[id(node)] = d
        parent[id(node)] = par
        if not node.children:
            first_leaf[id(node)] = len(leaves)
            leaves.append(node)
        else:
            start = len(leaves)
            for child in node.children:
                walk(child, d + 1, node)
            first_leaf[id(node)] = start

    walk(tree, 0, None)
    height = max(depth[id(l)] for l in leaves)
    shift = 0 if (height % 2 == 0) == tree.member else 1
    prio = lambda node: height - depth[id(node)] + shift

    alphabet = tree.tuples
    delta: dict[tuple[int, Color], tuple[int, int]] = {}
    for idx, leaf in enumerate(leaves):
        branch = [leaf]
        while parent[id(branch[-1])] is not None:
            branch.append(parent[id(branch[-1])])
        # branch[0] = leaf ... branch[-1] = root
        for color in sorted(alphabet):
            support = next(n for n in branch if color in n.tuples)
            if support is leaf:
                target = idx
            else:
                below = branch[branch.index(support) - 1]
                siblings = support.children
                i = next(j for j, c in enumerate(siblings) if c is below)
                target = first_leaf[id(siblings[(i + 1) % len(siblings)])]
            delta[(idx, color)] = (target, prio(support))
    return ConditionAutomaton(num_states=len(leaves), initial=0, lo=shift,
                              hi=height + shift, delta=delta, alphabet=alphabet)


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
    return SolveResult(region0, region1, strategy_0, strategy_1, None)  # cycle-checked


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
    moves recomputed at every token-player position, spread first (a stable
    sort of the sorted moves, most distinct states first), and the bad test
    run again to collect the bad positions."""
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
        spread = sorted(multiset_moves_reference(a, tokens, letter),
                        key=lambda dsts: -len(set(dsts)))
        return [((dsts, m2), (1,)) for dsts in spread]

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


def solve_finite_game_reference(a, monitor: Monitor, k: int):
    """The finite-word game built in full and its attractor computed after,
    in a second pass, returned as `_solve_finite_game` returns them: whether
    the initial position is outside the attractor, every letter-player
    position with whether it is attracted, and every token-player position
    outside the attractor with its first edge that stays outside."""
    arena, _, bad_ids = build_finite_game_reference(a, monitor, k)
    attr = _spoiler_attractor(arena, bad_ids)
    labels = arena.labels
    lost = {labels[p]: p in attr for p in range(arena.num_positions) if arena.owner[p] == 1}
    current = {labels[p]: labels[next(d for d, _ in arena.edges[p] if d not in attr)]
               for p in range(arena.num_positions) if arena.owner[p] == 0 and p not in attr}
    return arena.initial not in attr, lost, current


# The game on token tuples with joint token moves of its own; production plays
# it as one token of the union power.


def build_breakpoint_game_reference(a, monitor: Monitor, k: int):
    """The infinite-word k-token game on breakpoint multisets, unshared:
    a token is a (clean, state) pair of ``canonical_parity(a)``, and a
    token-player position is (tokens, m, letter), one per monitor state even
    where two monitor states step to the same successor.  Each move lists
    every joint token move and sorts it into a multiset; ranks as in
    `explorability._breakpoint_tokens` (2 at a monitor rank 1, else 1 at a
    breakpoint, else 0)."""
    a = canonical_parity(complete(a))
    mon = monitor.automaton
    mon_delta = {key: succ[0] for key, succ in mon.delta.items()}

    def expand(key):
        if len(key) == 2:
            tokens, m = key
            return [((tokens, m, letter), (0,)) for letter in a.alphabet]
        tokens, m, letter = key
        m2, mrank = mon_delta[(m, letter)]
        options = [{(clean and r == 0, d) for d, r in a.successors(q, letter)}
                   for clean, q in tokens]
        out = []
        for dsts in sorted({tuple(sorted(combo)) for combo in product(*options)}):
            reset = not any(clean for clean, _ in dsts)
            if reset:  # a breakpoint: every token becomes clean again
                dsts = tuple((True, q) for _, q in dsts)
            out.append(((dsts, m2), (2 if mrank else int(reset),)))
        return out

    order, edges = explore_graph([(tuple([(True, a.initial)] * k), mon.initial)], expand)
    arena = Arena(
        owner=tuple(1 if len(key) == 2 else 0 for key in order),
        edges=tuple(edges),
        initial=0,
        channels=((0, 2),),
        labels=tuple(order),
    )
    return arena, MaxEvenParity(0)


def subset_reference(a: Automaton) -> tuple[Automaton, list]:
    """`determinize._subset` on frozensets: each subset is interned as
    itself and stepped with ``post``."""
    order, edges = explore_graph(
        [frozenset({a.initial})],
        lambda s: [(a.post(s, letter), letter) for letter in a.alphabet])
    transitions = [Transition(src, letter, dst, 0)
                   for src, out in enumerate(edges) for dst, letter in out]
    accepting = frozenset(i for i, s in enumerate(order) if s & a.accepting)
    monitor = Automaton.build(
        f"subset({a.name})", a.alphabet, len(order), 0, "finite",
        transitions, accepting)
    return monitor, order


def breakpoint_reference(a: Automaton) -> tuple[Automaton, list]:
    """`determinize._breakpoint` on frozensets: each (S, B) pair is
    interned as itself, S stepped with ``post`` and B along the rank-0
    successors read off ``successors``."""

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
    monitor = Automaton.build(
        f"breakpoint({a.name})", a.alphabet, len(order), 0, "parity",
        transitions, parity=(0, 1))
    return monitor, order


def build_elimination_game_reference(a: Automaton) -> Arena:
    """The elimination game before contraction and sharing: positions are
    (support, challenger, monitor state) with a protector letter position
    (support, challenger, monitor state, letter) behind every letter edge and
    relocation positions ("elim", support, monitor state); each support step
    is recomputed with ``post``.  Same ranks and rank-3 check as
    `omega.build_elimination_game`."""
    if not ranked_01(a):
        raise ValueError("elimination game needs an automaton ranked in [0, 1]")
    a = canonical_parity(complete(a))
    monitor = breakpoint_construction(a).automaton
    mon_delta = {key: succ[0] for key, succ in monitor.delta.items()}
    posts: dict = {}  # (support, letter) -> its successor support, one step each

    def expand(key):
        if len(key) == 4:  # Protector picks the challenger transition
            support, q, p, letter = key
            support2 = posts.get((support, letter))
            if support2 is None:
                support2 = posts[(support, letter)] = a.post(support, letter)
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
    arena = explore_arena(start, expand,
                          lambda key: 0 if len(key) == 3 and key[0] != "elim" else 1, ((1, 3),))
    # rank-3 edges occur exactly at breakpoint monitor transitions
    for i, key in enumerate(arena.labels):
        if len(key) == 4:
            _, mrank = mon_delta[(key[2], key[3])]
            if any((color[0] == 3) != (mrank == 1) for _, color in arena.edges[i]):
                raise MonitorCheckFailed(
                    f"rank-3 edges of position {i} miss the monitor's breakpoints")
    return arena


def _token_channels(a: AnyAutomaton) -> tuple[tuple[int, int], ...]:
    if isinstance(a, MultiAutomaton):
        return a.channels
    return (a.rank_range,)


def _tuple_moves(a: AnyAutomaton, tokens: tuple[int, ...], letter: str):
    """All joint token moves with their per-token rank vectors."""
    options = []
    for state in tokens:
        succ = a.successors(state, letter)
        if isinstance(a, MultiAutomaton):
            options.append([(d, ranks) for d, ranks in succ])
        else:
            options.append([(d, (r,)) for d, r in succ])
    moves = set()
    for combo in product(*options):
        dsts = tuple(d for d, _ in combo)
        ranks = tuple(r for _, rk in combo for r in rk)
        moves.add((dsts, ranks))
    return sorted(moves)


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


def rotate(w: LassoWord, i: int) -> LassoWord:
    """Push i letters of the period into the prefix (same omega-word)."""
    i %= len(w.period)
    return LassoWord(w.prefix + w.period[:i], w.period[i:] + w.period[:i])


def unrolled(w: LassoWord) -> LassoWord:
    """Same word written as prefix.period (period.period)^omega."""
    return LassoWord(w.prefix + w.period, w.period + w.period)


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


def random_ranked_game(rng: Random, num_positions: int, ranks,
                       max_degree: int = 3) -> Arena:
    """Random single-channel game whose edge ranks are drawn from `ranks`."""
    owner = tuple(rng.randint(0, 1) for _ in range(num_positions))
    edges = tuple(
        tuple((rng.randrange(num_positions), (rng.choice(ranks),))
              for _ in range(rng.randint(1, max_degree)))
        for _ in range(num_positions))
    return Arena(owner, edges, 0, ((min(ranks), max(ranks)),))


def random_three_rank_game(rng: Random, num_positions: int, lo: int,
                           middle: bool = True, max_degree: int = 3) -> Arena:
    """Random single-channel game whose ranks are lo and lo + 2, and lo + 1
    too when `middle` is set."""
    ranks = (lo, lo + 1, lo + 2) if middle else (lo, lo + 2)
    return random_ranked_game(rng, num_positions, ranks, max_degree)


def progress_measure_mutants(game: Arena, result: SolveResult) -> dict:
    """Forged certificates of a solve, as name -> (moves, measures) for
    `games.check_progress_measures`, each one wrong:

    - ``off-by-one <player> <rank>``, for each player and each rank of its
      strategy-restricted graph: at the source of the first edge of that
      rank, not a self-loop, the measure one step past what the edge allows,
      whether it must lower the opponent's digits or only not raise them;
    - ``short <player>``: the player's measure list one position short;
    - ``redirected``: the least strategy move that has an edge leaving its
      region sent along that edge.

    A mutant the game offers no place for is left out."""
    measures = result.measures
    regions = (result.winning_region_0, result.winning_region_1)
    moves = (result.strategy_0.moves, result.strategy_1.moves)
    mutants = {}

    def forged(player, move=None, values=None):
        out_moves, out_values = list(moves), list(measures.values)
        if move is not None:
            out_moves[player] = {**moves[player], **move}
        if values is not None:
            out_values[player] = values
        return tuple(out_moves), replace(measures, values=tuple(out_values))

    for player in (0, 1):
        values = measures.values[player]
        opponent = [r for r in measures.ranks if r % 2 != player]
        for u in sorted(regions[player]):
            out = game.edges[u]
            if game.owner[u] == player:
                out = (out[moves[player][u]],)
            for v, (r,) in out:
                name = f"off-by-one {player} {r}"
                if v != u and name not in mutants:
                    # the digits of the opponent's ranks >= r, one below the least allowed
                    shift = measures.width * sum(o < r for o in opponent)
                    past = ((values[v] >> shift) + (r % 2 != player) - 1) << shift
                    mutants[name] = forged(player, values=[
                        past if p == u else x for p, x in enumerate(values)])
        if regions[player]:
            mutants[f"short {player}"] = forged(player, values=values[:-1])
    for u, player in sorted((u, game.owner[u]) for u in range(game.num_positions)):
        away = [i for i, (v, _) in enumerate(game.edges[u]) if v not in regions[player]]
        if u in regions[player] and away:
            mutants["redirected"] = forged(player, move={u: away[0]})
            break
    return mutants


def format_arena(arena: Arena, obj) -> str:
    """The arena in the text format that `textio.parse_arena` reads."""
    out = ["arena",
           f"positions: {arena.num_positions}",
           f"initial: {arena.initial}",
           f"channels: {len(arena.channels)}"]
    for c, (lo, hi) in enumerate(arena.channels):
        out.append(f"range: {c} {lo} {hi}")
    out.append("owner: " + " ".join(str(o) for o in arena.owner))
    for p in range(arena.num_positions):
        for dst, color in arena.edges[p]:
            out.append(f"e {p} {dst} " + " ".join(map(str, color)))
    out.append("objective: " + format_objective(obj))
    return "\n".join(out) + "\n"
