"""Two-player games on explicit arenas with parity-algebra objectives.

Arenas are finite graphs whose edges carry integer rank tuples (one entry per
channel).  `explore_arena` is the one constructor of every explored game (the
k-token game, the elimination game and the Eve-versus-k-Adam token game):
the positions reachable from a root, in BFS order, labelled by their keys.
Objectives are boolean combinations of per-channel atoms "the
maximal rank appearing infinitely often on channel c is even"; owner 0 is the
protagonist of the objective.  Such an objective is compiled into a single
max-parity condition by building the Zielonka tree of the induced Muller
condition over occurring color tuples, deriving a deterministic parity
condition automaton from it, and taking the part of its product with the
arena that is reachable from the arena's positions, interned with the int key
``p * m + q`` for arena position p and condition state q.  The tree and the
automaton are built on explicit stacks, so the compiler runs at a constant
call depth however deep the tree.

There is one graph layout from the product to the verifier: an `Arena`'s
``edges[u]``, a tuple of ``(dst, (rank,))`` pairs, where an edge's index in
that tuple names it in strategies.  `solve_parity` solves it by Zielonka's
algorithm on edge ranks, reading these tuples as the successor lists; the one
conversion, in `_EdgeRankGame`, adds the predecessor index and each
position's rank bounds.  Whatever the ranks, the solve's attractor order
yields both regions' progress measures (Jurdzinski, STACS 2000), and
`check_progress_measures` checks the two positional strategies with them in
one pass over the same tuples.

Attractor processing order, strategy edge choice and tree child order depend
only on the input, so outputs are deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import product as _product, repeat
from math import inf
from typing import Iterable, Optional

from .automata import explore_graph, parity_cycle
from .errors import SolverCheckFailed

Color = tuple[int, ...]


# ---------------------------------------------------------------------------
# arenas


@dataclass(frozen=True)
class Arena:
    """Game graph: owner-0/owner-1 positions, colored edges, initial position.

    ``edges[p]`` is a tuple of ``(dst, color)`` pairs; every position must
    have at least one outgoing edge (plays are infinite).
    """

    owner: tuple[int, ...]
    edges: tuple[tuple[tuple[int, Color], ...], ...]
    initial: int
    channels: tuple[tuple[int, int], ...]
    labels: Optional[tuple] = None

    @property
    def num_positions(self) -> int:
        return len(self.owner)

    def occurring_colors(self) -> frozenset[Color]:
        return frozenset(color for outgoing in self.edges for _, color in outgoing)


def explore_arena(root, expand, owner, channels) -> Arena:
    """The arena of the positions reachable from `root`, numbered in
    `automata.explore_graph`'s BFS order from root = position 0:
    ``expand(key)`` lists a position's ``(successor key, color)`` pairs,
    ``owner(key)`` its owner, and ``labels[i]`` is position i's key."""
    order, edges = explore_graph([root], expand)
    return Arena(tuple(map(owner, order)), tuple(edges), 0, channels, tuple(order))


# ---------------------------------------------------------------------------
# objectives


class Objective:
    def holds(self, tuples: Iterable[Color]) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class MaxEvenParity(Objective):
    channel: int

    def holds(self, tuples):
        return max(t[self.channel] for t in tuples) % 2 == 0


@dataclass(frozen=True)
class Not(Objective):
    sub: Objective

    def holds(self, tuples):
        return not self.sub.holds(tuples)


@dataclass(frozen=True)
class And(Objective):
    left: Objective
    right: Objective

    def holds(self, tuples):
        return self.left.holds(tuples) and self.right.holds(tuples)


@dataclass(frozen=True)
class Or(Objective):
    left: Objective
    right: Objective

    def holds(self, tuples):
        return self.left.holds(tuples) or self.right.holds(tuples)


def any_of(objectives) -> Objective:
    return reduce(Or, objectives)


def all_of(objectives) -> Objective:
    return reduce(And, objectives)


def max_channel(obj: Objective) -> int:
    if isinstance(obj, MaxEvenParity):
        return obj.channel
    if isinstance(obj, Not):
        return max_channel(obj.sub)
    return max(max_channel(obj.left), max_channel(obj.right))


# ---------------------------------------------------------------------------
# Zielonka tree and condition automaton


@dataclass
class ZielonkaNode:
    tuples: frozenset[Color]
    member: bool
    children: list["ZielonkaNode"] = field(default_factory=list)


def _maximal_differing_subsets(obj: Objective, tuples: frozenset[Color],
                               member: bool) -> list[frozenset[Color]]:
    """Maximal proper subsets whose objective membership flips.

    Because the objective only depends on per-channel maxima, every maximal
    differing subset is a "cap set" {t : t <= v componentwise}, so it suffices
    to enumerate caps over the values present on each channel.
    """
    width = len(next(iter(tuples)))
    values = [sorted({t[c] for t in tuples}, reverse=True) for c in range(width)]
    flipped: list[Color] = []  # caps whose set flips membership
    candidates: set[frozenset[Color]] = set()
    # every cap comes after the caps above it, and one below a flipped cap
    # has a subset of that cap's set, so it adds no maximal set
    for caps in _product(*values):
        if any(all(x <= y for x, y in zip(caps, f)) for f in flipped):
            continue
        sub = frozenset(t for t in tuples if all(t[c] <= caps[c] for c in range(width)))
        if sub and sub != tuples and obj.holds(sub) != member:
            flipped.append(caps)
            candidates.add(sub)
    return [
        s for s in candidates
        if not any(s < other for other in candidates)
    ]


def zielonka_tree(obj: Objective, occurring: Iterable[Color]) -> ZielonkaNode:
    """Tree of maximal membership-flipping subsets, root = all occurring
    tuples, built from a stack.  A child's membership is its parent's
    negated, since a maximal differing subset flips it."""
    tuples = frozenset(occurring)
    if not tuples:
        raise ValueError("need at least one occurring color tuple")
    root = ZielonkaNode(tuples, obj.holds(tuples))
    stack = [root]
    while stack:
        node = stack.pop()
        node.children = [ZielonkaNode(sub, not node.member) for sub in sorted(
            _maximal_differing_subsets(obj, node.tuples, node.member), key=sorted)]
        stack += node.children
    return root


@dataclass
class ConditionAutomaton:
    """Deterministic parity automaton over color tuples, derived from a
    Zielonka tree; accepts a tuple word iff the objective holds of the set of
    tuples occurring infinitely often."""

    num_states: int
    initial: int
    lo: int
    hi: int
    delta: dict[tuple[int, Color], tuple[int, int]]
    alphabet: frozenset[Color]


def condition_automaton(tree: ZielonkaNode) -> ConditionAutomaton:
    """States are the leaves, numbered depth-first.  A leaf loops on the
    colors it holds; on another color, the deepest node of its branch that
    holds it passes to the first leaf under its next child, cyclically."""
    leaves: list[tuple[ZielonkaNode, tuple]] = []  # leaf, (node, child index) from the root
    first_leaf: dict[int, int] = {}
    stack = [(tree, ())]
    while stack:
        node, branch = stack.pop()
        first_leaf[id(node)] = len(leaves)
        if not node.children:
            leaves.append((node, branch))
        stack += reversed([(kid, branch + ((node, i),)) for i, kid in enumerate(node.children)])
    height = max(len(branch) for _, branch in leaves)
    # membership alternates along every branch, so this is consistent tree-wide
    shift = 0 if (height % 2 == 0) == tree.member else 1
    delta: dict[tuple[int, Color], tuple[int, int]] = {}
    for idx, (leaf, branch) in enumerate(leaves):
        for color in sorted(tree.tuples):
            d, target = len(branch), idx
            if color not in leaf.tuples:
                d = max(j for j, (node, _) in enumerate(branch) if color in node.tuples)
                node, i = branch[d]
                target = first_leaf[id(node.children[(i + 1) % len(node.children)])]
            delta[(idx, color)] = (target, height - d + shift)
    return ConditionAutomaton(num_states=len(leaves), initial=0, lo=shift,
                              hi=height + shift, delta=delta, alphabet=tree.tuples)


# ---------------------------------------------------------------------------
# compilation and solving


@dataclass
class Strategy:
    """Positional move map; `moves` sends a position (or a (position, memory)
    pair for compiled-product strategies) to an edge index.  `memory` is the
    condition automaton, or None when the strategy needs none."""

    owner: int
    moves: dict
    memory: Optional[ConditionAutomaton] = None


@dataclass
class ProgressMeasures:
    """Both regions' certificate.  `ranks` are the edge ranks, ascending,
    with the lower + 1 put between any two of one parity; player p's
    measure at u in its region, ``values[p][u]``, has a `width`-bit digit
    per rank of p's opponent's parity there, the highest first."""

    ranks: tuple[int, ...]
    width: int
    values: tuple[list, list]


@dataclass
class SolveResult:
    """`measures` certifies the single-channel solve, as `check_progress_measures` reads it."""

    winning_region_0: frozenset
    winning_region_1: frozenset
    strategy_0: Strategy
    strategy_1: Strategy
    measures: ProgressMeasures


def _atom_condition(arena: Arena, obj: Objective) -> Optional[ConditionAutomaton]:
    """The one-state condition automaton of ``p<c>``, which passes channel
    c's rank through, or of ``not p<c>``, which shifts it up by one; None
    for any other objective."""
    shift = 1 if isinstance(obj, Not) else 0
    atom = obj.sub if shift else obj
    if not isinstance(atom, MaxEvenParity):
        return None
    c = atom.channel
    colors = arena.occurring_colors()
    lo, hi = arena.channels[c]
    return ConditionAutomaton(
        num_states=1, initial=0, lo=lo + shift, hi=hi + shift,
        delta={(0, color): (0, color[c] + shift) for color in colors},
        alphabet=colors)


def compile_objective(arena: Arena, obj: Objective) -> tuple[Arena, ConditionAutomaton]:
    """Product of the arena with the condition automaton of the objective,
    interned from the pairs ``(p, initial condition state)`` of every arena
    position p, in order, so that product position ``p < n`` is arena
    position p with the condition restarted.  Only pairs reachable from these
    are built; ``labels[i]`` is the ``(p, q)`` pair of product position i.
    The single max-parity channel is won by owner 0 iff the objective holds
    of the play's infinitely-occurring tuples.  A single atom, negated or
    not, needs no Zielonka tree.
    """
    if max_channel(obj) >= len(arena.channels):
        raise ValueError("objective references a channel the arena lacks")
    cond = _atom_condition(arena, obj)
    if cond is None:
        cond = condition_automaton(zielonka_tree(obj, arena.occurring_colors()))
    m = cond.num_states
    # per color, per condition state: (next state, rank channel vector)
    step = {color: tuple((q2, (rank,)) for q2, rank in
                         (cond.delta[(q, color)] for q in range(m)))
            for color in cond.alphabet}
    moves = [[(dst * m, step[color]) for dst, color in out] for out in arena.edges]

    def expand(key):
        p, q = divmod(key, m)
        out = []
        for base, row in moves[p]:
            q2, rank = row[q]
            out.append((base + q2, rank))
        return out

    order, edges = explore_graph(range(cond.initial, arena.num_positions * m, m), expand)
    labels = tuple(map(divmod, order, repeat(m)))
    product = Arena(
        owner=tuple([arena.owner[p] for p, _ in labels]),
        edges=tuple(edges),
        initial=arena.initial,
        channels=((cond.lo, cond.hi),),
        labels=labels,
    )
    return product, cond


class _EdgeRankGame:
    """A single-channel parity game solved by Zielonka's algorithm directly
    on edge ranks.

    The successor lists are the arena's own edge tuples, so an edge index is
    its place in ``edges[u]``.  Built here, once per game: the predecessor
    index, with the source, rank and edge index of each edge into v laid out
    flat in ``pred[v]``, and the least and largest rank out of each position.
    A subgame is a position set `sub` with a rank cap: it keeps the edges of
    rank <= cap between positions of `sub`, and every position of `sub` keeps
    at least one.  `move[p]` ends up as the edge index the winner of p takes
    there, when p is the winner's.

    One clock runs through the whole solve; ``ticks[i]`` keeps the last
    ticks of ``ranks[i]`` for the player whose opponent's rank it is.  An
    attractor of player p at top rank d stamps the list of p's opponent's
    highest rank <= d (or the spare ``ticks[-1]``): its starting positions,
    the rank-d takers or its targets, with one shared tick, and each later
    one with a tick of its own.  An iteration whose d falls below its cap
    stamps its subgame with one shared tick in the lists of ranks in (d, cap].
    """

    def __init__(self, game: Arena):
        self.owner, self.succ = game.owner, game.edges
        self.pred = pred = [[] for _ in game.edges]
        self.low, self.high = low, high = [], []
        for u, out in enumerate(game.edges):
            lo, hi = inf, -inf
            for i, (v, (r,)) in enumerate(out):
                pred[v] += u, r, i
                if r < lo:
                    lo = r
                if r > hi:
                    hi = r
            if hi == -inf:  # Zielonka would recurse on one subgame forever
                raise ValueError(f"position {u} has no edge")
            low.append(lo)
            high.append(hi)
        ranks = sorted({*low, *high})
        if any(b - a > 2 for a, b in zip(ranks, ranks[1:])):  # a gap a rank might hide in
            ranks = sorted({r for out in game.edges for _, (r,) in out})
        self.ranks = sorted({*ranks, *(a + 1 for a, b in zip(ranks, ranks[1:]) if a % 2 == b % 2)})
        self.slot = {r: i for i, r in enumerate(self.ranks)}
        self.ticks = [[0] * len(game.edges) for _ in range(len(self.ranks) + 1)]
        self.move, self.clock = [0] * len(game.edges), 1

    def attractor(self, sub, player: int, cap: int, targets=(), top=False) -> set:
        """Positions of the subgame (sub, cap) from which `player` forces
        reaching `targets` or, when `top` is set, taking a rank-cap edge;
        records each attracted `player` position's edge, and stamps them."""
        owner, succ, pred, move = self.owner, self.succ, self.pred, self.move
        stamp = self.ticks[self.slot[cap] - (player == cap % 2)]
        attr = set(targets)
        queue = list(attr)
        left: dict[int, int] = {}  # opponent position -> edges not yet pulled
        if top:
            # a player position takes its first rank-cap edge; an opponent one
            # keeps its lower edges, the only ones pulled from here on
            low, high = self.low, self.high
            for u in sub:
                if high[u] < cap:
                    continue
                first, k = None, 0
                for i, (v, (r,)) in enumerate(succ[u]):
                    if r <= cap and v in sub:
                        if r < cap:
                            k += 1
                        elif first is None:
                            first = i
                            if owner[u] == player or low[u] >= cap:
                                break
                if first is None:
                    continue
                if owner[u] == player:
                    move[u] = first
                elif k:
                    left[u] = k
                    continue
                attr.add(u)
                queue.append(u)
            cap -= 1
        t = self.clock
        for u in queue:
            stamp[u] = t
        t += 1
        while queue and len(attr) < len(sub):
            edges = iter(pred[queue.pop()])
            for u, r, i in zip(edges, edges, edges):
                if r <= cap and u in sub and u not in attr:
                    if owner[u] == player:
                        move[u] = i
                    else:
                        k = left.get(u)
                        if k is None:
                            k = 0
                            for v, (rv,) in succ[u]:
                                if rv <= cap and v in sub:
                                    k += 1
                        left[u] = k = k - 1
                        if k:
                            continue
                    attr.add(u)
                    queue.append(u)
                    stamp[u] = t
                    t += 1
        self.clock = t
        return attr

    def zielonka(self, sub: set, cap: int):
        """Winning regions of players 0 and 1 in the subgame (sub, cap).

        With d the largest rank left and sigma its parity's player, sigma
        attracts to taking a rank-d edge; what remains is solved below d,
        which is sound because a rank-d edge left there starts at an opponent
        position that also has a lower one.  If the opponent wins nothing
        there, sigma wins `sub`; otherwise the opponent's attractor to its
        region is removed and the loop goes on.  No edge of `sub` ranks above
        d, nor will once `sub` shrinks, so d becomes the cap, and the search
        for the next d stops at the first edge of rank cap.

        A generator for `_trampoline`: it yields the subgame below d and is
        sent back its regions, so however many ranks there are, the Python
        call depth stays constant.
        """
        won: tuple[set, set] = (set(), set())
        succ = self.succ
        while sub:
            d = -inf
            for u in sub:
                for v, (r,) in succ[u]:
                    if d < r <= cap and v in sub:
                        d = r
                if d == cap:
                    break
            if d < cap:  # one shared tick for the ranks (d, cap] skipped
                t, self.clock = self.clock, self.clock + 1
                for stamp in self.ticks[self.slot[d] + 1:bisect_right(self.ranks, cap)]:
                    for u in sub:
                        stamp[u] = t
            cap = d
            sigma = d % 2
            attr = self.attractor(sub, sigma, cap, top=True)
            lost = (yield self.zielonka(sub - attr, d - 1))[1 - sigma]
            if not lost:
                won[sigma].update(sub)
                break
            lost = self.attractor(sub, 1 - sigma, cap, targets=lost)
            won[1 - sigma].update(lost)
            sub = sub - lost
        return won

    def measures(self) -> ProgressMeasures:
        """Pack player p's measure at u from its ticks of p's opponent's ranks."""
        width, values = self.clock.bit_length(), []
        for player in (0, 1):
            lists = [t for r, t in zip(self.ranks, self.ticks) if r % 2 != player]
            value = lists.pop() if lists else [0] * len(self.owner)
            for stamp in reversed(lists):
                value = [x << width | y for x, y in zip(value, stamp)]
            values.append(value)
        return ProgressMeasures(tuple(self.ranks), width, tuple(values))


def _trampoline(gen):
    """Run a generator that yields sub-generators and is sent their return
    values, as a recursion with its frames on a list instead of the stack."""
    stack, value = [gen], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def solve_parity(game: Arena) -> SolveResult:
    """Solve a single-channel max-parity game with Zielonka's algorithm on
    edge ranks.  Regions partition the positions, and both strategies are
    positional and certified by the progress measures in `measures`, which
    `check_progress_measures` checks.  A failed check raises
    `SolverCheckFailed`, and a position without an edge `ValueError`."""
    if len(game.channels) != 1:
        raise ValueError("solve_parity expects a single-channel game")
    n = game.num_positions
    solver = _EdgeRankGame(game)
    w0, w1 = _trampoline(solver.zielonka(set(range(n)), max(solver.high, default=0)))
    region0, region1 = frozenset(w0), frozenset(w1)
    if region0 | region1 != frozenset(range(n)) or region0 & region1:
        raise SolverCheckFailed("winning regions do not partition the positions")

    def moves(region, owner_bit):
        return {p: solver.move[p] for p in sorted(region) if game.owner[p] == owner_bit}

    strategy_0 = Strategy(0, moves(region0, 0))
    strategy_1 = Strategy(1, moves(region1, 1))
    measures = solver.measures()
    check_progress_measures(game, (region0, region1),
                            (strategy_0.moves, strategy_1.moves), measures)
    return SolveResult(region0, region1, strategy_0, strategy_1, measures)


def check_progress_measures(game: Arena, regions, moves, measures: ProgressMeasures) -> None:
    """Raise `SolverCheckFailed` unless, for each player p, ``moves[p]``
    wins ``regions[p]`` as certified by ``measures.values[p]``.

    One pass over the edges the strategy leaves, every edge of an opponent
    position and the chosen edge of a position of p's: none may leave the
    region, and an edge of rank r compares the digits of the opponent's
    ranks >= r, which must be lower at its target if r is the opponent's
    and not higher if r is p's.  On a cycle whose top rank r were the
    opponent's, those digits would never rise and would fall at r, so p
    wins every play kept to the strategy (Jurdzinski, STACS 2000).
    """
    edges, owner, width, n = game.edges, game.owner, measures.width, game.num_positions
    for player in (0, 1):
        region, move, measure = regions[player], moves[player], measures.values[player]
        if len(measure) != n:
            raise SolverCheckFailed(f"player {player} has {len(measure)} of {n} measures")
        rule, shift = {}, 0  # rank -> the bits of the opponent's ranks below it, and is it one
        for r in sorted(measures.ranks):
            rule[r] = shift, (r - player) % 2
            shift += width * ((r - player) % 2)
        for u in region:
            out = edges[u]
            if owner[u] == player:
                i = move.get(u)
                if i is None or not 0 <= i < len(out):
                    raise SolverCheckFailed(f"player {player} has no move at position {u}")
                out = (out[i],)
            mu = measure[u]
            for v, (r,) in out:
                if v not in region:
                    raise SolverCheckFailed(
                        f"edge {u} -> {v} leaves player {player}'s region")
                try:
                    shift, strict = rule[r]
                except KeyError:
                    raise SolverCheckFailed(f"edge {u} -> {v} has an unknown rank {r}") from None
                if (measure[v] >> shift) + strict > mu >> shift:
                    raise SolverCheckFailed(
                        f"edge {u} -> {v}, of rank {r}, breaks player "
                        f"{player}'s progress measure {mu} -> {measure[v]}")


def verify_strategy(game: Arena, region, strategy: Strategy, owner: int) -> bool:
    """True iff the strategy-restricted subgraph stays inside `region` and
    every cycle in it has the owner's winning max-rank parity."""
    region = frozenset(region)
    adj = [()] * game.num_positions
    for p in region:
        out = game.edges[p]
        if game.owner[p] == owner:
            idx = strategy.moves.get(p)
            if idx is None or not 0 <= idx < len(out):
                return False
            out = (out[idx],)
        for dst, _ in out:
            if dst not in region:
                return False
        adj[p] = out
    return parity_cycle(adj, [(0, 1 - owner)]) is None


def _has_perfect_matching(adj) -> bool:
    """True iff left vertex i -> right vertices adj[i], as many on each
    side, match perfectly; Kuhn's augmenting paths, searched on a stack."""
    mate, held = {}, {}  # right vertex -> its left vertex, and back
    for root in range(len(adj)):
        via, todo, free = {}, [root], None  # via: right vertex -> left vertex before it
        while todo and free is None:
            u = todo.pop()
            for j in adj[u]:
                if j not in via:
                    via[j] = u
                    if j not in mate:
                        free = j
                        break
                    todo.append(mate[j])
        if free is None:
            return False
        while free is not None:  # flip the path back to the root
            u = via[free]
            mate[free], held[u], free = u, free, held.get(u)
    return True


def verify_token_strategy(a, mon, k: int, moves: dict) -> dict:
    """Replay `moves`, a finite-word k-token strategy from (tokens, m,
    letter) to (tokens, m) positions, on automaton `a` and monitor automaton
    `mon`: from the initial position, under every letter, it must move the
    monitor to its successor and the tokens, as a multiset, along
    transitions of `a` (a perfect matching of old to new tokens), and never
    reach the monitor accepting while no token is.  Returns the moves at the
    positions it reaches, in replay order; raises SolverCheckFailed if not."""
    succ = {key: {d for d, _ in out} for key, out in a.delta.items()}
    start = (tuple([a.initial] * k), mon.initial)
    reached, todo, replayed = {start}, [start], {}
    while todo:
        tokens, m = todo.pop()
        if m in mon.accepting and a.accepting.isdisjoint(tokens):
            raise SolverCheckFailed(f"token strategy reaches the lost position {(tokens, m)}")
        for letter in a.alphabet:
            move = moves.get((tokens, m, letter))
            if move is None:
                raise SolverCheckFailed(f"token strategy has no move at {(tokens, m, letter)}")
            dsts, m2 = move
            if m2 != mon.delta[(m, letter)][0][0]:
                raise SolverCheckFailed(f"token strategy moves the monitor from {m} to {m2}")
            if len(dsts) != k or not _has_perfect_matching(
                    [[j for j, d in enumerate(dsts) if d in succ.get((q, letter), ())]
                     for q in tokens]):
                raise SolverCheckFailed(f"token strategy moves {tokens} to {dsts} by {letter!r}")
            replayed[(tokens, m, letter)] = move
            if move not in reached:
                reached.add(move)
                todo.append(move)
    return replayed


def solve(arena: Arena, obj: Objective) -> SolveResult:
    """Compile the objective and solve; regions are reported over the original
    positions (each position evaluated with the condition automaton restarted),
    strategies become memory-structured with the condition automaton as memory
    and are keyed by (position, memory) pairs.

    A bare ``p0`` on a single-channel arena is solved on the arena itself,
    position p standing for (p, 0): its one-state condition automaton passes
    the rank through, so the product would be the arena again, and the
    strategies need no memory.
    """
    if obj == MaxEvenParity(0) and len(arena.channels) == 1:
        product, cond = arena, None
        label = lambda p: (p, 0)
    else:
        product, cond = compile_objective(arena, obj)
        label = product.labels.__getitem__
    inner = solve_parity(product)
    region0, region1 = inner.winning_region_0, inner.winning_region_1
    if product is not arena:  # each position with the condition automaton restarted
        region0 = frozenset(p for p in range(arena.num_positions) if p in region0)
        region1 = frozenset(range(arena.num_positions)) - region0

    def lift(strat):
        moves = dict(sorted((label(i), edge_idx) for i, edge_idx in strat.moves.items()))
        return Strategy(strat.owner, moves, memory=cond)

    return SolveResult(region0, region1, lift(inner.strategy_0), lift(inner.strategy_1),
                       inner.measures)
