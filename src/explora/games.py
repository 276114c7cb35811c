"""Two-player games on explicit arenas with parity-algebra objectives.

Arenas are finite graphs whose edges carry integer rank tuples (one entry per
channel).  Objectives are boolean combinations of per-channel atoms "the
maximal rank appearing infinitely often on channel c is even"; owner 0 is the
protagonist of the objective.  Such an objective is compiled into a single
max-parity condition by building the Zielonka tree of the induced Muller
condition over occurring color tuples, deriving a deterministic parity
condition automaton from it, and taking the part of its product with the
arena that is reachable from the arena's positions, interned with the int key
``p * m + q`` for arena position p and condition state q.

There is one graph layout from the product to the verifier: an `Arena`'s
``edges[u]``, a tuple of ``(dst, (rank,))`` pairs, where an edge's index in
that tuple names it in strategies.  `solve_parity` solves it by Zielonka's
algorithm on edge ranks, reading these tuples as the successor lists; the one
conversion, in `_EdgeRankGame`, adds the predecessor index and each
position's rank bounds.  `verify_strategy` checks the positional strategies
it extracts by cycle analysis on the same tuples.

Attractor processing order, strategy edge choice and tree child order depend
only on the input, so outputs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import product as _product, repeat
from math import inf
from typing import Iterable, Optional

from .automata import explore_graph, parity_cycle
from .errors import ParseError, SolverCheckFailed

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


def format_objective(obj: Objective) -> str:
    if isinstance(obj, MaxEvenParity):
        return f"p{obj.channel}"
    if isinstance(obj, Not):
        return f"not {format_objective(obj.sub)}"
    tag = "and" if isinstance(obj, And) else "or"
    return f"{tag} {format_objective(obj.left)} {format_objective(obj.right)}"


OBJECTIVE_DEPTH = 100  # operators on one path, well inside the recursion limit


def parse_objective(text: str, source: str = "<objective>", line: int = 1) -> Objective:
    """Prefix notation: ``p<channel>``, ``not E``, ``and E E``, ``or E E``,
    nested at most OBJECTIVE_DEPTH operators deep; errors are reported at
    `line` of `source`."""
    tokens = text.split()
    pos = 0

    def expr(depth: int = 0) -> Objective:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError(source, line, "an objective term")
        tok = tokens[pos]
        pos += 1
        if tok in ("not", "and", "or") and depth == OBJECTIVE_DEPTH:
            raise ParseError(source, line, f"at most {OBJECTIVE_DEPTH} nested operators")
        if tok == "not":
            return Not(expr(depth + 1))
        if tok in ("and", "or"):
            cls = And if tok == "and" else Or
            return cls(expr(depth + 1), expr(depth + 1))
        if tok.startswith("p") and tok[1:].isdigit():
            return MaxEvenParity(int(tok[1:]))
        raise ParseError(source, line, f"p<channel>/not/and/or, got {tok!r}")

    result = expr()
    if pos != len(tokens):
        raise ParseError(source, line, "end of objective expression")
    return result


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
    values = [sorted({t[c] for t in tuples}) for c in range(width)]
    candidates: set[frozenset[Color]] = set()
    for caps in _product(*values):
        sub = frozenset(t for t in tuples if all(t[c] <= caps[c] for c in range(width)))
        if sub and sub != tuples and obj.holds(sub) != member:
            candidates.add(sub)
    return [
        s for s in candidates
        if not any(s < other for other in candidates)
    ]


def zielonka_tree(obj: Objective, occurring: Iterable[Color]) -> ZielonkaNode:
    """Tree of maximal membership-flipping subsets, root = all occurring tuples."""
    tuples = frozenset(occurring)
    if not tuples:
        raise ValueError("need at least one occurring color tuple")

    def build(ts: frozenset[Color]) -> ZielonkaNode:
        member = obj.holds(ts)
        kids = [build(sub) for sub in
                sorted(_maximal_differing_subsets(obj, ts, member),
                       key=lambda s: sorted(s))]
        return ZielonkaNode(ts, member, kids)

    return build(tuples)


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
    # collect nodes with depths and parent/branch structure
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
    # membership alternates along every branch, so this is consistent tree-wide
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
    return ConditionAutomaton(
        num_states=len(leaves),
        initial=0,
        lo=shift,
        hi=height + shift,
        delta=delta,
        alphabet=alphabet,
    )


# ---------------------------------------------------------------------------
# compilation and solving


@dataclass
class Strategy:
    """Positional move map; `moves` sends a position (or a (position, memory)
    pair for compiled-product strategies) to an edge index."""

    owner: int
    moves: dict
    memory: Optional[ConditionAutomaton] = None


@dataclass
class SolveResult:
    winning_region_0: frozenset
    winning_region_1: frozenset
    strategy_0: Strategy
    strategy_1: Strategy


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
    """

    def __init__(self, game: Arena):
        self.owner, self.succ = game.owner, game.edges
        self.pred: list[list[int]] = [[] for _ in game.edges]
        self.low, self.high = [], []
        for u, out in enumerate(game.edges):
            lo, hi = inf, -inf
            for i, (v, (r,)) in enumerate(out):
                self.pred[v] += u, r, i
                if r < lo:
                    lo = r
                if r > hi:
                    hi = r
            if hi == -inf:  # Zielonka would recurse on one subgame forever
                raise ValueError(f"position {u} has no edge")
            self.low.append(lo)
            self.high.append(hi)
        self.move = [0] * len(game.edges)

    def attractor(self, sub, player: int, cap: int, targets=(), top=False) -> set:
        """Positions of the subgame (sub, cap) from which `player` forces
        reaching `targets` or, when `top` is set, taking an edge of rank
        `cap`; records the edge each attracted `player` position takes."""
        owner, succ, pred, move = self.owner, self.succ, self.pred, self.move
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
    edge ranks.

    Regions partition the positions; both strategies are positional and
    checked by independent cycle analysis.  A failed check raises
    `SolverCheckFailed`, and a position without an edge `ValueError`.
    """
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
    if not (verify_strategy(game, region0, strategy_0, 0)
            and verify_strategy(game, region1, strategy_1, 1)):
        raise SolverCheckFailed("extracted strategies failed verification")
    return SolveResult(region0, region1, strategy_0, strategy_1)


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


def solve(arena: Arena, obj: Objective) -> SolveResult:
    """Compile the objective and solve; regions are reported over the original
    positions (each position evaluated with the condition automaton restarted),
    strategies become memory-structured with the condition automaton as memory
    and are keyed by (position, memory) pairs.
    """
    product, cond = compile_objective(arena, obj)
    inner = solve_parity(product)
    n = arena.num_positions
    region0 = frozenset(p for p in range(n) if p in inner.winning_region_0)
    region1 = frozenset(range(n)) - region0

    def lift(strat):
        moves = dict(sorted((product.labels[i], edge_idx)
                            for i, edge_idx in strat.moves.items()))
        return Strategy(strat.owner, moves, memory=cond)

    return SolveResult(region0, region1, lift(inner.strategy_0), lift(inner.strategy_1))


# ---------------------------------------------------------------------------
# arena text format (solve-game CLI)


def format_arena(arena: Arena, obj: Objective) -> str:
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


def parse_arena(text: str, source: str = "<string>") -> tuple[Arena, Objective]:
    from .textio import _Reader, _is_int  # shared line reader

    r = _Reader(text, source)
    no, line = r.next("'arena' header")
    if line != "arena":
        raise ParseError(source, no, "'arena' header")
    n = r.int_field("positions", 1)
    initial = r.int_field("initial", 0, n - 1)
    k = r.int_field("channels", 1)
    channels = r.channel_ranges(k)
    no, parts = r.keyword_line("owner")
    if len(parts) != n or not all(p in ("0", "1") for p in parts):
        raise ParseError(source, no, f"{n} owner bits after 'owner:'")
    owner = tuple(int(p) for p in parts)
    edges: list[list] = [[] for _ in range(n)]
    obj = None
    while r.peek() is not None:
        no, line = r.next("edge or objective line")
        if line.startswith("objective:"):
            obj = parse_objective(line.split(":", 1)[1], source, no)
            if max_channel(obj) >= k:
                raise ParseError(source, no, f"objective channels below {k}, "
                                 f"got p{max_channel(obj)}")
            continue
        parts = line.split()
        if parts[0] != "e" or len(parts) != 3 + k:
            raise ParseError(source, no, f"'e <src> <dst>' plus {k} ranks")
        if not all(_is_int(p) for p in parts[1:]):
            raise ParseError(source, no, "integer positions and ranks in edge")
        src, dst = int(parts[1]), int(parts[2])
        if not (0 <= src < n and 0 <= dst < n):
            raise ParseError(source, no, f"positions in [0, {n - 1}], got {src} and {dst}")
        color = tuple(int(p) for p in parts[3:])
        for c, ((lo, hi), rank) in enumerate(zip(channels, color)):
            if not lo <= rank <= hi:
                raise ParseError(source, no, f"channel {c} rank in [{lo}, {hi}], got {rank}")
        edges[src].append((dst, color))
    for p, out in enumerate(edges):
        if not out:
            raise ParseError(source, r.end, f"an edge out of position {p}")
    if obj is None:
        raise ParseError(source, r.end, "an 'objective:' line")
    return Arena(owner, tuple(tuple(e) for e in edges), initial, tuple(channels)), obj
