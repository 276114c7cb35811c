"""k-explorability games, bounded explorability search, and the population
control reductions.

The k-explorability game puts k interchangeable tokens on the initial state;
the letter player (Spoiler) picks letters, the token player (Determiniser)
moves every token along a matching transition, and Determiniser wins if some
token's run is accepting whenever the chosen word is in the language.

For finite-word automata the game is a safety game over token multisets
paired with a subset monitor ("never: monitor accepting while no token is").
It is solved on the fly: the letter player's attractor to the bad positions
grows during the walk that interns the arena, and a play of the game stops
the walk as soon as the initial position is attracted, so a lost game is
decided without building its whole arena.  For infinite-word automata the
game is solved through the parity pipeline with the objective

    NOT MaxEvenParity(monitor) OR (OR over the token channels).

The inputs that `automata.ranked_01` admits, whose canonical ranks lie in
[0, 1], play on multisets of (clean, state) tokens with one breakpoint
channel (Miyano and Hayashi, "Alternating finite automata on omega-words",
TCS 1984), so the condition automaton has one state for every k; see
`_breakpoint_tokens`.  Buchi, general parity and multi-channel inputs play
on token tuples, since their per-token rank channels must follow actual runs
and the multiset quotient does not apply: k tokens of `a` are one token of
the k-fold union power `constructions.union_power(a, k)`, whose channels,
one per copy and channel of `a`, grow with k and are capped by
`config.check_channels`.

The token moves do not depend on the monitor state, so every builder
computes them once per (tokens, letter) and shares them between every
monitor state that meets that pair; the memo lives for one build.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from itertools import chain, combinations_with_replacement, groupby, product
from typing import Optional

from . import config
from .automata import (Automaton, AnyAutomaton, canonical_parity, complete,
                       explore_graph, ranked_01)
from .constructions import power_channels, union_power
from .determinize import Monitor, resolve_monitor, subset_construction
from .errors import NonSinkTarget, ReductionCheckFailed
from .games import (Arena, MaxEvenParity, Not, Or, Strategy, any_of, solve)


@dataclass(frozen=True)
class PCPInstance:
    """NFA with a distinguished target state, for the population game."""

    nfa: Automaton
    target: int

    def __post_init__(self):
        if not 0 <= self.target < self.nfa.num_states:
            raise ValueError(f"target state {self.target} is not a state of "
                             f"{self.nfa.name} (0..{self.nfa.num_states - 1})")


@dataclass(frozen=True)
class ExplorabilityVerdict:
    status: str  # "explorable-with" | "not-explorable-up-to"
    k: int
    witness: Optional[Strategy] = None

    @property
    def is_explorable(self) -> Optional[bool]:
        return True if self.status == "explorable-with" else None


# ---------------------------------------------------------------------------
# shared helpers


def _multiset_moves(dests, tokens: tuple, letter: str):
    """Distinct successor multisets reachable by moving every token of the
    sorted tuple `tokens`, in sorted order; `dests` maps (token, letter) to
    its sorted distinct successor tokens."""
    per_state = [list(combinations_with_replacement(dests.get((q, letter), ()),
                                                    len(list(run))))
                 for q, run in groupby(tokens)]
    if len(per_state) == 1:  # one group's combinations are sorted and distinct
        return per_state[0]
    return sorted({tuple(sorted(chain.from_iterable(combo))) for combo in product(*per_state)})


# ---------------------------------------------------------------------------
# the k-explorability game


_BAD = (2,)  # colour of the self-loop on a lost finite-game position


def _build_finite_game(a: Automaton, monitor: Monitor, k: int, stop: bool = False):
    """The finite-word k-token safety game, with the letter player's attractor
    to its bad positions grown during the walk that interns the arena.

    A (tokens, m) position belongs to the letter player and a (tokens, m,
    letter) position to the token player.  The walk attracts a (tokens, m)
    position when it is bad (the monitor accepts while no token does), or as
    soon as one of its letter successors is attracted.  It attracts a
    (tokens, m, letter) position once it has successors and all of them are
    attracted; they are all known when it is expanded.  So the attractor of
    a partial walk is a subset of the full one, and on a finished walk the
    two are equal.  Each (tokens, m, letter) position is fresh when its
    parent is expanded and has no other predecessor, so only the token
    player's positions wait on counters.

    Returns the arena and its attractor.  With `stop`, the walk ends as soon
    as the initial position is attracted, the game is lost, and no arena is
    built: the result is None and the attractor found so far.
    """
    mon = monitor.automaton
    mon_delta = {key: succ[0][0] for key, succ in mon.delta.items()}
    mon_accepting, accepting = mon.accepting, a.accepting
    dests = {key: tuple(sorted({d for d, _ in succ})) for key, succ in a.delta.items()}
    start = tuple([a.initial] * k)
    token_moves: dict = {}  # (tokens, letter) -> successor multisets

    def expand(key):
        if len(key) == 2:
            tokens, m = key
            if m in mon_accepting and accepting.isdisjoint(tokens):
                return [(key, _BAD)]
            return [((tokens, m, letter), (1,)) for letter in a.alphabet]
        tokens, m, letter = key
        m2 = mon_delta[(m, letter)]
        moves = token_moves.get((tokens, letter))
        if moves is None:
            moves = token_moves[(tokens, letter)] = _multiset_moves(dests, tokens, letter)
        return [((dsts, m2), (1,)) for dsts in moves]

    attr: set[int] = set()
    parent: dict[int, int] = {}  # token-player position -> its one predecessor
    missing: dict[int, int] = {}  # token-player position -> successors outside attr
    waiting: defaultdict[int, list[int]] = defaultdict(list)  # letter-player position -> who counts it

    def attract(v):
        # v is a letter-player position outside attr
        attr.add(v)
        stack = [v]
        while stack:
            for t in waiting.pop(stack.pop(), ()):
                missing[t] -= 1
                if not missing[t]:
                    attr.add(t)
                    p = parent[t]
                    if p not in attr:
                        attr.add(p)
                        stack.append(p)

    def visit(i, key, out):
        if len(key) == 2:
            if out != ((i, _BAD),):
                for t, _ in out:
                    parent[t] = i
                return False
            attract(i)
            return stop and 0 in attr
        n = 0
        for v, _ in out:
            if v not in attr:
                waiting[v].append(i)
                n += 1
        if n:
            missing[i] = n
        elif out:
            attr.add(i)
            p = parent[i]
            if p not in attr:
                attract(p)
                return stop and 0 in attr
        return False

    order, edges = explore_graph([(start, mon.initial)], expand, visit)
    if stop and 0 in attr:
        return None, attr
    return _token_arena(order, edges, ((1, 2),)), attr


def _on_breakpoints(a: AnyAutomaton, monitor: Monitor) -> bool:
    """Whether the infinite-word game of `a` is played on breakpoint token
    multisets: `ranked_01` admits `a` and the monitor ranks in [0, 1], as the
    built breakpoint monitor does."""
    return ranked_01(a) and monitor.automaton.rank_range == (0, 1)


def _breakpoint_tokens(a: Automaton, k: int):
    """Token channels, start and moves of the game on breakpoint multisets.

    A token is a (clean, state) pair, and a token stays clean while it takes
    only rank-0 transitions.  When a move leaves no clean token, every token
    becomes clean again and the move carries rank 1 on the one breakpoint
    channel; every other move carries rank 0 there.  The token player wins
    iff the monitor rejects or there are finitely many breakpoints, and that
    happens iff the monitor rejects or some token's run accepts:

    * If some token's run eventually takes no rank-1 transition, then after
      the next breakpoint past that point its element stays clean, so there
      are finitely many breakpoints.
    * If there are finitely many breakpoints, the clean elements after the
      last one, each linked to the element it moved from, form an infinite
      forest of rank-0 runs in which every node has at most k children and
      every level is nonempty.  By Konig's lemma it has an infinite branch,
      and that branch is one token's run from then on.

    The objective depends only on the sequence of multisets, not on which
    token is which, so the quotient by token permutations is sound, and one
    channel serves every k: the condition automaton of ``not p0 or p1`` has
    one state, so the product is the arena's size.
    """
    delta = canonical_parity(a).delta
    dests: dict = {}  # ((clean, state), letter) -> sorted distinct successor tokens

    def moves(tokens, letter):
        for token in tokens:
            if (token, letter) not in dests:
                clean, q = token
                dests[(token, letter)] = tuple(sorted(
                    {(clean and r == 0, d) for d, r in delta[(q, letter)]}))
        out = []
        for dsts in _multiset_moves(dests, tokens, letter):
            if dsts[-1][0]:  # a clean token sorts last
                out.append((dsts, (0,)))
            else:  # a breakpoint: every token becomes clean again
                out.append((tuple((True, q) for _, q in dsts), (1,)))
        return out

    return ((0, 1),), tuple([(True, a.initial)] * k), moves


def _tuple_tokens(a: AnyAutomaton, k: int):
    """Token channels, start and moves of the game on token tuples, played as
    one token on the k-fold union power: its state stands for a tuple of k
    states of `a`, and its rank channels, one per copy and channel of `a`,
    follow actual runs, so the multiset quotient does not apply."""
    power = union_power(a, k)
    view = power.lasso_view
    return view.channels, power.initial, lambda q, letter: view.delta[(q, letter)]


def _build_infinite_game(a: AnyAutomaton, monitor: Monitor, k: int):
    """The infinite-word k-token game and the token player's objective
    ``not p0 or p1 or ... or pw``: the monitor's channel 0 rejects, or some
    token channel is won.  It is played on breakpoint multisets when
    `_on_breakpoints` holds, and on token tuples otherwise."""
    game = _breakpoint_tokens if _on_breakpoints(a, monitor) else _tuple_tokens
    token_channels, start, moves = game(a, k)
    mon = monitor.automaton
    mon_delta = {key: succ[0] for key, succ in mon.delta.items()}
    channels = (mon.rank_range,) + token_channels
    neutral = tuple(lo for lo, _ in channels)
    token_moves: dict = {}  # (tokens, letter) -> token moves with their ranks

    def expand(key):
        if len(key) == 2:
            tokens, m = key
            return [((tokens, m, letter), neutral) for letter in a.alphabet]
        tokens, m, letter = key
        m2, mrank = mon_delta[(m, letter)]
        out = token_moves.get((tokens, letter))
        if out is None:
            out = token_moves[(tokens, letter)] = moves(tokens, letter)
        return [((dsts, m2), (mrank,) + ranks) for dsts, ranks in out]

    order, edges = explore_graph([(start, mon.initial)], expand)
    objective = Or(Not(MaxEvenParity(0)),
                   any_of([MaxEvenParity(c) for c in range(1, len(channels))]))
    return _token_arena(order, edges, channels), objective


def _token_arena(order, edges, channels) -> Arena:
    """The arena of a token game walk: (tokens, m) positions belong to the
    letter player, (tokens, m, letter) positions to the token player."""
    return Arena(
        owner=tuple(1 if len(key) == 2 else 0 for key in order),
        edges=tuple(edges),
        initial=0,
        channels=channels,
        labels=tuple(order),
    )


def build_k_explorability_game(a: AnyAutomaton, monitor: Monitor, k: int):
    """Arena and Determiniser objective of the k-token explorability game of
    the completed automaton, as `is_k_explorable` plays it.

    Finite-word automata get the safety formulation over token multisets.
    Automata that `ranked_01` admits, under a [0, 1] monitor, get token
    multisets with one breakpoint channel and the objective ``not p0 or p1``
    for every k; other infinite-word automata play on token tuples, as one
    token of their k-fold union power, since per-token parity channels are
    only meaningful along actual runs.
    """
    if k < 1:
        raise ValueError("token count must be at least 1")
    a = complete(a)
    if monitor.is_finite:
        arena, _ = _build_finite_game(a, monitor, k)
        return arena, Not(MaxEvenParity(0))
    return _build_infinite_game(a, monitor, k)


def _play(a: AnyAutomaton, monitor: Monitor, k: int,
          witness: bool = False) -> tuple[bool, Optional[Strategy]]:
    """Play the k-explorability game of the (completed) automaton on the
    given monitor: whether the token player wins and, when `witness` is set
    and it does, a winning strategy."""
    if k < 1:
        raise ValueError("token count must be at least 1")
    if monitor.is_finite:
        arena, attr = _build_finite_game(a, monitor, k, stop=True)
        if arena is None:
            return False, None
        if not witness:
            return True, None
        # each token-player position outside the attractor takes its first
        # edge that stays outside
        labels = arena.labels
        moves = {str(labels[p]): str(next(labels[d] for d, _ in arena.edges[p] if d not in attr))
                 for p in range(arena.num_positions) if arena.owner[p] == 0 and p not in attr}
        return True, Strategy(0, moves)
    arena, objective = _build_infinite_game(a, monitor, k)
    result = solve(arena, objective)
    if arena.initial not in result.winning_region_0:
        return False, None
    return True, result.strategy_0


def is_k_explorable(a: AnyAutomaton, k: int,
                    user_monitor: Optional[Automaton] = None) -> bool:
    """True iff the token player wins the k-explorability game."""
    a = complete(a)
    won, _ = _play(a, resolve_monitor(a, user_monitor), k)
    return won


def explorability_witness(a: AnyAutomaton, k: int,
                          user_monitor: Optional[Automaton] = None) -> Optional[Strategy]:
    """Winning token-player strategy at k tokens, if one exists."""
    a = complete(a)
    _, strategy = _play(a, resolve_monitor(a, user_monitor), k, witness=True)
    return strategy


def explorability_bounded(a: AnyAutomaton, kmax: int,
                          user_monitor: Optional[Automaton] = None) -> ExplorabilityVerdict:
    """Iterative-deepening search for the least witnessing token count.

    k-explorability is monotone in k, so the first success is the least k;
    the monitor is built once and the witness comes from the game just won.
    A negative verdict is explicitly inconclusive: it only covers k <= kmax.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    a = complete(a)
    monitor = resolve_monitor(a, user_monitor)
    if not (monitor.is_finite or _on_breakpoints(a, monitor)):
        # refuse before playing any k, not at the first k past the budget
        config.check_channels(power_channels(a, kmax))
    for k in range(1, kmax + 1):
        won, strategy = _play(a, monitor, k, witness=True)
        if won:
            return ExplorabilityVerdict("explorable-with", k, strategy)
    return ExplorabilityVerdict("not-explorable-up-to", kmax)


# ---------------------------------------------------------------------------
# population control


def _fresh_letter(alphabet, base: str) -> str:
    letter = base
    while letter in alphabet:
        letter = "_" + letter
    return letter


def pcp_reduce(a: Automaton) -> PCPInstance:
    """Subset-tracking NFA whose population game mirrors the k-explorability
    game: states are (state, reachable set) pairs plus a target and a dead
    sink; the test letter moves exactly the pairs witnessing a lost round to
    the target."""
    if a.condition != "finite":
        raise ValueError("pcp_reduce needs a finite-acceptance automaton")
    a = complete(a)
    test = _fresh_letter(a.alphabet, "a_test")

    def expand(pair):
        p, reach = pair
        for letter in a.alphabet:
            reach2 = a.post(reach, letter)
            for q, _ in a.successors(p, letter):
                yield (q, reach2), letter

    order, edges = explore_graph([(a.initial, frozenset({a.initial}))], expand)
    transitions = [(src, letter, dst, 0)
                   for src, out in enumerate(edges) for dst, letter in out]
    target = len(order)
    dead = target + 1
    for i, (p, reach) in enumerate(order):
        hit = p not in a.accepting and bool(reach & a.accepting)
        transitions.append((i, test, target if hit else dead, 0))
    for sink in (target, dead):
        for letter in list(a.alphabet) + [test]:
            transitions.append((sink, letter, sink, 0))
    nfa = Automaton.build(
        f"pcp({a.name})", list(a.alphabet) + [test], dead + 1, 0, "finite",
        transitions)
    return PCPInstance(nfa, target)


def is_k_population_winnable(inst: PCPInstance, k: int) -> bool:
    """True iff the token player avoids ever having all k tokens herded into
    the target state: the finite-word k-explorability game of the completed
    NFA accepting everywhere but the target, under a one-state monitor that
    accepts every word (the universality `pcp_to_explorability` builds)."""
    nfa = complete(inst.nfa)
    nfa = replace(nfa, accepting=frozenset(range(nfa.num_states)) - {inst.target})
    everything = Automaton.build("all", nfa.alphabet, 1, 0, "finite",
                                 [(0, letter, 0) for letter in nfa.alphabet], [0])
    won, _ = _play(nfa, Monitor(everything, "subset"), k)
    return won


def pcp_to_explorability(inst: PCPInstance) -> Automaton:
    """Product of the instance NFA (accepting everywhere but the target) with
    the fixed 4-state all-accepting-but-non-explorable automaton, under union
    acceptance; the result accepts every word and is k-explorable exactly when
    the token player survives the k-population game."""
    from .generators import gen_c

    nfa = complete(inst.nfa)
    targ = inst.target
    for letter in nfa.alphabet:
        succ = nfa.successors(targ, letter)
        if not succ or any(d != targ for d, _ in succ):
            raise NonSinkTarget(f"target state {targ} is not a sink (letter {letter})")
    c = gen_c()
    letters = [f"{x},{y}" for x in nfa.alphabet for y in c.alphabet]

    def expand(pair):
        p, pc = pair
        for x in nfa.alphabet:
            for y in c.alphabet:
                for q, _ in nfa.successors(p, x):
                    for qc, _ in c.successors(pc, y):
                        yield (q, qc), f"{x},{y}"

    order, edges = explore_graph([(nfa.initial, c.initial)], expand)
    transitions = [(src, letter, dst, 0)
                   for src, out in enumerate(edges) for dst, letter in out]
    accepting = [i for i, (p, pc) in enumerate(order)
                 if p != targ or pc in c.accepting]
    out = Automaton.build(
        f"explo({inst.nfa.name})", letters, len(order), 0, "finite",
        transitions, accepting)
    # union with the all-accepting component makes the language universal;
    # checked exactly: every reachable state of the subset monitor accepts
    subsets = subset_construction(out).automaton
    if len(subsets.accepting) != subsets.num_states:
        raise ReductionCheckFailed(f"{out.name} unexpectedly rejects some word")
    return out
