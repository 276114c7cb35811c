"""k-explorability games, bounded explorability search, and the population
control reductions.

The k-explorability game puts k interchangeable tokens on the initial state;
the letter player (Spoiler) picks letters, the token player (Determiniser)
moves every token along a matching transition, and Determiniser wins if some
token's run is accepting whenever the chosen word is in the language.

For finite-word automata the game is a safety game over token multisets
paired with a subset monitor ("never: monitor accepting while no token is").
It is solved locally: each token-player position follows one move and tries
the next only when that one is refuted, so a verdict explores only a part of
the arena and builds none.  The moves are tried most spread first, those on
the most distinct states first and in sorted order among equals: a spread
move keeps more runs alive, so it is most often the one that wins, and the
paper's a_k is won only by spreading its k tokens (`_solve_finite_game`).
A won game's strategy covers the positions it reaches, and
`games.verify_token_strategy` replays it against the automaton and the
monitor.  For infinite-word automata the game is solved through the parity
pipeline with the objective

    NOT MaxEvenParity(monitor) OR (OR over the token channels).

The monitor's kind picks the infinite-word game.  A breakpoint monitor,
which `determinize.resolve_monitor` builds for the inputs that
`automata.ranked_01` admits, plays on multisets of clean or dirty tokens,
coded as ints, with Miyano-Hayashi breakpoints (Miyano and Hayashi,
"Alternating finite automata on omega-words", TCS 1984).  Its arena has one
rank per edge, folding the monitor's rank into the breakpoint's, so the
objective is the bare ``p0`` for every k and `games.solve` plays it without
a product; see `_breakpoint_tokens`.  A user monitor (Buchi, general parity
and multi-channel inputs) plays on token tuples, since per-token rank
channels must follow actual runs: k tokens of `a` are one token of the
k-fold union power `constructions.union_power(a, k)`, whose channels, one
per copy and channel of `a`, grow with k and are capped by
`config.check_channels`; its moves and rank channels are read off the
union power's `lasso_view`.

A verdict completes the automaton, sets its game up once and plays its
rounds from that set-up in one loop, `_first_won_round`, which returns an
`ExplorabilityVerdict` with the first won round's k and strategy.
`explorability_witness` plays one token count and `explorability_bounded`
(`explorable --max-k`) every count from 1 up.  On infinite words, under
every monitor, the 1-token round comes first: its win means the automaton
is history-deterministic, so every token can follow the one token's run,
and its strategy, played by every token, wins at any k.  A finite-word
witness is played at k only.  `build_k_explorability_game` builds one
infinite-word round's arena on the same set-up; it refuses a subset
monitor, whose game builds no arena.

The token moves do not depend on the monitor state, so every builder
computes them once per (tokens, letter) and shares them between every
monitor state that meets that pair.  The multiset games build them with one
generator, `_multiset_moves`, from a memo of each (state, count, letter)
group's combinations; the breakpoint game's memos serve every round of a
verdict, the finite game's one round.  The infinite-word games key a
token-player position by its moves' arguments (tokens, letter, m2, mrank),
so every monitor state that steps to (m2, mrank) under the letter shares
it: the moves and their ranks are the same.  On the tuple game only the
union power is built again per k.

How a verdict is checked: a finite-word strategy is replayed against the
automaton and the monitor; every infinite-word arena must offer every
letter at every letter-player position (`_check_letter_moves`) before
`games.solve` solves it and checks its progress measures.  A user monitor's
channel budget is checked before any round is played.

The population control reductions go both ways: `pcp_reduce` turns a
finite-word automaton into a population instance, and `pcp_to_explorability`
an instance into an automaton that is k-explorable exactly when the token
player survives the k-population game, which `is_k_population_winnable`
plays as a finite-word game.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, combinations_with_replacement, product
from typing import Optional

from . import config
from .automata import (Automaton, AnyAutomaton, canonical_parity, complete,
                       explore_graph, post_mask)
from .constructions import power_channels, union_power
from .determinize import Monitor, resolve_monitor, subset_construction
from .errors import NonSinkTarget, ReductionCheckFailed, SolverCheckFailed
from .games import (Arena, MaxEvenParity, Not, Objective, Or, Strategy, any_of,
                    explore_arena, solve, verify_token_strategy)
from .generators import gen_c


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


# ---------------------------------------------------------------------------
# shared helpers


def _multiset_moves(dests, combos: dict, tokens: tuple, letter: str) -> list:
    """Distinct successor multisets reachable by moving every token of the
    sorted tuple `tokens`, in sorted order.  `dests` maps (token, letter) to
    its sorted distinct successor tokens, and `combos`, the game's memo,
    maps (token, count, letter) to the sorted combinations of that many
    tokens' successors.  When every token has one successor, every group has
    one combination and there is one move, built without the memo."""
    moved = []
    for q in tokens:  # the common case: every token has one successor, so one move
        succ = dests.get((q, letter), ())
        if len(succ) != 1:
            break
        moved.append(succ[0])
    else:
        moved.sort()
        return [tuple(moved)]
    per_state, prev, count = [], None, 0
    for q in tokens + (None,):  # None closes the last group
        if q == prev:
            count += 1
            continue
        if count:
            key = (prev, count, letter)
            group = combos.get(key)
            if group is None:
                group = combos[key] = tuple(combinations_with_replacement(
                    dests.get((prev, letter), ()), count))
            per_state.append(group)
        prev, count = q, 1
    if len(per_state) == 1:  # one group's combinations are sorted and distinct
        return list(per_state[0])
    return sorted({tuple(sorted(chain.from_iterable(combo))) for combo in product(*per_state)})


# ---------------------------------------------------------------------------
# the k-explorability game


def _finite_tokens(a: Automaton, monitor: Monitor, k: int):
    """Start, bad test and moves of the finite-word k-token safety game: a
    (tokens, m) position is bad when the monitor accepts while no token does;
    a (tokens, m, letter) position moves to the successor multisets, those on
    the most distinct states first and in sorted order among equals."""
    mon = monitor.automaton
    mon_delta = {key: succ[0][0] for key, succ in mon.delta.items()}
    mon_accepting, accepting = mon.accepting, a.accepting
    dests = {key: tuple(sorted({d for d, _ in succ})) for key, succ in a.delta.items()}
    combos: dict = {}  # (token, count, letter) -> combinations of successors
    token_moves: dict = {}  # (tokens, letter) -> successor multisets, spread first

    def bad(tokens, m):
        return m in mon_accepting and accepting.isdisjoint(tokens)

    def moves(tokens, m, letter):
        out = token_moves.get((tokens, letter))
        if out is None:
            out = _multiset_moves(dests, combos, tokens, letter)
            if len(out) > 1:  # a stable sort keeps sorted order among equals
                out.sort(key=lambda dsts: len(set(dsts)), reverse=True)
            token_moves[(tokens, letter)] = out
        m2 = mon_delta[(m, letter)]
        return [(dsts, m2) for dsts in out]

    return (tuple([a.initial] * k), mon.initial), bad, moves


def _solve_finite_game(a: Automaton, monitor: Monitor, k: int):
    """Solve the finite-word k-token safety game locally (Liu and Smolka,
    ICALP 1998; OTFUR in Cassez et al., CONCUR 2005).  Each token-player
    position follows its first move not known to be lost, and tries the next
    only when that one is refuted.  A letter-player position is lost when it
    is bad, tested on discovery, or when some letter has lost every move.
    A position that only lost positions move to is not expanded until some
    current move comes back to it.  The walk stops once the initial position
    is lost.

    The moves are tried most spread first: those on the most distinct
    states, in sorted order among equals (`_finite_tokens`).  Spreading the
    tokens keeps more runs alive, so the first move is most often one that
    wins, and a won round explores little beyond its strategy; a_k is won
    only by spreading its k tokens over its k branches.  In sorted order,
    which piles the tokens on one state first, ak6's won round at k = 6
    discovered 185 letter-player positions, 176 of them lost, for a strategy
    that reaches 4; spread first it discovers those 4 alone.  A lost round
    must refute every move, so its order changes little there.

    Returns whether the game is won, every discovered letter-player position
    with whether it is lost, and every explored token-player position with
    its current move; on a won game, the current moves reached from the
    initial position form a winning strategy."""
    root, bad, moves = _finite_tokens(a, monitor, k)
    lost = {root: bad(*root)}
    current: dict = {}
    # w -> (t, its position, its untried moves) for each t whose current
    # move is w; a position not lost is on the stack or expanded iff it has
    # an entry
    waiting: dict = {root: []}
    stack = [] if lost[root] else [root]

    def advance(t, p, untried):
        # t, of position p, takes its first untried move not known to be
        # lost, if any is left
        for w in untried:
            if w not in lost:
                lost[w] = bad(*w)
            if not lost[w]:
                current[t] = w
                waiters = waiting.get(w)
                if waiters is None:  # discovered, or dropped from the stack
                    waiting[w] = [(t, p, untried)]
                    stack.append(w)
                else:
                    waiters.append((t, p, untried))
                return True
        return False

    while stack and not lost[root]:
        v = stack.pop()
        if v is not root:
            for _, p, _ in waiting[v]:
                if not lost[p]:
                    break
            else:  # only lost positions move to v: drop it
                del waiting[v]
                continue
        if all(advance((*v, letter), v, iter(moves(*v, letter))) for letter in a.alphabet):
            continue
        lost[v] = True
        refuted = [v]
        while refuted:
            for t, p, untried in waiting.pop(refuted.pop(), ()):
                if not lost[p] and not advance(t, p, untried):
                    lost[p] = True
                    refuted.append(p)
    return not lost[root], lost, current


def _breakpoint_tokens(a: Automaton, mon: Automaton):
    """The game on breakpoint multisets under a monitor that ranks in
    [0, 1], set up once: the function that gives its channel, objective,
    start and moves at k tokens.  Only the start depends on k.

    A token is an int: state q of ``canonical_parity(a)``, whose n states
    count the sink it adds to safety and reachability inputs, is token q
    while dirty and q + n while clean.  A token stays clean while it takes
    only rank-0 transitions.  When a move leaves no clean token, every token
    becomes clean again: that move is a breakpoint.  The token player wins
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
    token is which, so the quotient by token permutations is sound.  Every
    edge carries one rank in [0, 2]: 2 where the monitor's rank is 1, else 1
    at a breakpoint, else 0.  The token player wins iff the largest rank
    seen infinitely often is even, so the objective is the bare ``p0`` for
    every k and the arena needs no product.
    """
    canonical = canonical_parity(a)
    delta, n = canonical.delta, canonical.num_states
    dests: dict = {}  # (token, letter) -> sorted distinct successor tokens
    combos: dict = {}  # (token, count, letter) -> combinations of successors
    token_moves: dict = {}  # (tokens, letter) -> successor multisets with their ranks

    def moves(tokens, letter, m2, mrank):
        out = token_moves.get((tokens, letter))
        if out is None:
            for token in tokens:
                if (token, letter) not in dests:
                    clean = token >= n
                    dests[(token, letter)] = tuple(sorted(
                        {d + n if clean and r == 0 else d for d, r in delta[(token % n, letter)]}))
            # a clean token sorts last; at a breakpoint every token becomes clean again
            out = token_moves[(tokens, letter)] = [
                (dsts, (0,)) if dsts[-1] >= n else (tuple(q + n for q in dsts), (1,))
                for dsts in _multiset_moves(dests, combos, tokens, letter)]
        if mrank:  # the monitor's rank 1 outranks every breakpoint
            return [((dsts, m2), (2,)) for dsts, _ in out]
        return [((dsts, m2), rank) for dsts, rank in out]

    return lambda k: (((0, 2),), MaxEvenParity(0), tuple([a.initial + n] * k), moves)


def _tuple_tokens(a: AnyAutomaton, mon: Automaton, k: int):
    """Channels, objective, start and moves of the game on token tuples,
    played as one token on the k-fold union power: its state stands for a
    tuple of k states of `a`, and its rank channels, one per copy and
    channel of `a`, follow actual runs, so the multiset quotient does not
    apply.  The objective ``not p0 or p1 or ... or pw`` asks that the
    monitor's channel 0 rejects or some token channel is won."""
    power = union_power(a, k)
    view = power.lasso_view
    channels = (mon.rank_range,) + view.channels
    objective = Or(Not(MaxEvenParity(0)),
                   any_of([MaxEvenParity(c) for c in range(1, len(channels))]))

    def moves(q, letter, m2, mrank):
        return [((d, m2), (mrank,) + ranks) for d, ranks in view.delta[(q, letter)]]

    return channels, objective, power.initial, moves


def _token_game(a: AnyAutomaton, monitor: Monitor):
    """The infinite-word game of the completed automaton, set up once: the
    function that builds its k-token arena and objective."""
    mon = monitor.automaton
    tokens = (_breakpoint_tokens(a, mon) if monitor.provenance == "breakpoint"
              else lambda k: _tuple_tokens(a, mon, k))
    mon_delta = {key: succ[0] for key, succ in mon.delta.items()}

    def build(k):
        channels, objective, start, moves = tokens(k)
        neutral = tuple(lo for lo, _ in channels)

        def expand(key):
            if len(key) == 2:  # a token-player position is keyed by its moves' arguments
                held, m = key
                return [((held, letter, *mon_delta[(m, letter)]), neutral)
                        for letter in a.alphabet]
            return moves(*key)

        # (tokens, m) positions belong to the letter player, the others to the token player
        arena = explore_arena((start, mon.initial), expand,
                              lambda key: 1 if len(key) == 2 else 0, channels)
        return arena, objective

    return build


def build_k_explorability_game(a: AnyAutomaton, monitor: Monitor,
                               k: int) -> tuple[Arena, Objective]:
    """Arena and Determiniser objective of the k-token explorability game of
    the completed automaton, built as `_first_won_round` builds its rounds:
    on token multisets under a breakpoint monitor, on token tuples under a
    user one.  A subset monitor (finite words) is refused: that game is
    solved locally and builds no arena."""
    if k < 1:
        raise ValueError("token count must be at least 1")
    if monitor.is_finite:
        raise ValueError("the finite-word game is solved locally and builds no arena")
    return _token_game(complete(a), monitor)(k)


def _check_letter_moves(arena: Arena, alphabet) -> None:
    """Raise SolverCheckFailed unless every letter-player position of the
    arena moves once under each letter, in the alphabet's order: a game that
    keeps a letter from the letter player can be won by a token player that
    loses the real one."""
    letters, labels = list(alphabet), arena.labels
    for key, out, owner in zip(labels, arena.edges, arena.owner):
        if owner == 1 and [labels[d][1] for d, _ in out] != letters:
            raise SolverCheckFailed(f"the game does not offer every letter at {key}")


def _first_won_round(a: AnyAutomaton, monitor: Monitor, ks) -> ExplorabilityVerdict:
    """The verdict: "explorable-with" the first won round's k and
    token-player strategy, checked, or "not-explorable-up-to" the largest k,
    playing the completed automaton's game on the monitor, set up once, at
    the ascending token counts `ks`, with k = 1 first on infinite words and
    a user monitor's channel budget checked first.  A finite-word strategy
    is replayed; it maps (tokens, m, letter) positions to (tokens, m) ones.
    An infinite-word one is checked in `solve`, after `_check_letter_moves`."""
    if not monitor.is_finite:
        ks = sorted({1, *ks})
    if ks[0] < 1:
        raise ValueError("token count must be at least 1")
    if monitor.provenance == "user":
        config.check_channels(power_channels(a, ks[-1]))
    build = None if monitor.is_finite else _token_game(a, monitor)
    for k in ks:
        if monitor.is_finite:
            won, _, current = _solve_finite_game(a, monitor, k)
            if won:
                return ExplorabilityVerdict("explorable-with", k, Strategy(
                    0, verify_token_strategy(a, monitor.automaton, k, current)))
        else:
            arena, objective = build(k)
            _check_letter_moves(arena, a.alphabet)
            result = solve(arena, objective)
            if arena.initial in result.winning_region_0:
                return ExplorabilityVerdict("explorable-with", k, result.strategy_0)
    return ExplorabilityVerdict("not-explorable-up-to", ks[-1])


def explorability_witness(a: AnyAutomaton, k: int,
                          user_monitor: Optional[Automaton] = None) -> ExplorabilityVerdict:
    """The k-explorability verdict: "explorable-with" the token count of the
    round that was won, with its token-player strategy, or
    "not-explorable-up-to" k.  On infinite words that round is k = 1
    whenever the 1-token game is won, and k otherwise."""
    a = complete(a)
    return _first_won_round(a, resolve_monitor(a, user_monitor), (k,))


def is_k_explorable(a: AnyAutomaton, k: int,
                    user_monitor: Optional[Automaton] = None) -> bool:
    """True iff the token player wins the k-explorability game."""
    return explorability_witness(a, k, user_monitor).status == "explorable-with"


def explorability_bounded(a: AnyAutomaton, kmax: int,
                          user_monitor: Optional[Automaton] = None) -> ExplorabilityVerdict:
    """Iterative-deepening search for the least witnessing token count.

    k-explorability is monotone in k, so the first won round of k = 1 up to
    kmax gives the least k and its witness.  A negative verdict is
    explicitly inconclusive: it only covers k <= kmax.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    a = complete(a)
    return _first_won_round(a, resolve_monitor(a, user_monitor), range(1, kmax + 1))


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

    rows = a.successor_masks

    def expand(pair):  # the reachable set as a bitmask over A's states
        p, reach = pair
        for letter in a.alphabet:
            reach2 = post_mask(rows[letter][0], reach)
            for q, _ in a.successors(p, letter):
                yield (q, reach2), letter

    order, edges = explore_graph([(a.initial, 1 << a.initial)], expand)
    transitions = [(src, letter, dst, 0)
                   for src, out in enumerate(edges) for dst, letter in out]
    target = len(order)
    dead = target + 1
    accepting = sum(1 << q for q in a.accepting)
    for i, (p, reach) in enumerate(order):
        hit = p not in a.accepting and bool(reach & accepting)
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
    verdict = _first_won_round(nfa, Monitor(everything, "subset"), (k,))
    return verdict.status == "explorable-with"


def pcp_to_explorability(inst: PCPInstance) -> Automaton:
    """Product of the instance NFA (accepting everywhere but the target) with
    the fixed 4-state all-accepting-but-non-explorable automaton, under union
    acceptance; the result accepts every word and is k-explorable exactly when
    the token player survives the k-population game."""
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
