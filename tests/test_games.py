import sys
from itertools import product
from random import Random

import pytest

from explora.automata import LassoView, _member_run, complete
from explora.determinize import resolve_monitor
from explora.errors import SolverCheckFailed
from explora.explorability import build_k_explorability_game
from explora.games import (And, Arena, MaxEvenParity, Not, Or, Strategy,
                           compile_objective, condition_automaton, max_channel,
                           solve, solve_parity, verify_strategy, zielonka_tree)
from explora.generators import random_automaton

from conftest import run_optimized
from reference import (random_multi_arena, random_parity_game,
                       solve_full_grid, solve_parity_disjunction,
                       solve_parity_reference)


def tuples_of(channels):
    return list(product(*[range(lo, hi + 1) for lo, hi in channels]))


def objective_arenas(rng, count):
    """Random two- and three-channel arenas, each with an objective whose
    condition automaton has several states."""
    objectives = [Or(MaxEvenParity(0), MaxEvenParity(1)),
                  And(MaxEvenParity(0), Not(MaxEvenParity(1))),
                  Or(Not(MaxEvenParity(0)), Or(MaxEvenParity(1), MaxEvenParity(2)))]
    for trial in range(count):
        obj = objectives[trial % 3]
        channels = tuple((0, rng.randint(1, 3)) for _ in range(max_channel(obj) + 1))
        yield random_multi_arena(rng, rng.randint(2, 30), channels), obj


class TestZielonkaTree:
    def test_buchi_atom_two_nodes(self):
        tree = zielonka_tree(MaxEvenParity(0), [(1,), (2,)])
        assert tree.member
        assert len(tree.children) == 1
        child = tree.children[0]
        assert child.tuples == frozenset({(1,)}) and not child.member
        assert child.children == []

    def test_single_channel_02_chain(self):
        tree = zielonka_tree(MaxEvenParity(0), [(0,), (1,), (2,)])
        assert tree.member and len(tree.children) == 1
        mid = tree.children[0]
        assert mid.tuples == frozenset({(0,), (1,)}) and not mid.member
        assert len(mid.children) == 1
        leaf = mid.children[0]
        assert leaf.tuples == frozenset({(0,)}) and leaf.member
        assert leaf.children == []

    def test_two_buchi_channels_or(self):
        tree = zielonka_tree(Or(MaxEvenParity(0), MaxEvenParity(1)),
                             tuples_of([(1, 2), (1, 2)]))
        assert tree.member
        assert len(tree.children) == 1
        assert tree.children[0].tuples == frozenset({(1, 1)})

    def test_membership_alternates_along_every_edge(self):
        objectives = [
            Or(Not(MaxEvenParity(0)), MaxEvenParity(1)),
            And(MaxEvenParity(0), Not(MaxEvenParity(1))),
            Or(MaxEvenParity(0), And(MaxEvenParity(1), Not(MaxEvenParity(0)))),
        ]
        for obj in objectives:
            tree = zielonka_tree(obj, tuples_of([(0, 2), (0, 2)]))
            stack = [tree]
            while stack:
                node = stack.pop()
                for child in node.children:
                    assert child.member != node.member
                    assert child.tuples < node.tuples
                    stack.append(child)


class TestConditionAutomaton:
    # acceptance of every short periodic tuple word must equal the objective
    # evaluated on the period's tuple set; the deterministic condition
    # automaton is run on the word by lasso membership's direct path
    def test_semantic_on_periodic_words(self):
        cases = [
            (MaxEvenParity(0), [(0, 2)]),
            (Or(MaxEvenParity(0), MaxEvenParity(1)), [(1, 2), (1, 2)]),
            (Or(Not(MaxEvenParity(0)), MaxEvenParity(1)), [(0, 1), (0, 1)]),
            (And(MaxEvenParity(0), MaxEvenParity(1)), [(1, 2), (1, 2)]),
            (Or(Not(MaxEvenParity(0)),
                Or(MaxEvenParity(1), MaxEvenParity(2))), [(0, 1)] * 3),
        ]
        for obj, channels in cases:
            occurring = tuples_of(channels)[:6]
            cond = condition_automaton(zielonka_tree(obj, occurring))
            view = LassoView.of(((cond.lo, cond.hi),), {
                key: ((dst, (rank,)),) for key, (dst, rank) in cond.delta.items()})
            for plen in range(1, 5):
                for period in product(occurring, repeat=plen):
                    want = obj.holds(set(period))
                    assert _member_run(view, cond.initial, period, 0) == want

    def test_single_atom_yields_one_state(self):
        cond = condition_automaton(zielonka_tree(MaxEvenParity(0), [(1,), (2,)]))
        assert cond.num_states == 1


class TestCompileObjective:
    def test_single_atom_product_isomorphic(self):
        rng = Random(5)
        arena = random_parity_game(rng, 6, 2)
        product_game, cond = compile_objective(arena, MaxEvenParity(0))
        assert cond.num_states == 1
        assert product_game.num_positions == arena.num_positions

    def test_two_position_cycle_disjunction(self):
        # alternating tuples (2,1) and (1,2): some channel sees max 2
        arena = Arena(
            owner=(0, 0),
            edges=(((1, (2, 1)),), ((0, (1, 2)),)),
            initial=0,
            channels=((1, 2), (1, 2)),
        )
        result = solve(arena, Or(MaxEvenParity(0), MaxEvenParity(1)))
        assert result.winning_region_0 == frozenset({0, 1})

    def test_product_size_bound(self):
        rng = Random(6)
        arena = random_multi_arena(rng, 8, ((0, 2), (0, 2)))
        obj = Or(MaxEvenParity(0), MaxEvenParity(1))
        product_game, cond = compile_objective(arena, obj)
        assert product_game.num_positions <= arena.num_positions * cond.num_states

    def test_product_is_reachable_from_restarted_positions(self):
        for arena, obj in objective_arenas(Random(7), 60):
            product_game, cond = compile_objective(arena, obj)
            n = arena.num_positions
            labels = product_game.labels
            assert labels[:n] == tuple((p, cond.initial) for p in range(n))
            assert len(set(labels)) == len(labels)
            assert product_game.initial == arena.initial
            seen, stack = set(range(n)), list(range(n))
            while stack:
                for dst, _ in product_game.edges[stack.pop()]:
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
            assert seen == set(range(product_game.num_positions))
            for i, (p, q) in enumerate(labels):
                assert product_game.owner[i] == arena.owner[p]
                assert [(labels[d], r) for d, (r,) in product_game.edges[i]] == [
                    ((dst, cond.delta[(q, color)][0]), cond.delta[(q, color)][1])
                    for dst, color in arena.edges[p]]


class TestSolveParity:
    def test_all_even_edges_owner0_wins(self):
        game = Arena((0, 1), (((1, (2,)),), ((0, (2,)),)), 0, ((1, 2),))
        result = solve_parity(game)
        assert result.winning_region_0 == frozenset({0, 1})

    def test_all_odd_edges_owner1_wins(self):
        game = Arena((0, 1), (((1, (1,)),), ((0, (1,)),)), 0, ((1, 2),))
        result = solve_parity(game)
        assert result.winning_region_1 == frozenset({0, 1})

    def test_random_corpus_partitions_and_verifies(self):
        rng = Random(99)
        for _ in range(60):
            game = random_parity_game(rng, rng.randint(2, 40), rng.randint(1, 7))
            result = solve_parity(game)  # verify=True raises on a failed check
            assert result.winning_region_0 | result.winning_region_1 == \
                frozenset(range(game.num_positions))
            assert not (result.winning_region_0 & result.winning_region_1)

    def test_deterministic_output(self):
        rng1, rng2 = Random(4), Random(4)
        g1 = random_parity_game(rng1, 20, 3)
        g2 = random_parity_game(rng2, 20, 3)
        r1, r2 = solve_parity(g1), solve_parity(g2)
        assert r1.winning_region_0 == r2.winning_region_0
        assert r1.strategy_0.moves == r2.strategy_0.moves

    def test_failed_verification_raises(self, monkeypatch):
        monkeypatch.setattr("explora.games.verify_strategy", lambda *args: False)
        game = random_parity_game(Random(8), 10, 3)
        with pytest.raises(SolverCheckFailed):
            solve_parity(game)

    def test_failed_verification_raises_under_optimize(self):
        # the self-check must not be an assert, which `python -O` strips
        script = """
import sys
from random import Random
import explora.games as games
from explora.errors import SolverCheckFailed
from reference import random_parity_game
games.verify_strategy = lambda *args: False
try:
    games.solve_parity(random_parity_game(Random(8), 10, 3))
except SolverCheckFailed:
    sys.exit(0 if not __debug__ else 4)
sys.exit(5)
"""
        done = run_optimized(script)
        assert done.returncode == 0, done.stderr

    def test_position_without_edge_refused(self):
        # in a subprocess, so that a solver looping on the dead end fails the
        # test at the timeout instead of hanging the suite
        done = run_optimized("""
import sys
from explora.games import Arena, solve_parity
try:
    solve_parity(Arena((0, 1), (((1, (0,)),), ()), 0, ((0, 1),)))
except ValueError as e:
    sys.exit(0 if "position 1" in str(e) else 4)
sys.exit(5)
""", timeout=10)
        assert done.returncode == 0, done.stderr

    def test_recursion_limit_left_alone(self):
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            # one rank level per position, deeper than the limit
            n = 1200
            deep = Arena(tuple(p % 2 for p in range(n)),
                         tuple(((p, (2 * p,)),) for p in range(n)), 0, ((0, 2 * n),))
            assert solve_parity(deep).winning_region_0 == frozenset(range(n))
            assert sys.getrecursionlimit() == 1000
            rng = Random(77)
            for _ in range(40):
                game = random_parity_game(rng, rng.randint(2, 400), rng.randint(1, 7))
                solve_parity(game)
                assert sys.getrecursionlimit() == 1000
            for _ in range(20):
                channels = ((0, rng.randint(1, 3)), (0, rng.randint(1, 3)))
                solve_parity_disjunction(random_multi_arena(rng, rng.randint(2, 60), channels))
                assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(old)


class TestAgreesWithReferenceSolver:
    """`solve_parity` reads the arena's own edge lists and searches each
    subgame's top rank with an early stop; its regions and both move maps
    must be those of the reference solver, which copies the edges and scans
    them all."""

    @staticmethod
    def assert_same(game):
        got, want = solve_parity(game), solve_parity_reference(game)
        assert got.winning_region_0 == want.winning_region_0
        assert got.winning_region_1 == want.winning_region_1
        assert got.strategy_0.moves == want.strategy_0.moves
        assert got.strategy_1.moves == want.strategy_1.moves

    def test_random_parity_games(self):
        rng = Random(701)
        for _ in range(3000):
            self.assert_same(random_parity_game(rng, rng.randint(1, 40), rng.randint(0, 7)))

    def test_criterion_9_corpus(self):
        rng = Random(501)  # the games of test_criterion_9_solver_soundness
        for _ in range(200):
            self.assert_same(random_parity_game(rng, rng.randint(2, 200), rng.randint(1, 3)))
        obj = Or(MaxEvenParity(0), MaxEvenParity(1))
        for _ in range(50):
            channels = ((0, rng.randint(1, 3)), (0, rng.randint(1, 3)))
            arena = random_multi_arena(rng, rng.randint(2, 60), channels)
            self.assert_same(compile_objective(arena, obj)[0])

    def test_explorability_products(self):
        for seed in range(4):
            a = complete(random_automaton(Random(seed), 3, ["a", "b"], "cobuchi"))
            monitor = resolve_monitor(a)
            for k in (2, 3):
                arena, objective = build_k_explorability_game(a, monitor, k)
                self.assert_same(compile_objective(arena, objective)[0])


class TestVerifyStrategy:
    def test_edge_leaving_region_fails(self):
        game = Arena((0, 1), (((1, (2,)), (0, (2,))), ((0, (2,)),)), 0, ((1, 2),))
        bad = Strategy(0, {0: 0})  # 0 -> 1 but region excludes 1
        assert not verify_strategy(game, {0}, bad, 0)

    def test_all_odd_cycle_for_owner0_fails(self):
        game = Arena((0, 0), (((1, (1,)),), ((0, (1,)),)), 0, ((1, 2),))
        bad = Strategy(0, {0: 0, 1: 0})
        assert not verify_strategy(game, {0, 1}, bad, 0)

    def test_missing_move_fails(self):
        game = Arena((0,), (((0, (2,)),),), 0, ((1, 2),))
        assert not verify_strategy(game, {0}, Strategy(0, {}), 0)


class TestSolve:
    def test_buchi_self_loop(self):
        arena = Arena((0,), (((0, (2,)),),), 0, ((1, 2),))
        result = solve(arena, MaxEvenParity(0))
        assert 0 in result.winning_region_0

    def test_negation_duality(self):
        rng = Random(123)
        obj = Or(MaxEvenParity(0), Not(MaxEvenParity(1)))
        for _ in range(15):
            arena = random_multi_arena(rng, rng.randint(2, 10), ((0, 2), (1, 3)))
            flipped = Arena(tuple(1 - o for o in arena.owner), arena.edges,
                            arena.initial, arena.channels)
            direct = solve(arena, obj)
            dual = solve(flipped, Not(obj))
            assert dual.winning_region_0 == direct.winning_region_1
            assert dual.winning_region_1 == direct.winning_region_0

    def test_disjunction_agrees_with_direct_oracle(self):
        rng = Random(321)
        obj = Or(MaxEvenParity(0), MaxEvenParity(1))
        for _ in range(40):
            channels = ((0, rng.randint(1, 3)), (0, rng.randint(1, 3)))
            arena = random_multi_arena(rng, rng.randint(2, 25), channels)
            viazt = solve(arena, obj)
            w0, w1 = solve_parity_disjunction(arena)
            assert w0 == viazt.winning_region_0
            assert w1 == viazt.winning_region_1

    def test_regions_agree_with_full_grid_product(self):
        for arena, obj in objective_arenas(Random(322), 60):
            result = solve(arena, obj)
            assert (result.winning_region_0, result.winning_region_1) == \
                solve_full_grid(arena, obj)

    def test_single_atom_regions_agree_with_tree_path(self):
        rng = Random(325)
        for _ in range(80):
            arena = random_parity_game(rng, rng.randint(2, 30), rng.randint(0, 6))
            for obj in (MaxEvenParity(0), Not(MaxEvenParity(0))):
                result = solve(arena, obj)
                assert (result.winning_region_0, result.winning_region_1) == \
                    solve_full_grid(arena, obj)

    def test_single_atom_needs_no_zielonka_tree(self, monkeypatch):
        # the tree is cubic in the ranks, and 400 ranks would take minutes
        def refuse(*args):
            raise AssertionError("zielonka_tree was called")

        monkeypatch.setattr("explora.games.zielonka_tree", refuse)
        arena = random_parity_game(Random(326), 400, 399)
        assert len({color for color in arena.occurring_colors()}) > 300
        direct = solve(arena, MaxEvenParity(0))
        flipped = Arena(tuple(1 - o for o in arena.owner), arena.edges,
                        arena.initial, arena.channels)
        dual = solve(flipped, Not(MaxEvenParity(0)))
        assert dual.winning_region_0 == direct.winning_region_1
        assert len(direct.winning_region_0) + len(direct.winning_region_1) == 400

    def test_memory_strategy_shape(self):
        arena = Arena(
            owner=(0, 0),
            edges=(((1, (2, 1)),), ((0, (1, 2)),)),
            initial=0,
            channels=((1, 2), (1, 2)),
        )
        result = solve(arena, Or(MaxEvenParity(0), MaxEvenParity(1)))
        assert result.strategy_0.memory is not None
        for (pos, mem) in result.strategy_0.moves:
            assert 0 <= pos < arena.num_positions
            assert 0 <= mem < result.strategy_0.memory.num_states


def test_solve_parity_rejects_multichannel():
    arena = Arena((0,), (((0, (1, 1)),),), 0, ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        solve_parity(arena)
