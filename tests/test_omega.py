from random import Random

import pytest

from explora.automata import (Automaton, canonical_parity, complete,
                              equivalent_on_lassos, is_deterministic,
                              iter_lassos, member_lasso)
from explora.explorability import is_k_explorable
from explora.generators import atm_accepts, atm_reduce, random_automaton
from explora.generators import gen_fig4
from explora.omega import (build_elimination_game, is_omega_explorable,
                           is_omega_explorable_cobuchi, parity_to_buchi_omega)

from conftest import ATM_CORPUS, automaton_corpus, run_optimized


class TestEliminationGame:
    def test_fig4_left_protector_wins(self):
        assert is_omega_explorable_cobuchi(gen_fig4("left"))

    def test_fig4_right_eliminator_wins(self):
        assert not is_omega_explorable_cobuchi(gen_fig4("right"))

    def test_arena_size_bound_on_fig4(self):
        for side in ("left", "right"):
            a = canonical_parity(complete(gen_fig4(side)))
            arena = build_elimination_game(gen_fig4(side))
            n = a.num_states
            assert arena.num_positions <= \
                2 ** n * n * 3 ** n * (1 + len(a.alphabet))

    def test_deterministic_cobuchi_corpus_is_omega_explorable(self):
        for a in automaton_corpus(71, 8, 3, ["a", "b"], "cobuchi", max_branch=1):
            assert is_deterministic(a)
            assert is_omega_explorable_cobuchi(a)

    def test_wrong_condition_rejected(self):
        a = automaton_corpus(72, 1, 2, ["a"], "buchi")[0]
        with pytest.raises(ValueError):
            build_elimination_game(a)
        a = automaton_corpus(72, 1, 2, ["a"], "parity", parity=(1, 2))[0]
        with pytest.raises(ValueError):
            build_elimination_game(a)

    @pytest.mark.parametrize("condition, parity", [
        ("safety", None), ("reachability", None), ("parity", (0, 0)), ("parity", (1, 1))],
        ids=["safety", "reachability", "parity00", "parity11"])
    def test_every_input_ranked_in_01_accepted(self, condition, parity):
        # the game normalizes its input itself
        for a in automaton_corpus(78, 3, 3, ["a", "b"], condition, parity=parity):
            assert build_elimination_game(a) == \
                build_elimination_game(canonical_parity(complete(a)))

    def test_elimination_objective_compiles_small(self):
        # the elimination game is already a three-rank parity game; running it
        # through the generic compiler must stay a <=4-state condition automaton
        from explora.games import MaxEvenParity, compile_objective
        arena = build_elimination_game(gen_fig4("left"))
        product_game, cond = compile_objective(arena, MaxEvenParity(0))
        assert cond.num_states <= 4
        assert (cond.hi - cond.lo) <= 3
        assert product_game.num_positions == arena.num_positions * cond.num_states

    def test_breakpoint_rank_check_raises_under_optimize(self):
        # a fault in the arena: one edge's rank-3 mark no longer follows the
        # monitor's breakpoints; the check must not be an assert
        done = run_optimized("""
import sys
import explora.omega as omega
from explora.errors import MonitorCheckFailed
from explora.generators import gen_fig4
real = omega.explore_graph
def faulty(roots, expand):
    order, edges = real(roots, expand)
    i = next(i for i, key in enumerate(order) if len(key) == 4)
    dst, color = edges[i][0]
    edges[i] = ((dst, (1,) if color == (3,) else (3,)),) + edges[i][1:]
    return order, edges
omega.explore_graph = faulty
try:
    omega.build_elimination_game(gen_fig4("left"))
except MonitorCheckFailed:
    sys.exit(0 if not __debug__ else 4)
sys.exit(5)
""")
        assert done.returncode == 0, done.stderr

    def test_explorable_safety_automata_are_omega_explorable(self):
        rng = Random(73)
        found = 0
        for _ in range(20):
            a = complete(random_automaton(rng, 3, ["a", "b"], "safety"))
            if any(is_k_explorable(a, k) for k in (1, 2, 3)):
                found += 1
                assert is_omega_explorable_cobuchi(a)
        assert found >= 5


class TestOmegaVerdicts:
    def test_reachability_shortcut(self):
        for a in automaton_corpus(74, 5, 3, ["a", "b"], "reachability"):
            assert is_omega_explorable(a).status == "omega-explorable"
            # the fact behind the shortcut, checked on the elimination game
            assert is_omega_explorable_cobuchi(a)

    def test_fig4_right_negative(self):
        assert is_omega_explorable(gen_fig4("right")).status == "not-omega-explorable"

    def test_parity_input_is_unknown_with_reduction(self):
        a = automaton_corpus(75, 1, 3, ["a", "b"], "parity", parity=(1, 4))[0]
        verdict = is_omega_explorable(a)
        assert verdict.status == "unknown"
        assert verdict.reduced is not None
        assert verdict.reduced.condition == "buchi"
        assert equivalent_on_lassos(a, verdict.reduced, 6).equivalent

    def test_finite_rejected(self):
        from explora.generators import gen_c
        with pytest.raises(ValueError):
            is_omega_explorable(gen_c())


class TestParityToBuchi:
    def test_buchi_input_two_components(self):
        a = automaton_corpus(76, 1, 3, ["a", "b"], "buchi")[0]
        out = parity_to_buchi_omega(a)
        n = complete(a).num_states
        assert out.num_states == n * 2 + 1  # ranking-free copy + one even rank
        assert equivalent_on_lassos(a, out, 6).equivalent

    def test_random_14_corpus(self):
        for a in automaton_corpus(77, 8, 3, ["a", "b"], "parity", parity=(1, 4)):
            out = parity_to_buchi_omega(a)
            assert out.num_states == a.num_states * (1 + 2) + 1
            assert equivalent_on_lassos(a, out, 6).equivalent

    def test_empty_language_preserved(self):
        # every cycle sees rank 1: language empty on both sides
        a = Automaton.build("odd", ["a", "b"], 2, 0, "parity",
                            [(0, "a", 1, 1), (0, "b", 1, 1),
                             (1, "a", 0, 1), (1, "b", 0, 1)], parity=(1, 2))
        out = parity_to_buchi_omega(a)
        for w in iter_lassos(["a", "b"], 6):
            assert not member_lasso(a, w)
            assert not member_lasso(out, w)

    def test_accepting_runs_settle_in_one_component(self):
        # jumps only go from the ranking-free copy into rank copies: once a
        # run jumps, it stays in that component (or falls into the sink)
        a = automaton_corpus(78, 1, 3, ["a", "b"], "parity", parity=(1, 4))[0]
        out = parity_to_buchi_omega(a)
        n = a.num_states
        def component(q):
            return (q - 1) // n if 0 < (q - 0) and q < out.num_states - 1 else None
        for t in out.transitions:
            src_comp = (t.src // n) if t.src < out.num_states - 1 else None
            dst_comp = (t.dst // n) if t.dst < out.num_states - 1 else None
            if src_comp is not None and src_comp > 0:
                # rank copies never jump across components
                assert dst_comp == src_comp or t.dst == out.num_states - 1


class TestHardnessLoop:
    @pytest.mark.parametrize("name,machine,word,expected",
                             [c for c in ATM_CORPUS[:3]])
    def test_fast_subset(self, name, machine, word, expected):
        assert atm_accepts(machine, word) == expected
        reduced = atm_reduce(machine, word)
        assert is_omega_explorable_cobuchi(reduced) == (not expected)
