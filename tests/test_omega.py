import sys
from collections import Counter
from dataclasses import replace
from random import Random

import pytest

import explora.omega as omega
from explora.automata import (Automaton, canonical_parity, complete,
                              equivalent_on_lassos, is_deterministic,
                              iter_lassos, member_lasso)
from explora.determinize import breakpoint_construction
from explora.explorability import is_k_explorable
from explora.games import solve_parity
from explora.generators import atm_accepts, atm_reduce, gen_fig4, random_automaton
from explora.omega import (build_elimination_game, is_omega_explorable,
                           is_omega_explorable_cobuchi, parity_to_buchi_omega)

from conftest import ATM_CORPUS, automaton_corpus, run_optimized
from reference import build_elimination_game_reference


class TestEliminationGame:
    def test_fig4_left_protector_wins(self):
        assert is_omega_explorable_cobuchi(gen_fig4("left"))

    def test_fig4_right_eliminator_wins(self):
        assert not is_omega_explorable_cobuchi(gen_fig4("right"))

    def test_arena_size_bound_on_fig4(self):
        # n * |M| eliminator positions, at most two protector positions
        # (q, letter, p2, mrank) per letter for each of them, |M| relocations
        for side in ("left", "right"):
            a = canonical_parity(complete(gen_fig4(side)))
            m = breakpoint_construction(a).automaton.num_states
            arena = build_elimination_game(gen_fig4(side))
            assert arena.num_positions <= \
                a.num_states * m * (1 + 2 * len(a.alphabet)) + m

    def test_no_protector_position_has_one_edge(self):
        # a forced protector move rides the letter edge instead
        inputs = [gen_fig4("left"), gen_fig4("right"), atm_reduce(*ATM_CORPUS[0][1:3])]
        inputs += automaton_corpus(79, 20, 4, ["a", "b"], "safety")
        for a in inputs:
            arena = build_elimination_game(a)
            protectors = [i for i, key in enumerate(arena.labels) if len(key) == 4]
            assert all(len(arena.edges[i]) > 1 for i in protectors)

    def test_no_support_step_after_the_monitor(self, monkeypatch):
        # the support is the S of the monitor state's label, so once the
        # breakpoint monitor is built and checked the game steps no state
        # set: neither the kernel `post_mask`, which the monitor's build and
        # check step every state set with, nor `post` is called again
        built, calls = [], Counter()
        real_monitor = omega.breakpoint_construction
        monkeypatch.setattr(omega, "breakpoint_construction",
                            lambda a: built.append(real_monitor(a)) or built[-1])

        def counted(real):
            return lambda *args: calls.update(["game" if built else "monitor"]) or real(*args)

        monkeypatch.setattr(Automaton, "post", counted(Automaton.post))
        for module in [m for name, m in sys.modules.items() if name.startswith("explora")]:
            if hasattr(module, "post_mask"):
                monkeypatch.setattr(module, "post_mask", counted(module.post_mask))
        for a in [gen_fig4("left"), atm_reduce(*ATM_CORPUS[0][1:3])]:
            built.clear()
            calls.clear()
            build_elimination_game(a)
            assert len(built) == 1 and calls["game"] == 0 and calls["monitor"] > 0

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
        # three faults in the arena, each put into the walk that
        # `games.explore_arena` runs: a flipped rank on a letter edge that
        # carries a forced move, a flipped rank out of a protector position
        # that two eliminator positions share, and a dropped letter edge.
        # The check must catch each, and must not be an assert.
        done = run_optimized("""
import sys
import explora.games as games
import explora.omega as omega
from explora.errors import MonitorCheckFailed
from explora.generators import gen_fig4
real = games.explore_graph

def eliminators(order):
    return [i for i, key in enumerate(order) if len(key) == 2 and key[0] != "elim"]

def flip(edges, i, j):
    dst, color = edges[i][j]
    edges[i] = edges[i][:j] + ((dst, (1,) if color == (3,) else (3,)),) + edges[i][j + 1:]

def contracted(order, edges):
    flip(edges, *next((i, j) for i in eliminators(order)
                      for j, (dst, _) in enumerate(edges[i]) if len(order[dst]) == 2))

def shared(order, edges):
    entries = [dst for i in eliminators(order) for dst, _ in edges[i]]
    flip(edges, next(i for i, key in enumerate(order)
                     if len(key) == 4 and entries.count(i) > 1), 0)

def dropped(order, edges):
    i = eliminators(order)[0]
    edges[i] = edges[i][:-1]

omega.build_elimination_game(gen_fig4("left"))
for fault in (contracted, shared, dropped):
    def faulty(roots, expand):
        order, edges = real(roots, expand)
        fault(order, edges)
        return order, edges
    games.explore_graph = faulty
    try:
        omega.build_elimination_game(gen_fig4("left"))
    except MonitorCheckFailed:
        continue
    sys.exit(5)
sys.exit(0 if not __debug__ else 4)
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


def eliminator_winners(arena, key_of):
    """Map from each eliminator position's key, through `key_of`, to whether
    the eliminating player wins there."""
    won = solve_parity(arena).winning_region_0
    return {key_of(key): i in won for i, key in enumerate(arena.labels)
            if len(key) in (2, 3) and key[0] != "elim"}


class TestEliminationGameAgreesWithReference:
    """The contracted, shared game against the one keyed (support,
    challenger, monitor state): the same verdict, and the same winner at every
    eliminator position, (S(p), q, p) <-> (q, p)."""

    @staticmethod
    def assert_agrees(a):
        arena = build_elimination_game(a)
        ref = build_elimination_game_reference(a)
        winners = eliminator_winners(arena, lambda key: key)
        # the initial positions (q0, 0) and ({q0}, q0, 0) are among them
        assert winners == eliminator_winners(ref, lambda key: key[1:])
        assert arena.num_positions < ref.num_positions

    def test_random_safety_and_cobuchi(self):
        rng = Random(80)
        for i in range(400):
            letters = ["a", "b", "c"][:rng.randint(2, 3)]
            condition = ("safety", "cobuchi")[i % 2]
            self.assert_agrees(complete(random_automaton(rng, rng.randint(2, 6),
                                                         letters, condition)))

    def test_fig4(self):
        for side in ("left", "right"):
            self.assert_agrees(gen_fig4(side))

    def test_machine_reductions(self):
        # the one-cell `loop-reject` on both words, and two space-2 machines
        one_cell = replace(ATM_CORPUS[0][1], space=1)
        for word in "01":
            self.assert_agrees(atm_reduce(one_cell, word))
        for _, machine, word, _ in (ATM_CORPUS[0], ATM_CORPUS[2]):
            self.assert_agrees(atm_reduce(machine, word))
