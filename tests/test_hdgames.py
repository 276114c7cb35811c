from random import Random

import pytest

from explora.automata import Automaton, complete, is_deterministic
from explora.errors import ChannelBudgetExceeded, UnverifiedExplorability
from explora.explorability import is_k_explorable
from explora.games import solve
from explora.generators import gen_c, gen_fig4, random_automaton
from explora.hdgames import (EVE, build_token_game, g2_winner,
                             is_hd_assuming_explorable, is_hd_exact)

from conftest import automaton_corpus


def det_buchi():
    return Automaton.build("db", ["a", "b"], 2, 0, "buchi",
                           [(0, "a", 1, 2), (0, "b", 0, 1),
                            (1, "a", 0, 1), (1, "b", 1, 2)])


class TestBuildTokenGame:
    def test_positions_reachable_and_bounded(self):
        arena, _ = build_token_game(det_buchi(), 2)
        seen, stack = {arena.initial}, [arena.initial]
        while stack:
            for dst, _ in arena.edges[stack.pop()]:
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        assert len(seen) == arena.num_positions
        a = automaton_corpus(5, 1, 3, ["a", "b"], "buchi")[0]
        arena, _ = build_token_game(a, 2)
        n = complete(a).num_states
        assert arena.num_positions <= n ** 3 * (1 + 2 * len(a.alphabet))

    def test_finite_word_rejected(self):
        with pytest.raises(ValueError):
            build_token_game(gen_c(), 2)

    def test_channel_budget(self):
        a = det_buchi()
        with pytest.raises(ChannelBudgetExceeded):
            build_token_game(a, 7)

    def test_eve_wins_on_deterministic(self):
        arena, objective = build_token_game(det_buchi(), 2)
        result = solve(arena, objective)
        assert arena.initial in result.winning_region_0

    def test_eve_wins_with_strictly_better_successor(self):
        # from the initial state, one branch accepts everything reachable and
        # the other does not; Eve simulates by always taking the good branch
        a = Automaton.build("better", ["a"], 3, 0, "buchi",
                            [(0, "a", 1, 1), (0, "a", 2, 1),
                             (1, "a", 1, 2), (2, "a", 2, 1)])
        assert g2_winner(a) == EVE


class TestG2Winner:
    def test_deterministic_buchi(self):
        assert g2_winner(det_buchi()) == EVE

    def test_fig4_right_cross_checked_with_exact(self):
        a = gen_fig4("right")
        exact = is_hd_exact(a)
        assert (g2_winner(a) == EVE) == exact

    def test_agreement_on_verified_explorable_corpus(self):
        rng = Random(515)
        checked = 0
        for _ in range(30):
            a = complete(random_automaton(rng, 3, ["a", "b"], "cobuchi"))
            if not is_k_explorable(a, 2):
                continue
            checked += 1
            assert (g2_winner(a) == EVE) == is_hd_exact(a)
        assert checked >= 10

    def test_hd_implies_eve_wins_g2(self):
        # one direction holds without the explorability hypothesis
        for a in automaton_corpus(61, 10, 3, ["a", "b"], "cobuchi"):
            if is_hd_exact(a):
                assert g2_winner(a) == EVE

    def test_more_adam_tokens_only_help_adam(self):
        for a in automaton_corpus(62, 6, 2, ["a", "b"], "cobuchi"):
            arena1, obj1 = build_token_game(a, 1)
            arena2, obj2 = build_token_game(a, 2)
            eve1 = arena1.initial in solve(arena1, obj1).winning_region_0
            eve2 = arena2.initial in solve(arena2, obj2).winning_region_0
            assert (not eve2) or eve1


class TestHdAssumingExplorable:
    def test_deterministic_with_witness_one(self):
        assert is_hd_assuming_explorable(det_buchi(), k_witness=1)

    def test_missing_witness_raises(self):
        with pytest.raises(UnverifiedExplorability):
            is_hd_assuming_explorable(gen_fig4("left"))

    def test_failed_witness_raises(self):
        # fig4-left is not explorable, so any claimed witness fails
        with pytest.raises(UnverifiedExplorability):
            is_hd_assuming_explorable(gen_fig4("left"), k_witness=2)

    def test_unchecked_bypasses(self):
        result = is_hd_assuming_explorable(gen_fig4("left"), unchecked=True)
        assert result in (True, False)

    def test_agrees_with_exact_on_explorable(self):
        for a in automaton_corpus(63, 8, 3, ["a", "b"], "cobuchi"):
            if is_k_explorable(a, 2):
                assert is_hd_assuming_explorable(a, k_witness=2) == is_hd_exact(a)


class TestHdExact:
    def test_deterministic_is_hd(self):
        for a in automaton_corpus(64, 4, 3, ["a", "b"], "cobuchi", max_branch=1):
            assert is_deterministic(a)
            assert is_hd_exact(a)

    def test_c_is_not_hd(self):
        assert not is_hd_exact(gen_c())

    def test_branching_family_is_not_hd(self):
        from explora.generators import gen_ak
        assert not is_hd_exact(gen_ak(2))
