from random import Random

import pytest

import explora.cli as cli
import explora.hdgames as hdgames
from explora.automata import Automaton, complete, is_deterministic
from explora.errors import ChannelBudgetExceeded, UnverifiedExplorability
from explora.explorability import is_k_explorable
from explora.games import solve
from explora.generators import gen_ak, gen_c, gen_fig4, random_automaton
from explora.hdgames import (ADAM, EVE, build_token_game, g2_winner,
                             is_hd_assuming_explorable, is_hd_exact)
from explora.textio import format_automaton

from conftest import automaton_corpus, run_optimized


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

    @pytest.mark.parametrize("k_witness, user_monitor", [(0, True), (0, False), (None, True)],
                             ids=["both", "witness", "monitor"])
    def test_unchecked_refuses_recheck_arguments(self, k_witness, user_monitor):
        # a token count and a monitor serve only the re-check that
        # unchecked=True skips, so they are refused rather than ignored:
        # 0 is no token count and ak2 is a finite-word automaton
        a = random_automaton(Random(25), 3, "ab", "cobuchi")
        with pytest.raises(ValueError, match="^--via-g2 --unchecked takes no --witness-k "
                                             "or --monitor: they serve only the "
                                             "explorability re-check it skips$"):
            is_hd_assuming_explorable(a, k_witness=k_witness,
                                      user_monitor=gen_ak(2) if user_monitor else None,
                                      unchecked=True)

    def test_agrees_with_exact_on_explorable(self):
        for a in automaton_corpus(63, 8, 3, ["a", "b"], "cobuchi"):
            if is_k_explorable(a, 2):
                assert is_hd_assuming_explorable(a, k_witness=2) == is_hd_exact(a)

    def test_witness_recheck_plays_one_token_and_k(self, tmp_path, monkeypatch):
        # seed-25 cob3 is 4-explorable and not HD: the re-check plays the
        # 1-token round and then k = 4, as `k-explorable -k 4` does
        import explora.explorability as ex
        path = tmp_path / "cob3.aut"
        path.write_text(format_automaton(random_automaton(Random(25), 3, "ab", "cobuchi")))
        sizes = []
        monkeypatch.setattr(ex, "solve", lambda arena, objective: sizes.append(
            arena.num_positions) or solve(arena, objective))
        assert cli.main(["hd", "--via-g2", "--witness-k", "4", str(path)]) == 1
        assert sizes == [39, 405]
        sizes.clear()
        assert cli.main(["k-explorable", "-k", "4", str(path)]) == 0
        assert sizes == [39, 405]

    def test_flipped_g2_winner_refused(self, tmp_path, monkeypatch, capsys):
        # the re-check's 1-token round must agree with G2, HD input or not
        inputs = {"det": det_buchi(), "cob3": random_automaton(Random(20), 3, "ab", "cobuchi")}
        for name, a in inputs.items():
            (tmp_path / f"{name}.aut").write_text(format_automaton(a))
        argv = ["hd", "--via-g2", "--witness-k", "2"]
        assert [cli.main([*argv, str(tmp_path / f"{name}.aut")]) for name in inputs] == [0, 1]
        monkeypatch.setattr(hdgames, "g2_winner", lambda a: ADAM if g2_winner(a) == EVE else EVE)
        capsys.readouterr()
        for name in inputs:
            assert cli.main([*argv, str(tmp_path / f"{name}.aut")]) == 3
            assert "but the 1-token round is" in capsys.readouterr().err

    def test_flipped_g2_winner_refused_under_optimize(self, tmp_path):
        path = tmp_path / "cob3.aut"
        path.write_text(format_automaton(random_automaton(Random(20), 3, "ab", "cobuchi")))
        done = run_optimized(f"""
import contextlib, io, sys
import explora.hdgames as hdgames
from explora.cli import main
g2 = hdgames.g2_winner
hdgames.g2_winner = lambda a: hdgames.ADAM if g2(a) == hdgames.EVE else hdgames.EVE
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = main(["hd", "--via-g2", "--witness-k", "2", {str(path)!r}])
sys.exit(0 if code == 3 and "1-token round" in err.getvalue() and not __debug__ else 4)
""")
        assert done.returncode == 0, done.stderr


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
