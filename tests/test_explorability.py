import json
from ast import literal_eval
from dataclasses import replace
from itertools import chain
from random import Random

import pytest

from explora.automata import (Automaton, MultiAutomaton, MultiTransition, canonical_parity,
                              complete, is_complete, member_finite)
from explora.constructions import (compose_monitor, union_condition_automaton_02,
                                   union_power, union_product)
from explora.determinize import Monitor, resolve_monitor
from explora.errors import (ChannelBudgetExceeded, NonSinkTarget, ReductionCheckFailed,
                           SolverCheckFailed)
from explora.explorability import (ExplorabilityVerdict, PCPInstance, _check_letter_moves,
                                   _finite_tokens, _multiset_moves,
                                   _solve_finite_game,
                                   build_k_explorability_game,
                                   explorability_bounded,
                                   explorability_witness, is_k_explorable,
                                   is_k_population_winnable, pcp_reduce,
                                   pcp_to_explorability)
from explora.games import MaxEvenParity, explore_arena, solve, verify_token_strategy
from explora.generators import gen_ak, gen_bk, gen_c, random_automaton
from explora.textio import format_automaton, format_witness

from conftest import (automaton_corpus, gen_c_rejecting_aaa, run_optimized, run_python,
                      shifted_cob3)
from reference import (_spoiler_attractor, build_breakpoint_game_reference,
                       build_finite_game_reference, build_tuple_game_reference,
                       is_k_explorable_tuples, iter_words, multiset_moves_reference,
                       solve_finite_game_reference)


class TestBranchingFamily:
    def test_a1_is_1_explorable(self):
        assert is_k_explorable(gen_ak(1), 1)

    @pytest.mark.parametrize("k", [2, 3])
    def test_ak_threshold(self, k):
        a = gen_ak(k)
        assert is_k_explorable(a, k)
        assert not is_k_explorable(a, k - 1)


class TestNonExplorable:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_c_not_k_explorable(self, k):
        assert not is_k_explorable(gen_c(), k)

    def test_bounded_search_is_inconclusive(self):
        verdict = explorability_bounded(gen_c(), 4)
        assert verdict.status == "not-explorable-up-to"
        assert verdict.k == 4


class TestExponentialFamily:
    @pytest.mark.parametrize("k", [1, 2])
    def test_bk_needs_two_to_the_k(self, k):
        a = gen_bk(k)
        assert is_k_explorable(a, 2 ** k)
        assert not is_k_explorable(a, 2 ** k - 1)

    def test_bounded_search_finds_threshold(self):
        verdict = explorability_bounded(gen_bk(2), 4)
        assert verdict.status == "explorable-with" and verdict.k == 4
        assert verdict.witness is not None

    def test_a3_verdict(self):
        verdict = explorability_bounded(gen_ak(3), 5)
        assert verdict.status == "explorable-with" and verdict.k == 3


class TestGameStructure:
    def test_arena_bound_on_b2(self):
        # the positions the local solver discovers, letter- and token-player
        a = complete(gen_bk(2))
        monitor = resolve_monitor(a)
        k = 3
        _, lost, current = _solve_finite_game(a, monitor, k)
        n = a.num_states
        binom = 1
        for i in range(k):
            binom = binom * (n + i) // (i + 1)
        bound = binom * monitor.automaton.num_states * (1 + len(a.alphabet))
        assert _explored(lost, current) <= bound

    def test_finite_word_game_builds_no_arena(self):
        a = complete(gen_ak(2))
        with pytest.raises(ValueError, match="solved locally and builds no arena"):
            build_k_explorability_game(a, resolve_monitor(a), 2)

    def test_deterministic_automata_are_1_explorable(self):
        for a in automaton_corpus(51, 6, 3, ["a", "b"], "finite", max_branch=1):
            assert is_k_explorable(a, 1)

    def test_quotient_and_tuple_modes_agree(self):
        # gate for the multiset symmetry quotient on the finite-word path
        rng = Random(77)
        for _ in range(25):
            a = complete(random_automaton(rng, rng.randint(2, 4), ["a", "b"],
                                          "finite"))
            for k in (1, 2):
                assert is_k_explorable(a, k) == is_k_explorable_tuples(a, k)

    def test_safety_game_agrees_with_generic_pipeline(self):
        # the local solver and the compiled parity game of the full arena
        # must coincide
        rng = Random(78)
        for _ in range(10):
            a = complete(random_automaton(rng, 3, ["a", "b"], "finite"))
            monitor = resolve_monitor(a)
            for k in (1, 2):
                arena, objective, _ = build_finite_game_reference(a, monitor, k)
                via_solver = arena.initial in solve(arena, objective).winning_region_0
                assert via_solver == is_k_explorable(a, k)

    def test_channel_budget(self):
        # a deterministic Buchi input monitors itself and plays on token
        # tuples, one channel per token: k=9 needs 10 channels
        a = automaton_corpus(52, 1, 2, ["a"], "buchi", max_branch=1)[0]
        with pytest.raises(ChannelBudgetExceeded):
            is_k_explorable(a, 9)

    def test_channel_budget_spares_breakpoint_games(self):
        # a coBuchi input plays on breakpoint multisets, one rank for any k
        a = automaton_corpus(52, 1, 2, ["a"], "cobuchi")[0]
        assert is_k_explorable(a, 9) in (True, False)
        arena, _ = build_k_explorability_game(a, resolve_monitor(a), 9)
        assert arena.channels == ((0, 2),)

    def test_bounded_search_refuses_before_playing(self, tmp_path, capsys, monkeypatch):
        import explora.explorability as ex
        from explora.cli import main
        a = automaton_corpus(52, 1, 2, ["a"], "buchi", max_branch=1)[0]
        path = tmp_path / "a.aut"
        path.write_text(format_automaton(a))
        played = []  # one entry per game set-up, which every round needs
        real = ex._token_game
        monkeypatch.setattr(ex, "_token_game", lambda *args: played.append(args) or real(*args))
        assert main(["explorable", "--max-k", "6", str(path)]) == 3
        assert "7 channels exceed the budget of 5" in capsys.readouterr().err
        assert played == []
        # the 1-token round would win, but k = 9 is refused before it
        assert main(["k-explorable", "-k", "9", str(path)]) == 3
        assert "10 channels exceed the budget of 5" in capsys.readouterr().err
        assert played == []
        assert main(["explorable", "--max-k", "4", str(path)]) in (0, 2)
        assert played

    def test_bounded_search_past_old_budget_on_safety(self, tmp_path, capsys):
        # fig4 left used to exit 3 at --max-k 6, after deciding k = 1..4
        from explora.cli import main
        from explora.generators import gen_fig4
        path = tmp_path / "fig4.aut"
        path.write_text(format_automaton(gen_fig4("left")))
        assert main(["explorable", "--max-k", "6", str(path)]) == 2
        assert capsys.readouterr().out.strip() == "not-explorable-up-to: 6"

    def test_bounded_builds_one_monitor_and_one_winning_game(self, monkeypatch):
        import explora.explorability as ex
        calls = []
        real = ex.resolve_monitor
        monkeypatch.setattr(ex, "resolve_monitor",
                            lambda *args: calls.append(args) or real(*args))
        verdict = explorability_bounded(gen_ak(3), 4)
        assert (verdict.status, verdict.k, len(calls)) == ("explorable-with", 3, 1)
        assert verdict.witness.moves == explorability_witness(gen_ak(3), 3).witness.moves

    def test_witness_strategy_available(self):
        w = explorability_witness(gen_ak(2), 2)
        assert (w.status, w.k) == ("explorable-with", 2) and w.witness.moves
        assert explorability_witness(gen_ak(2), 1) == \
            ExplorabilityVerdict("not-explorable-up-to", 1)


def _finite_game_corpus():
    """(name, automaton, k) cases of the finite-word game builder."""
    rng = Random(81)
    cases = []
    for i in range(12):
        a = random_automaton(rng, rng.randint(6, 8), "abc"[:rng.randint(2, 3)], "finite")
        if i % 2:  # partial: drop about a quarter of the transitions
            a = Automaton.build(a.name, a.alphabet, a.num_states, a.initial, "finite",
                                [t for t in sorted(a.transitions) if rng.random() < 0.75],
                                a.accepting)
        cases += [(f"random-{i}", a, k) for k in (1, 2, 3)]
    # destinations repeated under another rank, which finite mode ignores
    a = random_automaton(rng, 6, "ab", "finite")
    repeated = Automaton.build("repeated", a.alphabet, a.num_states, a.initial, "finite",
                               list(a.transitions) + [(t.src, t.letter, t.dst, 1)
                                                      for t in a.transitions],
                               a.accepting)
    cases += [("repeated", repeated, k) for k in (1, 2, 3)]
    cases += [(f"ak{n}", complete(gen_ak(n)), k) for n in (3, 4, 5) for k in (1, 2, n)]
    cases += [(f"bk{n}", complete(gen_bk(n)), k) for n in (1, 2) for k in (1, 2, 2 ** n)]
    cases += [("c", complete(gen_c()), k) for k in (1, 2, 3)]
    return cases


def test_corpora_do_not_depend_on_the_hash_seed():
    # case ids must name the same automata in every test process
    script = """
from explora.textio import format_automaton
from test_explorability import (_breakpoint_game_corpus, _finite_game_corpus,
                                _ranked_01_corpus, _tuple_game_corpus)
for name, a, k in _finite_game_corpus() + _breakpoint_game_corpus():
    print(name, k, format_automaton(a))
for name, a in _ranked_01_corpus():
    print(name, format_automaton(a))
for name, a, m, k in _tuple_game_corpus():
    print(name, k, format_automaton(a), format_automaton(m))
"""
    runs = [run_python(script, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def _bad_positions(arena):
    return [i for i, out in enumerate(arena.edges) if out == ((i, (2,)),)]


def _finite_game_arena(a, monitor, k):
    """The finite-word game on the local solver's own start, bad test and
    token moves (`explorability._finite_tokens`), assembled by
    `games.explore_arena` in the reference builder's layout: a bad
    letter-player position loops on rank 2, every other edge has rank 1."""
    root, bad, moves = _finite_tokens(a, monitor, k)

    def expand(key):
        if len(key) == 3:
            return [(w, (1,)) for w in moves(*key)]
        if bad(*key):
            return [(key, (2,))]
        return [((*key, letter), (1,)) for letter in a.alphabet]

    return explore_arena(root, expand, lambda key: 1 if len(key) == 2 else 0, ((1, 2),))


def _population_games(monkeypatch):
    """(automaton, monitor, k) of the games `is_k_population_winnable` plays
    on the reductions of ak3, bk1 and c at k = 1..3."""
    import explora.explorability as ex
    played = []
    monkeypatch.setattr(ex, "_solve_finite_game",
                        lambda *args: played.append(args) or _solve_finite_game(*args))
    for a in (gen_ak(3), gen_bk(1), gen_c()):
        inst = pcp_reduce(a)
        for k in (1, 2, 3):
            is_k_population_winnable(inst, k)
    monkeypatch.undo()
    assert len(played) == 9
    return played


def _random_finite_games(count):
    """(automaton, k) of `count` seeded random games: 2-6 states over two or
    three letters, some partial, at k = 1..3."""
    rng = Random(19)
    games = []
    while len(games) < count:
        a = random_automaton(rng, rng.randint(2, 6), "abc"[:rng.randint(2, 3)], "finite")
        if rng.random() < 0.3:  # partial: drop about a quarter of the transitions
            a = Automaton.build(a.name, a.alphabet, a.num_states, a.initial, "finite",
                                [t for t in sorted(a.transitions) if rng.random() < 0.75],
                                a.accepting)
        games += [(complete(a), k) for k in (1, 2, 3)]
    return games[:count]


def _explored(lost, current):
    """Positions the local solver explored: the letter-player positions it
    discovered and the token-player positions it gave a move."""
    return len(lost) + len(current)


def _replay_witness_file(a, k, path):
    """Read a finite-word --witness file back into position tuples and
    replay it on the completed automaton under its subset monitor."""
    a = complete(a)
    moves = {literal_eval(key): literal_eval(value)
             for key, value in json.loads(path.read_text()).items()}
    verify_token_strategy(a, resolve_monitor(a).automaton, k, moves)


class TestPartialInputs:
    """`is_k_explorable` completes its input before the local solver plays
    it: a missing transition must leave no token-player position without a
    move, and the verdict is the reference's on the completed input."""

    @pytest.mark.parametrize("a, k", [pytest.param(a, k, id=f"{name}-k{k}")
                                      for name, a, k in _finite_game_corpus()
                                      if not is_complete(a)])
    def test_no_dead_end_and_same_verdict(self, a, k):
        monitor = resolve_monitor(a)
        assert all(_finite_game_arena(complete(a), monitor, k).edges)
        ref, objective, _ = build_finite_game_reference(complete(a), monitor, k)
        won = ref.initial in solve(ref, objective).winning_region_0
        assert won == is_k_explorable(a, k)


class TestFiniteGameMatchesReference:
    """The game the local solver walks, from its own start, bad test and
    token moves, against the reference builder, which recomputes the token
    moves at every position and runs the bad test twice: the same positions
    in the same order, the same edges in the same order (the order in which
    the solver tries moves, so its strategies and witness files) and the
    same bad positions.  Witness files, which cover only the positions the
    strategy reaches, give the reference solver's verdicts and replay."""

    @staticmethod
    def assert_same_game(a, monitor, k):
        arena = _finite_game_arena(a, monitor, k)
        ref, _, ref_bad = build_finite_game_reference(complete(a), monitor, k)
        assert arena.owner == ref.owner
        assert arena.edges == ref.edges
        assert arena.labels == ref.labels
        assert (arena.initial, arena.channels) == (ref.initial, ref.channels)
        assert _bad_positions(arena) == ref_bad

    @pytest.mark.parametrize("a, k", [pytest.param(a, k, id=f"{name}-k{k}")
                                      for name, a, k in _finite_game_corpus()])
    def test_same_arena_as_reference(self, a, k):
        self.assert_same_game(complete(a), resolve_monitor(a), k)

    def test_same_arena_on_population_games(self, monkeypatch):
        for args in _population_games(monkeypatch):
            self.assert_same_game(*args)

    @pytest.mark.parametrize("name", ["ak3", "bk2", "c", "random-1", "repeated"])
    def test_witness_files_replay(self, tmp_path, monkeypatch, capsys, name):
        # the same exit code and witness_k as the reference solver, and
        # both witness files pass the replay check
        import explora.explorability as ex
        from explora.cli import main
        from explora.textio import format_automaton
        a, kmax = {case: (a, k) for case, a, k in _finite_game_corpus()}[name]
        path = tmp_path / "a.aut"
        path.write_text(format_automaton(a))
        outputs = []
        for solver in (_solve_finite_game, solve_finite_game_reference):
            monkeypatch.setattr(ex, "_solve_finite_game", solver)
            witness = tmp_path / f"witness-{len(outputs)}.json"
            code = main(["--json", "explorable", "--max-k", str(kmax),
                         "--witness", str(witness), str(path)])
            k = json.loads(capsys.readouterr().out).get("witness_k")
            assert witness.exists() == (k is not None)
            if k is not None:
                _replay_witness_file(a, k, witness)
            outputs.append((code, k))
        assert outputs[0] == outputs[1]


class TestFiniteGameStopsEarly:
    """The local solver against the reference attractor of the full arena:
    the same verdict, a lost set inside the attractor, a strategy outside
    it that passes the replay check, and only a part of the arena explored."""

    @staticmethod
    def assert_agrees(a, monitor, k):
        ref, _, ref_bad = build_finite_game_reference(a, monitor, k)
        ref_lost = {ref.labels[p] for p in _spoiler_attractor(ref, ref_bad)}
        won, lost, current = _solve_finite_game(a, monitor, k)
        assert won == (ref.labels[ref.initial] not in ref_lost)
        assert {v for v, is_lost in lost.items() if is_lost} <= ref_lost
        assert set(ref.labels).issuperset(chain(lost, current))
        if won:
            strategy = verify_token_strategy(a, monitor.automaton, k, current)
            assert ref_lost.isdisjoint(chain(strategy, strategy.values()))

    @pytest.mark.parametrize("a, k", [pytest.param(a, k, id=f"{name}-k{k}")
                                      for name, a, k in _finite_game_corpus()])
    def test_same_verdict_as_reference(self, a, k):
        self.assert_agrees(complete(a), resolve_monitor(a), k)

    def test_same_verdict_on_population_games(self, monkeypatch):
        for args in _population_games(monkeypatch):
            self.assert_agrees(*args)

    def test_same_verdict_on_random_games(self):
        games = _random_finite_games(1002)
        won = 0
        for a, k in games:
            self.assert_agrees(a, resolve_monitor(a), k)
            won += is_k_explorable(a, k)
        assert 0 < won < len(games)

    def test_lost_game_expands_part_of_the_arena(self):
        # an 8-state NFA over abc that the letter player wins at k=2: the
        # solver must stop well before it has explored the whole arena
        a = complete(random_automaton(Random(1), 8, "abc", "finite"))
        monitor = resolve_monitor(a)
        won, lost, current = _solve_finite_game(a, monitor, 2)
        assert not won
        full = build_finite_game_reference(a, monitor, 2)[0].num_positions
        assert 2 * _explored(lost, current) < full

    def test_positions_nothing_waits_on_stay_unexpanded(self):
        # the lost k=3 game of an 8-state NFA over abc: expanding every
        # discovered position explored 1,468 positions; expanding only those
        # that a token-player position of a position not known to be lost
        # moves to explores 423
        a = complete(random_automaton(Random(0), 8, "abc", "finite"))
        won, lost, current = _solve_finite_game(a, resolve_monitor(a), 3)
        assert not won and _explored(lost, current) == 423

    def test_won_ak6_explores_under_a_quarter_of_the_arena(self):
        # the won k=6 game of ak6 has 3,761 positions; trying the most
        # spread moves first, the solver explores 32 of them (4 letter-player,
        # none lost, and 28 token-player), all on its strategy, where piling
        # the tokens first explores hundreds
        a = complete(gen_ak(6))
        monitor = resolve_monitor(a)
        won, lost, current = _solve_finite_game(a, monitor, 6)
        full = build_finite_game_reference(a, monitor, 6)[0].num_positions
        assert won and full == 3761
        assert (len(lost), sum(lost.values()), len(current)) == (4, 0, 28)
        assert 4 * _explored(lost, current) < full
        assert len(verify_token_strategy(a, monitor.automaton, 6, current)) == 28


def _token_move_cases():
    """(automaton, token multisets) of 40 seeded random automata, half of
    them partial: 2-5 states over one to three letters with up to four
    successors a letter, and at each k = 1..6 a piled multiset and four
    drawn ones."""
    rng = Random(31)
    cases = []
    for i in range(40):
        n = rng.randint(2, 5)
        a = random_automaton(rng, n, "abc"[:rng.randint(1, 3)], "finite", max_branch=4)
        if i % 2:  # partial: drop about a third of the transitions
            a = Automaton.build(a.name, a.alphabet, n, a.initial, "finite",
                                [t for t in sorted(a.transitions) if rng.random() < 0.67],
                                a.accepting)
        multisets = [tuple(sorted(rng.choices(range(n), k=k)))
                     for k in range(1, 7) for _ in range(4)]
        cases.append((a, multisets + [(rng.randrange(n),) * k for k in range(1, 7)]))
    return cases


class TestMultisetMoves:
    """`explorability._multiset_moves` against `multiset_moves_reference`:
    the same multisets in every case, in sorted order as the breakpoint game
    takes them, and spread first (most distinct states first, sorted among
    equals) as the finite game's moves order them."""

    def test_sorted_as_the_reference_with_one_memo(self):
        memoized = set()  # (count, number of combinations) of every memoized group
        for a, multisets in _token_move_cases():
            dests = {key: tuple(sorted({d for d, _ in succ})) for key, succ in a.delta.items()}
            combos = {}  # one memo per automaton, as per game
            for tokens in multisets:
                for letter in a.alphabet:
                    assert (_multiset_moves(dests, combos, tokens, letter)
                            == multiset_moves_reference(a, tokens, letter)), (a, tokens, letter)
            memoized |= {(count, len(group)) for (_, count, _), group in combos.items()}
        assert {count for count, size in memoized if size > 1} == set(range(1, 7))
        assert (1, 0) in memoized  # a partial automaton's missing successors

    def test_spread_first_in_the_finite_game(self):
        for a, multisets in _token_move_cases():
            moves = _finite_tokens(a, resolve_monitor(a), 1)[2]
            for tokens in multisets:
                for letter in a.alphabet:
                    spread = sorted(multiset_moves_reference(a, tokens, letter),
                                    key=lambda dsts: (-len(set(dsts)), dsts))
                    assert [dsts for dsts, _ in moves(tokens, 0, letter)] == spread


class TestBoundedSearchCounts:
    """The positions `explorable --max-k` explores on the paper's families
    at their token counts, summed over its rounds, and the letter-player
    positions of a_k's won round at k: a move order that piles the tokens
    first, or a memo that changes the moves, changes them."""

    CASES = {"ak4": (gen_ak(4), 4, 158), "ak5": (gen_ak(5), 5, 432),
             "ak6": (gen_ak(6), 6, 1384), "bk2": (gen_bk(2), 4, 90),
             "bk3": (gen_bk(3), 8, 463), "c": (gen_c(), 6, 146)}

    @pytest.mark.parametrize("name", list(CASES))
    def test_explored_positions(self, monkeypatch, name):
        import explora.explorability as ex
        a, kmax, explored = self.CASES[name]
        rounds = []  # (k, result) of every round played

        def recording(a, monitor, k):
            rounds.append((k, _solve_finite_game(a, monitor, k)))
            return rounds[-1][1]

        monkeypatch.setattr(ex, "_solve_finite_game", recording)
        verdict = explorability_bounded(a, kmax)
        assert [k for k, _ in rounds] == list(range(1, verdict.k + 1))
        assert sum(_explored(lost, current) for _, (_, lost, current) in rounds) == explored
        if name.startswith("ak"):
            k, (won, lost, _) = rounds[-1]
            assert won and k == kmax and len(lost) == 4


def _token_strategy_mutants():
    """(name, automaton, monitor automaton, k, moves) of the won k=3 game of
    the corpus case "repeated": its strategy, then four mutants of it, each
    changing one move: to a legal move the strategy has no answer after, to
    a multiset the tokens cannot reach, to the wrong monitor state, and to a
    legal move into a bad position."""
    a = complete(next(a for name, a, k in _finite_game_corpus() if name == "repeated"))
    monitor = resolve_monitor(a)
    mon = monitor.automaton
    _, _, current = _solve_finite_game(a, monitor, 3)
    strategy = verify_token_strategy(a, mon, 3, current)
    ref, _, ref_bad = build_finite_game_reference(a, monitor, 3)
    bad = {ref.labels[p] for p in ref_bad}
    answered = {t[:2] for t in strategy}

    def legal(t):
        return [ref.labels[d] for d, _ in ref.edges[ref.labels.index(t)]]

    def unreachable(t):  # one token of the move put on another state
        dsts, m2 = strategy[t]
        moved = sorted({tuple(sorted(dsts[1:] + (q,))) for q in range(a.num_states)})
        return [(d, m2) for d in moved if d not in multiset_moves_reference(a, t[0], t[2])]

    def mutant(pick):
        t, w = next((t, w) for t in strategy for w in pick(t) if w != strategy[t])
        return {**strategy, t: w}

    redirected = mutant(lambda t: [w for w in legal(t) if w not in answered and w not in bad])
    illegal = mutant(unreachable)
    monitor_state = mutant(lambda t: [(strategy[t][0], m) for m in range(mon.num_states)])
    into_bad = mutant(lambda t: [w for w in legal(t) if w in bad])
    return [(name, a, mon, 3, moves) for name, moves in (
        ("strategy", strategy), ("redirected", redirected), ("illegal", illegal),
        ("monitor", monitor_state), ("bad", into_bad))]


class TestTokenStrategyCheck:
    """`games.verify_token_strategy` accepts the solver's strategies and
    refuses every mutant with SolverCheckFailed, also under `python -O`."""

    MESSAGES = {"redirected": "has no move at", "illegal": "moves \\(",
                "monitor": "moves the monitor", "bad": "reaches the lost position"}

    def test_refuses_every_mutant(self):
        cases = _token_strategy_mutants()
        verify_token_strategy(*cases[0][1:])
        for name, *args in cases[1:]:
            with pytest.raises(SolverCheckFailed, match=self.MESSAGES[name]):
                verify_token_strategy(*args)

    def test_refuses_every_mutant_optimized(self):
        done = run_optimized("""
from explora.errors import SolverCheckFailed
from explora.games import verify_token_strategy
from test_explorability import _token_strategy_mutants
for name, *args in _token_strategy_mutants():
    try:
        verify_token_strategy(*args)
        print(name, "accepted")
    except SolverCheckFailed:
        print(name, "refused")
""")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n") == ["strategy accepted", "redirected refused",
                                            "illegal refused", "monitor refused",
                                            "bad refused", ""]

    def test_play_checks_the_strategy(self, monkeypatch):
        # a solver that returns a mutant strategy makes the verdict fail
        import explora.explorability as ex
        _, a, _, k, moves = _token_strategy_mutants()[-1]
        monkeypatch.setattr(ex, "_solve_finite_game", lambda *args: (True, {}, moves))
        with pytest.raises(SolverCheckFailed):
            is_k_explorable(a, k)

    def test_needs_a_perfect_matching(self):
        # from the tokens (1, 2, 5), where 1 and 2 move only to 3 and 5 to 3
        # or 4, each new token of (3, 4, 4) has a source and each old token a
        # target among them, yet no matching pairs them all
        a = Automaton.build("m", ["a"], 6, 0, "finite",
                            [(0, "a", 1, 0), (0, "a", 2, 0), (0, "a", 5, 0),
                             (1, "a", 3, 0), (2, "a", 3, 0), (5, "a", 3, 0),
                             (5, "a", 4, 0), (3, "a", 3, 0), (4, "a", 4, 0)], range(6))
        mon = Automaton.build("all", ["a"], 1, 0, "finite", [(0, "a", 0, 0)], [0])

        def moves(dsts):
            return {((0, 0, 0), 0, "a"): ((1, 2, 5), 0),
                    ((1, 2, 5), 0, "a"): (dsts, 0), (dsts, 0, "a"): (dsts, 0)}

        verify_token_strategy(a, mon, 3, moves((3, 3, 3)))
        verify_token_strategy(a, mon, 3, moves((3, 3, 4)))
        with pytest.raises(SolverCheckFailed, match="moves \\(1, 2, 5\\)"):
            verify_token_strategy(a, mon, 3, moves((3, 4, 4)))


def _breakpoint_game_corpus():
    """(name, automaton, k) cases of the game on breakpoint multisets:
    random safety, coBuchi, parity 0 1 and reachability automata, some of
    them partial."""
    rng = Random(91)
    cases = []
    for i in range(24):
        condition = ("safety", "cobuchi", "parity")[i % 3]
        a = random_automaton(rng, rng.randint(2, 4), "abc"[:rng.randint(2, 3)], condition,
                             parity=(0, 1) if condition == "parity" else None)
        if i % 4 == 3:  # partial: drop about a quarter of the transitions
            a = Automaton.build(a.name, a.alphabet, a.num_states, a.initial, a.condition,
                                [t for t in sorted(a.transitions) if rng.random() < 0.75],
                                parity=(0, 1) if condition == "parity" else None)
        cases += [(f"{condition}-{i}", a, k) for k in (1, 2, 3)]
    for i in range(24, 36):  # few accepting transitions, so that games are lost too; odd i partial
        a = random_automaton(rng, rng.randint(2, 4), "abc"[:rng.randint(2, 3)], "reachability")
        kept = [t._replace(rank=0) if t.rank and rng.random() < 0.75 else t
                for t in sorted(a.transitions) if i % 2 == 0 or rng.random() < 0.75]
        a = Automaton.build(a.name, a.alphabet, a.num_states, a.initial, a.condition, kept)
        cases += [(f"reachability-{i}", a, k) for k in (1, 2, 3)]
    return cases


class TestBreakpointGameMatchesTuples:
    """[0, 1]-ranked inputs play on multisets of (clean, state) tokens with
    one breakpoint channel; the game on token tuples with one rank channel
    per token, which the other infinite-word inputs play, decides the same."""

    @pytest.mark.parametrize("a, k", [pytest.param(a, k, id=f"{name}-k{k}")
                                      for name, a, k in _breakpoint_game_corpus()])
    def test_same_verdict_as_tuple_game(self, a, k):
        monitor = resolve_monitor(complete(a))
        arena, objective = build_k_explorability_game(a, monitor, k)
        assert arena.channels == ((0, 2),)
        assert all(arena.edges)  # a partial input is completed: no dead end
        won = arena.initial in solve(arena, objective).winning_region_0
        ref, ref_objective = build_tuple_game_reference(complete(a), monitor, k)
        assert won == (ref.initial in solve(ref, ref_objective).winning_region_0)
        assert won == is_k_explorable(a, k)

    def test_corpus_has_won_and_lost_partial_games(self):
        cases = _breakpoint_game_corpus()
        verdicts = {is_k_explorable(a, k) for _, a, k in cases if k > 1}
        partial = {(a.condition, is_k_explorable(a, 2))
                   for _, a, k in cases if k == 2 and not is_complete(a)}
        assert verdicts == {True, False}
        assert {c for c, _ in partial} == {"safety", "cobuchi", "parity", "reachability"}
        assert {won for _, won in partial} == {True, False}

    def test_one_state_condition(self, monkeypatch):
        # solved on the arena itself: the product would be the arena again
        import explora.games as games

        def refuse(*args):
            raise AssertionError("compile_objective was called")

        a = random_automaton(Random(20), 3, "ab", "cobuchi")
        monkeypatch.setattr(games, "compile_objective", refuse)
        verdicts = []
        for k in (1, 2, 3, 4):
            arena, objective = build_k_explorability_game(a, resolve_monitor(a), k)
            assert objective == MaxEvenParity(0)
            verdicts.append(is_k_explorable(a, k))
            strategy = explorability_witness(a, k).witness
            assert (strategy is not None) == verdicts[-1]
            if strategy is not None:
                assert all(mem == 0 and arena.owner[p] == 0 for p, mem in strategy.moves)
                assert strategy.memory is None
        assert verdicts == [False, True, True, True]

    def test_the_monitor_picks_the_game(self):
        # the built breakpoint monitor, handed in as a user monitor, plays the
        # game on token tuples, which gives the same verdict
        a = complete(random_automaton(Random(20), 3, "ab", "cobuchi"))
        built = resolve_monitor(a)
        user = Monitor(built.automaton, "user")
        verdicts = []
        for k in (1, 2, 3):
            arena, objective = build_k_explorability_game(a, built, k)
            tuples, tuple_objective = build_k_explorability_game(a, user, k)
            assert arena.channels == ((0, 2),)
            assert tuples.channels == ((0, 1),) + union_power(a, k).lasso_view.channels
            won = arena.initial in solve(arena, objective).winning_region_0
            assert won == (tuples.initial in solve(tuples, tuple_objective).winning_region_0)
            verdicts.append(won)
        assert verdicts == [False, True, True]

    def test_other_inputs_keep_token_tuples(self):
        a = automaton_corpus(53, 1, 2, ["a", "b"], "buchi", max_branch=1)[0]
        arena, _ = build_k_explorability_game(a, resolve_monitor(a), 2)
        assert len(arena.channels) == 3
        # two [0, 1] channels still keep one channel per token and channel
        u = union_product(automaton_corpus(54, 2, 2, ["a", "b"], "reachability",
                                           max_branch=1))
        monitor = resolve_monitor(u, compose_monitor(u, union_condition_automaton_02(2)))
        arena, _ = build_k_explorability_game(u, monitor, 2)
        assert len(arena.channels) == 5


def _ranked_01_corpus():
    """(name, automaton) of 200 seeded random inputs that `ranked_01`
    admits: safety, coBuchi, parity 0 1 and reachability, 2-4 states, every
    other one partial."""
    rng = Random(201)
    cases = []
    for i in range(200):
        condition = ("safety", "cobuchi", "parity", "reachability")[i % 4]
        parity = (0, 1) if condition == "parity" else None
        a = random_automaton(rng, rng.randint(2, 4), "abc"[:rng.randint(2, 3)], condition,
                             parity=parity)
        kept = [t for t in sorted(a.transitions) if i % 8 < 4 or rng.random() < 0.75]
        if condition == "reachability":  # few accepting transitions, so that games are lost too
            kept = [t._replace(rank=0) if t.rank and rng.random() < 0.75 else t for t in kept]
        a = Automaton.build(a.name, a.alphabet, a.num_states, a.initial, condition, kept,
                            parity=parity)
        cases.append((f"{condition}-{'partial' if i % 8 >= 4 else 'complete'}-{i}", a))
    return cases


def _num_edges(arena):
    return sum(map(len, arena.edges))


class TestBreakpointGameMatchesReference:
    """The breakpoint game codes tokens as ints and keys each token-player
    position by its moves' arguments (tokens, letter, m2, mrank), shared by
    every monitor state that steps to (m2, mrank); the reference keeps
    (clean, state) tokens and one (tokens, m, letter) position per monitor
    state.  Shared positions are bisimilar, so the verdicts agree."""

    @pytest.mark.parametrize("a", [pytest.param(a, id=name) for name, a in _ranked_01_corpus()])
    def test_same_verdict_smaller_arena(self, a):
        a = complete(a)
        monitor = resolve_monitor(a)
        n = canonical_parity(a).num_states
        mon_delta = {key: succ[0] for key, succ in monitor.automaton.delta.items()}
        for k in (1, 2, 3):
            arena, objective = build_k_explorability_game(a, monitor, k)
            ref, ref_objective = build_breakpoint_game_reference(a, monitor, k)
            won = arena.initial in solve(arena, objective).winning_region_0
            assert won == (ref.initial in solve(ref, ref_objective).winning_region_0)
            assert arena.num_positions <= ref.num_positions
            assert _num_edges(arena) <= _num_edges(ref)
            # the same letter-player positions, and one token-player
            # position per distinct (tokens, letter, m2, mrank)
            letter_positions = {(tuple((q >= n, q % n) for q in tokens), m)
                                for tokens, m in (key for key in arena.labels if len(key) == 2)}
            assert letter_positions == {key for key in ref.labels if len(key) == 2}
            shared = {(tokens, letter, *mon_delta[(m, letter)])
                      for tokens, m, letter in (key for key in ref.labels if len(key) == 3)}
            assert sum(len(key) == 4 for key in arena.labels) == len(shared)

    def test_corpus_has_won_and_lost_games(self):
        verdicts = {(a.condition, is_k_explorable(a, 2)) for _, a in _ranked_01_corpus()[::3]}
        assert verdicts == {(c, won) for c in ("safety", "cobuchi", "parity", "reachability")
                            for won in (True, False)}

    def test_monitor_states_share_a_token_position(self):
        # both monitor states step to (1, 0) under a and to (0, 0) under b,
        # so a clean token on state 0 meets one token position per letter
        a = Automaton.build("shared", "ab", 2, 0, "cobuchi",
                            [(0, "a", 0, 0), (0, "a", 1, 0), (0, "b", 0, 0),
                             (1, "a", 0, 1), (1, "a", 1, 0), (1, "b", 0, 1)])
        monitor = resolve_monitor(a)
        arena, _ = build_k_explorability_game(a, monitor, 1)
        ref, _ = build_breakpoint_game_reference(a, monitor, 1)
        index = {key: p for p, key in enumerate(arena.labels)}
        moves = [arena.edges[index[((2,), m)]] for m in (0, 1)]
        assert moves[0] == moves[1] == ((index[((2,), "a", 1, 0)], (0,)),
                                        (index[((2,), "b", 0, 0)], (0,)))
        assert {(((True, 0),), m, letter) for m in (0, 1) for letter in "ab"} <= set(ref.labels)
        assert (arena.num_positions, ref.num_positions) == (7, 9)

    def test_scale_instance_counts(self):
        a = random_automaton(Random(7), 5, "ab", "cobuchi")
        arena, _ = build_k_explorability_game(a, resolve_monitor(complete(a)), 4)
        assert (arena.num_positions, _num_edges(arena)) == (11777, 44192)


class TestBreakpointGameScale:
    """k-explorability past the channel budget of the token tuples."""

    @pytest.mark.parametrize("k", [5, 6])
    def test_three_state_cobuchi_at_default_budget(self, tmp_path, capsys, k):
        from explora.cli import main
        path = tmp_path / "cob3.aut"
        path.write_text(format_automaton(random_automaton(Random(20), 3, "ab", "cobuchi")))
        assert main(["k-explorable", "-k", str(k), str(path)]) == 0
        assert capsys.readouterr().out.strip() == f"{k}-explorable: True"

    def test_five_state_cobuchi_at_k5(self):
        assert is_k_explorable(random_automaton(Random(7), 5, "ab", "cobuchi"), 5)

    def test_reachability_at_k5(self, tmp_path, capsys):
        # 3-explorable, not 2-explorable; the tuple game needed 6 channels at k=5
        from explora.cli import main
        a = {name: a for name, a, _ in _breakpoint_game_corpus()}["reachability-27"]
        path = tmp_path / "reach.aut"
        path.write_text(format_automaton(a))
        assert main(["k-explorable", "-k", "5", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "5-explorable: True"


def _one_token_round_corpus():
    """(name, automaton) of the distinct automata of the breakpoint corpus
    and of 36 random coBuchi, safety and reachability inputs, 2-4 states."""
    cases = {name: a for name, a, _ in _breakpoint_game_corpus()}
    rng = Random(241)
    for i in range(36):
        condition = ("cobuchi", "safety", "reachability")[i % 3]
        cases[f"{condition}-random-{i}"] = random_automaton(
            rng, rng.randint(2, 4), "abc"[:rng.randint(2, 3)], condition)
    return list(cases.items())


def _one_token_round_cases():
    """(name, automaton, user monitor) of `_one_token_round_corpus`, whose
    monitors are built (None), and of shifted cob3 inputs under user
    monitors: seeds 0, 23 and 38 are history-deterministic, seed 20 is
    2-explorable, seed 25 4-explorable and seed 2 not 4-explorable."""
    return ([(name, a, None) for name, a in _one_token_round_corpus()]
            + [(f"shifted-cob3-{seed}", *shifted_cob3(seed)) for seed in (0, 2, 20, 23, 25, 38)])


_FULL_ROUND_MUTANT = """
import contextlib, io, os, sys, tempfile
from random import Random
import explora.cli as cli
import explora.games as games
from explora.generators import random_automaton
from explora.textio import format_automaton
real = games.explore_graph
def faulty(roots, expand):
    order, edges = real(roots, expand)
    # a letter-player position whose tokens are not all equal: only a
    # k-token arena at k > 1 has one
    i = next((i for i, key in enumerate(order) if len(key) == 2 and len(set(key[0])) > 1),
             None)
    if i is not None:
        edges[i] = edges[i][:-1]
    return order, edges
games.explore_graph = faulty
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cob3.aut")
    with open(path, "w") as out:
        out.write(format_automaton(random_automaton(Random(25), 3, "ab", "cobuchi")))
    for argv in (["k-explorable", "-k", "2", path], ["explorable", "--max-k", "2", path]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        print(code, err.getvalue().strip())
sys.exit(0 if not __debug__ else 4)
"""


class TestOneTokenRound:
    """On infinite words, under a built or a user monitor,
    `explorability_witness` plays the 1-token game first at k > 1: its win
    makes the automaton history-deterministic and is a win at every k.  Only
    a lost 1-token game is followed by the k-token one."""

    @pytest.mark.parametrize("a, user", [pytest.param(a, user, id=name)
                                         for name, a, user in _one_token_round_cases()])
    def test_same_verdict_as_full_game(self, a, user):
        monitor = resolve_monitor(complete(a), user)
        hd = is_k_explorable(a, 1, user)
        for k in (2, 3, 4):
            arena, objective = build_k_explorability_game(a, monitor, k)
            won = arena.initial in solve(arena, objective).winning_region_0
            assert is_k_explorable(a, k, user) == won
            # a won 1-token game is a won k-token game
            assert won or not hd

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_hd_inputs_get_the_one_token_witness(self, k):
        for _, a, user in _one_token_round_cases():
            if is_k_explorable(a, 1, user):
                one = explorability_witness(a, 1, user)
                verdict = explorability_witness(a, k, user)
                assert verdict.k == 1  # the decided round
                assert format_witness(verdict.witness) == format_witness(one.witness)

    def test_corpus_has_hd_and_non_hd_inputs(self):
        cases = _one_token_round_cases()
        for corpus in ([c for c in cases if c[2] is None], [c for c in cases if c[2] is not None]):
            verdicts = {(is_k_explorable(a, 1, user), is_k_explorable(a, 2, user))
                        for _, a, user in corpus}
            assert verdicts == {(True, True), (False, True), (False, False)}

    def test_user_monitor_verdicts_match_the_breakpoint_game(self):
        # the shifted input under its breakpoint monitor plays the tuple
        # game, the unshifted one the breakpoint game
        for seed in (0, 2, 20, 23, 25, 38):
            shifted, user = shifted_cob3(seed)
            a = random_automaton(Random(seed), 3, "ab", "cobuchi")
            for k in (1, 2, 3, 4):
                assert is_k_explorable(shifted, k, user) == is_k_explorable(a, k)

    @staticmethod
    def _rounds(monkeypatch):
        """Record the k of every arena a round builds, and count solves."""
        import explora.explorability as ex
        built, solves = [], []
        real_game, real_solve = ex._token_game, ex.solve

        def game(a, monitor):
            build = real_game(a, monitor)
            return lambda k: built.append(k) or build(k)

        monkeypatch.setattr(ex, "_token_game", game)
        monkeypatch.setattr(ex, "solve", lambda *args: solves.append(1) or real_solve(*args))
        return built, solves

    def test_rounds_played(self, tmp_path, capsys, monkeypatch):
        from explora.cli import main
        built, solves = self._rounds(monkeypatch)

        def run(argv, seed):
            path = tmp_path / f"{seed}.aut"
            path.write_text(format_automaton(random_automaton(Random(seed), 3, "ab", "cobuchi")))
            built.clear()
            solves.clear()
            code = main(argv + [str(path)])
            capsys.readouterr()
            return code, list(built), len(solves)

        # history-deterministic: the 1-token game decides
        assert run(["k-explorable", "-k", "4"], 0) == (0, [1], 1)
        # not history-deterministic: the k-token game decides
        assert run(["k-explorable", "-k", "4"], 25) == (0, [1, 4], 2)
        assert run(["k-explorable", "-k", "3"], 25) == (1, [1, 3], 2)
        # the bounded search plays one round per k
        assert run(["explorable", "--max-k", "4"], 25) == (0, [1, 2, 3, 4], 4)
        assert run(["explorable", "--max-k", "4"], 2) == (2, [1, 2, 3, 4], 4)

    def test_every_infinite_word_game_plays_one_token_first(self, monkeypatch):
        # a deterministic Buchi input monitors itself and plays on token
        # tuples: it is history-deterministic, so the 1-token round decides.
        # The non-HD shifted cob3 plays the tuple game at 1 and then at k.  A
        # finite-word input plays one local game at k
        import explora.explorability as ex
        built, solves = self._rounds(monkeypatch)
        finite = []
        real_finite = ex._solve_finite_game
        monkeypatch.setattr(ex, "_solve_finite_game",
                            lambda a, monitor, k: finite.append(k) or real_finite(a, monitor, k))
        det = random_automaton(Random(3), 3, "ab", "buchi", max_branch=1)
        assert is_k_explorable(det, 1) and is_k_explorable(gen_ak(1), 1)
        shifted, monitor = shifted_cob3(25)
        for a, user, verdict, arenas, local in ((det, None, True, [1], []),
                                                (shifted, monitor, False, [1, 3], []),
                                                (gen_ak(1), None, True, [], [3])):
            built.clear()
            solves.clear()
            finite.clear()
            assert is_k_explorable(a, 3, user) == verdict
            assert (built, len(solves), finite) == (arenas, len(arenas), local)

    def test_one_game_set_up_per_verdict(self, tmp_path, capsys, monkeypatch):
        # seed 25 loses the 1-token round: its k-token round, and every
        # round of the bounded search, reuses the set-up of that round
        import explora.explorability as ex
        from explora.cli import main
        calls = []
        real = ex.canonical_parity
        monkeypatch.setattr(ex, "canonical_parity", lambda a: calls.append(a) or real(a))
        path = tmp_path / "cob3.aut"
        path.write_text(format_automaton(random_automaton(Random(25), 3, "ab", "cobuchi")))
        for argv in (["k-explorable", "-k", "4"], ["explorable", "--max-k", "4"]):
            calls.clear()
            assert main(argv + [str(path)]) == 0
            capsys.readouterr()
            assert len(calls) == 1

    def test_letter_check_raises_under_optimize(self):
        # an arena walk that loses one letter of a letter-player position:
        # the game must refuse it, not decide on it, and the check must not
        # be an assert, which `python -O` strips
        done = run_optimized("""
import sys
from random import Random
import explora.games as games
from explora.errors import SolverCheckFailed
from explora.explorability import is_k_explorable
from explora.generators import random_automaton
real = games.explore_graph
def faulty(roots, expand):
    order, edges = real(roots, expand)
    i = next(i for i, key in enumerate(order) if len(key) == 2 and i > 0)
    edges[i] = edges[i][:-1]
    return order, edges
games.explore_graph = faulty
try:
    is_k_explorable(random_automaton(Random(25), 3, "ab", "cobuchi"), 2)
except SolverCheckFailed as failed:
    print(failed)
    sys.exit(0 if not __debug__ else 4)
sys.exit(5)
""")
        assert done.returncode == 0, done.stderr
        assert "the game does not offer every letter" in done.stdout
        # the same fault in the k-token arena only, past a lost 1-token
        # game, and in the bounded search, which checks every k
        done = run_optimized(_FULL_ROUND_MUTANT)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("3 error: the game does not offer every letter at ((")
                   for line in lines)


_TWO_CHANNELS = ((1, 2), (0, 1))  # a Buchi and a coBuchi channel


def _tuple_game_corpus():
    """(name, automaton, monitor, k) cases of the game on token tuples:
    random nondeterministic Buchi, parity 0 2, parity 1 3 and two-channel
    automata, every other one partial and then completed, each with a random
    deterministic parity monitor that is not checked against it."""
    rng = Random(151)
    cases = []
    for tag, condition, parity in (("buchi", "buchi", None), ("parity02", "parity", (0, 2)),
                                   ("parity13", "parity", (1, 3)), ("multi", None, None)):
        for i in range(8):
            n = rng.randint(2, 3)
            if condition is None:
                a = MultiAutomaton(f"multi{i}", ("a", "b"), n, 0, _TWO_CHANNELS, frozenset(
                    MultiTransition(q, x, d, tuple(rng.randint(lo, hi) for lo, hi in _TWO_CHANNELS))
                    for q in range(n) for x in "ab" for d in rng.sample(range(n), rng.randint(1, 2))))
            else:
                a = random_automaton(rng, n, "ab", condition, parity=parity)
            if i % 2:  # partial: drop about a quarter of the transitions
                a = replace(a, transitions=frozenset(
                    t for t in sorted(a.transitions) if rng.random() < 0.75))
            m = random_automaton(rng, rng.randint(1, 3), "ab", "parity", max_branch=1,
                                 parity=(0, 2))
            kind = "partial" if i % 2 else "complete"
            cases += [(f"{tag}-{kind}-{i}", complete(a), m, k) for k in (1, 2, 3)]
    return cases


def _round_won(a, monitor, k):
    """Whether the token player wins the infinite-word k-token round alone,
    checked as `_first_won_round` checks its rounds."""
    arena, objective = build_k_explorability_game(a, monitor, k)
    _check_letter_moves(arena, a.alphabet)
    return arena.initial in solve(arena, objective).winning_region_0


class TestTupleGameMatchesReference:
    """Buchi, general parity and multi-channel inputs play one token on the
    k-fold union power; the reference builds the game on token tuples with
    its own joint moves.  Both play the same game for any deterministic
    monitor, so the monitors here are random and unvalidated."""

    @pytest.mark.parametrize("a, m, k", [pytest.param(a, m, k, id=f"{name}-k{k}")
                                         for name, a, m, k in _tuple_game_corpus()])
    def test_same_verdict_as_reference(self, monkeypatch, a, m, k):
        # two channels per token: k = 3 needs 7
        monkeypatch.setenv("EXPLORE_CHANNEL_BUDGET", "7")
        monitor = Monitor(m, "user")
        ref, objective = build_tuple_game_reference(a, monitor, k)
        assert _round_won(a, monitor, k) == (ref.initial in solve(ref, objective).winning_region_0)

    def test_corpus_has_won_and_lost_games(self, monkeypatch):
        monkeypatch.setenv("EXPLORE_CHANNEL_BUDGET", "7")
        verdicts = {(name.split("-")[0], _round_won(a, Monitor(m, "user"), k))
                    for name, a, m, k in _tuple_game_corpus()}
        assert verdicts == {(tag, won) for tag in ("buchi", "parity02", "parity13", "multi")
                            for won in (True, False)}


class TestPartialMultiChannelInputs:
    """A partial multi-channel input is completed like a single-channel one,
    so every command answers instead of building a position with no edge."""

    INPUT = """automaton pm
alphabet: a b
states: 2
initial: 0
channels: 2
range: 0 1 2
range: 1 1 2
t 0 a 0 2 1
t 0 a 1 1 1
t 1 a 1 1 2
t 1 b 1 1 2
"""
    STARTS_WITH_A = """automaton starts_with_a
alphabet: a b
states: 3
initial: 0
condition: buchi
t 0 a 1 2
t 0 b 2 1
t 1 a 1 2
t 1 b 1 2
t 2 a 2 1
t 2 b 2 1
"""

    @pytest.mark.parametrize("command, out", [
        (["k-explorable", "-k", "1"], "1-explorable: True"),
        (["k-explorable", "-k", "2"], "2-explorable: True"),
        (["explorable", "--max-k", "2"], "explorable-with: 1"),
        (["hd"], "history-deterministic: True"),
    ])
    def test_commands_answer(self, tmp_path, capsys, command, out):
        from explora.cli import main
        (tmp_path / "pm.aut").write_text(self.INPUT)
        (tmp_path / "mon.aut").write_text(self.STARTS_WITH_A)
        code = main(command + ["--monitor", str(tmp_path / "mon.aut"), str(tmp_path / "pm.aut")])
        assert (code, capsys.readouterr().out.strip()) == (0, out)


def _degenerate_parity_corpus():
    """(name, transitions, rank) of nondeterministic 3-state automata over
    {a, b} whose ranks all equal `rank`, 0 or 1, complete and partial."""
    rng = Random(93)
    cases = []
    for rank in (0, 1):
        for partial in (False, True):
            found = 0
            while found < 2:
                a = random_automaton(rng, 3, "ab", "parity", parity=(rank, rank))
                kept = [t for t in sorted(a.transitions) if not partial or rng.random() < 0.7]
                b = Automaton.build(a.name, a.alphabet, 3, 0, "cobuchi", kept)
                # deterministic inputs always had a monitor: themselves
                if is_complete(b) == partial or all(len(s) == 1 for s in b.delta.values()):
                    continue
                name = f"parity-{rank}{rank}-{'partial' if partial else 'complete'}-{found}"
                cases.append((name, kept, rank))
                found += 1
    return cases


class TestDegenerateParityRanges:
    """Inputs tagged parity 0 0 or 1 1 are ranked in [0, 1]: they get the
    verdicts of the same transitions tagged cobuchi, complete or not."""

    COMMANDS = [["k-explorable", "-k", "1"], ["k-explorable", "-k", "2"],
                ["k-explorable", "-k", "3"], ["explorable", "--max-k", "3"],
                ["hd", "--exact"], ["omega-explorable"]]

    @pytest.mark.parametrize("transitions, rank", [
        pytest.param(t, r, id=name) for name, t, r in _degenerate_parity_corpus()])
    def test_same_verdicts_as_cobuchi(self, tmp_path, capsys, transitions, rank):
        from explora.cli import main
        outputs = {}
        for tag, parity in (("parity", (rank, rank)), ("cobuchi", None)):
            path = tmp_path / f"{tag}.aut"
            path.write_text(format_automaton(
                Automaton.build("d", "ab", 3, 0, tag, transitions, parity=parity)))
            outputs[tag] = []
            for command in self.COMMANDS:
                code = main(command + [str(path)])
                outputs[tag].append((code, capsys.readouterr().out))
        assert outputs["parity"] == outputs["cobuchi"]
        assert all(code in (0, 1, 2) for code, _ in outputs["parity"])


class TestMonotonicity:
    def test_monotone_in_k_on_corpus(self):
        for a in automaton_corpus(61, 8, 3, ["a", "b"], "finite"):
            values = [is_k_explorable(a, k) for k in (1, 2, 3)]
            for lo, hi in zip(values, values[1:]):
                assert (not lo) or hi

    def test_union_bound(self):
        # a k-explorable and an n-explorable automaton: disjoint union with a
        # fresh initial state is (k+n)-explorable
        a, b = gen_ak(2), gen_ak(2)
        off = a.num_states
        init = a.num_states + b.num_states
        transitions = [t for t in a.transitions]
        transitions += [(t.src + off, t.letter, t.dst + off, 0)
                        for t in b.transitions]
        for letter in a.alphabet:
            for dst, _ in a.successors(a.initial, letter):
                transitions.append((init, letter, dst, 0))
            for dst, _ in b.successors(b.initial, letter):
                transitions.append((init, letter, dst + off, 0))
        union = complete(Automaton.build(
            "union", a.alphabet, init + 1, init, "finite", transitions,
            set(a.accepting) | {q + off for q in b.accepting}))
        assert is_k_explorable(union, 4)


class TestPopulationReduction:
    def test_roundtrip_on_fixed_families(self):
        for a in [gen_ak(2), gen_c(), gen_bk(1)]:
            inst = pcp_reduce(a)
            for k in (1, 2, 3):
                assert is_k_explorable(a, k) == is_k_population_winnable(inst, k)

    def test_reduce_shape(self):
        inst = pcp_reduce(gen_ak(2))
        nfa = inst.nfa
        assert inst.target == nfa.num_states - 2
        test_letter = nfa.alphabet[-1]
        assert test_letter not in gen_ak(2).alphabet
        # target and dead-end are sinks
        for sink in (inst.target, nfa.num_states - 1):
            for letter in nfa.alphabet:
                assert all(d == sink for d, _ in nfa.successors(sink, letter))

    def test_unreachable_target_is_always_winnable(self):
        nfa = Automaton.build("t", ["a", "x"], 2, 0, "finite",
                              [(0, "a", 0, 0), (0, "x", 0, 0),
                               (1, "a", 1, 0), (1, "x", 1, 0)])
        from explora.explorability import PCPInstance
        inst = PCPInstance(nfa, 1)
        for k in (1, 2, 3):
            assert is_k_population_winnable(inst, k)

    def test_target_outside_the_states_rejected(self):
        from explora.explorability import PCPInstance
        nfa = gen_ak(2)
        for target in (99, nfa.num_states, -1):
            with pytest.raises(ValueError):
                is_k_population_winnable(PCPInstance(nfa, target), 1)
            with pytest.raises(ValueError):
                pcp_to_explorability(PCPInstance(nfa, target))

    def test_deterministic_all_accepting_reduction(self):
        # test letter always leads to the dead state: trivially winnable
        a = Automaton.build("triv", ["a"], 1, 0, "finite", [(0, "a", 0, 0)],
                            accepting={0})
        inst = pcp_reduce(a)
        dead = inst.nfa.num_states - 1
        test_letter = inst.nfa.alphabet[-1]
        for q in range(inst.nfa.num_states - 2):
            assert all(d == dead for d, _ in inst.nfa.successors(q, test_letter))
        assert is_k_population_winnable(inst, 1)

    def test_population_game_on_c_reduction(self):
        inst = pcp_reduce(gen_c())
        for k in (1, 2, 3):
            assert not is_k_population_winnable(inst, k)


class TestHardnessProduct:
    def test_non_sink_target_rejected(self):
        nfa = Automaton.build("ns", ["a"], 2, 0, "finite",
                              [(0, "a", 1, 0), (1, "a", 0, 0)])
        from explora.explorability import PCPInstance
        with pytest.raises(NonSinkTarget):
            pcp_to_explorability(PCPInstance(nfa, 1))

    def test_unreachable_sink_target_product(self):
        nfa = Automaton.build("u", ["a"], 2, 0, "finite",
                              [(0, "a", 0, 0), (1, "a", 1, 0)])
        from explora.explorability import PCPInstance
        inst = PCPInstance(nfa, 1)
        out = pcp_to_explorability(inst)
        for w in iter_words(out.alphabet, 2):
            assert member_finite(out, w)
        verdicts = {k: is_k_explorable(out, k) for k in (1, 2, 3)}
        # population game is trivially won, so the product must be explorable
        # at the token count the solver certifies
        assert any(verdicts.values())
        for k in (1, 2, 3):
            assert verdicts[k] == is_k_population_winnable(inst, k)

    def test_universality_check_is_exact(self, monkeypatch):
        # the product is the mutant itself, which accepts every word of
        # length <= 2 and rejects aaa
        monkeypatch.setattr("explora.explorability.gen_c", gen_c_rejecting_aaa)
        nfa = Automaton.build("one", ["a"], 1, 0, "finite", [(0, "a", 0, 0)])
        with pytest.raises(ReductionCheckFailed):
            pcp_to_explorability(PCPInstance(nfa, 0))

    def test_universality_check_raises_under_optimize(self):
        # the check must not be an assert, which `python -O` strips
        done = run_optimized("""
import sys
import explora.explorability as ex
from explora.automata import Automaton
from explora.errors import ReductionCheckFailed
from conftest import gen_c_rejecting_aaa
ex.gen_c = gen_c_rejecting_aaa
nfa = Automaton.build("one", ["a"], 1, 0, "finite", [(0, "a", 0, 0)])
try:
    ex.pcp_to_explorability(ex.PCPInstance(nfa, 0))
except ReductionCheckFailed:
    sys.exit(0 if not __debug__ else 4)
sys.exit(5)
""")
        assert done.returncode == 0, done.stderr

    def test_explorability_matches_population_verdicts(self):
        for src in [gen_ak(2), gen_c()]:
            inst = pcp_reduce(src)
            out = pcp_to_explorability(inst)
            for k in (1, 2):
                assert is_k_explorable(out, k) == is_k_population_winnable(inst, k)


class TestAkBridge:
    def test_bridge_on_fixed_and_random(self):
        from explora.constructions import union_power
        fixed = [gen_ak(2), gen_c()]
        rng = Random(88)
        fixed += [complete(random_automaton(rng, 3, ["a", "b"], "finite"))
                  for _ in range(4)]
        for a in fixed:
            for k in (1, 2):
                assert is_k_explorable(a, k) == is_k_explorable(union_power(a, k), 1)
