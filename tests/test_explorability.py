from dataclasses import replace
from random import Random

import pytest

from explora.automata import (Automaton, MultiAutomaton, MultiTransition, complete,
                              explore_graph, is_complete, member_finite)
from explora.constructions import (compose_monitor, union_condition_automaton_02,
                                   union_product)
from explora.determinize import Monitor, resolve_monitor
from explora.errors import ChannelBudgetExceeded, NonSinkTarget, ReductionCheckFailed
from explora.explorability import (PCPInstance, _build_finite_game, _play,
                                   build_k_explorability_game,
                                   explorability_bounded,
                                   explorability_witness, is_k_explorable,
                                   is_k_population_winnable, pcp_reduce,
                                   pcp_to_explorability)
from explora.games import solve
from explora.generators import gen_ak, gen_bk, gen_c, random_automaton
from explora.textio import format_automaton

from conftest import automaton_corpus, gen_c_rejecting_aaa, run_optimized, run_python
from reference import (_spoiler_attractor, build_finite_game_reference,
                       build_tuple_game_reference, is_k_explorable_tuples,
                       iter_words, solve_finite_game_reference)


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
        assert verdict.is_explorable is None


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
        a = gen_bk(2)
        monitor = resolve_monitor(a)
        k = 3
        arena, _ = build_k_explorability_game(a, monitor, k)
        n = a.num_states
        binom = 1
        for i in range(k):
            binom = binom * (n + i) // (i + 1)
        bound = binom * monitor.automaton.num_states * (1 + len(a.alphabet))
        assert arena.num_positions <= bound

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
        # the attractor fast path and the compiled parity game must coincide
        rng = Random(78)
        for _ in range(10):
            a = complete(random_automaton(rng, 3, ["a", "b"], "finite"))
            monitor = resolve_monitor(a)
            for k in (1, 2):
                arena, objective = build_k_explorability_game(a, monitor, k)
                via_solver = arena.initial in solve(arena, objective).winning_region_0
                assert via_solver == is_k_explorable(a, k)

    def test_channel_budget(self):
        # a deterministic Buchi input monitors itself and plays on token
        # tuples, one channel per token: k=9 needs 10 channels
        a = automaton_corpus(52, 1, 2, ["a"], "buchi", max_branch=1)[0]
        with pytest.raises(ChannelBudgetExceeded):
            is_k_explorable(a, 9)

    def test_channel_budget_spares_breakpoint_games(self):
        # a coBuchi input plays on breakpoint multisets, two channels for any k
        a = automaton_corpus(52, 1, 2, ["a"], "cobuchi")[0]
        assert is_k_explorable(a, 9) in (True, False)
        arena, _ = build_k_explorability_game(a, resolve_monitor(a), 9)
        assert len(arena.channels) == 2

    def test_bounded_search_refuses_before_playing(self, tmp_path, capsys, monkeypatch):
        import explora.explorability as ex
        from explora.cli import main
        a = automaton_corpus(52, 1, 2, ["a"], "buchi", max_branch=1)[0]
        path = tmp_path / "a.aut"
        path.write_text(format_automaton(a))
        played = []
        real = ex._play
        monkeypatch.setattr(ex, "_play", lambda *args, **kw: played.append(args) or real(*args, **kw))
        assert main(["explorable", "--max-k", "6", str(path)]) == 3
        assert "7 channels exceed the budget of 5" in capsys.readouterr().err
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
        assert verdict.witness.moves == explorability_witness(gen_ak(3), 3).moves

    def test_witness_strategy_available(self):
        w = explorability_witness(gen_ak(2), 2)
        assert w is not None and w.moves
        assert explorability_witness(gen_ak(2), 1) is None


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
                                _tuple_game_corpus)
for name, a, k in _finite_game_corpus() + _breakpoint_game_corpus():
    print(name, k, format_automaton(a))
for name, a, m, k in _tuple_game_corpus():
    print(name, k, format_automaton(a), format_automaton(m))
"""
    runs = [run_python(script, PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def _bad_positions(arena):
    return [i for i, out in enumerate(arena.edges) if out == ((i, (2,)),)]


def _population_games(monkeypatch):
    """(automaton, monitor, k) of the games `is_k_population_winnable` plays
    on the reductions of ak3, bk1 and c at k = 1..3."""
    import explora.explorability as ex
    played = []
    monkeypatch.setattr(ex, "_build_finite_game",
                        lambda *args, **kw: played.append(args) or _build_finite_game(*args, **kw))
    for a in (gen_ak(3), gen_bk(1), gen_c()):
        inst = pcp_reduce(a)
        for k in (1, 2, 3):
            is_k_population_winnable(inst, k)
    monkeypatch.undo()
    assert len(played) == 9
    return played


class TestPartialInputs:
    """`build_k_explorability_game` completes its input, as `is_k_explorable`
    does: a missing transition must not leave a position without an edge."""

    @pytest.mark.parametrize("a, k", [pytest.param(a, k, id=f"{name}-k{k}")
                                      for name, a, k in _finite_game_corpus()
                                      if not is_complete(a)])
    def test_no_dead_end_and_same_verdict(self, a, k):
        arena, objective = build_k_explorability_game(a, resolve_monitor(a), k)
        assert all(arena.edges)
        won = arena.initial in solve(arena, objective).winning_region_0
        assert won == is_k_explorable(a, k)


class TestFiniteGameMatchesReference:
    """The finite-word builder against the one it was optimised from, which
    recomputes the token moves at every position, runs the bad test twice and
    computes the attractor in a second pass: a finished walk gives the same
    positions in the same order, the same edges, the same bad positions and
    the same attractor, hence the same verdicts and witnesses."""

    @staticmethod
    def assert_same_game(a, monitor, k):
        arena, attr = _build_finite_game(a, monitor, k)
        ref, _, ref_bad = build_finite_game_reference(a, monitor, k)
        assert arena.owner == ref.owner
        assert arena.edges == ref.edges
        assert arena.labels == ref.labels
        assert (arena.initial, arena.channels) == (ref.initial, ref.channels)
        assert _bad_positions(arena) == ref_bad
        assert attr == _spoiler_attractor(ref, ref_bad)

    @pytest.mark.parametrize("a, k", [pytest.param(a, k, id=f"{name}-k{k}")
                                      for name, a, k in _finite_game_corpus()])
    def test_same_arena_as_reference(self, a, k):
        self.assert_same_game(a, resolve_monitor(a), k)

    def test_same_arena_on_population_games(self, monkeypatch):
        for args in _population_games(monkeypatch):
            self.assert_same_game(*args)

    def test_objective(self):
        a = complete(gen_ak(2))
        _, objective = build_k_explorability_game(a, resolve_monitor(a), 2)
        assert objective == build_finite_game_reference(a, resolve_monitor(a), 2)[1]

    @pytest.mark.parametrize("name", ["ak3", "bk2", "c", "random-1", "repeated"])
    def test_witness_files_identical(self, tmp_path, monkeypatch, name):
        import explora.explorability as ex
        from explora.cli import main
        from explora.textio import format_automaton
        a, kmax = {case: (a, k) for case, a, k in _finite_game_corpus()}[name]
        path = tmp_path / "a.aut"
        path.write_text(format_automaton(a))
        outputs = []
        for build in (_build_finite_game, solve_finite_game_reference):
            monkeypatch.setattr(ex, "_build_finite_game", build)
            witness = tmp_path / f"witness-{len(outputs)}.json"
            code = main(["explorable", "--max-k", str(kmax), "--witness", str(witness),
                         str(path)])
            outputs.append((code, witness.read_bytes() if witness.exists() else None))
        assert outputs[0] == outputs[1]


class TestFiniteGameStopsEarly:
    """The walk that stops once the initial position is attracted, against
    the reference attractor of the full arena: the same verdict, the same
    attractor on a won game, and a part of it on a lost one."""

    @staticmethod
    def assert_same_verdict(a, monitor, k):
        ref, _, ref_bad = build_finite_game_reference(a, monitor, k)
        ref_attr = _spoiler_attractor(ref, ref_bad)
        arena, attr = _build_finite_game(a, monitor, k, stop=True)
        assert (arena is not None) == (ref.initial not in ref_attr)
        if arena is None:  # positions keep their numbers in a partial walk
            assert ref.initial in attr and attr <= ref_attr
        else:
            assert attr == ref_attr

    @pytest.mark.parametrize("a, k", [pytest.param(a, k, id=f"{name}-k{k}")
                                      for name, a, k in _finite_game_corpus()])
    def test_same_verdict_as_reference(self, a, k):
        self.assert_same_verdict(a, resolve_monitor(a), k)

    def test_same_verdict_on_population_games(self, monkeypatch):
        for args in _population_games(monkeypatch):
            self.assert_same_verdict(*args)

    def test_lost_game_expands_part_of_the_arena(self, monkeypatch):
        # an 8-state NFA over abc that the letter player wins at k=2: the
        # walk must stop well before it has expanded the whole arena
        import explora.explorability as ex
        a = complete(random_automaton(Random(1), 8, "abc", "finite"))
        monitor = resolve_monitor(a)
        expanded = []

        def counting(roots, expand, visit=None):
            order, edges = explore_graph(roots, expand, visit)
            expanded.append(len(edges))
            return order, edges

        monkeypatch.setattr(ex, "explore_graph", counting)
        assert ex._play(a, monitor, 2) == (False, None)
        full = build_finite_game_reference(a, monitor, 2)[0].num_positions
        assert 2 * expanded[0] < full


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
        assert len(arena.channels) == 2
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

    def test_one_state_condition(self):
        from explora.games import compile_objective
        a = random_automaton(Random(20), 3, "ab", "cobuchi")
        for k in (1, 4):
            arena, objective = build_k_explorability_game(a, resolve_monitor(a), k)
            product, cond = compile_objective(arena, objective)
            assert cond.num_states == 1
            assert product.num_positions == arena.num_positions

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
        won, _ = _play(a, monitor, k)
        assert won == (ref.initial in solve(ref, objective).winning_region_0)

    def test_corpus_has_won_and_lost_games(self, monkeypatch):
        monkeypatch.setenv("EXPLORE_CHANNEL_BUDGET", "7")
        verdicts = {(name.split("-")[0], _play(a, Monitor(m, "user"), k)[0])
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
        monkeypatch.setattr("explora.generators.gen_c", gen_c_rejecting_aaa)
        nfa = Automaton.build("one", ["a"], 1, 0, "finite", [(0, "a", 0, 0)])
        with pytest.raises(ReductionCheckFailed):
            pcp_to_explorability(PCPInstance(nfa, 0))

    def test_universality_check_raises_under_optimize(self):
        # the check must not be an assert, which `python -O` strips
        done = run_optimized("""
import sys
import explora.explorability as ex
import explora.generators
from explora.automata import Automaton
from explora.errors import ReductionCheckFailed
from conftest import gen_c_rejecting_aaa
explora.generators.gen_c = gen_c_rejecting_aaa
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
