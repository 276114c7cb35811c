from itertools import product
from random import Random

import pytest

from explora.automata import (Automaton, MultiAutomaton, MultiTransition,
                              complete, equivalent_on_lassos, is_complete,
                              is_deterministic, iter_lassos, member_lasso)
from explora.constructions import (buchi_union_flatten, compose_monitor,
                                   rank_tuple_letter, to_13,
                                   union_condition_automaton_02, union_power,
                                   union_product)
from explora.errors import ChannelBudgetExceeded
from explora.explorability import is_k_explorable
from explora.generators import gen_ak, random_automaton

from conftest import automaton_corpus
from reference import equivalent_on_words, validate


def det_parity_14():
    return Automaton.build(
        "d14", ["a", "b"], 3, 0, "parity",
        [(0, "a", 1, 1), (0, "b", 2, 3), (1, "a", 2, 2), (1, "b", 0, 4),
         (2, "a", 0, 1), (2, "b", 1, 2)], parity=(1, 4))


class TestUnionPower:
    def test_power_one_finite_is_isomorphic(self):
        a = gen_ak(2)
        u = union_power(a, 1)
        assert isinstance(u, Automaton)
        assert u.num_states == a.num_states  # reachable part of A_2 is all of it
        assert equivalent_on_words(a, u, 4).equivalent

    def test_power_one_infinite_same_language(self):
        a = automaton_corpus(91, 1, 3, ["a", "b"], "buchi")[0]
        u = union_power(a, 1)
        assert isinstance(u, MultiAutomaton)
        assert equivalent_on_lassos(a, u, 6).equivalent

    def test_a2_squared_is_hd(self):
        u = union_power(gen_ak(2), 2)
        assert is_k_explorable(u, 1)

    def test_lasso_disjunction_property(self):
        rng = Random(92)
        a = complete(random_automaton(rng, 2, ["a", "b"], "buchi"))
        u = union_power(a, 2)
        for w in iter_lassos(["a", "b"], 5):
            assert member_lasso(u, w) == member_lasso(a, w)

    def test_channel_budget(self):
        a = automaton_corpus(93, 1, 2, ["a"], "buchi")[0]
        with pytest.raises(ChannelBudgetExceeded):
            union_power(a, 5)


def _partial_multi(rng: Random, channels) -> MultiAutomaton:
    """A random nondeterministic 3-state multi-channel automaton over {a, b}
    with about a quarter of its transitions missing."""
    return MultiAutomaton("pm", ("a", "b"), 3, 0, channels, frozenset(
        MultiTransition(q, x, d, tuple(rng.randint(lo, hi) for lo, hi in channels))
        for q in range(3) for x in "ab" for d in rng.sample(range(3), rng.randint(1, 2))
        if rng.random() < 0.75))


class TestMultiChannelComponents:
    def test_channels_are_concatenated(self):
        rng = Random(110)
        m = _partial_multi(rng, ((1, 2), (0, 1)))
        b = random_automaton(rng, 2, ["a", "b"], "parity", parity=(0, 2))
        assert union_product([m, b]).channels == ((1, 2), (0, 1), (0, 2))
        assert union_product([b, m]).channels == ((0, 2), (1, 2), (0, 1))
        assert union_power(m, 2).channels == ((1, 2), (0, 1)) * 2
        # every rank vector is the components' vectors in the same order
        for u in (union_product([m, b]), union_product([b, m]), union_power(m, 2)):
            assert validate(u) == []

    def test_membership_is_the_union(self):
        rng = Random(111)
        for _ in range(4):
            m = _partial_multi(rng, ((1, 2), (0, 1)))
            b = random_automaton(rng, 2, ["a", "b"], "buchi")
            u, power = union_product([m, b]), union_power(m, 2)
            for w in iter_lassos(["a", "b"], 5):
                assert member_lasso(u, w) == (member_lasso(m, w) or member_lasso(b, w))
                assert member_lasso(power, w) == member_lasso(m, w)

    def test_power_channel_budget(self):
        m = _partial_multi(Random(112), ((1, 2), (0, 1)))
        assert len(union_power(m, 2).channels) == 4  # 5 with a monitor
        with pytest.raises(ChannelBudgetExceeded):
            union_power(m, 3)

    def test_complete_keeps_the_language(self):
        rng = Random(114)
        # the all-even range 2 2 widens to hold a rejecting rank
        for channels, widened in ((((1, 2), (0, 1)), ((1, 2), (0, 1))),
                                  (((0, 2), (2, 2)), ((0, 2), (2, 3)))):
            m = _partial_multi(rng, channels)
            assert not is_complete(m)
            c = complete(m)
            assert is_complete(c) and complete(c) is c
            assert c.channels == widened
            assert equivalent_on_lassos(m, c, 6).equivalent


class TestBuchiUnionFlatten:
    def test_single_channel_identity(self):
        a = automaton_corpus(94, 1, 3, ["a", "b"], "buchi")[0]
        u = union_power(a, 1)
        flat = buchi_union_flatten(u)
        assert equivalent_on_lassos(a, flat, 6).equivalent

    def test_flatten_preserves_language(self):
        rng = Random(95)
        for _ in range(5):
            a = complete(random_automaton(rng, 2, ["a", "b"], "buchi"))
            u = union_power(a, 2)
            flat = buchi_union_flatten(u)
            assert flat.condition == "buchi"
            assert equivalent_on_lassos(u, flat, 6).equivalent

    def test_flatten_preserves_1_explorability(self):
        # a Buchi analogue of the 2-way branching family: 2- but not
        # 1-explorable; its union square is HD and stays HD after flattening
        a = Automaton.build(
            "b2way", ["a", "x", "y"], 5, 0, "buchi",
            [(0, "a", 1, 1), (0, "a", 2, 1),
             (1, "x", 3, 2), (2, "y", 3, 2),
             (3, "a", 3, 2), (3, "x", 3, 2), (3, "y", 3, 2)])
        a = complete(a)
        monitor = Automaton.build(
            "mon", ["a", "x", "y"], 4, 0, "buchi",
            [(0, "a", 1, 1), (0, "x", 3, 1), (0, "y", 3, 1),
             (1, "x", 2, 2), (1, "y", 2, 2), (1, "a", 3, 1),
             (2, "a", 2, 2), (2, "x", 2, 2), (2, "y", 2, 2),
             (3, "a", 3, 1), (3, "x", 3, 1), (3, "y", 3, 1)])
        assert is_deterministic(monitor)
        assert is_k_explorable(a, 2, user_monitor=monitor)
        assert not is_k_explorable(a, 1, user_monitor=monitor)
        u = union_power(a, 2)
        flat = buchi_union_flatten(u)
        assert is_k_explorable(u, 1, user_monitor=monitor) \
            == is_k_explorable(flat, 1, user_monitor=monitor) is True

    def test_non_buchi_channel_rejected(self):
        a = automaton_corpus(96, 1, 2, ["a"], "cobuchi")[0]
        with pytest.raises(ValueError):
            buchi_union_flatten(union_power(a, 2))


class TestTo13:
    def test_buchi_single_copy(self):
        a = automaton_corpus(97, 1, 3, ["a", "b"], "buchi")[0]
        out = to_13(a)
        assert out.num_states == a.num_states + 1
        assert equivalent_on_lassos(a, out, 6).equivalent

    def test_random_14_corpus_size_and_language(self):
        for a in automaton_corpus(98, 8, 3, ["a", "b"], "parity", parity=(1, 4)):
            out = to_13(a)
            assert (out.lo, out.hi) == (1, 3)
            assert out.num_states == 2 * a.num_states + 1
            assert equivalent_on_lassos(a, out, 6).equivalent

    def test_zero_based_ranks_are_shifted(self):
        for a in automaton_corpus(99, 4, 3, ["a", "b"], "parity", parity=(0, 2)):
            out = to_13(a)
            assert equivalent_on_lassos(a, out, 6).equivalent

    def test_explorability_transferred(self):
        a = det_parity_14()
        assert is_k_explorable(a, 2)  # deterministic, hence 2-explorable
        out = to_13(a)
        # the collapse predicts explorability with at most k*d/2 = 4 tokens
        assert any(is_k_explorable(out, k, user_monitor=a) for k in (1, 2, 3, 4))


class TestUnionCondition02:
    def test_reset_on_two(self):
        c = union_condition_automaton_02(2)
        ((dst, rank),) = c.successors(0, "2,1")
        assert (dst, rank) == (0, 2)

    def test_nothing_seen(self):
        c = union_condition_automaton_02(2)
        ((dst, rank),) = c.successors(0, "0,0")
        assert (dst, rank) == (0, 0)

    def test_accumulate_then_reset_on_full_ones(self):
        c = union_condition_automaton_02(2)
        ((q1, r1),) = c.successors(0, "1,0")
        assert r1 == 0 and q1 != 0
        ((q2, r2),) = c.successors(q1, "0,1")
        assert (q2, r2) == (0, 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_structure(self, k):
        c = union_condition_automaton_02(k)
        assert c.num_states == 2 ** k
        assert is_deterministic(c)
        assert len(c.alphabet) == 3 ** k

    @pytest.mark.parametrize("k", [1, 2])
    def test_exhaustive_some_channel_oracle(self, k):
        c = union_condition_automaton_02(k)
        tuples = list(product((0, 1, 2), repeat=k))
        delta = {key: succ[0] for key, succ in c.delta.items()}
        for plen in range(1, 5):
            for period in product(tuples, repeat=plen):
                assert _accepts_periodic(c, delta, period) == \
                    any(max(b[i] for b in period) % 2 == 0 for i in range(k))

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            union_condition_automaton_02(4)


def _accepts_periodic(c, delta, period):
    letters = [rank_tuple_letter(b) for b in period]
    seen = {}
    q = c.initial
    order = []
    while q not in seen:
        seen[q] = len(order)
        order.append(q)
        for letter in letters:
            q, _ = delta[(q, letter)]
    q = order[seen[q]]
    best = -1
    for _ in range(len(order) - seen[q]):
        for letter in letters:
            q, r = delta[(q, letter)]
            best = max(best, r)
    return best % 2 == 0


class TestComposeMonitor:
    def test_passthrough(self):
        a = automaton_corpus(100, 1, 3, ["a", "b"], "parity", parity=(0, 2),
                             max_branch=1)[0]
        u = union_power(a, 1)
        passthrough = Automaton.build(
            "pass", [str(r) for r in (0, 1, 2)], 1, 0, "parity",
            [(0, str(r), 0, r) for r in (0, 1, 2)], parity=(0, 2))
        composed = compose_monitor(u, passthrough)
        assert composed.num_states == u.num_states
        assert equivalent_on_lassos(a, composed, 6).equivalent

    def test_union_of_two_deterministic_02(self):
        rng = Random(102)
        d1 = complete(random_automaton(rng, 2, ["a", "b"], "parity",
                                       parity=(0, 2), max_branch=1))
        d2 = complete(random_automaton(rng, 2, ["a", "b"], "parity",
                                       parity=(0, 2), max_branch=1))
        u = union_product([d1, d2])
        assert is_deterministic(u)
        composed = compose_monitor(u, union_condition_automaton_02(2))
        assert is_deterministic(composed)
        for w in iter_lassos(["a", "b"], 6):
            want = member_lasso(d1, w) or member_lasso(d2, w)
            assert member_lasso(composed, w) == want

    def test_mismatched_width_rejected(self):
        rng = Random(103)
        d1 = complete(random_automaton(rng, 2, ["a"], "parity",
                                       parity=(0, 2), max_branch=1))
        u = union_product([d1, d1, d1])
        with pytest.raises(ValueError):
            compose_monitor(u, union_condition_automaton_02(2))

    def test_nondeterministic_rejected(self):
        a = Automaton.build("nd", ["a"], 2, 0, "parity",
                            [(0, "a", 0, 0), (0, "a", 1, 2), (1, "a", 1, 0)],
                            parity=(0, 2))
        u = union_power(a, 2)
        assert not is_deterministic(u)
        with pytest.raises(ValueError):
            compose_monitor(u, union_condition_automaton_02(2))


def test_union_product_alphabet_mismatch():
    a = automaton_corpus(105, 1, 2, ["a"], "buchi")[0]
    b = automaton_corpus(106, 1, 2, ["a", "b"], "buchi")[0]
    with pytest.raises(ValueError):
        union_product([a, b])
