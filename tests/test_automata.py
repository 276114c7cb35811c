from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from explora.automata import (Automaton, LassoWord, MultiAutomaton,
                              MultiTransition, _is_canonical,
                              _member_product, _member_run,
                              canonical_parity, complete, equivalent_on_lassos,
                              parity_cycle, is_complete, is_deterministic,
                              iter_lassos, member_finite, member_lasso)
from explora.determinize import breakpoint_construction
from explora.generators import gen_ak, gen_bk, gen_c, gen_fig4, random_automaton

from conftest import automaton_corpus
from reference import (equivalent_on_all_lassos, equivalent_on_words,
                       iter_words, validate)


def brute_force_accepts_finite(a, word):
    """Independent oracle: explicit run enumeration."""
    runs = [[a.initial]]
    for letter in word:
        runs = [r + [d] for r in runs for d, _ in a.delta.get((r[-1], letter), ())]
    return any(r[-1] in a.accepting for r in runs)


def safety_accepts_lasso(a, w):
    """Independent oracle for safety automata: the accepting-transition
    subgraph has an infinite path iff the reachable set never empties over
    one full period cycle (Koenig)."""
    assert a.condition == "safety"
    unroll = w.prefix + w.period
    wrap = len(w.prefix)
    seen = set()
    current, i = frozenset({a.initial}), 0
    while True:
        if not current:
            return False
        if i >= wrap and (current, i) in seen:
            return True
        seen.add((current, i))
        nxt = {d for q in current for d, rank in a.delta.get((q, unroll[i]), ())
               if rank == 1}
        current, i = frozenset(nxt), (i + 1 if i + 1 < len(unroll) else wrap)


class TestValidate:
    def test_generator_output_is_valid(self):
        for a in [gen_ak(2), gen_c(), gen_bk(2), gen_fig4("left"), gen_fig4("right")]:
            assert validate(a) == []

    def test_removing_the_sink_breaks_completeness(self):
        a = gen_ak(2)
        sink = a.num_states - 1
        broken = Automaton.build(
            a.name, a.alphabet, a.num_states - 1, a.initial, "finite",
            [t for t in a.transitions if sink not in (t.src, t.dst)],
            a.accepting)
        problems = validate(broken)
        assert any("incomplete at" in p for p in problems)

    def test_buchi_rank_out_of_range(self):
        a = Automaton.build("bad", ["a"], 1, 0, "buchi", [(0, "a", 0, 3)])
        assert any("rank 3" in p for p in validate(a))

    def test_initial_out_of_range(self):
        a = Automaton.build("bad", ["a"], 1, 5, "finite", [(0, "a", 0, 0)])
        assert any("initial" in p for p in validate(a))


class TestComplete:
    def test_idempotent_on_complete_input(self):
        a = gen_c()
        assert complete(a) is a

    def test_ak_without_sink_gets_one_sink(self):
        # the branching family minus its sink: every missing pair routes there
        k = 2
        alphabet = ["a", "a1", "a2"]
        transitions = [(0, "a", 1, 0), (0, "a", 2, 0),
                       (1, "a1", 3, 0), (2, "a2", 3, 0)]
        a = Automaton.build("ak_nosink", alphabet, 4, 0, "finite",
                            transitions, accepting={3})
        done = complete(a)
        assert done.num_states == 5
        assert is_complete(done)
        assert equivalent_on_words(done, gen_ak(k), 4).equivalent

    def test_single_state_no_transitions(self):
        a = Automaton.build("empty", ["a"], 1, 0, "finite", [])
        done = complete(a)
        assert done.num_states == 2
        # empty language preserved, checked exhaustively up to length 4
        for word in iter_words(["a"], 4):
            assert not member_finite(done, word)

    def test_language_preserved_on_random_nfas(self):
        for a in automaton_corpus(101, 10, 3, ["a", "b"], "finite"):
            sliced = Automaton.build(
                a.name, a.alphabet, a.num_states, a.initial, "finite",
                list(sorted(a.transitions))[:-2], a.accepting)
            done = complete(sliced)
            assert is_complete(done)
            assert equivalent_on_words(sliced, done, 5).equivalent

    def test_idempotent_and_lasso_preserving_on_infinite_words(self):
        for a in automaton_corpus(103, 6, 3, ["a", "b"], "buchi"):
            sliced = Automaton.build(
                a.name, a.alphabet, a.num_states, a.initial, "buchi",
                list(sorted(a.transitions))[:-2])
            done = complete(sliced)
            assert complete(done) is done
            assert equivalent_on_lassos(sliced, done, 5).equivalent

    def test_unreachable_states_stay_as_they_are(self, tmp_path, capsys):
        # 100,000 declared states, one reachable: completing them all took
        # seconds and over 100 MB
        from explora.cli import main
        from explora.textio import parse_automaton
        text = ("# one reachable state among 100000 declared ones\n"
                "automaton big\nalphabet: a b\nstates: 100000\ninitial: 0\n"
                "condition: finite\naccepting: 0\nt 0 a 0\n")
        a = parse_automaton(text)
        assert not is_complete(a)
        done = complete(a)
        # (0, b) goes to the sink, and the sink loops on a and b
        assert done.transitions - a.transitions == {(0, "b", 100000, 0), (100000, "a", 100000, 0),
                                                    (100000, "b", 100000, 0)}
        assert is_complete(done) and complete(done) is done
        path = tmp_path / "big.aut"
        path.write_text(text)
        assert main(["k-explorable", "-k", "1", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "1-explorable: True"

    def test_all_even_parity_range_widens(self):
        sliced = Automaton.build("ev", ["a", "b"], 1, 0, "parity",
                                 [(0, "a", 0, 0)], parity=(0, 0))
        done = complete(sliced)
        assert is_complete(done) and validate(done) == []
        assert member_lasso(done, LassoWord.of("", "a"))
        assert not member_lasso(done, LassoWord.of("", "b"))


class TestMemberFinite:
    def test_ak_accepts_branch_words(self):
        a2 = gen_ak(2)
        assert member_finite(a2, ["a", "a1"])
        assert member_finite(a2, ["a", "a2"])
        assert not member_finite(a2, [])
        assert not member_finite(a2, ["a"])

    def test_bk_accepts_exactly_length_four(self):
        b2 = gen_bk(2)
        for length in range(5):
            for word in __import__("itertools").product("ab", repeat=length):
                expected = brute_force_accepts_finite(b2, word)
                assert member_finite(b2, word) == expected
                assert expected == (length == 4)

    def test_unknown_letter_raises(self):
        with pytest.raises(ValueError):
            member_finite(gen_c(), ["z"])


class TestMemberLasso:
    def test_fig4_left_stays_home(self):
        assert member_lasso(gen_fig4("left"), LassoWord.of("a", "a"))

    def test_unknown_letter_raises(self):
        with pytest.raises(ValueError):
            member_lasso(gen_fig4("left"), LassoWord.of("", "z"))

    def test_finite_acceptance_rejected(self):
        with pytest.raises(ValueError):
            member_lasso(gen_c(), LassoWord.of("", "a"))

    def test_fig4_right_matches_pattern(self):
        # the language: every even position (0-based) carries 'a'; the letter
        # pattern repeats with period lcm(2, |period|) after the prefix, so
        # checking one doubled period window after the prefix is exact
        right = gen_fig4("right")
        for w in iter_lassos(["a", "b"], 6):
            if len(w.prefix) > 2 or len(w.period) > 4:
                continue
            length = len(w.prefix) + 2 * 2 * len(w.period)
            stream = list(w.prefix) + list(w.period) * (
                (length - len(w.prefix)) // len(w.period) + 2)
            expected = all(stream[i] == "a" for i in range(0, length, 2))
            assert member_lasso(right, w) == expected
            assert member_lasso(right, w) == safety_accepts_lasso(right, w)

    def test_fig4_both_against_independent_safety_oracle(self):
        for side in ("left", "right"):
            a = gen_fig4(side)
            for w in iter_lassos(["a", "b"], 5):
                assert member_lasso(a, w) == safety_accepts_lasso(a, w)

    def test_rotation_and_unrolling_invariance(self):
        for a in automaton_corpus(7, 6, 3, ["a", "b"], "parity", parity=(0, 2)):
            for w in iter_lassos(["a", "b"], 4):
                value = member_lasso(a, w)
                assert member_lasso(a, w.rotate(1)) == value
                assert member_lasso(a, w.unrolled()) == value

    def test_deterministic_agreement_with_direct_simulation(self):
        for a in automaton_corpus(13, 8, 3, ["a", "b"], "parity",
                                  parity=(1, 4), max_branch=1):
            assert is_deterministic(a)
            for w in iter_lassos(["a", "b"], 5):
                assert member_lasso(a, w) == simulate_deterministic(a, w)


@st.composite
def deterministic_automata(draw):
    """Random automata with at most one successor per (state, letter):
    single-channel safety, reachability, coBuchi or parity, or two-channel
    multi-automata; about one in six (state, letter) pairs has no successor."""
    kind = draw(st.sampled_from(
        ["safety", "reachability", "cobuchi", "parity", "multi"]))
    n = draw(st.integers(1, 4))

    def parity_range():
        lo = draw(st.integers(0, 2))
        return lo, draw(st.integers(lo, lo + 3))

    if kind == "multi":
        ranges = (parity_range(), parity_range())
    elif kind == "parity":
        ranges = (parity_range(),)
    else:
        ranges = ((0, 1),)
    table = []
    for q in range(n):
        for letter in ("a", "b"):
            if draw(st.integers(0, 5)) == 0:
                continue
            ranks = tuple(draw(st.integers(lo, hi)) for lo, hi in ranges)
            table.append((q, letter, draw(st.integers(0, n - 1)), ranks))
    if kind == "multi":
        return MultiAutomaton("dm", ("a", "b"), n, 0, ranges,
                              frozenset(MultiTransition(*t) for t in table))
    return Automaton.build("d", ["a", "b"], n, 0, kind,
                           [(q, l, d, r) for q, l, d, (r,) in table],
                           parity=ranges[0] if kind == "parity" else None)


@settings(max_examples=80, deadline=None)
@given(deterministic_automata())
def test_direct_run_agrees_with_product_path(a):
    view = a.lasso_view
    assert view.deterministic
    for w in iter_lassos(a.alphabet, 5):
        unroll, wrap = w.prefix + w.period, len(w.prefix)
        assert (_member_run(view, a.initial, unroll, wrap)
                == _member_product(view, a.initial, unroll, wrap)), w


def test_lasso_view_is_cached_and_leaves_equality_alone():
    a, b = gen_fig4("right"), gen_fig4("right")
    view = a.lasso_view
    assert a.lasso_view is view
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    m, m2 = (MultiAutomaton("m", ("a",), 1, 0, ((0, 1), (1, 2)),
                            frozenset({MultiTransition(0, "a", 0, (0, 1))}))
             for _ in range(2))
    assert m.lasso_view.deterministic
    assert m == m2 and hash(m) == hash(m2)


def simulate_deterministic(a, w):
    """Follow the unique run for |prefix| + n*|period| steps, then evaluate
    the detected cycle's maximal rank parity."""
    q = a.initial
    for letter in w.prefix:
        ((q, _),) = a.successors(q, letter)
    seen = {}
    trail = []
    while (q,) not in seen:
        seen[(q,)] = len(trail)
        ranks = []
        for letter in w.period:
            ((q, r),) = a.successors(q, letter)
            ranks.append(r)
        trail.append(ranks)
    start = seen[(q,)]
    cycle = [r for ranks in trail[start:] for r in ranks]
    return max(cycle) % 2 == 0


class TestCanonicalParity:
    def test_buchi_is_rank_reinterpretation(self):
        a = automaton_corpus(3, 1, 3, ["a", "b"], "buchi")[0]
        c = canonical_parity(a)
        assert c.condition == "parity" and (c.lo, c.hi) == (1, 2)
        assert c.num_states == a.num_states
        assert c.transitions == a.transitions

    def test_safety_agrees_on_lassos(self):
        a = gen_fig4("left")
        c = canonical_parity(a)
        assert (c.lo, c.hi) == (0, 1)
        assert equivalent_on_lassos(a, c, 6).equivalent

    def test_reachability_full_language(self):
        a = Automaton.build("univ", ["a", "b"], 1, 0, "reachability",
                            [(0, "a", 0, 1), (0, "b", 0, 1)])
        c = canonical_parity(a)
        for w in iter_lassos(["a", "b"], 4):
            assert member_lasso(c, w)

    def test_reachability_mirrors_safety(self):
        for cond in ("safety", "reachability", "cobuchi"):
            c = canonical_parity(automaton_corpus(18, 1, 3, ["a", "b"], cond)[0])
            assert (c.condition, c.lo, c.hi) == ("parity", 0, 1)

    def test_reachability_takes_an_accepting_transition(self):
        # accepted iff some finite run on the word takes a rank-1 transition,
        # searched on the (state, lasso position) graph
        rng = Random(19)
        for _ in range(20):
            a = random_automaton(rng, 3, ["a", "b"], "reachability")
            a = replace(a, transitions=frozenset(
                t._replace(rank=0) if t.rank and rng.random() < 0.7 else t
                for t in sorted(a.transitions) if rng.random() < 0.8))
            c = canonical_parity(a)
            for w in iter_lassos(["a", "b"], 5):
                unroll, wrap = w.prefix + w.period, len(w.prefix)
                seen, queue, hit = {(a.initial, 0)}, [(a.initial, 0)], False
                for q, i in queue:
                    j = i + 1 if i + 1 < len(unroll) else wrap
                    for d, rank in a.successors(q, unroll[i]):
                        hit = hit or rank == 1
                        if (d, j) not in seen:
                            seen.add((d, j))
                            queue.append((d, j))
                assert member_lasso(c, w) == hit, w

    def test_corpus_preservation(self):
        for cond in ("safety", "reachability", "cobuchi"):
            for a in automaton_corpus(17, 4, 3, ["a", "b"], cond):
                assert equivalent_on_lassos(a, canonical_parity(a), 6).equivalent

    def test_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_parity(gen_c())


class TestEquivalenceOracles:
    def test_reflexive(self):
        a = gen_fig4("left")
        assert equivalent_on_lassos(a, a, 4).equivalent

    def test_fig4_left_right_differ_with_witness(self):
        verdict = equivalent_on_lassos(gen_fig4("left"), gen_fig4("right"), 4)
        assert not verdict.equivalent
        w = verdict.counterexample
        assert member_lasso(gen_fig4("left"), w) != member_lasso(gen_fig4("right"), w)

    def test_alphabet_mismatch(self):
        a = gen_fig4("left")
        b = Automaton.build("other", ["a", "c"], 1, 0, "safety",
                            [(0, "a", 0, 1), (0, "c", 0, 1)])
        with pytest.raises(ValueError):
            equivalent_on_lassos(a, b, 3)

    def test_counterexample_is_deterministic(self):
        v1 = equivalent_on_lassos(gen_fig4("left"), gen_fig4("right"), 4)
        v2 = equivalent_on_lassos(gen_fig4("left"), gen_fig4("right"), 4)
        assert v1.counterexample == v2.counterexample

    def test_canonical_lassos_are_first_of_each_word(self):
        # the oracle checks exactly one lasso per omega-word: the first one
        # of that word in enumeration order
        def word_key(w):  # long enough to tell lassos of length <= 6 apart
            out = list(w.prefix)
            while len(out) < 48:
                out += w.period
            return tuple(out[:48])

        for alphabet, bound, words in (("ab", 6, 306), ("abc", 4, 279), ("a", 5, 1)):
            first = {}
            for w in iter_lassos(alphabet, bound):
                first.setdefault(word_key(w), w)
            canonical = [w for w in iter_lassos(alphabet, bound) if _is_canonical(w)]
            assert canonical == list(first.values())
            assert len(canonical) == words

    def test_agrees_with_full_enumeration(self):
        # same verdict and same counterexample as checking every lasso, on
        # random pairs, source-vs-monitor pairs and monitors with one rank
        # flipped
        rng = Random(606)
        mismatches = 0
        for trial in range(24):
            alphabet = ["a", "b"] if trial % 3 else ["a", "b", "c"]
            bound = 6 if len(alphabet) == 2 else 4
            a = complete(random_automaton(rng, 3, alphabet, "cobuchi"))
            monitor = breakpoint_construction(canonical_parity(a)).automaton
            flip = rng.choice(sorted(monitor.transitions))
            flipped = replace(monitor, transitions=monitor.transitions - {flip} | {
                flip._replace(rank=1 - flip.rank)})
            other = complete(random_automaton(rng, 3, alphabet, "safety"))
            for b in (monitor, flipped, other):
                got = equivalent_on_lassos(a, b, bound)
                assert got == equivalent_on_all_lassos(a, b, bound)
                mismatches += not got.equivalent
        assert mismatches >= 24

    def test_word_oracle(self):
        a2, a3 = gen_ak(2), gen_ak(3)
        b = Automaton.build("a2b", a2.alphabet, a2.num_states, a2.initial,
                            "finite", a2.transitions, set())
        verdict = equivalent_on_words(a2, b, 3)
        assert not verdict.equivalent
        assert member_finite(a2, verdict.counterexample)


class TestDeterminism:
    def test_ak_is_not_deterministic(self):
        assert not is_deterministic(gen_ak(2))

    def test_c_is_not_deterministic(self):
        assert not is_deterministic(gen_c())

    def test_singleton_loop_is(self):
        a = Automaton.build("one", ["a"], 1, 0, "finite", [(0, "a", 0, 0)])
        assert is_deterministic(a)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30), st.integers(0, 10))
def test_lasso_rotation_never_changes_membership(seed, rot):
    from random import Random
    from explora.generators import random_automaton
    rng = Random(seed)
    a = complete(random_automaton(rng, 3, ["a", "b"], "cobuchi"))
    letters = [rng.choice("ab") for _ in range(rng.randint(1, 5))]
    w = LassoWord.of([rng.choice("ab") for _ in range(rng.randint(0, 3))], letters)
    assert member_lasso(a, w) == member_lasso(a, w.rotate(rot))


def test_lasso_period_must_be_nonempty():
    with pytest.raises(ValueError):
        LassoWord.of("ab", "")


def test_lasso_enumeration_order_is_fixed():
    first = list(iter_lassos(["b", "a"], 2))
    assert first[0] == LassoWord.of("", "a")
    assert first[1] == LassoWord.of("", "b")
    assert first[2] == LassoWord.of("", "aa")
    assert [str(w) for w in first[:8]] == [
        "(a)", "(b)", "(aa)", "(ab)", "(ba)", "(bb)", "a(a)", "a(b)"]


def simple_cycles(edges, width):
    """Independent oracle: every simple cycle as (node set, maximal rank per
    channel), by enumerating the edge paths from each cycle's least node."""
    cycles = set()

    def walk(start, node, seen, top):
        for v, vec in edges[node]:
            here = tuple(map(max, top, vec))
            if v == start:
                cycles.add((frozenset(seen), here))
            elif v > start and v not in seen:
                walk(start, v, seen | {v}, here)

    for start in range(len(edges)):
        walk(start, start, {start}, (-1,) * width)
    return cycles


def closed_walk_maxima(edges, width):
    """Maximal rank vectors of all closed walks.  A closed walk's edges form
    a union of simple cycles that is connected through shared nodes, and its
    maximal ranks are those of the union."""
    cycles = simple_cycles(edges, width)
    seen = set(cycles)
    todo = list(cycles)
    while todo:
        nodes, top = todo.pop()
        for other, other_top in cycles:
            if nodes & other:
                union = (nodes | other, tuple(map(max, top, other_top)))
                if union not in seen:
                    seen.add(union)
                    todo.append(union)
    return {top for _, top in seen}


def random_ranked_graph(rng, width):
    # self-loops, nodes no edge reaches, and ranks drawn from a sparse set
    n = rng.randint(1, 6)
    ranks = rng.sample(range(0, 9), rng.randint(1, 3))
    return [tuple((rng.randrange(n), tuple(rng.choice(ranks) for _ in range(width)))
                  for _ in range(rng.randint(0, 3)))
            for _ in range(n)]


def assert_walk_meets(edges, walk, demands):
    assert walk, "an empty walk"
    for (u, i), (u2, _) in zip(walk, walk[1:] + walk[:1]):
        assert edges[u][i][0] == u2, walk
    for c, parity in demands:
        assert max(edges[u][i][1][c] for u, i in walk) % 2 == parity, (walk, c)


def test_has_parity_cycle_matches_cycle_enumeration():
    rng = Random(17)
    for _ in range(400):
        width = rng.randint(1, 2)
        edges = random_ranked_graph(rng, width)
        maxima = {top for _, top in simple_cycles(edges, width)}
        for c in range(width):
            for parity in (0, 1):
                want = any(top[c] % 2 == parity for top in maxima)
                walk = parity_cycle(edges, [(c, parity)])
                assert (walk is not None) == want, (edges, c, parity)
                if walk is not None:
                    assert_walk_meets(edges, walk, [(c, parity)])


def test_parity_cycle_with_two_demands_matches_closed_walks():
    # two demands can be met by a walk through two simple cycles that meet
    # neither alone, so the oracle combines cycles sharing a node
    rng = Random(23)
    combined = 0
    for _ in range(600):
        edges = random_ranked_graph(rng, 2)
        maxima = closed_walk_maxima(edges, 2)
        single = {top for _, top in simple_cycles(edges, 2)}
        for p0 in (0, 1):
            for p1 in (0, 1):
                demands = [(0, p0), (1, p1)]
                want = any(t0 % 2 == p0 and t1 % 2 == p1 for t0, t1 in maxima)
                combined += want and not any(t0 % 2 == p0 and t1 % 2 == p1
                                             for t0, t1 in single)
                walk = parity_cycle(edges, demands)
                assert (walk is not None) == want, (edges, demands)
                if walk is not None:
                    assert_walk_meets(edges, walk, demands)
    assert combined > 0  # the corpus has walks no simple cycle matches
