from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import explora.determinize as det
from explora import config
from explora.automata import (Automaton, LassoWord, canonical_parity,
                              equivalent_on_lassos, is_complete, is_deterministic,
                              member_finite, member_lasso)
from explora.determinize import (breakpoint_construction,
                                 resolve_monitor, subset_construction)
from explora.errors import MissingMonitor, MonitorCheckFailed, MonitorMismatch
from explora.generators import gen_ak, gen_c, gen_fig4, random_automaton

from conftest import automaton_corpus, run_optimized
from reference import equivalent_on_all_lassos, equivalent_on_words, iter_words


class TestSubsetConstruction:
    def test_deterministic_input_keeps_shape(self):
        a = Automaton.build("d", ["a", "b"], 2, 0, "finite",
                            [(0, "a", 1, 0), (0, "b", 0, 0),
                             (1, "a", 0, 0), (1, "b", 1, 0)], accepting={1})
        mon = subset_construction(a)
        assert mon.provenance == "subset"
        assert mon.automaton.num_states == a.num_states
        assert equivalent_on_words(a, mon.automaton, 6).equivalent

    def test_branching_family(self):
        a2 = gen_ak(2)
        mon = subset_construction(a2)
        d = mon.automaton
        assert is_deterministic(d) and is_complete(d)
        # reachable subsets: {p0}, {p1,p2}, {pf,sink}, {sink}
        assert d.num_states == 4
        assert equivalent_on_words(a2, d, 5).equivalent
        accepted = [w for w in iter_words(a2.alphabet, 2) if member_finite(d, w)]
        assert accepted == [("a", "a1"), ("a", "a2")]

    def test_c_monitor_accepts_everything(self):
        mon = subset_construction(gen_c())
        for w in iter_words(["a", "b"], 6):
            assert member_finite(mon.automaton, w)

    def test_subset_count_bound(self):
        for a in automaton_corpus(31, 6, 4, ["a", "b"], "finite"):
            mon = subset_construction(a)
            assert mon.automaton.num_states <= 2 ** a.num_states
            assert equivalent_on_words(a, mon.automaton, 6).equivalent


class TestBreakpointConstruction:
    def test_deterministic_cobuchi_input(self):
        a = Automaton.build("dc", ["a", "b"], 2, 0, "cobuchi",
                            [(0, "a", 1, 0), (0, "b", 0, 1),
                             (1, "a", 0, 1), (1, "b", 1, 0)])
        mon = breakpoint_construction(canonical_parity(a))
        assert mon.provenance == "breakpoint"
        assert equivalent_on_lassos(a, mon.automaton, 6).equivalent

    def test_fig4_left(self):
        a = canonical_parity(gen_fig4("left"))
        mon = breakpoint_construction(a)
        d = mon.automaton
        assert is_deterministic(d) and is_complete(d)
        assert d.num_states <= 3 ** a.num_states
        assert equivalent_on_lassos(a, d, 6).equivalent

    def test_random_cobuchi_corpus(self):
        # the build itself re-checks lasso equivalence at bound 6
        for a in automaton_corpus(41, 12, 4, ["a", "b"], "cobuchi"):
            mon = breakpoint_construction(canonical_parity(a))
            assert mon.automaton.num_states <= 3 ** (a.num_states + 1)

    def test_rejects_wrong_condition(self):
        with pytest.raises(ValueError):
            breakpoint_construction(automaton_corpus(1, 1, 2, ["a"], "buchi")[0])
        with pytest.raises(ValueError):
            breakpoint_construction(
                automaton_corpus(1, 1, 2, ["a"], "parity", parity=(1, 2))[0])

    @pytest.mark.parametrize("condition, parity", [
        ("safety", None), ("reachability", None), ("cobuchi", None),
        ("parity", (0, 0)), ("parity", (1, 1)), ("parity", (0, 1))],
        ids=["safety", "reachability", "cobuchi", "parity00", "parity11", "parity01"])
    def test_accepts_every_input_ranked_in_01(self, condition, parity):
        # the construction normalizes its input itself
        for a in automaton_corpus(42, 3, 3, ["a", "b"], condition, parity=parity):
            mon = breakpoint_construction(a)
            assert mon.automaton == breakpoint_construction(canonical_parity(a)).automaton
            assert mon.automaton.rank_range == (0, 1)
            assert equivalent_on_lassos(a, mon.automaton, 5).equivalent

    def test_oracle_disagreement_raises(self, monkeypatch):
        # a fault in the product check: it reports the first product edge
        # as a cycle that A accepts and M rejects
        monkeypatch.setattr("explora.determinize.parity_cycle",
                            lambda edges, demands: [(0, 0)])
        a = canonical_parity(gen_fig4("left"))
        with pytest.raises(MonitorMismatch) as e:
            breakpoint_construction(a)
        assert e.value.counterexample == LassoWord.of("", a.alphabet[:1])

    def test_oracle_disagreement_raises_under_optimize(self):
        # the self-check must not be an assert, which `python -O` strips
        done = run_optimized("""
import sys
import explora.determinize as det
from explora.automata import canonical_parity
from explora.errors import MonitorMismatch
from explora.generators import gen_fig4
det.parity_cycle = lambda edges, demands: [(0, 0)]
try:
    det.breakpoint_construction(canonical_parity(gen_fig4("left")))
except MonitorMismatch:
    sys.exit(0 if not __debug__ else 4)
sys.exit(5)
""")
        assert done.returncode == 0, done.stderr


class TestMonitorSelfCheck:
    @pytest.mark.parametrize("build, source", [
        ("subset_construction", "gen_ak(2)"),
        ("breakpoint_construction", "canonical_parity(gen_fig4('left'))"),
        ("breakpoint_construction",
         "canonical_parity(automaton_corpus(3, 1, 3, ['a', 'b'], 'reachability')[0])"),
    ], ids=["subset", "breakpoint", "reachability"])
    def test_failed_check_raises_under_optimize(self, build, source):
        # the check must not be an assert, which `python -O` strips
        done = run_optimized(f"""
import sys
import explora.determinize as det
from explora.automata import canonical_parity
from explora.errors import MonitorCheckFailed
from explora.generators import gen_ak, gen_fig4
from conftest import automaton_corpus
det.is_deterministic = lambda a: False
try:
    det.{build}({source})
except MonitorCheckFailed:
    sys.exit(0 if not __debug__ else 4)
sys.exit(5)
""")
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("build, check, source", [
        ("_subset", "_check_subset", "gen_ak(2)"),
        ("_breakpoint", "_check_breakpoint", "canonical_parity(gen_fig4('left'))"),
        ("_breakpoint", "_check_breakpoint",
         "canonical_parity(automaton_corpus(3, 1, 3, ['a', 'b'], 'reachability')[0])"),
    ], ids=["subset", "breakpoint", "reachability"])
    def test_label_mismatch_raises_under_optimize(self, build, check, source):
        done = run_optimized(f"""
import sys
import explora.determinize as det
from explora.automata import canonical_parity
from explora.errors import MonitorCheckFailed
from explora.generators import gen_ak, gen_fig4
from conftest import automaton_corpus
a = {source}
monitor, labels = det.{build}(a)
det.{check}(a, monitor, labels)
labels[-1] = labels[0]  # interned labels are distinct
try:
    det.{check}(a, monitor, labels)
except MonitorCheckFailed:
    sys.exit(0 if not __debug__ else 4)
sys.exit(5)
""")
        assert done.returncode == 0, done.stderr


# -- mutants of built monitors -------------------------------------------------

# per source condition: the function making (monitor, labels), and the
# checks a built monitor of that kind passes
BUILT = {
    "finite": (det._subset, [det._check_subset]),
    "cobuchi": (det._breakpoint, [det._check_breakpoint,
                                  lambda a, m, labels: det._check_included(a, m)]),
}


def passes_checks(condition, a, monitor, labels) -> bool:
    try:
        for check in BUILT[condition][1]:
            check(a, monitor, labels)
    except (MonitorCheckFailed, MonitorMismatch):
        return False
    return True


def mutate(rng, a, monitor, labels, kind):
    """One edge (redirected), rank (flipped, or acceptance for finite words)
    or label mutant of a monitor and its labels."""
    transitions = sorted(monitor.transitions)
    accepting = monitor.accepting
    labels = list(labels)
    if kind == "edge":
        i = rng.randrange(len(transitions))
        transitions[i] = transitions[i]._replace(dst=rng.randrange(monitor.num_states))
    elif kind == "rank" and monitor.condition == "finite":
        accepting = accepting ^ {rng.randrange(monitor.num_states)}
    elif kind == "rank":
        i = rng.randrange(len(transitions))
        lo, hi = monitor.rank_range
        transitions[i] = transitions[i]._replace(rank=lo + hi - transitions[i].rank)
    else:
        i, q = rng.randrange(len(labels)), frozenset({rng.randrange(a.num_states)})
        if isinstance(labels[i], tuple):  # a breakpoint (S, B) pair
            s, b = labels[i]
            labels[i] = (s ^ q, b) if rng.random() < 0.5 else (s, b ^ q)
        else:
            labels[i] = labels[i] ^ q
    mutant = Automaton(monitor.name, monitor.alphabet, monitor.num_states,
                       monitor.initial, monitor.condition, frozenset(transitions),
                       accepting, monitor.lo, monitor.hi)
    return mutant, labels


def random_source(rng, condition, partial, sparse):
    """A random source automaton; `partial` drops transitions, so runs may
    die, and `sparse` clears most rank-1 marks, so that fewer words are
    accepted (reachability) or rejected (coBuchi)."""
    a = random_automaton(rng, rng.randint(2, 4), "ab", condition)
    kept = [t for t in sorted(a.transitions) if not partial or rng.random() < 0.7]
    if sparse:
        kept = [t._replace(rank=0) if t.rank == 1 and rng.random() < 0.7 else t
                for t in kept]
    return Automaton(a.name, a.alphabet, a.num_states, a.initial, a.condition,
                     frozenset(kept), a.accepting, a.lo, a.hi)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**30),
       condition=st.sampled_from(["finite", "safety", "cobuchi", "reachability"]),
       partial=st.booleans(), sparse=st.booleans(),
       kinds=st.lists(st.sampled_from(["edge", "rank", "label"]), min_size=1, max_size=2))
def test_checks_reject_every_mutant_the_oracle_refutes(seed, condition, partial, sparse,
                                                       kinds):
    rng = Random(seed)
    a = random_source(rng, condition, partial, sparse)
    if condition in ("safety", "reachability"):
        a, condition = canonical_parity(a), "cobuchi"
    monitor, labels = BUILT[condition][0](a)
    assert passes_checks(condition, a, monitor, labels)
    mutant, mutant_labels = monitor, labels
    for kind in kinds:
        mutant, mutant_labels = mutate(rng, a, mutant, mutant_labels, kind)
    if condition == "finite":
        refuted = not equivalent_on_words(a, mutant, 6).equivalent
    else:
        refuted = not equivalent_on_all_lassos(a, mutant, 5).equivalent
    if refuted:
        assert not passes_checks(condition, a, mutant, mutant_labels)
    if kinds == ["label"]:  # every state's label is forced by a path to it
        assert not passes_checks(condition, a, mutant, mutant_labels)


class TestResolveMonitor:
    def test_nfa_gets_subset(self):
        assert resolve_monitor(gen_ak(2)).provenance == "subset"

    def test_safety_gets_breakpoint(self):
        assert resolve_monitor(gen_fig4("left")).provenance == "breakpoint"

    def test_buchi_without_monitor_raises(self):
        a = automaton_corpus(2, 1, 3, ["a", "b"], "buchi")[0]
        if is_deterministic(a):  # corpus automata may be deterministic
            a = Automaton.build(a.name, a.alphabet, a.num_states, a.initial,
                                "buchi", list(a.transitions) +
                                [(0, "a", a.num_states - 1, 1)])
        with pytest.raises(MissingMonitor):
            resolve_monitor(a)

    def test_wrong_user_monitor_carries_counterexample(self):
        a = automaton_corpus(3, 1, 3, ["a", "b"], "buchi")[0]
        # a monitor that accepts everything is (generically) wrong
        wrong = Automaton.build("w", ["a", "b"], 1, 0, "buchi",
                                [(0, "a", 0, 2), (0, "b", 0, 2)])
        bound = config.capped_lasso_bound(len(a.alphabet))
        first = equivalent_on_lassos(a, canonical_parity(wrong), bound)
        if first.equivalent:
            pytest.skip("random automaton happens to be universal")
        with pytest.raises(MonitorMismatch) as e:
            resolve_monitor(a, wrong)
        # the bounded oracle's first counterexample comes before the product's
        assert e.value.counterexample == first.counterexample

    def test_wrong_user_monitor_beyond_the_bound(self, monkeypatch):
        # M accepts iff the 3-letter windows break the cycle aab, aba, baa
        # infinitely often; it agrees with the universal A on every lasso of
        # length <= 2, but rejects (aab)^omega
        monkeypatch.setenv("EXPLORE_LASSO_BOUND", "2")
        universal = Automaton.build("all", ["a", "b"], 1, 0, "buchi",
                                    [(0, "a", 0, 2), (0, "b", 0, 2)])
        pairs = ["", "a", "b", "aa", "ab", "ba", "bb"]
        transitions = []
        for i, last in enumerate(pairs):
            for x in "ab":
                window = last + x
                keep = len(window) < 3 or window in ("aab", "aba", "baa")
                transitions.append((i, x, pairs.index(window[-2:]), 1 if keep else 2))
        windows = Automaton.build("windows", ["a", "b"], len(pairs), 0, "buchi",
                                  transitions)
        assert equivalent_on_lassos(universal, windows, 2).equivalent
        with pytest.raises(MonitorMismatch) as e:
            resolve_monitor(universal, windows)
        w = e.value.counterexample
        assert len(w.prefix) + len(w.period) > 2
        assert member_lasso(universal, w) and not member_lasso(windows, w)

    def test_reachability_monitor(self):
        a = Automaton.build(
            "reach", ["a", "b"], 2, 0, "reachability",
            [(0, "a", 1, 0), (0, "a", 0, 0), (0, "b", 0, 0),
             (1, "a", 0, 1), (1, "b", 1, 0)])
        mon = resolve_monitor(a)
        d = mon.automaton
        assert mon.provenance == "breakpoint"
        assert is_deterministic(d) and (d.condition, d.rank_range) == ("parity", (0, 1))
        assert equivalent_on_lassos(a, d, 6).equivalent

    def test_deterministic_buchi_monitors_itself(self):
        a = Automaton.build("db", ["a", "b"], 2, 0, "buchi",
                            [(0, "a", 1, 2), (0, "b", 0, 1),
                             (1, "a", 0, 1), (1, "b", 1, 2)])
        mon = resolve_monitor(a)
        assert mon.provenance == "user"
        assert equivalent_on_lassos(a, mon.automaton, 6).equivalent

    def test_nondeterministic_user_monitor_rejected(self):
        a = automaton_corpus(4, 1, 3, ["a", "b"], "buchi")[0]
        nondet = Automaton.build("n", ["a", "b"], 2, 0, "buchi",
                                 [(0, "a", 0, 2), (0, "a", 1, 1),
                                  (0, "b", 0, 2), (1, "a", 1, 1), (1, "b", 1, 1)])
        with pytest.raises(ValueError):
            resolve_monitor(a, nondet)

