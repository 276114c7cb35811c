from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import explora.determinize as det
from explora import config
from explora.automata import (Automaton, LassoWord, canonical_parity, complete,
                              equivalent_on_lassos, is_complete, is_deterministic,
                              member_finite, member_lasso)
from explora.determinize import (breakpoint_construction,
                                 resolve_monitor, subset_construction)
from explora.errors import MissingMonitor, MonitorCheckFailed, MonitorMismatch
from explora.generators import (atm_reduce, gen_ak, gen_bk, gen_c, gen_fig4,
                                random_automaton)

from conftest import ATM_CORPUS, automaton_corpus, run_optimized, shifted_cob3
from reference import (breakpoint_reference, equivalent_on_all_lassos,
                       equivalent_on_words, iter_words, subset_reference)
from test_explorability import (_breakpoint_game_corpus, _finite_game_corpus,
                                _ranked_01_corpus)

# a deterministic Buchi automaton, which monitors itself as a user monitor
DET_BUCHI = Automaton.build("db", ["a", "b"], 2, 0, "buchi",
                            [(0, "a", 1, 2), (0, "b", 0, 1),
                             (1, "a", 0, 1), (1, "b", 1, 2)])


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

    @pytest.mark.parametrize("build, check, source", [
        ("_subset", "_check_subset", "gen_ak(2)"),
        ("_breakpoint", "_check_breakpoint", "canonical_parity(gen_fig4('left'))"),
    ], ids=["subset", "breakpoint"])
    def test_redirected_edge_raises_under_optimize(self, build, check, source):
        # interned labels are distinct, so a transition redirected to any
        # other state enters a label that its source's label does not step to
        done = run_optimized(f"""
import sys
from dataclasses import replace
import explora.determinize as det
from explora.automata import canonical_parity
from explora.errors import MonitorCheckFailed
from explora.generators import gen_ak, gen_fig4
a = {source}
monitor, labels = det.{build}(a)
det.{check}(a, monitor, labels)
t = max(monitor.transitions)
mutant = replace(monitor, transitions=monitor.transitions - {{t}} | {{
    t._replace(dst=(t.dst + 1) % monitor.num_states)}})
try:
    det.{check}(a, mutant, labels)
except MonitorCheckFailed:
    sys.exit(0 if not __debug__ and monitor.num_states > 1 else 4)
sys.exit(5)
""")
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("build, check, source, labels", [
        (det._subset, det._check_subset, gen_ak(2), [{0}, {1, 2}, {-1}, {3}]),
        (det._subset, det._check_subset, gen_ak(2), [{0}, {1, 2}, None, {3}]),
        (det._breakpoint, det._check_breakpoint, canonical_parity(gen_fig4("left")),
         [({0}, {0})] * 5),
        (det._breakpoint, det._check_breakpoint, canonical_parity(gen_fig4("left")),
         [{0}] * 5),
    ], ids=["subset-foreign-state", "subset-not-a-set", "breakpoint-repeated",
            "breakpoint-not-a-pair"])
    def test_malformed_labels_refused(self, build, check, source, labels):
        monitor, _ = build(source)
        with pytest.raises(MonitorCheckFailed):
            check(source, monitor, labels)

    def test_monitor_over_another_alphabet_refused(self):
        # a monitor complete over a letter fewer never reads the words with
        # that letter, so it cannot have A's language
        a = gen_ak(2)
        monitor, labels = det._subset(a)
        dropped = a.alphabet[-1]
        fewer = Automaton.build(monitor.name, a.alphabet[:-1], monitor.num_states, 0,
                                "finite", [t for t in monitor.transitions
                                           if t.letter != dropped], monitor.accepting)
        with pytest.raises(MonitorCheckFailed, match="alphabet"):
            det._check_subset(a, fewer, labels)
        a = canonical_parity(gen_fig4("left"))
        monitor, labels = det._breakpoint(a)
        more = Automaton.build(monitor.name, a.alphabet + ("z",), monitor.num_states, 0,
                               "parity", list(monitor.transitions) + [
                                   (i, "z", i, 1) for i in range(monitor.num_states)],
                               parity=(0, 1))
        with pytest.raises(MonitorCheckFailed, match="alphabet"):
            det._check_breakpoint(a, more, labels)


def _random_sources(seed: int, count: int):
    """`count` seeded random automata of 1-10 states over 1-4 letters, with
    1-3 successors per state and letter: finite, safety, coBuchi,
    reachability and parity [0, 1] in turn, every other one partial."""
    rng, out = Random(seed), []
    for i in range(count):
        condition = ("finite", "safety", "cobuchi", "reachability", "parity")[i % 5]
        a = random_automaton(rng, rng.randint(1, 10), "abcd"[:rng.randint(1, 4)], condition,
                             max_branch=rng.randint(1, 3),
                             parity=(0, 1) if condition == "parity" else None)
        if i % 2:
            a = replace(a, transitions=frozenset(t for t in sorted(a.transitions)
                                                 if rng.random() < 0.7))
        out.append(a)
    return out


class TestMaskBuildersMatchReference:
    """The builders intern bitmasks; `reference.subset_reference` and
    `breakpoint_reference` intern the frozensets themselves.  The interned
    keys are equal exactly when the sets are, so the two number the monitor
    states alike: the same transitions, accepting states and labels, in the
    same order."""

    @staticmethod
    def sources():
        corpus = [gen_ak(n) for n in (2, 3, 4)] + [gen_bk(n) for n in (1, 2)] + \
            [gen_c(), gen_fig4("left"), gen_fig4("right")]
        corpus += [a for _, a, _ in _finite_game_corpus()[::3]]
        corpus += [a for _, a, _ in _breakpoint_game_corpus()[::3]]
        corpus += [a for _, a in _ranked_01_corpus()]
        corpus += [atm_reduce(machine, word) for _, machine, word, _ in ATM_CORPUS]
        for seed, count, n, condition in [
                (31, 6, 4, "finite"), (32, 4, 3, "finite"), (41, 12, 4, "cobuchi"),
                (33, 4, 3, "cobuchi"), (79, 20, 4, "safety"), (201, 5, 3, "reachability")]:
            corpus += automaton_corpus(seed, count, n, ["a", "b"], condition)
        return corpus + _random_sources(32, 320)

    def test_same_monitor_and_labels(self):
        built = {"finite": 0, "breakpoint": 0}
        for a in self.sources():
            for source in ([a, complete(a)] if a.condition == "finite"
                           else [canonical_parity(a), canonical_parity(complete(a))]):
                if source.condition == "finite":
                    assert det._subset(source) == subset_reference(source), source
                    built["finite"] += 1
                else:
                    assert det._breakpoint(source) == breakpoint_reference(source), source
                    built["breakpoint"] += 1
        assert built == {"finite": 198, "breakpoint": 1084}

    def test_sources_cover_large_monitors_and_every_kind(self):
        sources = _random_sources(32, 320)
        assert {(a.condition, a.num_states, len(a.alphabet)) for a in sources} >= {
            ("finite", 10, 4), ("parity", 1, 1)}
        assert max(det._subset(a)[0].num_states for a in sources
                   if a.condition == "finite") > 100


# -- mutants of built monitors -------------------------------------------------

# per source condition: the function making (monitor, labels), and the
# checks a built monitor of that kind passes
BUILT = {
    "finite": (det._subset, [det._check_subset]),
    "cobuchi": (det._breakpoint, [det._check_breakpoint]),
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


class TestSingleCertificate:
    """A built breakpoint monitor passes one check, `_check_breakpoint`,
    which proves L(A) <= L(M) as well as L(M) <= L(A); `_check_included`,
    the product check of L(A) <= L(M), runs on user monitors only and stays
    here as a cross-check."""

    @staticmethod
    def refused(check, *args) -> bool:
        try:
            check(*args)
        except (MonitorCheckFailed, MonitorMismatch):
            return True
        return False

    @staticmethod
    def single_transition_mutants(monitor):
        """Every monitor that flips one transition's rank or redirects it to
        another state."""
        transitions = sorted(monitor.transitions)
        for i, t in enumerate(transitions):
            for changed in [t._replace(rank=1 - t.rank)] + [
                    t._replace(dst=d) for d in range(monitor.num_states) if d != t.dst]:
                yield replace(monitor, transitions=frozenset(
                    transitions[:i] + [changed] + transitions[i + 1:]))

    def test_label_check_refuses_every_mutant_the_product_check_refutes(self):
        # 400 seeded safety, coBuchi and reachability sources; the product
        # check runs on every mutant the label check passes (there are none)
        # and, to show the sweep holds refutable mutants, on every mutant of
        # the first 20 sources
        rng, mutants, refuted = Random(30), 0, 0
        for i in range(400):
            condition = ("safety", "cobuchi", "reachability")[i % 3]
            a = canonical_parity(random_source(rng, condition, rng.random() < 0.5,
                                               rng.random() < 0.5))
            monitor, labels = det._breakpoint(a)
            det._check_breakpoint(a, monitor, labels)
            det._check_included(a, monitor)
            for mutant in self.single_transition_mutants(monitor):
                mutants += 1
                label = self.refused(det._check_breakpoint, a, mutant, labels)
                if not label or i < 20:
                    product = self.refused(det._check_included, a, mutant)
                    assert label or not product, (a, mutant)
                    refuted += product
        assert mutants > 30_000 and refuted > 1_000

    def test_product_check_accepts_every_built_breakpoint_monitor(self):
        corpus = [gen_fig4("left"), gen_fig4("right")]
        corpus += [atm_reduce(machine, word) for _, machine, word, _ in ATM_CORPUS]
        corpus += [random_automaton(Random(seed), 3, "ab", "cobuchi") for seed in range(50)]
        for seed, count, n, condition in [
                (41, 12, 4, "cobuchi"), (61, 10, 3, "cobuchi"), (62, 6, 2, "cobuchi"),
                (63, 8, 3, "cobuchi"), (79, 20, 4, "safety"), (201, 5, 3, "reachability"),
                (74, 5, 3, "reachability")]:
            corpus += automaton_corpus(seed, count, n, ["a", "b"], condition)
        for seed in (64, 71, 402):
            corpus += automaton_corpus(seed, 6, 3, ["a", "b"], "cobuchi", max_branch=1)
        for parity in [(0, 0), (1, 1), (0, 1)]:
            corpus += automaton_corpus(42, 3, 3, ["a", "b"], "parity", parity=parity)
        for a in corpus:
            det._check_included(canonical_parity(a), breakpoint_construction(a).automaton)

    def test_only_user_monitors_pass_the_product_check(self, monkeypatch):
        calls = []
        real = det._check_included
        monkeypatch.setattr(det, "_check_included",
                            lambda a, monitor: calls.append(monitor) or real(a, monitor))
        for a in [gen_fig4("left"), gen_ak(2)] + \
                automaton_corpus(43, 3, 3, ["a", "b"], "reachability") + \
                automaton_corpus(44, 3, 3, ["a", "b"], "cobuchi"):
            resolve_monitor(a)
        assert calls == []
        for a, user in [(DET_BUCHI, None), shifted_cob3(20), shifted_cob3(25)]:
            mon = resolve_monitor(a, user)
            assert calls == [mon.automaton]
            calls.clear()

    def test_altered_condition_or_initial_state_refused_under_optimize(self):
        # the label check reads M's acceptance and initial state off M itself
        done = run_optimized("""
import sys
from dataclasses import replace
import explora.determinize as det
from explora.automata import canonical_parity
from explora.errors import MonitorCheckFailed
from explora.generators import gen_ak, gen_fig4
cases = []
a = canonical_parity(gen_fig4("left"))
monitor, labels = det._breakpoint(a)
for change in [dict(condition="cobuchi"), dict(condition="buchi"), dict(hi=2),
               dict(lo=-1), dict(lo=1), dict(initial=1)]:
    cases.append((det._check_breakpoint, a, replace(monitor, **change), labels))
a = gen_ak(2)
monitor, labels = det._subset(a)
for change in [dict(condition="safety"), dict(initial=1)]:
    cases.append((det._check_subset, a, replace(monitor, **change), labels))
refused = 0
for check, a, mutant, labels in cases:
    try:
        check(a, mutant, labels)
    except MonitorCheckFailed:
        refused += 1
sys.exit(0 if refused == len(cases) == 8 and not __debug__ else 4)
""")
        assert done.returncode == 0, done.stderr


class TestMonitorLabels:
    def test_subset_monitor_carries_its_subsets(self):
        for a in [gen_ak(2), gen_c()] + automaton_corpus(32, 4, 3, ["a", "b"], "finite"):
            mon = subset_construction(a)
            assert len(mon.labels) == mon.automaton.num_states
            assert mon.labels[0] == {a.initial}
            # label i is the set of states A reaches on any word M reaches i on
            for t in mon.automaton.transitions:
                assert mon.labels[t.dst] == a.post(mon.labels[t.src], t.letter)

    def test_breakpoint_monitor_carries_its_pairs(self):
        for a in [gen_fig4("left"), gen_fig4("right")] + \
                automaton_corpus(33, 4, 3, ["a", "b"], "cobuchi"):
            mon = breakpoint_construction(a)
            a = canonical_parity(a)
            assert len(mon.labels) == mon.automaton.num_states
            assert mon.labels[0] == ({a.initial}, {a.initial})
            for t in mon.automaton.transitions:
                s, b = mon.labels[t.src]
                assert mon.labels[t.dst][0] == a.post(s, t.letter)
                assert mon.labels[t.dst][1] <= mon.labels[t.dst][0]

    def test_user_monitor_carries_none(self):
        a = Automaton.build("db", ["a", "b"], 2, 0, "buchi",
                            [(0, "a", 1, 2), (0, "b", 0, 1),
                             (1, "a", 0, 1), (1, "b", 1, 2)])
        mon = resolve_monitor(a)
        assert mon.provenance == "user" and mon.labels is None
        other = Automaton.build("other", ["a", "b"], 1, 0, "buchi",
                                [(0, "a", 0, 2), (0, "b", 0, 2)])
        universal = Automaton.build("all", ["a", "b"], 1, 0, "buchi",
                                    [(0, "a", 0, 2), (0, "b", 0, 2)])
        assert resolve_monitor(universal, other).labels is None


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

    def test_product_check_disagreement_raises(self, monkeypatch):
        # a fault in the product check: it reports the first product edge as
        # a cycle that A accepts and M rejects; a deterministic Buchi input
        # monitors itself, so its product check is the one that runs
        monkeypatch.setattr("explora.determinize.parity_cycle",
                            lambda edges, demands: [(0, 0)])
        with pytest.raises(MonitorMismatch) as e:
            resolve_monitor(DET_BUCHI)
        assert e.value.counterexample == LassoWord.of("", "a")

    def test_product_check_disagreement_raises_under_optimize(self):
        # the self-check must not be an assert, which `python -O` strips
        done = run_optimized("""
import sys
import explora.determinize as det
from explora.automata import Automaton
from explora.errors import MonitorMismatch
det.parity_cycle = lambda edges, demands: [(0, 0)]
a = Automaton.build("db", ["a", "b"], 2, 0, "buchi",
                    [(0, "a", 1, 2), (0, "b", 0, 1), (1, "a", 0, 1), (1, "b", 1, 2)])
try:
    det.resolve_monitor(a)
except MonitorMismatch:
    sys.exit(0 if not __debug__ else 4)
sys.exit(5)
""")
        assert done.returncode == 0, done.stderr

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
        # the product's lasso: a shortest path to the cycle, then the cycle
        assert str(w) == "aa(baa)"

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

