import os
import subprocess
import sys
from pathlib import Path

import pytest

import explora
from explora.automata import (Automaton, EquivalenceVerdict, LassoWord,
                              canonical_parity, equivalent_on_lassos,
                              equivalent_on_words, is_complete,
                              is_deterministic, iter_words, member_finite)
from explora.determinize import (breakpoint_construction,
                                 resolve_monitor, subset_construction)
from explora.errors import MissingMonitor, MonitorMismatch
from explora.generators import gen_ak, gen_c, gen_fig4
from explora.textio import format_automaton, parse_automaton, parse_provenance

from conftest import automaton_corpus


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

    def test_oracle_disagreement_raises(self, monkeypatch):
        w = LassoWord.of("", "a")
        monkeypatch.setattr("explora.determinize.equivalent_on_lassos",
                            lambda a, b, bound: EquivalenceVerdict(False, w))
        with pytest.raises(MonitorMismatch) as e:
            breakpoint_construction(canonical_parity(gen_fig4("left")))
        assert e.value.counterexample == w

    def test_oracle_disagreement_raises_under_optimize(self):
        # the self-check must not be an assert, which `python -O` strips
        script = """
import sys
import explora.determinize as det
from explora.automata import EquivalenceVerdict, LassoWord, canonical_parity
from explora.errors import MonitorMismatch
from explora.generators import gen_fig4
det.equivalent_on_lassos = lambda a, b, bound: EquivalenceVerdict(
    False, LassoWord.of("", "a"))
try:
    det.breakpoint_construction(canonical_parity(gen_fig4("left")))
except MonitorMismatch:
    sys.exit(0 if not __debug__ else 4)
sys.exit(5)
"""
        src = str(Path(explora.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestMonitorSelfCheck:
    @pytest.mark.parametrize("build, source", [
        ("subset_construction", "gen_ak(2)"),
        ("breakpoint_construction", "canonical_parity(gen_fig4('left'))"),
        ("_reachability_monitor", "automaton_corpus(3, 1, 3, ['a', 'b'], 'reachability')[0]"),
    ], ids=["subset", "breakpoint", "reachability"])
    def test_failed_check_raises_under_optimize(self, build, source):
        # the check must not be an assert, which `python -O` strips
        script = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
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
"""
        src = str(Path(explora.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


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
        if equivalent_on_lassos(a, wrong, 6).equivalent:
            pytest.skip("random automaton happens to be universal")
        with pytest.raises(MonitorMismatch) as e:
            resolve_monitor(a, wrong)
        assert e.value.counterexample is not None

    def test_reachability_monitor(self):
        a = Automaton.build(
            "reach", ["a", "b"], 2, 0, "reachability",
            [(0, "a", 1, 0), (0, "a", 0, 0), (0, "b", 0, 0),
             (1, "a", 0, 1), (1, "b", 1, 0)])
        mon = resolve_monitor(a)
        d = mon.automaton
        assert is_deterministic(d) and d.condition == "parity"
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


def test_monitor_serialization_preserves_provenance():
    from explora.determinize import monitor_from_text, monitor_to_text
    mon = subset_construction(gen_ak(2))
    text = monitor_to_text(mon)
    assert parse_provenance(text) == "subset"
    assert parse_automaton(text) == mon.automaton
    assert monitor_from_text(text) == mon
