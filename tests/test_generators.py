from itertools import product
from random import Random

import pytest

from explora.automata import (complete, is_complete, is_deterministic,
                              member_finite)
from explora.errors import ConfigSpaceTooLarge
from explora.generators import (ATM, atm_accepts, atm_reduce, gen_ak, gen_bk,
                                gen_c, gen_fig4, random_automaton,
                                validate_atm)

from conftest import ATM_CORPUS
from reference import validate


class TestFixedFamilies:
    def test_ak_shape(self):
        a1 = gen_ak(1)
        assert a1.num_states == 4  # p0, p1, pf + sink
        assert validate(a1) == []
        for k in (2, 3):
            a = gen_ak(k)
            assert a.num_states == k + 3
            assert validate(a) == []
            assert member_finite(a, ["a", f"a{k}"])

    def test_c_shape(self):
        c = gen_c()
        assert c.num_states == 4
        assert c.accepting == frozenset({0, 1, 2})
        assert not is_deterministic(c)
        for length in range(5):
            for word in product("ab", repeat=length):
                assert member_finite(c, word)

    def test_bk_shape(self):
        for k in (1, 2, 3):
            b = gen_bk(k)
            assert b.num_states == 3 * k + 2  # 3k+1 plus completion sink
            assert validate(b) == []

    def test_fig4_shapes(self):
        left, right = gen_fig4("left"), gen_fig4("right")
        assert left.condition == right.condition == "safety"
        assert validate(left) == [] and validate(right) == []
        with pytest.raises(ValueError):
            gen_fig4("middle")

    def test_generators_complete_idempotent(self):
        for a in [gen_ak(2), gen_c(), gen_bk(2), gen_fig4("left"), gen_fig4("right")]:
            assert complete(a) is a


class TestAtmOracle:
    def test_immediate_accept(self):
        m = ATM(2, frozenset({0}), frozenset({(0, "0", 1, "1", "R")}), 0, 1, 2)
        assert atm_accepts(m, "0")

    def test_no_path_to_accepting(self):
        m = ATM(3, frozenset({0, 2}),
                frozenset({(0, "0", 1, "0", "R"), (1, "0", 0, "0", "L")}),
                0, 2, 2)
        assert not atm_accepts(m, "0")

    def test_corpus_expected_values(self):
        for name, machine, word, expected in ATM_CORPUS:
            assert validate_atm(machine) == []
            assert atm_accepts(machine, word) == expected, name

    def test_cross_check_with_play_tree_search(self):
        rng = Random(7)
        for _ in range(30):
            machine = _random_atm(rng)
            word = "".join(rng.choice("01") for _ in range(2))
            assert atm_accepts(machine, word) == \
                _play_tree_accepts(machine, word)

    def test_config_space_budget(self):
        m = ATM(2, frozenset({0}), frozenset({(0, "0", 1, "0", "R")}), 0, 1, 18)
        with pytest.raises(ConfigSpaceTooLarge):
            atm_accepts(m, "0")

    def test_alternation_enforced(self):
        m = ATM(2, frozenset({0, 1}), frozenset({(0, "0", 1, "0", "R")}), 0, 1, 2)
        assert any("alternation" in p for p in validate_atm(m))


def _random_atm(rng: Random) -> ATM:
    num_states = rng.randint(2, 4)
    existential = frozenset(q for q in range(num_states) if q % 2 == 0)
    transitions = set()
    for _ in range(rng.randint(2, 5)):
        q = rng.randrange(num_states)
        q2 = rng.choice([x for x in range(num_states)
                         if (x in existential) != (q in existential)])
        transitions.add((q, rng.choice("01"), q2, rng.choice("01"),
                         rng.choice("LR")))
    return ATM(num_states, existential, frozenset(transitions), 0,
               rng.randrange(num_states), 2)


def _play_tree_accepts(m: ATM, word: str) -> bool:
    """Second oracle: exhaustive play-tree search with a visited-set cutoff
    (revisiting a configuration on the same branch cannot help the
    existential player, since plays that never reach the accepting state
    reject)."""
    P = m.space
    tape0 = tuple((word[i] if i < len(word) else "0") for i in range(P))
    by_src = {}
    for t in sorted(m.transitions):
        by_src.setdefault(t[0], []).append(t)

    def moves(cfg):
        q, head, tape = cfg
        out = []
        for _, read, q2, write, d in by_src.get(q, ()):
            if read != tape[head - 1]:
                continue
            head2 = head + 1 if d == "R" else head - 1
            if 1 <= head2 <= P:
                out.append((q2, head2, tape[:head - 1] + (write,) + tape[head:]))
        return out

    def wins(cfg, seen):
        if cfg[0] == m.accepting:
            return True
        if cfg in seen:
            return False
        nxt = moves(cfg)
        if not nxt:
            return False
        seen = seen | {cfg}
        if cfg[0] in m.existential:
            return any(wins(c, seen) for c in nxt)
        return all(wins(c, seen) for c in nxt)

    return wins((m.initial, 1, tape0), frozenset())


class TestAtmReduce:
    def test_state_count_formula(self):
        for name, machine, word, _ in ATM_CORPUS[:3]:
            out = atm_reduce(machine, word)
            expected = (machine.num_states + machine.space +
                        2 * machine.space + 1 + len(machine.transitions) + 4)
            assert out.num_states == expected

    def test_output_is_valid_safety(self):
        name, machine, word, _ = ATM_CORPUS[0]
        out = atm_reduce(machine, word)
        assert out.condition == "safety"
        assert validate(out) == []
        assert is_complete(out)

    def test_restart_and_win_are_inert(self):
        name, machine, word, _ = ATM_CORPUS[0]
        out = atm_reduce(machine, word)
        bot = next(q for q in range(out.num_states)
                   if all(d == q for letter in out.alphabet
                          for d, _ in out.successors(q, letter))
                   and all(r == 0 for letter in out.alphabet
                           for _, r in out.successors(q, letter)))
        for letter in ("restart", "win"):
            assert letter in out.alphabet
            for q in range(out.num_states):
                succs = out.successors(q, letter)
                assert len(succs) == 1 and succs[0][0] == q


class TestRandomGenerators:
    def test_random_automata_are_valid(self):
        rng = Random(1)
        for cond in ("finite", "safety", "buchi", "cobuchi"):
            a = complete(random_automaton(rng, 4, ["a", "b"], cond))
            assert validate(a) == []
        a = complete(random_automaton(rng, 4, ["a", "b"], "parity", parity=(0, 3)))
        assert validate(a) == []

    def test_seed_determinism(self):
        a1 = random_automaton(Random(9), 4, ["a", "b"], "buchi")
        a2 = random_automaton(Random(9), 4, ["a", "b"], "buchi")
        assert a1 == a2
