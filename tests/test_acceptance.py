"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import time
from itertools import product
from random import Random

from explora.automata import complete, equivalent_on_lassos, is_deterministic
from explora.constructions import (rank_tuple_letter, to_13,
                                   union_condition_automaton_02)
from explora.explorability import (explorability_bounded, is_k_explorable,
                                   is_k_population_winnable, pcp_reduce)
from explora.games import (MaxEvenParity, Or, solve, solve_parity,
                           verify_strategy)
from explora.generators import (atm_accepts, atm_reduce, gen_ak, gen_bk,
                                gen_c, gen_fig4, random_automaton)
from explora.hdgames import EVE, g2_winner, is_hd_exact
from explora.omega import is_omega_explorable, is_omega_explorable_cobuchi

from conftest import ATM_CORPUS, automaton_corpus
from reference import (random_multi_arena, random_parity_game,
                       solve_parity_disjunction)


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_branching_family_thresholds():
    ok = True
    details = []
    for k in (2, 3):
        a = gen_ak(k)
        t0 = time.perf_counter()
        at_k = is_k_explorable(a, k)
        below = is_k_explorable(a, k - 1)
        elapsed = time.perf_counter() - t0
        ok &= at_k and not below and elapsed < 5.0
        details.append(f"k={k}: {at_k}/{not below} in {elapsed:.2f}s")
    assert report("1 (branching family)", ok, "; ".join(details))


def test_criterion_2_non_explorability_of_c():
    c = gen_c()
    t0 = time.perf_counter()
    spoiler_wins_every_level = all(not is_k_explorable(c, k) for k in range(1, 5))
    verdict = explorability_bounded(c, 4)
    elapsed = time.perf_counter() - t0
    ok = (verdict.status == "not-explorable-up-to" and verdict.k == 4
          and spoiler_wins_every_level and elapsed < 30.0)
    assert report("2 (C is not explorable)", ok,
                  f"verdict={verdict.status}({verdict.k}) in {elapsed:.2f}s")


def test_criterion_3_exponential_token_threshold():
    ok = True
    details = []
    for k in (1, 2):
        b = gen_bk(k)
        t0 = time.perf_counter()
        at = is_k_explorable(b, 2 ** k)
        below = is_k_explorable(b, 2 ** k - 1)
        elapsed = time.perf_counter() - t0
        ok &= at and not below
        details.append(f"k={k}: needs exactly {2**k} tokens in {elapsed:.2f}s")
    assert report("3 (2^k tokens)", ok, "; ".join(details))


def test_criterion_3_optional_k3():
    b = gen_bk(3)
    t0 = time.perf_counter()
    at = is_k_explorable(b, 8)
    below = is_k_explorable(b, 7)
    elapsed = time.perf_counter() - t0
    ok = at and not below and elapsed < 30.0
    assert report("3-optional (B_3 needs 8 tokens)", ok, f"in {elapsed:.1f}s")


def test_criterion_4_population_round_trip():
    agreements = 0
    for a in (gen_ak(2), gen_c(), gen_bk(1)):
        inst = pcp_reduce(a)
        for k in (1, 2, 3):
            if is_k_explorable(a, k) == is_k_population_winnable(inst, k):
                agreements += 1
    ok = agreements == 9
    assert report("4 (population round-trip)", ok, f"{agreements}/9 agreements")


def test_criterion_5_omega_fixtures():
    t0 = time.perf_counter()
    left = is_omega_explorable_cobuchi(gen_fig4("left"))
    t_left = time.perf_counter() - t0
    t0 = time.perf_counter()
    right = is_omega_explorable_cobuchi(gen_fig4("right"))
    t_right = time.perf_counter() - t0
    reach = automaton_corpus(201, 5, 3, ["a", "b"], "reachability")
    shortcut = all(is_omega_explorable(a).status == "omega-explorable"
                   for a in reach)
    ok = left and not right and shortcut and t_left < 5 and t_right < 5
    assert report("5 (omega-explorability fixtures)", ok,
                  f"left protector {t_left:.2f}s, right eliminator {t_right:.2f}s, "
                  f"reachability shortcut on {len(reach)} automata")


def test_criterion_6_atm_hardness_loop():
    t0 = time.perf_counter()
    agreements = 0
    for name, machine, word, _ in ATM_CORPUS:
        accepted = atm_accepts(machine, word)
        reduced = atm_reduce(machine, word)
        if accepted == (not is_omega_explorable_cobuchi(reduced)):
            agreements += 1
    elapsed = time.perf_counter() - t0
    ok = agreements == len(ATM_CORPUS) >= 6 and elapsed < 300
    assert report("6 (machine hardness loop)", ok,
                  f"{agreements}/{len(ATM_CORPUS)} machines in {elapsed:.1f}s")


def test_criterion_7_construction_fidelity():
    corpus = automaton_corpus(301, 25, 3, ["a", "b"], "parity", parity=(1, 4))
    corpus += automaton_corpus(302, 25, 3, ["a", "b"], "parity", parity=(0, 2))
    assert len(corpus) == 50
    counterexamples = 0
    from explora.omega import parity_to_buchi_omega
    for a in corpus:
        if not equivalent_on_lassos(a, to_13(a), 6).equivalent:
            counterexamples += 1
        if not equivalent_on_lassos(a, parity_to_buchi_omega(a), 6).equivalent:
            counterexamples += 1

    cond_ok = all(_cond02_matches_oracle(k) for k in (1, 2, 3))
    ok = counterexamples == 0 and cond_ok
    assert report("7 (construction fidelity)", ok,
                  f"{counterexamples} lasso counterexamples on 50 automata; "
                  f"union condition automaton exhaustive agreement: {cond_ok}")


def _cond02_matches_oracle(k: int) -> bool:
    """Exhaustive check over all periodic rank-tuple words with period <= 4."""
    c = union_condition_automaton_02(k)
    tuples = list(product((0, 1, 2), repeat=k))
    letters = {b: rank_tuple_letter(b) for b in tuples}
    delta = {key: succ[0] for key, succ in c.delta.items()}
    n = c.num_states

    def automaton_accepts(comp):
        # comp[q] = (end state, max rank) after one period from q
        q, seen = c.initial, {}
        order = []
        while q not in seen:
            seen[q] = len(order)
            order.append(q)
            q = comp[q][0]
        best = -1
        for _ in range(len(order) - seen[q]):
            best = max(best, comp[q][1])
            q = comp[q][0]
        return best % 2 == 0

    def recurse(period, comp):
        if period:
            want = any(max(b[i] for b in period) % 2 == 0 for i in range(k))
            if automaton_accepts(comp) != want:
                return False
        if len(period) == 4:
            return True
        for b in tuples:
            letter = letters[b]
            comp2 = [(delta[(comp[q][0], letter)][0],
                      max(comp[q][1], delta[(comp[q][0], letter)][1]))
                     for q in range(n)]
            if not recurse(period + [b], comp2):
                return False
        return True

    return recurse([], [(q, -1) for q in range(n)])


def test_criterion_8_hd_characterization():
    rng = Random(401)
    corpus = []
    while len(corpus) < 20:
        a = complete(random_automaton(rng, 3, ["a", "b"], "cobuchi"))
        if is_k_explorable(a, 2):
            corpus.append(a)
    disagreements = sum(
        1 for a in corpus if (g2_winner(a) == EVE) != is_hd_exact(a))
    det = automaton_corpus(402, 6, 3, ["a", "b"], "cobuchi", max_branch=1)
    det_ok = all(is_deterministic(a) and is_hd_exact(a) and g2_winner(a) == EVE
                 for a in det)
    ok = disagreements == 0 and det_ok
    assert report("8 (HD characterization)", ok,
                  f"{len(corpus) - disagreements}/{len(corpus)} agreement on the "
                  f"verified 2-explorable corpus; deterministic always HD: {det_ok}")


def test_criterion_9_solver_soundness():
    rng = Random(501)
    partition_ok = strategies_ok = True
    for _ in range(200):
        game = random_parity_game(rng, rng.randint(2, 200), rng.randint(1, 3))
        result = solve_parity(game)
        n = game.num_positions
        partition_ok &= (result.winning_region_0 | result.winning_region_1
                         == frozenset(range(n)))
        partition_ok &= not (result.winning_region_0 & result.winning_region_1)
        strategies_ok &= verify_strategy(game, result.winning_region_0,
                                         result.strategy_0, 0)
        strategies_ok &= verify_strategy(game, result.winning_region_1,
                                         result.strategy_1, 1)

    oracle_ok = True
    obj = Or(MaxEvenParity(0), MaxEvenParity(1))
    for _ in range(50):
        channels = ((0, rng.randint(1, 3)), (0, rng.randint(1, 3)))
        arena = random_multi_arena(rng, rng.randint(2, 60), channels)
        pipeline = solve(arena, obj)
        w0, w1 = solve_parity_disjunction(arena)
        oracle_ok &= (w0 == pipeline.winning_region_0
                      and w1 == pipeline.winning_region_1)

    ok = partition_ok and strategies_ok and oracle_ok
    assert report("9 (solver soundness)", ok,
                  f"200 parity games: partition={partition_ok}, "
                  f"strategies verify={strategies_ok}; 50 disjunction games "
                  f"agree with the direct oracle: {oracle_ok}")
