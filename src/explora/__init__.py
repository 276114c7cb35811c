"""Degrees of non-determinism for automata on finite and infinite words:
k-explorability, bounded explorability search, history-determinism via token
games, and omega-explorability for the [0, 1]-ranked automata that
`automata.ranked_01` admits."""

from .automata import (Automaton, EquivalenceVerdict, LassoWord,
                       MultiAutomaton, Transition, canonical_parity, complete,
                       equivalent_on_lassos, is_deterministic, iter_lassos,
                       member_finite, member_lasso)
from .constructions import (buchi_union_flatten, compose_monitor, to_13,
                            union_condition_automaton_02, union_power,
                            union_product)
from .determinize import (Monitor, breakpoint_construction, resolve_monitor,
                          subset_construction)
from .explorability import (ExplorabilityVerdict, PCPInstance,
                            build_k_explorability_game, explorability_bounded,
                            is_k_explorable, is_k_population_winnable,
                            pcp_reduce, pcp_to_explorability)
from .games import (Arena, ConditionAutomaton, MaxEvenParity, Not, And, Or,
                    Objective, SolveResult, Strategy, compile_objective,
                    condition_automaton, solve, solve_parity,
                    verify_strategy, zielonka_tree)
from .generators import (ATM, atm_accepts, atm_reduce, gen_ak, gen_bk, gen_c,
                         gen_fig4, random_automaton)
from .hdgames import (build_token_game, g2_winner, is_hd_assuming_explorable,
                      is_hd_exact)
from .omega import (OmegaVerdict, build_elimination_game, is_omega_explorable,
                    is_omega_explorable_cobuchi, parity_to_buchi_omega)
from .textio import format_automaton, parse_automaton

__version__ = "0.1.0"
