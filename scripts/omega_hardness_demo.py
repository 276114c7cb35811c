#!/usr/bin/env python3
"""Walk the machine-to-automaton hardness loop on the tiny corpus.

For each alternating machine: decide acceptance with the brute-force
configuration-game oracle, build the safety automaton, decide its
omega-explorability with the elimination game, and print both sides of the
anti-equivalence with sizes and timings.  Exits 1 if some machine breaks the
anti-equivalence.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import ATM_CORPUS  # noqa: E402

from explora.generators import atm_accepts, atm_reduce  # noqa: E402
from explora.omega import build_elimination_game, is_omega_explorable_cobuchi  # noqa: E402


def main() -> int:
    mismatches = 0
    print(f"{'machine':>15} {'accepts':>8} {'aut.states':>10} "
          f"{'arena':>8} {'omega-expl':>10} {'ok':>3} {'sec':>6}")
    for name, machine, word, _ in ATM_CORPUS:
        t0 = time.perf_counter()
        accepted = atm_accepts(machine, word)
        reduced = atm_reduce(machine, word)
        arena = build_elimination_game(reduced)
        omega = is_omega_explorable_cobuchi(reduced)
        ok = accepted == (not omega)
        mismatches += not ok
        print(f"{name:>15} {str(accepted):>8} {reduced.num_states:>10} "
              f"{arena.num_positions:>8} {str(omega):>10} "
              f"{'y' if ok else 'N':>3} {time.perf_counter() - t0:>6.1f}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
