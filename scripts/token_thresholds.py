#!/usr/bin/env python3
"""Scan the canonical families for their exact token demands.

Prints, for each instance, the least k for which the token player wins the
k-explorability game (searched by iterative deepening), illustrating the
linear thresholds of the branching family and the exponential thresholds of
the leveled family, and checks them against the paper's: ak(k) needs k
tokens, bk(k) needs 2^k, and c is not explorable up to 5.  Exits 1 if some
threshold differs.
"""

import argparse
import sys
import time

from explora.explorability import explorability_bounded, is_k_explorable
from explora.generators import gen_ak, gen_bk, gen_c


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-ak", type=int, default=4)
    parser.add_argument("--max-bk", type=int, default=2,
                        help="levels of the doubling family (3 takes minutes)")
    args = parser.parse_args()

    mismatches = 0
    print(f"{'instance':>12} {'states':>7} {'threshold':>10} {'seconds':>8}")
    for k in range(1, args.max_ak + 1):
        a = gen_ak(k)
        t0 = time.perf_counter()
        verdict = explorability_bounded(a, k + 1)
        found = verdict.k if verdict.status == "explorable-with" else f">{verdict.k}"
        mismatches += found != k
        print(f"{'ak(' + str(k) + ')':>12} {a.num_states:>7} "
              f"{found:>10} {time.perf_counter() - t0:>8.2f}")

    for k in range(1, args.max_bk + 1):
        b = gen_bk(k)
        t0 = time.perf_counter()
        # binary search between 1 and 2^k using monotonicity; 2^k + 1 stands
        # for "not explorable with 2^k tokens"
        lo, hi = 1, 2 ** k + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if is_k_explorable(b, mid):
                hi = mid
            else:
                lo = mid + 1
        mismatches += lo != 2 ** k
        found = lo if lo <= 2 ** k else f">{2 ** k}"
        print(f"{'bk(' + str(k) + ')':>12} {b.num_states:>7} "
              f"{found:>10} {time.perf_counter() - t0:>8.2f}")

    c = gen_c()
    t0 = time.perf_counter()
    verdict = explorability_bounded(c, 5)
    found = verdict.k if verdict.status == "explorable-with" else f">{verdict.k}"
    mismatches += found != ">5"
    print(f"{'c':>12} {c.num_states:>7} {found:>10} "
          f"{time.perf_counter() - t0:>8.2f}  (inconclusive by design)")
    print(f"thresholds that differ from the paper's: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
