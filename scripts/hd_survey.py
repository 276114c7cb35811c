#!/usr/bin/env python3
"""Survey HD against the 2-token game on a random coBuchi corpus.

For seeded random coBuchi automata this prints how many are 1-/2-explorable,
and checks that on the 2-explorable ones the 2-token game winner coincides
with exact history-determinism (it must; the fast HD check is only valid
under the explorability hypothesis, which is why the table also reports the
winner on automata where 2-explorability failed).  Exits 1 if they differ on
some 2-explorable automaton.
"""

import argparse
import sys
from random import Random

from explora.automata import complete
from explora.explorability import is_k_explorable
from explora.generators import random_automaton
from explora.hdgames import EVE, g2_winner, is_hd_exact


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--count", type=int, default=60)
    parser.add_argument("--states", type=int, default=3)
    args = parser.parse_args()

    rng = Random(args.seed)
    rows = []
    for _ in range(args.count):
        a = complete(random_automaton(rng, args.states, ["a", "b"], "cobuchi"))
        expl2 = is_k_explorable(a, 2)
        hd = is_hd_exact(a)
        eve = g2_winner(a) == EVE
        rows.append((expl2, hd, eve))

    explorable = [r for r in rows if r[0]]
    agreements = sum(1 for _, hd, eve in explorable if hd == eve)
    print(f"corpus: {len(rows)} random {args.states}-state coBuchi automata")
    print(f"  2-explorable: {len(explorable)}")
    print(f"  HD (exact): {sum(1 for _, hd, _ in rows if hd)}")
    print(f"  2-token game says Eve: {sum(1 for *_, eve in rows if eve)}")
    print(f"  agreement on the 2-explorable slice: {agreements}/{len(explorable)}")
    mismatched = [r for r in rows if not r[0] and r[1] != r[2]]
    print(f"  2-token-vs-exact mismatches outside the hypothesis: {len(mismatched)}"
          " (allowed; the characterization needs explorability)")
    return 0 if agreements == len(explorable) else 1


if __name__ == "__main__":
    sys.exit(main())
