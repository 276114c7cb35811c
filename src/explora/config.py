"""Runtime knobs, overridable through environment variables.

EXPLORE_CHANNEL_BUDGET caps the number of parity channels a game objective may
use (per-token channels grow with the token count); `check_channels` is the
one place that enforces it, and `constructions.power_channels` the one count
of channels that grow with a token or copy count: one per copy and channel of
the input, plus one.  Three callers check that count before they build
anything: `constructions.union_power`, which serves `construct power` and the
explorability game on token tuples, played as one token of the union power
by inputs with a user monitor only (Buchi, general parity and multi-channel
inputs); the bounded search over such inputs, which checks its largest k
first; and the `hd --via-g2` token game.  Every input whose monitor explora
builds plays the explorability game with one channel: finite inputs on token
multisets, and the inputs that `automata.ranked_01` admits on breakpoint
multisets.

EXPLORE_LASSO_BOUND sets the default bound of the lasso-equivalence oracle,
which validates user monitors only: built monitors are validated exactly.
Both are surfaced in the CLI's JSON output (as ``channel_budget`` and
``lasso_bound``) so runs are reproducible.
"""

from __future__ import annotations

import os

from .errors import ChannelBudgetExceeded

DEFAULT_CHANNEL_BUDGET = 5
DEFAULT_LASSO_BOUND = 6

# Soft cap on how many lassos a user-monitor validation may enumerate;
# the bound is lowered (never below 2) until the count fits.  Large alphabets
# (e.g. machine reductions) would otherwise make bound-6 checks take hours.
ORACLE_LASSO_CAP = 60_000


def channel_budget() -> int:
    return int(os.environ.get("EXPLORE_CHANNEL_BUDGET", DEFAULT_CHANNEL_BUDGET))


def check_channels(needed: int) -> None:
    """Raise `ChannelBudgetExceeded` if `needed` channels exceed the budget."""
    budget = channel_budget()
    if needed > budget:
        raise ChannelBudgetExceeded(
            f"{needed} channels exceed the budget of {budget} "
            "(set EXPLORE_CHANNEL_BUDGET to raise)")


def lasso_bound() -> int:
    return int(os.environ.get("EXPLORE_LASSO_BOUND", DEFAULT_LASSO_BOUND))


def capped_lasso_bound(alphabet_size: int, bound: int | None = None) -> int:
    """Largest bound <= `bound` whose lasso count stays under ORACLE_LASSO_CAP."""
    b = lasso_bound() if bound is None else bound
    while b > 2:
        count = sum(t * alphabet_size**t for t in range(1, b + 1))
        if count <= ORACLE_LASSO_CAP:
            break
        b -= 1
    return b
