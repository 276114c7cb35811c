"""Runtime knobs, overridable through environment variables.

EXPLORE_CHANNEL_BUDGET caps the number of parity channels a game objective may
use (per-token channels grow with the token count); `check_channels` is the
one place that enforces it, and `constructions.power_channels` the one count
of channels that grow with a token or copy count: one per copy and channel of
the input, plus one.  Three callers check that count before they build
anything: `constructions.union_power`, which serves `construct power` and the
explorability game on token tuples; the bounded search under a user monitor,
which checks its largest k first; and the `hd --via-g2` token game.  The
monitor's kind picks the explorability game: a user monitor (Buchi, general
parity and multi-channel inputs) plays on token tuples, as one token of the
union power, while the monitors explora builds play with one channel, a
subset monitor on token multisets and a breakpoint monitor on breakpoint
multisets, so the budget never binds them.

EXPLORE_LASSO_BOUND sets the default bound of the lasso-equivalence oracle,
which validates user monitors only: built monitors are validated exactly.
Both are surfaced in the CLI's JSON output (as ``channel_budget`` and
``lasso_bound``) so runs are reproducible.  A value that is no integer, a
channel budget below 2, which no game that counts channels fits, or a lasso
bound below 1, which would check no lasso, is a `ValueError` that names its
variable.
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


def _read_int(name: str, default: int, least: int) -> int:
    raw = os.environ.get(name, str(default))
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def channel_budget() -> int:
    return _read_int("EXPLORE_CHANNEL_BUDGET", DEFAULT_CHANNEL_BUDGET, 2)


def check_channels(needed: int) -> None:
    """Raise `ChannelBudgetExceeded` if `needed` channels exceed the budget."""
    budget = channel_budget()
    if needed > budget:
        raise ChannelBudgetExceeded(
            f"{needed} channels exceed the budget of {budget} "
            "(set EXPLORE_CHANNEL_BUDGET to raise)")


def lasso_bound() -> int:
    return _read_int("EXPLORE_LASSO_BOUND", DEFAULT_LASSO_BOUND, 1)


def capped_lasso_bound(alphabet_size: int) -> int:
    """Largest bound <= `lasso_bound()` whose lasso count fits ORACLE_LASSO_CAP."""
    b = lasso_bound()
    while b > 2:
        count = sum(t * alphabet_size**t for t in range(1, b + 1))
        if count <= ORACLE_LASSO_CAP:
            break
        b -= 1
    return b
