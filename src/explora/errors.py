"""Shared exception types."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input file; carries file name, line number and expectation."""

    def __init__(self, source: str, line: int, expected: str):
        self.source = source
        self.line = line
        self.expected = expected
        super().__init__(f"{source}:{line}: expected {expected}")


class MissingMonitor(ValueError):
    """A deterministic language monitor is required but was not supplied."""


class MonitorMismatch(ValueError):
    """A user-supplied monitor disagrees with its source automaton on some
    lasso."""

    def __init__(self, counterexample):
        self.counterexample = counterexample
        super().__init__(f"monitor disagrees with automaton on {counterexample}")


class NonSinkTarget(ValueError):
    """The population-game target state must be a sink."""


class UnverifiedExplorability(ValueError):
    """The fast HD check needs a verified explorability witness (or an explicit
    unchecked=True)."""


class ChannelBudgetExceeded(ValueError):
    """A game construction would need more parity channels than allowed."""


class ConfigSpaceTooLarge(ValueError):
    """The machine's configuration space exceeds the brute-force budget."""


class SolverCheckFailed(ValueError):
    """A solved game failed its own re-check: the winning regions do not
    partition the positions, or an extracted strategy does not verify."""


class MonitorCheckFailed(ValueError):
    """A monitor construction failed its own re-check: the built automaton is
    not deterministic and complete, has another acceptance condition or rank
    range than its construction's, does not match its state labels, or, in
    the elimination game, puts rank-3 edges off the monitor's breakpoints."""


class ReductionCheckFailed(ValueError):
    """A reduction failed its own re-check: `pcp_to_explorability` built an
    automaton that rejects some word, though its language is universal."""
