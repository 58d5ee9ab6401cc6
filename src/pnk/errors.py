"""Shared exception types."""


class PnkError(Exception):
    """Base class for all errors raised by this package."""


class UniverseError(PnkError):
    """Malformed universe declaration or out-of-range field value."""


class ParseError(PnkError):
    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class WellFormednessError(PnkError):
    """Program violates a static invariant (predicate positions, weights, fields)."""


class DimensionError(PnkError):
    """Matrix dimensions do not conform."""


class SingularMatrixError(PnkError):
    """Linear system has no unique solution; indicates an upstream construction bug."""


class BudgetExceededError(PnkError):
    """A state-space or resource cap was exceeded.  Never silently truncated.

    A pair chain that outgrows its budget reports the counts it had reached:
    ``states_reached`` (the new state included), ``states_expanded`` (whose
    successors were all added) and ``accumulators`` (distinct accumulators
    among the states reached); each is None where no chain was explored.
    """

    def __init__(self, message, program_text=None, states_reached=None,
                 states_expanded=None, accumulators=None):
        self.program_text = program_text
        self.states_reached = states_reached
        self.states_expanded = states_expanded
        self.accumulators = accumulators
        if states_reached is not None:
            message = (f"{message}: {states_reached} states reached, "
                       f"{states_expanded} expanded, {accumulators} distinct "
                       "accumulators")
        if program_text is not None:
            message = f"{message} (while analyzing: {program_text})"
        super().__init__(message)


class ConditioningError(PnkError):
    """A conditional query conditioned on a probability-zero event."""
