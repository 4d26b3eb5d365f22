"""Exception hierarchy shared by all modules.

DomainError covers invalid inputs and violated preconditions; NumericalError
covers tolerance breaches and algorithmic failures discovered mid-computation.
The CLI maps them to exit codes 1 and 2 respectively.
"""


class HkgeomError(Exception):
    """Base class for all library errors."""


class DomainError(HkgeomError):
    """Invalid input: violated precondition, malformed data, degenerate form."""


class NumericalError(HkgeomError):
    """Numerical failure: a tolerance was breached or an iteration gave up."""


class HardLefschetzError(NumericalError):
    """The sl2-completion linear system is inconsistent for the given class."""


class InternalInconsistencyError(HkgeomError):
    """Two independent computations of the same invariant disagree."""
