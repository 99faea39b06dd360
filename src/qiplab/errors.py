"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration and usage
problems (ValidationError, LayoutError, ContractError, ConditioningError,
BudgetError, ResolutionError, DecompositionError) exit with status 2,
internal invariant breaches (NumericsError) with status 3.

Every refusal of a computed defect against a named tolerance goes through
within, which counts NaN as past every tolerance.
"""


class QipLabError(Exception):
    """Base class for all errors raised by qiplab."""


class LayoutError(QipLabError):
    """A register label or dimension does not match the declared layout."""


class ValidationError(QipLabError):
    """An object or parameter violates its construction invariants."""


class ContractError(QipLabError):
    """An operation was called with an argument of the wrong form."""


class ConditioningError(QipLabError):
    """Postselection on an event of (numerically) zero probability."""


class DecompositionError(QipLabError):
    """A separable decomposition does not resolve the identity."""


class BudgetError(QipLabError):
    """An enumeration exceeds the supported instance size."""


class ResolutionError(QipLabError):
    """A net is too coarse for the requested promise gap."""


class NumericsError(QipLabError):
    """An internal numerical invariant was breached."""


def within(defect: float, tol: float, error: type[QipLabError], what: str, *args) -> None:
    """Raise ``error`` unless ``defect <= tol``, so a NaN defect is refused.

    The message, ``what.format(*args)`` followed by the defect and the
    tolerance, is formatted only when raising.
    """
    if not defect <= tol:
        raise error(f"{what.format(*args)} (defect {defect:.3e}, tolerance {tol:g})")
