"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration and usage
problems (ValidationError, LayoutError, ContractError, ConditioningError,
BudgetError, ResolutionError, DecompositionError) exit with status 2,
internal invariant breaches (NumericsError) with status 3.

Every refusal against a named limit (a *_TOL, *_BUDGET or *_CAP) goes
through within, which counts NaN as past every limit.
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
    """An instance exceeds a named size budget or cap."""


class ResolutionError(QipLabError):
    """A net is too coarse for the requested promise gap."""


class NumericsError(QipLabError):
    """An internal numerical invariant was breached."""


def within(value: float, limit: float, error: type[QipLabError], what: str, *args) -> None:
    """Raise ``error`` unless ``value <= limit``, so a NaN value is refused.

    The message, ``what.format(*args)`` followed by the value and the limit,
    is formatted only when raising.
    """
    if not value <= limit:
        raise error(f"{what.format(*args)} (value {_shown(value)}, limit {_shown(limit)})")


def _shown(x) -> str:
    """An int in full, or by its bit length past the digits Python prints;
    anything else to three significant figures."""
    try:
        return str(x) if isinstance(x, int) else f"{x:.3g}"
    except ValueError:
        return f"a {x.bit_length()}-bit int"
