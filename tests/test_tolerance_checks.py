"""Every refusal against a named limit, a *_TOL tolerance or a *_BUDGET or
*_CAP size, goes through errors.within, so a NaN is refused wherever a value
past its limit is."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qiplab.channels import KrausChannel
from qiplab.errors import NumericsError, ValidationError
from qiplab.optimize import ValueReport
from qiplab.protocol import MeasurementFamily, checked_probability
from qiplab.qmath import (
    DensityMatrix,
    MeasurementOperator,
    Povm,
    PureState,
    RegisterLayout,
    born_probability,
    hermitian_eig,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qiplab"
QUBIT = RegisterLayout(("M",), (2,))
HALF = np.eye(2) / 2
# The thresholds that decide rather than refuse: the PPT verdict, skipping an
# emission branch, and refusing to condition on a zero-probability challenge.
DECISIONS = {
    ("channels.py", "NPT_TOL"),
    ("protocol.py", "BRANCH_PROBABILITY_TOL"),
    ("protocol.py", "CONDITIONING_TOL"),
}


def with_nan(entries) -> np.ndarray:
    """A copy of ``entries`` whose first entry is NaN."""
    out = np.array(entries, dtype=np.complex128)
    out.flat[0] = math.nan
    return out


def born_probability_of_nan():
    rho = DensityMatrix(QUBIT, np.eye(2) / 2)
    object.__setattr__(rho, "entries", with_nan(rho.entries))
    return born_probability(MeasurementOperator.identity(QUBIT), rho)


NAN_CASES = {
    "MeasurementOperator": (lambda: MeasurementOperator(QUBIT, with_nan(HALF)), ValidationError),
    "Povm": (lambda: Povm(QUBIT, with_nan([HALF, HALF])), ValidationError),
    "MeasurementFamily": (
        lambda: MeasurementFamily(("0",), ("0", "1"), QUBIT, with_nan([[HALF, HALF]])),
        ValidationError,
    ),
    "PureState": (lambda: PureState(QUBIT, with_nan([1, 0])), ValidationError),
    "DensityMatrix": (lambda: DensityMatrix(QUBIT, with_nan(HALF)), ValidationError),
    "KrausChannel": (lambda: KrausChannel(QUBIT, QUBIT, with_nan([np.eye(2)])), ValidationError),
    "hermitian_eig": (lambda: hermitian_eig(with_nan(HALF)), ValidationError),
    "born_probability": (born_probability_of_nan, NumericsError),
    "net_error": (lambda: ValueReport(0.5, {}, (), "net", net_error=math.nan), NumericsError),
    "iterates": (lambda: ValueReport(0.5, {}, ((0.1, math.nan, 0.2),), "seesaw"), NumericsError),
    "checked_probability": (lambda: checked_probability(math.nan), NumericsError),
}


@pytest.mark.parametrize("case", NAN_CASES)
def test_a_nan_is_past_every_tolerance(case):
    build, error = NAN_CASES[case]
    with pytest.raises(error):
        build()


LIMIT_SUFFIXES = ("_TOL", "_BUDGET", "_CAP")


def limit_comparisons(source: str) -> list[tuple[str, int]]:
    """The named limits (``*_TOL``, ``*_BUDGET``, ``*_CAP``) that ``source``
    compares, with their lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                found += [
                    (name.id, node.lineno)
                    for name in ast.walk(operand)
                    if isinstance(name, ast.Name) and name.id.endswith(LIMIT_SUFFIXES)
                ]
    return found


def test_the_guard_sees_a_tolerance_compared_by_hand():
    source = (
        "if defect > A_TOL:\n    raise E\nwithin(defect, A_TOL, E, 'what')\nok = p <= -B_TOL\n"
        "if n * n > C_BUDGET:\n    raise E\nwithin(n, C_BUDGET, E, 'what')\n"
        "if len(zs) > D_CAP:\n    raise E\nok = n < _CAP_ZONE\n"
    )
    found = [("A_TOL", 1), ("B_TOL", 4), ("C_BUDGET", 5), ("D_CAP", 8)]
    assert limit_comparisons(source) == found


def test_only_the_decision_thresholds_compare_a_tolerance_by_hand():
    compared = {
        (path.name, name): line
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in limit_comparisons(path.read_text())
    }
    assert set(compared) == DECISIONS, compared
