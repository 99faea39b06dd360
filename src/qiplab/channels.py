"""Completely positive trace-preserving maps and their Choi states.

Two channel forms are supported: a general Kraus form (rectangular operators
allowed, so the input and output spaces may differ) and the
measure-and-prepare form, a POVM measurement whose outcome selects a pure
state to emit.  Measure-and-prepare channels are exactly the
entanglement-breaking ones, which is what the Choi/PPT utilities certify.

Choi states use the trace-one convention: the channel is applied to half of
the maximally entangled state, so channels are equal iff their Choi states
are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BudgetError, DecompositionError, LayoutError, ValidationError, within
from .qmath import (
    COMPLETENESS_TOL,
    DensityMatrix,
    MeasurementOperator,
    Povm,
    PureState,
    RegisterLayout,
    adjoint_kraus_array,
    dagger,
    frozen,
    hermitian_eig,
    max_abs,
    measure_array,
    partial_transpose,
)

TRACE_PRESERVING_TOL = 1e-8
NPT_TOL = 1e-9
# How far below zero a decomposition's term probability may be as rounding.
TERM_SIGN_TOL = 1e-12
# Largest in_dim * out_dim that choi accepts.  The Choi state is a dense
# (in_dim * out_dim)^2 complex matrix, and the PPT test diagonalizes it and
# its partial transpose: at 1024 a fresh `eb-check --channel` process takes
# 1-2 s and about 100 MB peak on a 2-core host; at in = out = 64 it ran past
# 25 s, and at 128 each copy of the state would take 4.3 GB.
CHOI_DIMENSION_BUDGET = 1024


@dataclass(frozen=True)
class KrausChannel:
    """Channel given by operators K_i with sum_i K_i^dag K_i = identity, stacked
    as ``kraus_ops``: one read-only complex array of shape (k, d_out, d_in)."""

    in_layout: RegisterLayout
    out_layout: RegisterLayout
    kraus_ops: np.ndarray

    def __post_init__(self):
        if len(self.kraus_ops) == 0:
            raise ValidationError("channel needs at least one Kraus operator")
        shape = (len(self.kraus_ops), self.out_layout.total_dim, self.in_layout.total_dim)
        ops = frozen(self.kraus_ops, shape, "Kraus operator")
        object.__setattr__(self, "kraus_ops", ops)
        total = sum(dagger(k) @ k for k in ops)
        defect = max_abs(total - np.eye(self.in_layout.total_dim))
        within(defect, TRACE_PRESERVING_TOL, ValidationError, "channel is not trace preserving")

    @classmethod
    def identity(cls, layout: RegisterLayout) -> "KrausChannel":
        return cls(layout, layout, (np.eye(layout.total_dim),))


@dataclass(frozen=True)
class EbChannel:
    """Measure-and-prepare channel: rho -> sum_l tr(E_l rho) |phi_l><phi_l|."""

    povm: Povm
    preps: tuple[PureState, ...]

    def __post_init__(self):
        preps = tuple(self.preps)
        object.__setattr__(self, "preps", preps)
        if len(preps) != len(self.povm):
            raise ValidationError(
                f"{len(self.povm)} POVM elements but {len(preps)} prepared states"
            )
        out = preps[0].layout
        for p in preps[1:]:
            if p.layout != out:
                raise LayoutError("prepared states live on different layouts")

    @property
    def in_layout(self) -> RegisterLayout:
        return self.povm.layout

    @property
    def out_layout(self) -> RegisterLayout:
        return self.preps[0].layout

    def to_kraus(self) -> KrausChannel:
        """Equivalent Kraus form via POVM square roots.

        For E_l = S_l^dag S_l the operators |phi_l><row k of S_l| reproduce
        the displayed measure-and-prepare sum exactly.
        """
        ops = []
        for effect, prep in zip(self.povm.effects, self.preps):
            vals, vecs = hermitian_eig(effect)
            root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ dagger(vecs)
            for row in root:
                if np.any(row):
                    ops.append(np.outer(prep.amplitudes, row))
        return KrausChannel(self.in_layout, self.out_layout, tuple(ops))


def apply_kraus(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    if rho.layout.dims != channel.in_layout.dims:
        raise LayoutError(
            f"state dims {rho.layout.dims} do not match channel input {channel.in_layout.dims}"
        )
    out = np.zeros((channel.out_layout.total_dim,) * 2, dtype=np.complex128)
    for k in channel.kraus_ops:
        out += k @ rho.entries @ dagger(k)
    return DensityMatrix(channel.out_layout, out)


def adjoint_apply(channel: KrausChannel, effect: MeasurementOperator) -> MeasurementOperator:
    """Heisenberg-picture image sum_i K_i^dag E K_i on the input space.

    Unital by trace preservation, and dual to the channel:
    tr(E . channel(rho)) = tr(adjoint(E) . rho) for every state rho.
    """
    if effect.layout.dims != channel.out_layout.dims:
        raise LayoutError(
            f"effect dims {effect.layout.dims} do not match channel output {channel.out_layout.dims}"
        )
    image = adjoint_kraus_array(effect.entries, channel.kraus_ops)
    return MeasurementOperator(channel.in_layout, image)


_CHOI_LAYOUT_NAMES = ("in", "out")


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi state of a channel: (id (x) channel) applied to |beta><beta|."""

    operator: DensityMatrix
    in_dim: int

    def __post_init__(self):
        layout = self.operator.layout
        if layout.names != _CHOI_LAYOUT_NAMES:
            raise LayoutError(f"Choi layout must be {_CHOI_LAYOUT_NAMES}, got {layout.names}")
        if layout.dims[0] != self.in_dim:
            raise LayoutError(
                f"recorded input dimension {self.in_dim} does not match layout {layout.dims}"
            )
        reduced = measure_array(self.operator.entries, layout.dims, [np.eye(self.out_dim)], (1,))[0]
        defect = max_abs(reduced - np.eye(self.in_dim) / self.in_dim)
        within(defect, COMPLETENESS_TOL, ValidationError, "reduced Choi state is not I/d")

    @property
    def out_dim(self) -> int:
        return self.operator.layout.dims[1]


def choi(channel: KrausChannel | EbChannel) -> ChoiMatrix:
    """Trace-one Choi state, input copy first.

    For a Kraus channel each operator K contributes the vectorized rank-one
    term; for a measure-and-prepare channel the state is
    (1/d) sum_l E_l^T (x) |phi_l><phi_l|.
    """
    d_in = channel.in_layout.total_dim
    d_out = channel.out_layout.total_dim
    within(
        d_in * d_out, CHOI_DIMENSION_BUDGET, BudgetError,
        "Choi state of dimension {} * {} exceeds the budget", d_in, d_out,
    )
    if isinstance(channel, EbChannel):
        mat = np.zeros((d_in * d_out,) * 2, dtype=np.complex128)
        for effect, prep in zip(channel.povm.effects, channel.preps):
            mat += np.kron(effect.T, prep.projector())
        mat /= d_in
    elif isinstance(channel, KrausChannel):
        mat = np.zeros((d_in * d_out,) * 2, dtype=np.complex128)
        for k in channel.kraus_ops:
            v = k.T.reshape(-1)
            mat += np.outer(v, v.conj())
        mat /= d_in
    else:
        raise ValidationError(f"cannot take the Choi state of {type(channel).__name__}")
    layout = RegisterLayout(_CHOI_LAYOUT_NAMES, (d_in, d_out))
    return ChoiMatrix(DensityMatrix(layout, mat), d_in)


class PptReport(NamedTuple):
    min_eigenvalue: float
    verdict: str  # "NPT", "PPT" or "PPT-inconclusive"


def check_eb_ppt(channel: KrausChannel | EbChannel) -> PptReport:
    """Partial-transpose test on the Choi state.

    NPT certifies the channel is not entanglement breaking.  A positive
    partial transpose certifies that it is only when in_dim * out_dim <= 6
    (qubit-qubit and qubit-qutrit, Horodecki 1996), verdict "PPT"; beyond
    that PPT is necessary, not sufficient, and the verdict is "PPT-inconclusive".
    """
    cm = choi(channel)
    pt = partial_transpose(cm.operator, "in")
    lo = float(np.linalg.eigvalsh(pt)[0])
    if lo < -NPT_TOL:
        return PptReport(lo, "NPT")
    return PptReport(lo, "PPT" if cm.in_dim * cm.out_dim <= 6 else "PPT-inconclusive")


def eb_from_separable_choi(
    d: int, terms: Sequence[tuple[float, PureState, PureState]]
) -> EbChannel:
    """Measure-and-prepare channel realizing a separable Choi decomposition.

    Given Choi terms sum_l p_l |v_l><v_l| (x) |w_l><w_l| with the reduced
    input marginal I/d, measure with E_l = d p_l |v_l><v_l| and prepare w_l.
    The vectors v_l enter the POVM as written, matching the defining
    verification done in the computational basis without conjugation; under
    a conjugate-basis convention the POVM would instead carry the entrywise
    conjugates of the v_l (the two agree whenever the v_l are real).
    """
    if not terms:
        raise ValidationError("decomposition needs at least one term")
    probs = np.array([float(p) for p, _, _ in terms])
    within(-probs.min(), TERM_SIGN_TOL, ValidationError, "negative probability in decomposition")
    within(abs(probs.sum() - 1.0), COMPLETENESS_TOL, ValidationError, "probability sum is not 1")
    in_layout = terms[0][1].layout
    if in_layout.total_dim != d:
        raise LayoutError(f"input-side vectors have dimension {in_layout.total_dim}, not {d}")
    total = np.zeros((d, d), dtype=np.complex128)
    for p, v, _ in terms:
        total += d * p * v.projector()
    defect = max_abs(total - np.eye(d))
    within(defect, COMPLETENESS_TOL, DecompositionError, "measurement side does not sum to I")
    effects = [d * p * v.projector() for p, v, _ in terms]
    return EbChannel(Povm(in_layout, effects), tuple(w for _, _, w in terms))
