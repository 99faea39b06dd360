"""Dense linear algebra for small multi-register quantum systems.

Registers are addressed by string label through a RegisterLayout; the first
register is the most significant index (row-major basis ordering).  All
state and operator types validate their defining invariants at construction
and hold read-only arrays.

The array layer is the contractions the package calls, each on one plain
D x D matrix with registers addressed by axis: reorder_array moves
registers, apply_kraus_array applies Kraus operators on target registers
only, dephase_axes dephases them, and measure_array / prepare_array
contract stacked effects and prepared states, the two halves of a
measure-and-prepare step; measuring the identity is the partial trace.
adjoint_kraus_array pulls an effect on the whole output space back through
Kraus operators, for protocol._closing_terms and channels.adjoint_apply.
No operator is ever embedded as O (x) I.

Intended for exact toy-scale work: the protocol simulator refuses total
dimensions above qiplab.protocol.SIMULATOR_DIMENSION_BUDGET (1024).
Nothing here is sparse, symbolic, or approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LayoutError, NumericsError, ValidationError, within
from .utils import checked_int

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-10
COMPLETENESS_TOL = 1e-8
EIG_RECONSTRUCT_TOL = 1e-9
# Looser than HERMITIAN_TOL: hermitian_eig also takes computed sums and products.
EIG_HERMITIAN_TOL = 1e-8


def frozen(entries, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``entries`` as a read-only complex array of ``shape``, else a LayoutError.

    A ragged stack, whose items numpy cannot stack, is refused like any other
    misshaped one: the error names its first item of the wrong shape.
    """
    try:
        arr = np.asarray(entries)
    except ValueError:  # numpy's refusal of items of different shapes
        raise _ragged(entries, shape, what) from None
    if arr.shape != shape:
        raise LayoutError(f"{what} has shape {arr.shape}, layout requires {shape}")
    out = np.array(arr, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


def _ragged(entries, shape: tuple[int, ...], what: str, at: tuple[int, ...] = ()) -> LayoutError:
    """The error for a ragged ``entries``: its first item, by index along the
    leading axes, whose shape is not that of one item of ``shape``."""
    for i, item in enumerate(entries):
        try:
            got = np.shape(item)
        except ValueError:  # the item is ragged itself
            return _ragged(item, shape[1:], what, at + (i,))
        if got != shape[1:]:
            where = ", ".join(str(k) for k in at + (i,))
            return LayoutError(f"{what} {where} has shape {got}, expected {shape[1:]}")
    return LayoutError(f"{what} does not stack to shape {shape}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermiticity_defect(a: np.ndarray) -> float:
    return max_abs(a - dagger(a))


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered, uniquely named registers with local dimensions >= 2."""

    names: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        names = tuple(self.names)
        dims = tuple(checked_int(d, "register dimension", LayoutError) for d in self.dims)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "dims", dims)
        if not names:
            raise LayoutError("layout needs at least one register")
        if len(names) != len(dims):
            raise LayoutError("names and dims must have equal length")
        if len(set(names)) != len(names):
            raise LayoutError(f"duplicate register names in {names}")
        for n, d in zip(names, dims):
            if not n:
                raise LayoutError("register names must be nonempty")
            if d < 2:
                raise LayoutError(f"register {n!r} has dimension {d}, need >= 2")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise LayoutError(f"unknown register {name!r}; layout has {self.names}") from None

    def axes(self, names: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.axis(n) for n in names)

    def dim_of(self, name: str) -> int:
        return self.dims[self.axis(name)]

    def concat(self, other: "RegisterLayout") -> "RegisterLayout":
        clash = set(self.names) & set(other.names)
        if clash:
            raise LayoutError(f"register names {sorted(clash)} appear on both sides")
        return RegisterLayout(self.names + other.names, self.dims + other.dims)

    def subset(self, names: Iterable[str]) -> "RegisterLayout":
        """Sub-layout of the given registers, in original layout order."""
        picked = set(names)
        for n in picked:
            self.axis(n)
        keep = [(n, d) for n, d in zip(self.names, self.dims) if n in picked]
        return RegisterLayout(tuple(n for n, _ in keep), tuple(d for _, d in keep))

    def basis_labels(self) -> tuple[str, ...]:
        """Computational basis labels, one digit per register, row-major."""
        if any(d > 10 for d in self.dims):
            raise LayoutError("digit labels need every register dimension <= 10")
        labels = [""]
        for d in self.dims:
            labels = [s + str(k) for s in labels for k in range(d)]
        return tuple(labels)

    def basis_index(self, label: str) -> int:
        if len(label) != len(self.dims):
            raise LayoutError(f"label {label!r} has wrong length for {len(self.dims)} registers")
        idx = 0
        for ch, d in zip(label, self.dims):
            k = int(ch)
            if not 0 <= k < d:
                raise LayoutError(f"digit {ch!r} in label {label!r} out of range for dim {d}")
            idx = idx * d + k
        return idx


@dataclass(frozen=True)
class PureState:
    """Unit vector over a register layout."""

    layout: RegisterLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = frozen(self.amplitudes, (self.layout.total_dim,), "state vector")
        object.__setattr__(self, "amplitudes", amps)
        norm = float(np.linalg.norm(amps))
        within(abs(norm - 1.0), NORM_TOL, ValidationError, "state norm {!r} is not 1", norm)

    @classmethod
    def basis(cls, layout: RegisterLayout, which: int | str) -> "PureState":
        if isinstance(which, str):
            idx = layout.basis_index(which)
        else:
            idx = checked_int(which, "basis index", LayoutError)
        if not 0 <= idx < layout.total_dim:
            raise LayoutError(f"basis index {idx} out of range for dim {layout.total_dim}")
        v = np.zeros(layout.total_dim, dtype=np.complex128)
        v[idx] = 1.0
        return cls(layout, v)

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, trace-one operator."""

    layout: RegisterLayout
    entries: np.ndarray

    def __post_init__(self):
        mat = frozen(self.entries, (self.layout.total_dim,) * 2, "density matrix")
        object.__setattr__(self, "entries", mat)
        defect = hermiticity_defect(mat)
        within(defect, HERMITIAN_TOL, ValidationError, "density matrix is not Hermitian")
        lo = float(np.linalg.eigvalsh(mat)[0])
        within(-lo, PSD_TOL, ValidationError, "density matrix has eigenvalue {:.3e}", lo)
        tr = complex(np.trace(mat))
        within(abs(tr - 1.0), TRACE_TOL, ValidationError, "density matrix trace {!r} is not 1", tr)


def checked_effects(layout: RegisterLayout, entries, lead=(), what="measurement operator"):
    """``entries`` read-only, checked in one pass as a stack of shape lead + (D, D)
    of effects on ``layout``: Hermitian with spectrum in [0, 1], to tolerance."""
    mat = frozen(entries, tuple(lead) + (layout.total_dim,) * 2, what)
    within(hermiticity_defect(mat), HERMITIAN_TOL, ValidationError, "effect is not Hermitian")
    evs = np.linalg.eigvalsh(mat)
    spill = np.max(np.maximum(-evs[..., 0], evs[..., -1] - 1.0))
    within(spill, PSD_TOL, ValidationError, "effect spectrum leaves [0, 1]")
    return mat


@dataclass(frozen=True)
class MeasurementOperator:
    """Hermitian effect with spectrum inside [0, 1] (up to tolerance)."""

    layout: RegisterLayout
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", checked_effects(self.layout, self.entries))

    @classmethod
    def identity(cls, layout: RegisterLayout) -> "MeasurementOperator":
        return cls(layout, np.eye(layout.total_dim))


@dataclass(frozen=True)
class Povm:
    """Effects on one layout that resolve the identity.

    ``effects[l]`` is the effect of outcome l: one read-only complex array of
    shape (L, D, D), checked as MeasurementOperator checks one effect.
    """

    layout: RegisterLayout
    effects: np.ndarray

    def __post_init__(self):
        if len(self.effects) == 0:
            raise ValidationError("POVM needs at least one element")
        lead = (len(self.effects),)
        effects = checked_effects(self.layout, self.effects, lead, "POVM effect")
        object.__setattr__(self, "effects", effects)
        defect = max_abs(sum(effects) - np.eye(self.layout.total_dim))
        within(defect, COMPLETENESS_TOL, ValidationError, "POVM effects do not sum to identity")

    def __len__(self) -> int:
        return len(self.effects)

    @classmethod
    def computational(cls, layout: RegisterLayout) -> "Povm":
        return cls(layout, basis_projectors(layout.total_dim))


def basis_projectors(dim: int) -> np.ndarray:
    """Stack of the computational-basis projectors |k><k|, k < dim."""
    eye = np.eye(dim)
    return eye[:, :, None] * eye[:, None, :]


# ---------------------------------------------------------------------------
# operations on typed objects


def hermitian_eig(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and matching orthonormal eigenvectors.

    Accepts a square array, or a stack of square arrays of shape (..., d, d),
    each decomposed on its own.  Column k of each returned matrix is the
    eigenvector for eigenvalue k.
    """
    mat = np.asarray(op, dtype=np.complex128)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    defect = hermiticity_defect(mat)
    within(defect, EIG_HERMITIAN_TOL, ValidationError, "matrix is not Hermitian")
    vals, vecs = np.linalg.eigh(mat)
    vals = vals[..., ::-1].copy()
    vecs = vecs[..., ::-1].copy()
    recon = max_abs((vecs * vals[..., None, :]) @ dagger(vecs) - mat)
    within(recon, EIG_RECONSTRUCT_TOL, NumericsError, "eigendecomposition does not reconstruct")
    return vals, vecs


def born_probability(effect: MeasurementOperator, rho: DensityMatrix) -> float:
    """tr(effect . rho) as a real number clamped into [0, 1]."""
    if effect.layout.dims != rho.layout.dims or effect.layout.names != rho.layout.names:
        raise LayoutError(
            f"effect layout {effect.layout.names} does not match state layout {rho.layout.names}"
        )
    p = float(np.trace(effect.entries @ rho.entries).real)
    within(max(-p, p - 1.0), PSD_TOL, NumericsError, "born probability {!r} escaped [0, 1]", p)
    return min(max(p, 0.0), 1.0)


def partial_transpose(rho: DensityMatrix, subsystem: str) -> np.ndarray:
    """Transpose one register in place; Hermitian but possibly not PSD."""
    layout = rho.layout
    axis = layout.axis(subsystem)
    n = len(layout.dims)
    tens = rho.entries.reshape(layout.dims + layout.dims)
    perm = list(range(2 * n))
    perm[axis], perm[n + axis] = perm[n + axis], perm[axis]
    d = layout.total_dim
    return np.ascontiguousarray(tens.transpose(perm).reshape(d, d))


# ---------------------------------------------------------------------------
# array-level helpers shared by the channel and protocol machinery


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(mats[0], dtype=np.complex128)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def reorder_array(mat: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Rows and columns of `mat` re-expressed with its registers in `order`.

    `dims` are the register dimensions as `mat` has them, and register
    order[p] moves to position p.  The entries are only moved, never
    combined, so the result is exact.
    """
    dims = tuple(dims)
    n = len(dims)
    order = list(order)
    if sorted(order) != list(range(n)):
        raise LayoutError(f"{order!r} is not a permutation of {n} axes")
    if order == list(range(n)):
        return mat
    d = math.prod(dims)
    perm = order + [n + a for a in order]
    return mat.reshape(dims + dims).transpose(perm).reshape(d, d)


def _restore(mat: np.ndarray, dims: Sequence[int], order: Sequence[int]) -> np.ndarray:
    """Inverse of reorder_array(., dims, order), as a contiguous array."""
    inverse = sorted(range(len(order)), key=list(order).__getitem__)
    return np.ascontiguousarray(reorder_array(mat, [dims[a] for a in order], inverse))


def _target_first(dims: Sequence[int], target_axes: Sequence[int]):
    """Register order (target, rest) and the two dimensions it splits into."""
    target = list(target_axes)
    order = target + [a for a in range(len(dims)) if a not in target]
    d_t = math.prod(dims[a] for a in target)
    return order, d_t, math.prod(dims) // d_t


def apply_kraus_array(
    rho: np.ndarray, dims: Sequence[int], kraus: Sequence[np.ndarray], target_axes: Sequence[int]
) -> np.ndarray:
    """Sum_k (K_k (x) I) rho (K_k (x) I)^dag on the listed axes (shape preserving).

    Each K_k acts on its target registers only, never embedded into the full
    space: with rows and columns of rho both reordered as (target, rest),
    K (x) I applied from the left is one product of K with rho reshaped to
    d_t rows.  X = (K (x) I) rho is transposed, so that the right factor
    becomes a left one, and conj(K) applied to it gives the transpose of
    (K (x) I) rho (K (x) I)^dag exactly, whether or not rho is Hermitian.
    The sum of those transposes is transposed once at the end.  Work per
    operator is 2 D^2 d_t instead of 2 D^3, and the operators are applied
    one at a time, so a few D x D arrays are live however many there are.
    """
    order, d_t, d_r = _target_first(dims, target_axes)
    d = d_t * d_r
    ks = [np.asarray(k, dtype=np.complex128) for k in kraus]
    for k in ks:
        if k.shape != (d_t, d_t):
            raise LayoutError(f"operator shape {k.shape} does not match target dims {d_t}")
    moved = reorder_array(rho, dims, order).reshape(d_t, -1)
    acc = np.zeros((d_t, d * d_r), dtype=np.complex128)
    for k in ks:
        half = (k @ moved).reshape(d, d)
        acc += k.conj() @ half.T.reshape(d_t, -1)
    return _restore(acc.reshape(d, d).T, dims, order)


def adjoint_kraus_array(effect: np.ndarray, kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Sum_k K_k^dag E K_k: the Heisenberg-picture image of E on the input space.

    The operators may be rectangular (output x input), and E lives on their
    output space, as one d_out x d_out matrix.  tr(E . sum_k K_k rho K_k^dag)
    = tr(image . rho).
    """
    out = np.zeros((kraus[0].shape[1],) * 2, dtype=np.complex128)
    for k in kraus:
        out += dagger(k) @ effect @ k
    return out


def dephase_axes(rho: np.ndarray, dims: Sequence[int], axes: Sequence[int]) -> np.ndarray:
    """Zero every element off-diagonal in the computational basis of `axes`."""
    order, d_t, d_r = _target_first(dims, axes)
    shaped = reorder_array(rho, dims, order).reshape(d_t, d_r, d_t, d_r)
    shaped = shaped * np.eye(d_t)[:, None, :, None]
    return _restore(shaped.reshape(d_t * d_r, -1), dims, order)


def measure_array(
    rho: np.ndarray, dims: Sequence[int], effects: Sequence[np.ndarray], axes: Sequence[int]
) -> np.ndarray:
    """Stack of the blocks tr_t[(E_l (x) I) rho] on the registers outside `axes`.

    The effects' tensor factors are matched to `axes` positionally; the
    blocks keep the other registers in layout order (1 x 1 when there are
    none).  With rho arranged as (t, t') x (r, r'), the blocks are one
    product with the stacked transposed effects: work 2 L D^2 for L
    effects, whether or not rho is Hermitian.
    """
    order, d_t, d_r = _target_first(dims, axes)
    eff = np.asarray(effects, dtype=np.complex128)
    if eff.shape[1:] != (d_t, d_t):
        raise LayoutError(f"effects of shape {eff.shape} do not match target dims {d_t}")
    moved = reorder_array(rho, dims, order).reshape(d_t, d_r, d_t, d_r).transpose(0, 2, 1, 3)
    flat = eff.transpose(0, 2, 1).reshape(len(eff), -1)
    return (flat @ moved.reshape(d_t * d_t, -1)).reshape(-1, d_r, d_r)


def prepare_array(
    blocks: np.ndarray, dims: Sequence[int], preps: Sequence[np.ndarray], axes: Sequence[int]
) -> np.ndarray:
    """Sum_l |phi_l><phi_l| (x) blocks[l], with phi_l written on `axes`.

    The inverse arrangement of measure_array: `dims` is the output layout,
    the vectors' tensor factors are matched to `axes` positionally, and
    blocks[l] lives on the other registers in layout order.  One product of
    the stacked projectors with the stacked blocks: work 2 L D^2.
    """
    order, d_t, d_r = _target_first(dims, axes)
    phis = np.asarray(preps, dtype=np.complex128)
    blocks = np.asarray(blocks)
    if phis.shape[1:] != (d_t,) or blocks.shape != (len(phis), d_r, d_r):
        raise LayoutError(f"vectors {phis.shape} and blocks {blocks.shape} do not fit {d_t}, {d_r}")
    projectors = (phis[:, :, None] * phis[:, None, :].conj()).reshape(len(phis), -1)
    pairs = (projectors.T @ blocks.reshape(len(phis), -1)).reshape(d_t, d_t, d_r, d_r)
    return _restore(pairs.transpose(0, 2, 1, 3).reshape(d_t * d_r, -1), dims, order)
