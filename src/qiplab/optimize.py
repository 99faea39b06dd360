"""Optimal prover values for measurement families and protocol specs.

Four solvers, by strategy class: exact enumeration for classical-response
provers (the value is an eigenvalue once the response map is fixed), an
alternating see-saw lower bound for entangled provers, a Fibonacci-net
brute force over pure qubit openings realizing the threshold decision
procedure, and a subsampling experiment measuring how well a small random
multiset of challenges approximates the uniform value.  majority_amplify
does the parallel-repetition bookkeeping exactly.

Everything is deterministic given a seed: per-restart and per-trial RNG
streams derive from independent seed paths, and restarts and trials run
one after another in index order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    BudgetError,
    NumericsError,
    ResolutionError,
    ValidationError,
)
from .protocol import MeasurementFamily, ProtocolSpec, joint_response_operators
from .qmath import PureState, dagger, hermitian_eig
from .utils import derived_rng

ENUMERATION_BUDGET = 10**6
NET_RESOLUTION_BUDGET = 10**5
# Largest keep_dim * d_m the see-saw accepts: every iteration of every
# restart diagonalizes a dense matrix of that size (about 40 ms at 256 and
# 1.5 s at 1024 on a 2-core host, for up to max_iters * restarts iterations).
SEESAW_DIMENSION_BUDGET = 256
ITERATE_MONOTONE_TOL = 1e-12
VALUE_RANGE_TOL = 1e-9
RESPONSE_ALPHABET_CAP = 8
# Response maps evaluated together by the exhaustive and the net search.
RESPONSE_MAP_BLOCK = 512


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    max_iters: int = 500
    convergence_tol: float = 1e-9
    seed: int = 0
    net_resolution: int = 2000

    def __post_init__(self):
        if self.restarts < 1:
            raise ValidationError(f"restarts must be >= 1, got {self.restarts}")
        if self.max_iters < 1:
            raise ValidationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.convergence_tol > 0:
            raise ValidationError(f"convergence_tol must be > 0, got {self.convergence_tol}")
        if self.net_resolution < 4:
            raise ValidationError(f"net_resolution must be >= 4, got {self.net_resolution}")


@dataclass(frozen=True)
class ValueReport:
    """Best value found, the strategy achieving it, and the search trace."""

    value: float
    witness: dict
    iterates: tuple[tuple[float, ...], ...]
    method: str
    net_error: float | None = None

    def __post_init__(self):
        if not -VALUE_RANGE_TOL <= self.value <= 1 + VALUE_RANGE_TOL:
            raise NumericsError(f"value {self.value!r} escaped [0, 1]")
        object.__setattr__(self, "value", min(max(self.value, 0.0), 1.0))
        for run in self.iterates:
            for prev, cur in zip(run, run[1:]):
                if cur < prev - ITERATE_MONOTONE_TOL:
                    raise NumericsError(
                        f"iterate sequence decreased from {prev!r} to {cur!r}"
                    )
        if self.net_error is not None and self.net_error < 0:
            raise NumericsError(f"negative net error {self.net_error!r}")


class SubsampleReport(NamedTuple):
    m: int
    r: int
    eps: float
    trials: int
    lhs_value: float
    rhs_values: tuple[float, ...]
    deviations: tuple[float, ...]
    failure_fraction: float


class DecisionReport(NamedTuple):
    accepted: bool
    value: float
    threshold: float
    net_error: float


def uniform_weights(fam: MeasurementFamily) -> dict[str, float]:
    return {y: 1.0 / len(fam.challenges) for y in fam.challenges}


def _weight_vector(fam: MeasurementFamily, weights: Mapping[str, float] | None) -> np.ndarray:
    if weights is None:
        weights = uniform_weights(fam)
    if set(weights) != set(fam.challenges):
        raise ValidationError("weights must cover exactly the challenge alphabet")
    w = np.array([float(weights[y]) for y in fam.challenges])
    if not np.all(np.isfinite(w)):
        raise ValidationError(f"weights must be finite, got {w.tolist()!r}")
    if np.any(w < -1e-12):
        raise ValidationError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError(f"weights must sum to 1, got {w.sum()!r}")
    return np.clip(w, 0.0, None)


def _family_array(fam: MeasurementFamily) -> np.ndarray:
    d = fam.layout.total_dim
    arr = np.empty((len(fam.challenges), len(fam.responses), d, d), dtype=np.complex128)
    for i, y in enumerate(fam.challenges):
        for j, z in enumerate(fam.responses):
            arr[i, j] = fam.op(y, z).entries
    return arr


def _check_enumeration_budget(fam: MeasurementFamily):
    count = len(fam.responses) ** len(fam.challenges)
    if count > ENUMERATION_BUDGET:
        raise BudgetError(
            f"{len(fam.responses)}^{len(fam.challenges)} response maps exceed "
            f"the enumeration budget {ENUMERATION_BUDGET}"
        )


def _response_map_blocks(arr: np.ndarray):
    """Yield every response map g in lexicographic order, in blocks.

    Each block is a list of tables (tuples of response indices, one per
    challenge) and the stacked operators sum_y arr[y, g(y)], one per table.
    """
    n_y, n_z = arr.shape[:2]
    y_index = np.arange(n_y)
    tables = itertools.product(range(n_z), repeat=n_y)
    while block := list(itertools.islice(tables, RESPONSE_MAP_BLOCK)):
        yield block, arr[y_index[None, :], np.array(block)].sum(axis=1)


def exact_classical_response_value(
    fam: MeasurementFamily, weights: Mapping[str, float] | None = None
) -> ValueReport:
    """Exact optimum over response maps g and opening states.

    The state enters only through the challenge-averaged operator, so for
    each g the best opening is the top eigenvector of E_y M_{y,g(y)} and the
    search over g is exhaustive (weights default to uniform).
    """
    _check_enumeration_budget(fam)
    w = _weight_vector(fam, weights)
    arr = _family_array(fam) * w[:, None, None, None]
    best_value = -np.inf
    best_table: tuple[int, ...] | None = None
    for block, stacked in _response_map_blocks(arr):
        tops = np.linalg.eigvalsh(stacked)[:, -1]
        i = int(np.argmax(tops))
        if tops[i] > best_value:
            best_value = float(tops[i])
            best_table = block[i]
    averaged = arr[np.arange(len(fam.challenges)), list(best_table)].sum(axis=0)
    vals, vecs = hermitian_eig(averaged)
    witness = {
        "responses": {y: fam.responses[z] for y, z in zip(fam.challenges, best_table)},
        "state": PureState(fam.layout, vecs[:, 0]),
    }
    return ValueReport(float(vals[0]), witness, (), "exhaustive")


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + dagger(mat)) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ dagger(vecs)


def _nonneg_eigenspace_projector(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + dagger(mat)) / 2)
    keep = vecs[:, vals >= 0]
    return keep @ dagger(keep)


def _measurement_step(povms, steering):
    """One coordinate-ascent sweep of the response POVM for one challenge.

    Binary alphabets get the closed-form optimum; larger ones sweep ordered
    pairs, reoptimizing each pair inside its combined budget R.
    """
    n_z = len(povms)
    if n_z == 1:
        return povms
    if n_z == 2:
        proj = _nonneg_eigenspace_projector(steering[0] - steering[1])
        return [proj, np.eye(proj.shape[0]) - proj]
    povms = [p.copy() for p in povms]
    for i, j in itertools.combinations(range(n_z), 2):
        budget = povms[i] + povms[j]
        root = _psd_sqrt(budget)
        inner = _nonneg_eigenspace_projector(root @ (steering[i] - steering[j]) @ root)
        a_i = root @ inner @ root
        povms[i] = (a_i + dagger(a_i)) / 2
        povms[j] = budget - povms[i]
    return povms


def _seesaw_restart(fam_arr, w, dim_keep, cfg, restart):
    n_y, n_z, d_m, _ = fam_arr.shape
    rng = derived_rng(cfg.seed, "seesaw", restart)
    raw = rng.normal(size=dim_keep * d_m) + 1j * rng.normal(size=dim_keep * d_m)
    psi = raw / np.linalg.norm(raw)
    povms = None
    iterates: list[float] = []
    for _ in range(cfg.max_iters):
        window = psi.reshape(dim_keep, d_m)
        new_povms = []
        for i in range(n_y):
            steering = [window @ fam_arr[i, j].T @ dagger(window) for j in range(n_z)]
            current = povms[i] if povms is not None else [
                np.eye(dim_keep, dtype=np.complex128) / n_z for _ in range(n_z)
            ]
            new_povms.append(_measurement_step(current, steering))
        povms = new_povms
        stacked = np.zeros((dim_keep * d_m,) * 2, dtype=np.complex128)
        for i in range(n_y):
            for j in range(n_z):
                stacked += w[i] * np.kron(povms[i][j], fam_arr[i, j])
        vals, vecs = np.linalg.eigh((stacked + dagger(stacked)) / 2)
        psi = vecs[:, -1]
        value = float(vals[-1])
        previous = iterates[-1] if iterates else None
        iterates.append(value)
        if previous is not None and value - previous < cfg.convergence_tol:
            break
    return iterates[-1], tuple(iterates), psi, povms


def seesaw_entangled_value(
    fam: MeasurementFamily,
    weights: Mapping[str, float] | None = None,
    config: OptimizerConfig | None = None,
    keep_dim: int | None = None,
) -> ValueReport:
    """Lower bound on the entangled-prover value by alternating maximization.

    The prover keeps a register of dimension keep_dim (defaults to M's) and
    answers challenge y by measuring a POVM on it.  Fixing the POVMs, the
    best shared state is the top eigenvector of the averaged operator;
    fixing the state, each challenge's POVM is reoptimized coordinate-wise.
    Both steps are monotone, so each restart's trace is non-decreasing.
    """
    cfg = config or OptimizerConfig()
    if len(fam.responses) > RESPONSE_ALPHABET_CAP:
        raise BudgetError(
            f"response alphabets above {RESPONSE_ALPHABET_CAP} are not supported"
        )
    w = _weight_vector(fam, weights)
    fam_arr = _family_array(fam)
    dim_keep = fam.layout.total_dim if keep_dim is None else int(keep_dim)
    if dim_keep < 1:
        raise ValidationError(f"keep_dim must be >= 1, got {keep_dim}")
    if dim_keep * fam.layout.total_dim > SEESAW_DIMENSION_BUDGET:
        raise BudgetError(
            f"keep_dim {dim_keep} times message dimension {fam.layout.total_dim} exceeds "
            f"the see-saw budget {SEESAW_DIMENSION_BUDGET}"
        )
    runs = [_seesaw_restart(fam_arr, w, dim_keep, cfg, r) for r in range(cfg.restarts)]
    best = max(range(cfg.restarts), key=lambda r: runs[r][0])
    value, _, psi, povms = runs[best]
    witness = {
        "state": psi,
        "povms": {
            y: tuple(povms[i][j] for j in range(len(fam.responses)))
            for i, y in enumerate(fam.challenges)
        },
    }
    return ValueReport(value, witness, tuple(run[1] for run in runs), "seesaw")


def fibonacci_sphere_states(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n spread points on the Bloch sphere and the matching qubit states."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    sin_theta = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    points = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), z], axis=1)
    half = np.arccos(np.clip(z, -1.0, 1.0)) / 2
    states = np.stack([np.cos(half), np.exp(1j * phi) * np.sin(half)], axis=1)
    return points, states.astype(np.complex128)


def net_covering_error(points: np.ndarray) -> float:
    """sin(alpha/2) for the net's covering angle alpha, the worst-case drop
    of <psi|A|psi> (0 <= A <= I) between any state and its nearest net point.

    The covering angle is attained at a spherical Voronoi vertex.  For unit
    points each facet of the convex hull is a spherical Delaunay triangle
    whose unit outward normal is a Voronoi vertex, and that vertex's nearest
    net points are the facet's own corners, so the bound needs O(N) memory.
    """
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(points)
    except QhullError as exc:
        raise NumericsError(f"net points span no convex hull: {exc}") from exc
    if not np.all(hull.equations[:, 3] < 0):
        # the centre is not strictly inside, so the points fit in a hemisphere
        # and the facet normals are not the Voronoi vertices
        raise NumericsError("net points do not surround the centre of the sphere")
    normals = hull.equations[:, :3]
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    facet_cos = np.einsum("fk,fck->fc", normals, points[hull.simplices]).max(axis=1)
    alpha = float(np.arccos(np.clip(facet_cos.min(), -1.0, 1.0)))
    return math.sin(alpha / 2)


def brute_force_unentangled_value(
    spec: ProtocolSpec, config: OptimizerConfig | None = None
) -> ValueReport:
    """Net-and-enumerate optimum over canonical provers with one-qubit M.

    Extracts the joint response effects, forms the acceptance operator of
    every deterministic response map, and scans a Fibonacci net of pure
    opening states; the reported net error bounds the shortfall from the
    true canonical optimum.
    """
    cfg = config or OptimizerConfig()
    d = spec.m_layout.total_dim
    if d != 2:
        raise BudgetError(f"net search supports one-qubit messages only, got dim {d}")
    if cfg.net_resolution > NET_RESOLUTION_BUDGET:
        raise BudgetError(
            f"net resolution {cfg.net_resolution} exceeds the budget {NET_RESOLUTION_BUDGET}"
        )
    fam = joint_response_operators(spec)
    _check_enumeration_budget(fam)
    points, states = fibonacci_sphere_states(cfg.net_resolution)
    best_value = -np.inf
    best_table: tuple[int, ...] | None = None
    best_state = 0
    for block, stacked in _response_map_blocks(_family_array(fam)):
        eigs = np.linalg.eigvalsh(stacked)
        if eigs.min() < -VALUE_RANGE_TOL or eigs.max() > 1 + VALUE_RANGE_TOL:
            raise NumericsError("a response map's acceptance operator escaped [0, I]")
        values = np.einsum("nd,kde,ne->kn", states.conj(), stacked, states, optimize=True).real
        flat = int(np.argmax(values))
        g_idx, s_idx = divmod(flat, cfg.net_resolution)
        if values[g_idx, s_idx] > best_value:
            best_value = float(values[g_idx, s_idx])
            best_table = block[g_idx]
            best_state = s_idx
    witness = {
        "responses": {
            y: fam.responses[z] for y, z in zip(fam.challenges, best_table)
        },
        "state": states[best_state],
    }
    return ValueReport(
        best_value, witness, (), "net", net_error=net_covering_error(points)
    )


def nexp_decide(
    spec: ProtocolSpec, c: float, s: float, config: OptimizerConfig | None = None
) -> DecisionReport:
    """Threshold decision: accept iff the net optimum clears (c + s) / 2.

    Demands net error below a quarter of the gap so the verdict is stable
    against the net's worst-case shortfall.
    """
    if not 0.0 <= s < c <= 1.0:
        raise ValidationError(f"need 0 <= s < c <= 1, got c={c!r}, s={s!r}")
    report = brute_force_unentangled_value(spec, config)
    quarter_gap = (c - s) / 4
    if report.net_error >= quarter_gap:
        raise ResolutionError(
            f"net error {report.net_error!r} is not below the quarter gap {quarter_gap!r}; "
            "raise net_resolution"
        )
    threshold = (c + s) / 2
    return DecisionReport(report.value >= threshold, report.value, threshold, report.net_error)


def subsampling_experiment(
    fam: MeasurementFamily,
    r: int,
    eps: float,
    trials: int,
    seed: int,
) -> SubsampleReport:
    """Deviation between the uniform value and r-sample empirical values.

    Each trial draws r challenges with replacement, recomputes the exact
    classical-response value under the empirical challenge distribution,
    and records |LHS - RHS|; the failure fraction counts deviations > eps.
    """
    if r < 1:
        raise ValidationError(f"r must be >= 1, got {r}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not eps > 0:
        raise ValidationError(f"eps must be > 0, got {eps}")
    lhs = exact_classical_response_value(fam, None).value
    rhs_values = []
    for trial in range(trials):
        rng = derived_rng(seed, "subsample", r, trial)
        draws = rng.integers(0, len(fam.challenges), size=r)
        counts = np.bincount(draws, minlength=len(fam.challenges))
        empirical = {y: counts[i] / r for i, y in enumerate(fam.challenges)}
        rhs_values.append(exact_classical_response_value(fam, empirical).value)
    deviations = tuple(abs(lhs - rhs) for rhs in rhs_values)
    failures = sum(1 for d in deviations if d > eps)
    return SubsampleReport(
        m=len(fam.challenges[0]),
        r=r,
        eps=eps,
        trials=trials,
        lhs_value=lhs,
        rhs_values=tuple(rhs_values),
        deviations=deviations,
        failure_fraction=failures / trials,
    )


def majority_amplify(p: float, k: int) -> float:
    """Probability that a Binomial(k, p) draw exceeds k/2, summed exactly."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be in [0, 1], got {p!r}")
    if k < 1 or k % 2 == 0:
        raise ValidationError(f"k must be a positive odd count, got {k}")
    terms = [
        math.comb(k, j) * p**j * (1.0 - p) ** (k - j) for j in range(k // 2 + 1, k + 1)
    ]
    return min(max(math.fsum(terms), 0.0), 1.0)


def hoeffding_floor(p: float, k: int) -> float:
    """1 - exp(-2k(p - 1/2)^2), a lower bound on majority success for p > 1/2."""
    return 1.0 - math.exp(-2.0 * k * (p - 0.5) ** 2)
