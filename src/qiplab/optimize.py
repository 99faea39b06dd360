"""Optimal prover values for measurement families and protocol specs.

Four solvers, by strategy class: exact enumeration for classical-response
provers (the value is an eigenvalue once the response map is fixed), an
alternating see-saw lower bound for entangled provers, a Fibonacci-net
brute force over pure qubit openings realizing the threshold decision
procedure, and a subsampling experiment measuring how well a small random
multiset of challenges approximates the uniform value.  majority_amplify
does the parallel-repetition bookkeeping exactly.

Everything is deterministic given a seed: per-restart and per-trial RNG
streams derive from independent seed paths.  The solvers work on stacks:
the exhaustive search diagonalizes a block of response maps at once, the
subsampling trials are rows of one weight stack evaluated together with
the uniform row, and the see-saw restarts advance in lockstep, a restart
leaving the stack once it stops.  Each matrix in a stack goes through the
same LAPACK and BLAS calls, in the same order, as it would alone, so the
results do not depend on how many restarts, trials or maps share a stack.
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
# Largest see-saw restart count, subsampling trial count, and number of
# challenges drawn over all trials (r * trials, one trial's draws being one
# array of r integers).  On CHSH on a 2-core host the largest accepted runs
# take about 3.3 s (2**15 restarts), 2.7 s (5 * 10**4 trials) and 0.2 s
# (10**7 draws, 80 MB for a single trial's draws).
SEESAW_RESTART_BUDGET = 2**15
SUBSAMPLE_TRIAL_BUDGET = 5 * 10**4
SUBSAMPLE_DRAW_BUDGET = 10**7
ITERATE_MONOTONE_TOL = 1e-12
VALUE_RANGE_TOL = 1e-9
RESPONSE_ALPHABET_CAP = 8
# Elements (16 MB of complex128) of the largest intermediate one stack of
# response maps, weight rows or see-saw restarts may have; longer stacks are
# cut into chunks, so memory does not grow with maps, trials or restarts.
STACK_ELEMENTS = 2**20


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
        object.__setattr__(self, "value", _unit_value(self.value))
        for run in self.iterates:
            for prev, cur in zip(run, run[1:]):
                if cur < prev - ITERATE_MONOTONE_TOL:
                    raise NumericsError(
                        f"iterate sequence decreased from {prev!r} to {cur!r}"
                    )
        if self.net_error is not None and self.net_error < 0:
            raise NumericsError(f"negative net error {self.net_error!r}")


def _unit_value(value: float) -> float:
    """A prover value clamped into [0, 1]; more than VALUE_RANGE_TOL outside is a fault."""
    if not -VALUE_RANGE_TOL <= value <= 1 + VALUE_RANGE_TOL:
        raise NumericsError(f"value {value!r} escaped [0, 1]")
    return min(max(value, 0.0), 1.0)


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


def _chunks(count: int, elements_each: int):
    """Consecutive slices of range(count) whose items hold at most
    STACK_ELEMENTS elements together (at least one item each)."""
    step = max(1, STACK_ELEMENTS // elements_each)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _response_map_blocks(n_y: int, n_z: int, elements_each: int):
    """Every response map g in lexicographic order, as blocks of tables.

    Each block is an int array with one row (g(y) for each challenge y) per
    map, and at most STACK_ELEMENTS // elements_each rows (at least one).
    """
    tables = itertools.product(range(n_z), repeat=n_y)
    step = max(1, STACK_ELEMENTS // elements_each)
    while block := list(itertools.islice(tables, step)):
        yield np.array(block, dtype=np.intp)


def _exact_values(fam: MeasurementFamily, weights: np.ndarray):
    """Exact classical-response optimum for each row of challenge weights.

    Returns each row's value, its best response table (the lowest map index
    on ties) and the top eigenvector of that table's averaged operator.
    """
    arr = _family_array(fam)
    n_y, n_z, d, _ = arr.shape
    n_rows = len(weights)
    y_index = np.arange(n_y)
    values = np.empty(n_rows)
    tables = np.zeros((n_rows, n_y), dtype=np.intp)
    states = np.empty((n_rows, d), dtype=np.complex128)
    for rows in _chunks(n_rows, n_y * d * d):
        w = weights[rows, None, :, None, None]
        index = np.arange(len(w))
        best = np.full(len(w), -np.inf)
        averaged = np.empty((len(w), d, d), dtype=np.complex128)
        for block in _response_map_blocks(n_y, n_z, len(w) * n_y * d * d):
            stacked = (arr[y_index, block] * w).sum(axis=2)
            tops = np.linalg.eigvalsh(stacked)[..., -1]
            winner = np.argmax(tops, axis=1)
            top = tops[index, winner]
            better = top > best
            best[better] = top[better]
            tables[rows][better] = block[winner[better]]
            averaged[better] = stacked[better, winner[better]]
        vals, vecs = hermitian_eig(averaged)
        values[rows] = vals[:, 0]
        states[rows] = vecs[:, :, 0]
    return values, tables, states


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
    values, tables, states = _exact_values(fam, w[None, :])
    witness = {
        "responses": {y: fam.responses[z] for y, z in zip(fam.challenges, tables[0])},
        "state": PureState(fam.layout, states[0]),
    }
    return ValueReport(float(values[0]), witness, (), "exhaustive")


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + dagger(mat)) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)[..., None, :]) @ dagger(vecs)


def _nonneg_eigenspace_projector(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((mat + dagger(mat)) / 2)
    out = np.empty_like(vecs)
    kept = np.count_nonzero(vals >= 0, axis=-1)
    # eigh sorts ascending, so the kept eigenvectors are the last columns;
    # matrices keeping equally many share one product of that width
    for width in np.unique(kept):
        same = kept == width
        keep = np.ascontiguousarray(vecs[same][..., vecs.shape[-1] - width :])
        out[same] = keep @ dagger(keep)
    return out


def _measurement_step(povms: np.ndarray, steering: np.ndarray) -> np.ndarray:
    """One coordinate-ascent sweep of every response POVM in the stack.

    ``povms`` and ``steering`` have shape (..., n_z, k, k), one POVM per
    leading index.  Binary alphabets get the closed-form optimum; larger
    ones sweep ordered pairs, reoptimizing each pair inside its combined
    budget R.
    """
    n_z = povms.shape[-3]
    if n_z == 1:
        return povms
    if n_z == 2:
        proj = _nonneg_eigenspace_projector(steering[..., 0, :, :] - steering[..., 1, :, :])
        return np.stack([proj, np.eye(proj.shape[-1]) - proj], axis=-3)
    povms = povms.copy()
    for i, j in itertools.combinations(range(n_z), 2):
        budget = povms[..., i, :, :] + povms[..., j, :, :]
        root = _psd_sqrt(budget)
        inner = _nonneg_eigenspace_projector(
            root @ (steering[..., i, :, :] - steering[..., j, :, :]) @ root
        )
        a_i = root @ inner @ root
        povms[..., i, :, :] = (a_i + dagger(a_i)) / 2
        povms[..., j, :, :] = budget - povms[..., i, :, :]
    return povms


def _seesaw_lockstep(fam_arr, w, dim_keep, cfg, restarts: range):
    """Run the given restarts side by side until each one stops.

    Every iteration updates the POVMs and the shared state of all running
    restarts in one stack; a restart whose gain falls below the convergence
    tolerance (or that reaches max_iters) leaves the stack with its trace,
    final state and POVMs.
    """
    n_y, n_z, d_m, _ = fam_arr.shape
    dim = dim_keep * d_m
    starts = []
    for restart in restarts:
        rng = derived_rng(cfg.seed, "seesaw", restart)
        raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        starts.append(raw / np.linalg.norm(raw))
    psi = np.stack(starts)
    povms = np.broadcast_to(
        np.eye(dim_keep, dtype=np.complex128) / n_z,
        (len(restarts), n_y, n_z, dim_keep, dim_keep),
    )
    running = np.arange(len(restarts))
    traces: list[list[float]] = [[] for _ in restarts]
    finals: list = [None] * len(restarts)
    previous = None
    for iteration in range(cfg.max_iters):
        window = psi.reshape(-1, 1, 1, dim_keep, d_m)
        steering = (window @ fam_arr.swapaxes(-1, -2)) @ dagger(window)
        povms = _measurement_step(povms, steering)
        averaged = np.zeros((len(running), dim, dim), dtype=np.complex128)
        for i in range(n_y):
            for j in range(n_z):
                kron = povms[:, i, j, :, None, :, None] * fam_arr[i, j, None, :, None, :]
                averaged += w[i] * kron.reshape(-1, dim, dim)
        vals, vecs = np.linalg.eigh((averaged + dagger(averaged)) / 2)
        psi = vecs[:, :, -1]
        values = vals[:, -1]
        for r, value in zip(running, values.tolist()):
            traces[r].append(value)
        if previous is None:
            converged = np.zeros(len(running), dtype=bool)
        else:
            converged = values - previous < cfg.convergence_tol
        stopped = converged | (iteration == cfg.max_iters - 1)
        for k in np.flatnonzero(stopped):
            finals[running[k]] = (psi[k].copy(), povms[k].copy())
        keep = ~stopped
        running, psi, povms, previous = running[keep], psi[keep], povms[keep], values[keep]
        if not len(running):
            break
    return traces, finals


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
    The restarts run in lockstep, in chunks of at most STACK_ELEMENTS.
    """
    cfg = config or OptimizerConfig()
    if len(fam.responses) > RESPONSE_ALPHABET_CAP:
        raise BudgetError(
            f"response alphabets above {RESPONSE_ALPHABET_CAP} are not supported"
        )
    if cfg.restarts > SEESAW_RESTART_BUDGET:
        raise BudgetError(
            f"{cfg.restarts} restarts exceed the see-saw restart budget {SEESAW_RESTART_BUDGET}"
        )
    w = _weight_vector(fam, weights)
    fam_arr = _family_array(fam)
    dim_keep = fam.layout.total_dim if keep_dim is None else int(keep_dim)
    if dim_keep < 1:
        raise ValidationError(f"keep_dim must be >= 1, got {keep_dim}")
    d_m = fam.layout.total_dim
    if dim_keep * d_m > SEESAW_DIMENSION_BUDGET:
        raise BudgetError(
            f"keep_dim {dim_keep} times message dimension {d_m} exceeds "
            f"the see-saw budget {SEESAW_DIMENSION_BUDGET}"
        )
    n_y, n_z = len(fam.challenges), len(fam.responses)
    per_restart = max((dim_keep * d_m) ** 2, n_y * n_z * dim_keep * max(dim_keep, d_m))
    traces: list[list[float]] = []
    finals: list = []
    for chunk in _chunks(cfg.restarts, per_restart):
        chunk_traces, chunk_finals = _seesaw_lockstep(
            fam_arr, w, dim_keep, cfg, range(cfg.restarts)[chunk]
        )
        traces += chunk_traces
        finals += chunk_finals
    best = max(range(cfg.restarts), key=lambda r: traces[r][-1])
    psi, povms = finals[best]
    witness = {
        "state": psi,
        "povms": {
            y: tuple(povms[i][j] for j in range(n_z)) for i, y in enumerate(fam.challenges)
        },
    }
    return ValueReport(
        traces[best][-1], witness, tuple(tuple(trace) for trace in traces), "seesaw"
    )


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
    arr = _family_array(fam)
    n_y, n_z = arr.shape[:2]
    y_index = np.arange(n_y)
    best_value = -np.inf
    best_table = None
    best_state = 0
    for block in _response_map_blocks(n_y, n_z, cfg.net_resolution * d):
        stacked = arr[y_index, block].sum(axis=1)
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
    The uniform weights and every trial's empirical weights are rows of
    one stack, solved together.
    """
    if r < 1:
        raise ValidationError(f"r must be >= 1, got {r}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if not eps > 0:
        raise ValidationError(f"eps must be > 0, got {eps}")
    if trials > SUBSAMPLE_TRIAL_BUDGET:
        raise BudgetError(
            f"{trials} trials exceed the subsampling trial budget {SUBSAMPLE_TRIAL_BUDGET}"
        )
    if r * trials > SUBSAMPLE_DRAW_BUDGET:
        raise BudgetError(
            f"r={r} times {trials} trials exceeds the subsampling draw budget "
            f"{SUBSAMPLE_DRAW_BUDGET}"
        )
    _check_enumeration_budget(fam)
    n_y = len(fam.challenges)
    weights = np.empty((trials + 1, n_y))
    weights[0] = _weight_vector(fam, None)
    for trial in range(trials):
        rng = derived_rng(seed, "subsample", r, trial)
        draws = rng.integers(0, n_y, size=r)
        weights[trial + 1] = np.bincount(draws, minlength=n_y) / r
    values, _, _ = _exact_values(fam, weights)
    lhs, *rhs_values = (_unit_value(v) for v in values.tolist())
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
