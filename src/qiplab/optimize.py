"""Optimal prover values for measurement families and protocol specs.

Four solvers, by strategy class: exact enumeration for classical-response
provers (the value is an eigenvalue once the response map is fixed), an
alternating see-saw lower bound for entangled provers, a Fibonacci-net
brute force over pure qubit openings realizing the threshold decision
procedure, and a subsampling experiment measuring how well a small random
multiset of challenges approximates the uniform value.  majority_amplify
does the parallel-repetition bookkeeping exactly.

Every solver reads a family as one array, MeasurementFamily.effects of
shape (n_y, n_z, d, d).  Response maps (one response per challenge) are
enumerated by their digits: map g's table is the base-n_z digits of g.

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
from .protocol import (
    VALUE_RANGE_TOL,
    MeasurementFamily,
    ProtocolSpec,
    checked_probability,
    joint_response_operators,
)
from .qmath import PureState, dagger, hermitian_eig
from .utils import checked_int, checked_seed, derived_rng

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
# Largest k majority_amplify accepts: the largest odd k whose binomial
# coefficients all fit a double (comb(1031, 515) is past 1.8e308).
AMPLIFY_K_BUDGET = 1029
ITERATE_MONOTONE_TOL = 1e-12
# How far below zero a weight may be as rounding; it is then clipped to 0.
WEIGHT_SIGN_TOL = 1e-12
# How far weights may sum from 1: weights written as decimals miss it by ulps.
WEIGHT_SUM_TOL = 1e-9
# How far the net's solid angles may sum from one covering: 2N - 4 rounded terms.
COVERING_COUNT_TOL = 1e-9
RESPONSE_ALPHABET_CAP = 8
# Elements (16 MB of complex128) of the largest intermediate one stack of
# response maps, weight rows or see-saw restarts may have; longer stacks are
# cut into chunks, so memory does not grow with maps, trials or restarts.
STACK_ELEMENTS = 2**20
# Rows the covering bound takes at once: candidate triangles and their
# lattice determinants in _fibonacci_triangles, triangles and paired edges in
# _certify_delaunay.  Each of a block's few dozen float64 temporaries is then
# 16 KB, so the blocks reuse the same heap memory call after call instead of
# faulting in fresh pages for net-sized temporaries.  Of 2**10 to 2**13, this
# size made as few page faults as any and took the least CPU per call at
# N = 5000 on a 2-core host.
NET_BLOCK_ELEMENTS = 2**11


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    max_iters: int = 500
    convergence_tol: float = 1e-9
    seed: int = 0
    net_resolution: int = 2000

    def __post_init__(self):
        for name in ("restarts", "max_iters", "net_resolution"):
            object.__setattr__(self, name, checked_int(getattr(self, name), name))
        object.__setattr__(self, "seed", checked_seed(self.seed))
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
        object.__setattr__(self, "value", checked_probability(self.value))
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
    if np.any(w < -WEIGHT_SIGN_TOL):
        raise ValidationError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(f"weights must sum to 1, got {w.sum()!r}")
    return np.clip(w, 0.0, None)


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


def _blocks(rows: np.ndarray):
    """Consecutive slices of the array ``rows``, NET_BLOCK_ELEMENTS rows each
    (the last one shorter)."""
    for start in range(0, len(rows), NET_BLOCK_ELEMENTS):
        yield rows[start : start + NET_BLOCK_ELEMENTS]


def _response_tables(n_y: int, n_z: int, maps: slice) -> np.ndarray:
    """The tables of the response maps with indices in ``maps``, one row
    (g(y) for each challenge y) per map.  Map g's row is the base-n_z digits
    of g, most significant first, so the rows run in itertools.product order.
    """
    g = np.arange(maps.start, maps.stop, dtype=np.intp)[:, None]
    return g // n_z ** np.arange(n_y - 1, -1, -1, dtype=np.intp) % n_z


def _exact_values(fam: MeasurementFamily, weights: np.ndarray):
    """Exact classical-response optimum for each row of challenge weights.

    Returns each row's value, its best response table (the lowest map index
    on ties) and the top eigenvector of that table's averaged operator.
    """
    arr = fam.effects
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
        for maps in _chunks(n_z**n_y, len(w) * n_y * d * d):
            block = _response_tables(n_y, n_z, maps)
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
    leading index.  Binary alphabets get the closed-form optimum; other
    ones sweep each pair of responses, reoptimizing it inside its combined
    budget R (one response has no pair, so its POVM comes back as is).
    """
    n_z = povms.shape[-3]
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
    n_y, n_z, d_m, _ = fam.effects.shape
    dim_keep = d_m if keep_dim is None else checked_int(keep_dim, "keep_dim")
    if dim_keep < 1:
        raise ValidationError(f"keep_dim must be >= 1, got {keep_dim}")
    if dim_keep * d_m > SEESAW_DIMENSION_BUDGET:
        raise BudgetError(
            f"keep_dim {dim_keep} times message dimension {d_m} exceeds "
            f"the see-saw budget {SEESAW_DIMENSION_BUDGET}"
        )
    per_restart = max((dim_keep * d_m) ** 2, n_y * n_z * dim_keep * max(dim_keep, d_m))
    traces: list[list[float]] = []
    finals: list = []
    for chunk in _chunks(cfg.restarts, per_restart):
        chunk_traces, chunk_finals = _seesaw_lockstep(
            fam.effects, w, dim_keep, cfg, range(cfg.restarts)[chunk]
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


def _fibonacci_net(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bloch vectors of the n-point spherical Fibonacci net, with their z and azimuth."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * (np.pi * (3.0 - np.sqrt(5.0)))
    sin_theta = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    points = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), z], axis=1)
    return points, z, phi


def _net_states(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The qubit states whose Bloch vectors have heights z and azimuths phi,
    one row each."""
    half = np.arccos(np.clip(z, -1.0, 1.0)) / 2
    return np.stack([np.cos(half), np.exp(1j * phi) * np.sin(half)], axis=1)


def fibonacci_sphere_states(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n spread points on the Bloch sphere and the matching qubit states."""
    points, z, phi = _fibonacci_net(n)
    return points, _net_states(z, phi)


# Window of k - p in which the net's Delaunay triangles (i, i+F_{k-1}, i+F_{k+1})
# and (i, i+F_k, i+F_{k+1}) lie, where p = log_phi(sqrt(5)·pi·N·(1 - z²)) / 2 is
# the zone number at the z of index i + F_{k+1}/2 (Keinert et al., "Spherical
# Fibonacci Mapping", ACM TOG 2015).  Against qhull, k - p stayed within
# [-1.14, 0.50], and within [-1.89, -0.47] for k <= 3 near the poles, for every
# N from 4 to 10**4 and every 97th N up to NET_RESOLUTION_BUDGET.
_PHI = (1 + math.sqrt(5)) / 2
_ZONE_BELOW = 1.25
_CAP_ZONE_BELOW = 2.0
_ZONE_ABOVE = 0.6


def _quad_orientation(x, y, z, q0, q1, q2, q3):
    """det(p1 - p0, p2 - p0, p3 - p0) for index arrays q0 < q1 < q2 < q3.

    For four points on the sphere its sign says on which side of the plane
    of (p0, p1, p2) the point p3 lies, that is whether p3 is inside their
    circumcircle.  Callers pass the indices in increasing order, so every
    test of one quadruple reads the same rounded number.
    """
    x0, y0, z0 = x[q0], y[q0], z[q0]
    ux, uy, uz = x[q1] - x0, y[q1] - y0, z[q1] - z0
    vx, vy, vz = x[q2] - x0, y[q2] - y0, z[q2] - z0
    wx, wy, wz = x[q3] - x0, y[q3] - y0, z[q3] - z0
    return ux * (vy * wz - vz * wy) + uy * (vz * wx - vx * wz) + uz * (vx * wy - vy * wx)


def _corners(x, y, z, *index):
    """The coordinates (x, y, z) of the points at each index array: one
    gather per corner, shared by every formula that reads that corner."""
    return [(x[i], y[i], z[i]) for i in index]


def _corner_normals(pa, pb, pc):
    """The components of (b - a) x (c - a) for gathered corners a, b, c (see
    _corners), and its dot product with a, which is det(a, b, c)."""
    xa, ya, za = pa
    ux, uy, uz = pb[0] - xa, pb[1] - ya, pb[2] - za
    vx, vy, vz = pc[0] - xa, pc[1] - ya, pc[2] - za
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    return (nx, ny, nz), nx * xa + ny * ya + nz * za


def _fibonacci_triangles(n: int) -> np.ndarray:
    """The Delaunay triangles of the n-point net, read off its index offsets.

    With F_1 = F_2 = 1, Q_k(i) = (i, i+F_{k-1}, i+F_k, i+F_{k+1}) is a lattice
    parallelogram with the long diagonal (i, i+F_{k+1}).  For each i and each
    k in the zone window its halves A = (i, i+F_{k-1}, i+F_{k+1}) and
    B = (i, i+F_k, i+F_{k+1}) are candidates; at k = 2 both are (i, i+1, i+2).
    A candidate is dropped when the lattice reflection of a corner across one
    of two edges lies inside its circumcircle.  Across the long diagonal the
    reflection completes Q_k(i); across A's edge (i, i+F_{k-1}) it completes
    Q_{k+1}(i - F_k), and across B's edge (i+F_k, i+F_{k+1}) it completes
    Q_{k+1}(i).  Each parallelogram's in-circle determinant is taken once,
    over its sorted corners, and on an exact tie the long diagonal wins.  The
    third edge's reflection decided no triangle at any N of the sweep that
    set the zone window, so it is not tested here.  Rows come out positively
    oriented, lowest index first.  Nothing here is trusted: the certificate
    in net_covering_error tests every edge.
    """
    points, _, _ = _fibonacci_net(n)
    x, y, z = (np.ascontiguousarray(col) for col in points.T)
    del points  # the columns are copies; every net-sized array freed early shrinks the peak
    fib = [0, 1, 1]
    while fib[-1] < n:
        fib.append(fib[-1] + fib[-2])
    # k - p in [-below, above] holds where 1 - z² lies in
    # [phi^(2(k - above)), phi^(2(k + below))] / (sqrt(5)·pi·N)
    scale = np.sqrt(5.0) * np.pi * n
    windows = {}
    for k in range(2, len(fib) - 1):
        span = fib[k + 1]
        if span >= n or _PHI ** (2 * (k - _ZONE_ABOVE)) > scale:
            break
        mid_z = 1.0 - (2.0 * np.arange(n - span) + span + 1.0) / n
        room = 1.0 - mid_z * mid_z
        below = _CAP_ZONE_BELOW if k <= 3 else _ZONE_BELOW
        windows[k] = np.flatnonzero(
            (room >= _PHI ** (2 * (k - _ZONE_ABOVE)) / scale)
            & (room <= _PHI ** (2 * (k + below)) / scale)
        )
    # a reflection r lies inside the circumcircle of (a, b, c) when its height
    # over the triangle, positively oriented, is positive.  Listed as (a, b, c),
    # r's height is the sorted determinant times the parity that sorts
    # (a, b, c, r): odd for both tests of (i, i+F_{k-1}, i+F_{k+1}), even for
    # both of (i, i+F_k, i+F_{k+1}); orienting multiplies it by sign(det).
    # A tie drops the triangle unless the tested edge is its long one.
    rows = []
    lower = None
    for k, window in windows.items():
        # upper[j]: the sorted determinant of Q_{k+1}(j) where a candidate of
        # window k or k + 1 needs it, NaN elsewhere; lower is the same for Q_k,
        # kept from the window before.  Q_{k+1}(j) does not fit for
        # j >= n - F_{k+2}, so those entries stay NaN, and a negative index
        # i - F_k reads one of them.
        need = np.zeros(n, dtype=bool)
        need[windows.get(k + 1, [])] = True
        need[window] = True
        need[window - fib[k]] = True
        need[max(n - fib[k + 2], 0) :] = False
        upper = np.full(n, np.nan)
        for j in _blocks(np.flatnonzero(need)):
            upper[j] = _quad_orientation(x, y, z, j, j + fib[k], j + fib[k + 1], j + fib[k + 2])
        for i in _blocks(window):
            if k == 2:
                shapes = [(i + 1, [], [-upper[i - 1], upper[i]])]
            else:
                shapes = [
                    (i + fib[k - 1], [-lower[i]], [-upper[i - fib[k]]]),
                    (i + fib[k], [lower[i]], [upper[i]]),
                ]
            c = i + fib[k + 1]
            for b, long_edge, far_edges in shapes:
                sign = np.sign(_corner_normals(*_corners(x, y, z, i, b, c))[1])
                drop = np.zeros(len(i), dtype=bool)
                for height in long_edge:
                    drop |= sign * height > 0
                for height in far_edges:
                    drop |= sign * height >= 0
                flip = sign < 0
                rows.append(np.stack([i, np.where(flip, c, b), np.where(flip, b, c)], axis=1)[~drop])
        lower = upper
    return np.concatenate(rows)


def _certify_delaunay(x, y, z, triangles: np.ndarray) -> float:
    """Check that ``triangles`` are the Delaunay triangles of the points
    (x, y, z) on the unit sphere, and return the cosine of the covering
    angle: the least, over triangles, of the greatest cosine between the
    triangle's unit normal (b - a) x (c - a) and its corners.

    Each failed check raises NumericsError:

    1. there are 2N - 4 triangles and every point is a corner of one;
    2. every triangle's plane has the centre strictly inside: n·a > 0 for the
       normal n = (b - a) x (c - a), so n·a = det(a, b, c);
    3. every directed edge appears once, and its reverse appears once;
    4. the triangles' solid angles add up to 4·pi;
    5. across every edge the opposite vertex is not above the triangle's plane.

    Why they suffice: by 2 each triangle projects from the centre onto a
    positively oriented spherical triangle, and by 3 the triangles close up
    into an oriented surface, so their solid angles add up to 4·pi times the
    number of times the projection covers the sphere.  By 4 it covers the
    sphere once: the triangles tile it, and by 1 their corners are all N
    points (2N - 4 is Euler's count).  Without 4, two triangulations of
    interleaved subsets could pass 1, 2, 3 and 5 together.  By 5 every edge
    is locally Delaunay, and a triangulation of the sphere that is locally
    Delaunay at every edge is the Delaunay triangulation: every point is on
    or below each triangle's plane, so the triangles are the convex hull's
    facets.  Check 5 takes the in-circle determinant over the four corners
    in index order, as _fibonacci_triangles does, so the two triangles of an
    edge read the same rounded number.

    Every check but 1 and 3 is local to a triangle or an edge: checks 2 and 4
    and the cosines run over blocks of NET_BLOCK_ELEMENTS triangles, each
    block gathering its corners once, and check 5 over blocks of as many
    paired edges.  Check 3 is the one sort over the whole net.  The checks
    fail in the order listed.
    """
    n, count = len(x), len(triangles)
    if count != 2 * n - 4 or np.bincount(triangles.ravel(), minlength=n).min() == 0:
        raise NumericsError(
            f"{count} net triangles do not triangulate {n} points (need {2 * n - 4})"
        )
    solid_angle = 0.0
    covering_cos = math.inf
    for block in _blocks(triangles):
        corners = _corners(x, y, z, *block.T)
        (nx, ny, nz), det = _corner_normals(*corners)
        if not np.all(det > 0):
            # the centre is not strictly inside, so the points fit in a
            # hemisphere or a triangle is folded over
            raise NumericsError("net triangles do not all face away from the centre of the sphere")
        (xa, ya, za), (xb, yb, zb), (xc, yc, zc) = corners
        dots = (
            xa * xb + ya * yb + za * zb + xb * xc + yb * yc + zb * zc + xc * xa + yc * ya + zc * za
        )
        solid_angle += 2 * float(np.arctan2(det, 1.0 + dots).sum())
        norm = np.sqrt(nx * nx + ny * ny + nz * nz)
        nx, ny, nz = nx / norm, ny / norm, nz / norm
        facet_cos = np.max([nx * cx + ny * cy + nz * cz for cx, cy, cz in corners], axis=0)
        covering_cos = min(covering_cos, float(facet_cos.min()))
    # directed edge 3t + j runs from corner j of triangle t to corner j + 1.
    # Each undirected edge must come out of the sort exactly twice, once in
    # each direction; the partner's third corner is the opposite vertex.
    key = np.empty((count, 3), dtype=np.int64)
    forward = np.empty((count, 3), dtype=bool)
    for j in range(3):
        head, tail = triangles[:, j], triangles[:, (j + 1) % 3]
        np.minimum(head, tail, out=key[:, j])
        key[:, j] *= n
        key[:, j] += np.maximum(head, tail)
        np.less(head, tail, out=forward[:, j])
    # stable, so each pair comes out lower edge first; which directed edge of
    # a pair is first changes neither check 3 nor check 5's sorted corners
    order = np.argsort(key.ravel(), kind="stable")
    key = key.ravel()[order]
    forward = forward.ravel()
    first, second = order[0::2], order[1::2]
    if not (
        np.array_equal(key[0::2], key[1::2])
        and np.all(key[2::2] > key[1:-1:2])
        and np.all(forward[first] != forward[second])
    ):
        raise NumericsError("net triangles do not pair every directed edge with its reverse")
    del key, forward  # check 5 reads only first and second
    coverings = solid_angle / (4 * np.pi)
    if abs(coverings - 1.0) > COVERING_COUNT_TOL:
        raise NumericsError(f"net triangles cover the sphere {coverings:.6g} times, not once")
    flat = triangles.ravel()
    for edge, partner in zip(_blocks(first), _blocks(second)):
        base = edge - edge % 3
        # sort each edge's four corners with a sorting network, tracking parity
        q = [
            flat[edge],
            flat[base + (edge + 1) % 3],
            flat[base + (edge + 2) % 3],
            flat[partner - partner % 3 + (partner + 2) % 3],
        ]
        odd = np.zeros(len(edge), dtype=bool)
        for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
            odd ^= q[i] > q[j]
            q[i], q[j] = np.minimum(q[i], q[j]), np.maximum(q[i], q[j])
        height = _quad_orientation(x, y, z, *q)
        if np.any(np.where(odd, -height, height) > 0):
            raise NumericsError("a net triangle's circumcircle holds its neighbour across an edge")
    return covering_cos


def net_covering_error(points: np.ndarray) -> float:
    """sin(alpha/2) for the net's covering angle alpha, the worst-case drop
    of <psi|A|psi> (0 <= A <= I) between any state and its nearest net point.

    The covering angle is attained at a spherical Voronoi vertex, the
    circumcentre of a spherical Delaunay triangle, whose nearest net points
    are the triangle's own corners.  The triangles come from the index
    offsets of the Fibonacci net of len(points) points, and
    _certify_delaunay proves them the Delaunay triangles of ``points`` or
    raises NumericsError; points that are not that net fail it unless their
    triangulation is the net's.  Where four or more points are cocircular,
    every split of their polygon has the same circumcircle, so the bound
    does not depend on the split.  It takes O(N log N) time, for the one
    sort that pairs the net's 6N - 12 directed edges.  Past the O(N) arrays
    of the net, its triangles and that sort, the triangle builder and the
    certificate work in blocks of NET_BLOCK_ELEMENTS rows, so their other
    temporaries do not grow with N.
    """
    x, y, z = (np.ascontiguousarray(col, dtype=float) for col in np.asarray(points).T)
    if len(x) < 4:
        raise NumericsError(f"{len(x)} net points span no triangulation")
    covering_cos = _certify_delaunay(x, y, z, _fibonacci_triangles(len(x)))
    alpha = float(np.arccos(np.clip(covering_cos, -1.0, 1.0)))
    return math.sin(alpha / 2)


def _bloch_quadratic_forms(stacked: np.ndarray, points: np.ndarray) -> np.ndarray:
    """<psi|A|psi> for every Hermitian 2x2 A in ``stacked`` and every pure
    state psi with Bloch vector r in ``points``, as tr(A)/2 + a·r with
    a = (Re A01, -Im A01, (A00 - A11)/2): one real (G, 3) @ (3, N) product."""
    diag = stacked[:, [0, 1], [0, 1]].real
    bloch = np.stack(
        [stacked[:, 0, 1].real, -stacked[:, 0, 1].imag, (diag[:, 0] - diag[:, 1]) / 2], axis=1
    )
    return bloch @ points.T + (diag.sum(axis=1) / 2)[:, None]


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
    points, z, phi = _fibonacci_net(cfg.net_resolution)
    n_y, n_z = fam.effects.shape[:2]
    # with one-qubit M there are 2 challenges and 2 responses: four maps,
    # scanned as one stack in lexicographic order (argmax keeps the first max)
    tables = _response_tables(n_y, n_z, slice(0, n_z**n_y))
    stacked = fam.effects[np.arange(n_y), tables].sum(axis=1)
    eigs = np.linalg.eigvalsh(stacked)
    if eigs.min() < -VALUE_RANGE_TOL or eigs.max() > 1 + VALUE_RANGE_TOL:
        raise NumericsError("a response map's acceptance operator escaped [0, I]")
    values = _bloch_quadratic_forms(stacked, points)
    g_idx, s_idx = np.unravel_index(np.argmax(values), values.shape)
    witness = {
        "responses": {y: fam.responses[z] for y, z in zip(fam.challenges, tables[g_idx])},
        # the witness alone: its state row is the one fibonacci_sphere_states makes
        "state": _net_states(z[s_idx : s_idx + 1], phi[s_idx : s_idx + 1])[0],
    }
    return ValueReport(
        float(values[g_idx, s_idx]), witness, (), "net", net_error=net_covering_error(points)
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
    r = checked_int(r, "r")
    trials = checked_int(trials, "trials")
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
    lhs, *rhs_values = (checked_probability(v) for v in values.tolist())
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


def _checked_repetition(p: float, k: int) -> int:
    """``k`` read as an int, once p is a probability and k a positive odd
    count within AMPLIFY_K_BUDGET: the inputs of a k-fold majority vote."""
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"p must be in [0, 1], got {p!r}")
    k = checked_int(k, "k")
    if k < 1 or k % 2 == 0:
        raise ValidationError(f"k must be a positive odd count, got {k}")
    if k > AMPLIFY_K_BUDGET:
        raise BudgetError(f"k = {k} exceeds the amplification budget {AMPLIFY_K_BUDGET}")
    return k


def majority_amplify(p: float, k: int) -> float:
    """Probability that a Binomial(k, p) draw exceeds k/2, summed exactly."""
    k = _checked_repetition(p, k)
    terms = [
        math.comb(k, j) * p**j * (1.0 - p) ** (k - j) for j in range(k // 2 + 1, k + 1)
    ]
    return min(max(math.fsum(terms), 0.0), 1.0)


def hoeffding_floor(p: float, k: int) -> float:
    """A lower bound on majority_amplify(p, k), with the same checks.

    Hoeffding's inequality gives 1 - exp(-2k(p - 1/2)^2) for p > 1/2; for
    p <= 1/2 it says nothing, and the bound is the trivial 0."""
    k = _checked_repetition(p, k)
    if p <= 0.5:
        return 0.0
    return 1.0 - math.exp(-2.0 * k * (p - 0.5) ** 2)
