import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, SphericalVoronoi

from qiplab import (
    BudgetError,
    MeasurementOperator,
    NumericsError,
    RegisterLayout,
    ResolutionError,
    ValidationError,
    chsh_protocol,
)
from qiplab import optimize
from qiplab.optimize import (
    NET_RESOLUTION_BUDGET,
    SEESAW_DIMENSION_BUDGET,
    OptimizerConfig,
    ValueReport,
    brute_force_unentangled_value,
    exact_classical_response_value,
    fibonacci_sphere_states,
    hoeffding_floor,
    majority_amplify,
    net_covering_error,
    nexp_decide,
    seesaw_entangled_value,
    subsampling_experiment,
)
from qiplab.protocol import MeasurementFamily, joint_response_operators
from qiplab.random_instances import (
    random_measurement_family,
    random_public_coin_spec,
)
from qiplab.utils import derived_rng

QUBIT = RegisterLayout(("M",), (2,))
TSIRELSON = (1 + 1 / math.sqrt(2)) / 2


def diag_family(table: dict[tuple[str, str], tuple[float, float]]) -> MeasurementFamily:
    challenges = tuple(sorted({y for y, _ in table}))
    responses = tuple(sorted({z for _, z in table}))
    effects = [[np.diag(table[y, z]) for z in responses] for y in challenges]
    return MeasurementFamily(challenges, responses, QUBIT, effects)


def test_chsh_exact_classical_value():
    _, family = chsh_protocol()
    report = exact_classical_response_value(family)
    assert report.value == pytest.approx(0.75, abs=1e-9)
    assert report.method == "exhaustive"
    # ties break toward the first enumerated table, the all-zeros one
    assert report.witness["responses"] == {"0": "0", "1": "0"}
    amplitudes = report.witness["state"].amplitudes
    assert abs(amplitudes[0]) == pytest.approx(1.0, abs=1e-9)


def test_constant_half_family_scores_one_half():
    half = np.broadcast_to(np.eye(2) / 2, (2, 2, 2, 2))
    fam = MeasurementFamily(("0", "1"), ("0", "1"), QUBIT, half)
    assert exact_classical_response_value(fam).value == pytest.approx(0.5, abs=1e-12)


def test_single_challenge_value_is_the_best_response_eigenvalue():
    rng = derived_rng(3, "single-challenge")
    effects = []
    tops = []
    for z in range(3):
        eff = np.diag(rng.uniform(0, 1, size=2))
        effects.append(eff)
        tops.append(eff.max())
    fam = MeasurementFamily(("0",), ("0", "1", "2"), QUBIT, [effects])
    report = exact_classical_response_value(fam)
    assert report.value == pytest.approx(max(tops), abs=1e-12)


def test_enumeration_budget_is_enforced():
    fam = MeasurementFamily(
        tuple(str(y) for y in range(7)),
        tuple(str(z) for z in range(8)),
        QUBIT,
        np.broadcast_to(np.eye(2) / 2, (7, 8, 2, 2)),
    )
    with pytest.raises(BudgetError):
        exact_classical_response_value(fam)


def test_seesaw_reaches_the_chsh_entangled_optimum():
    _, family = chsh_protocol()
    cfg = OptimizerConfig(restarts=16, seed=11)
    report = seesaw_entangled_value(family, cfg)
    assert report.value >= TSIRELSON - 1e-4
    assert report.value <= TSIRELSON + 1e-6
    assert report.method == "seesaw"
    assert len(report.iterates) == 16
    for run in report.iterates:
        assert all(b >= a - 1e-12 for a, b in zip(run, run[1:]))


def test_seesaw_agrees_with_exact_on_a_shared_eigenvector_family():
    fam = diag_family(
        {
            ("0", "0"): (0.9, 0.2),
            ("0", "1"): (0.5, 0.1),
            ("1", "0"): (0.4, 0.0),
            ("1", "1"): (0.7, 0.3),
        }
    )
    exact = exact_classical_response_value(fam).value
    assert exact == pytest.approx(0.8, abs=1e-12)
    cfg = OptimizerConfig(restarts=8, seed=2)
    assert seesaw_entangled_value(fam, config=cfg).value == pytest.approx(exact, abs=1e-6)


def test_seesaw_dominates_the_classical_value():
    for trial in range(20):
        rng = derived_rng(21, "ordering", trial)
        fam = random_measurement_family(rng, QUBIT)
        exact = exact_classical_response_value(fam).value
        cfg = OptimizerConfig(restarts=6, seed=trial)
        assert seesaw_entangled_value(fam, config=cfg).value >= exact - 1e-6


def test_seesaw_three_response_coordinate_ascent_stays_monotone():
    rng = derived_rng(22, "three-z")
    fam = random_measurement_family(rng, QUBIT, n_challenges=2, n_responses=3)
    cfg = OptimizerConfig(restarts=5, seed=9)
    report = seesaw_entangled_value(fam, config=cfg)
    exact = exact_classical_response_value(fam).value
    assert report.value >= exact - 1e-6
    for run in report.iterates:
        assert all(b >= a - 1e-12 for a, b in zip(run, run[1:]))


def test_seesaw_rejects_oversized_response_alphabets():
    fam = MeasurementFamily(
        ("0",), tuple(str(z) for z in range(9)), QUBIT, np.broadcast_to(np.eye(2) / 2, (1, 9, 2, 2))
    )
    with pytest.raises(BudgetError):
        seesaw_entangled_value(fam)


def test_seesaw_dimension_budget_is_checked_before_the_restarts(monkeypatch):
    def half_family(d_m):
        layout = RegisterLayout(("M",), (d_m,))
        halves = np.broadcast_to(np.eye(d_m) / 2, (1, 2, d_m, d_m))
        return MeasurementFamily(("0",), ("0", "1"), layout, halves)

    limit = math.isqrt(SEESAW_DIMENSION_BUDGET)
    assert limit == 16
    cfg = OptimizerConfig(restarts=1, max_iters=1)
    assert seesaw_entangled_value(half_family(limit), config=cfg).value == pytest.approx(0.5)

    def no_draw(*args):
        raise AssertionError("a see-saw restart drew its start state")

    # every restart starts by drawing from its own stream
    monkeypatch.setattr(optimize, "derived_rng", no_draw)
    with pytest.raises(BudgetError, match="see-saw budget"):
        seesaw_entangled_value(half_family(limit + 1), config=cfg)
    with pytest.raises(AssertionError, match="drew its start state"):
        seesaw_entangled_value(half_family(limit), config=cfg)


def test_restart_and_subsampling_budgets_are_checked_before_the_first_draw(monkeypatch):
    _, fam = chsh_protocol()

    def no_draw(*args):
        raise AssertionError("a random stream was drawn")

    monkeypatch.setattr(optimize, "derived_rng", no_draw)
    cfg = OptimizerConfig(restarts=optimize.SEESAW_RESTART_BUDGET + 1)
    with pytest.raises(BudgetError, match="restart budget"):
        seesaw_entangled_value(fam, config=cfg)
    with pytest.raises(BudgetError, match="trial budget"):
        subsampling_experiment(fam, 1, 0.1, optimize.SUBSAMPLE_TRIAL_BUDGET + 1, 0)
    with pytest.raises(BudgetError, match="draw budget"):
        subsampling_experiment(fam, 10**10, 0.1, 100, 0)
    with pytest.raises(BudgetError, match="draw budget"):
        subsampling_experiment(fam, optimize.SUBSAMPLE_DRAW_BUDGET // 2 + 1, 0.1, 2, 0)
    # the README runs sit far below every budget
    assert 16 * 100 <= optimize.SEESAW_RESTART_BUDGET
    assert 100 * 100 <= optimize.SUBSAMPLE_TRIAL_BUDGET
    assert 256 * 100 * 100 <= optimize.SUBSAMPLE_DRAW_BUDGET


def test_every_restart_stops_at_max_iters_after_one_iteration():
    _, fam = chsh_protocol()
    report = seesaw_entangled_value(fam, config=OptimizerConfig(restarts=5, max_iters=1))
    assert all(len(run) == 1 for run in report.iterates)
    # without the cap each restart runs until its last gain is below the tolerance
    cfg = OptimizerConfig(restarts=5, seed=3)
    converged = seesaw_entangled_value(fam, config=cfg)
    for run in converged.iterates:
        assert 1 < len(run) < cfg.max_iters
        assert run[-1] - run[-2] < cfg.convergence_tol


def test_fibonacci_net_covers_the_sphere_tightly():
    points, states = fibonacci_sphere_states(2000)
    assert np.allclose(np.linalg.norm(points, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    # Bloch vector of each state must be the matching net point
    sigma_x = np.array([[0, 1], [1, 0]])
    sigma_y = np.array([[0, -1j], [1j, 0]])
    sigma_z = np.array([[1, 0], [0, -1]])
    for idx in (0, 713, 1999):
        psi = states[idx]
        bloch = np.array(
            [
                np.vdot(psi, sigma_x @ psi).real,
                np.vdot(psi, sigma_y @ psi).real,
                np.vdot(psi, sigma_z @ psi).real,
            ]
        )
        assert np.allclose(bloch, points[idx], atol=1e-10)
    err = net_covering_error(points)
    assert 0 < err < 0.05


def _dense_covering_error(points):
    """Reference bound: every Voronoi vertex against every net point, O(N^2) memory."""
    sv = SphericalVoronoi(points, radius=1.0, center=np.zeros(3))
    vertices = sv.vertices / np.linalg.norm(sv.vertices, axis=1, keepdims=True)
    nearest = np.clip((vertices @ points.T).max(axis=1), -1.0, 1.0)
    return math.sin(float(np.arccos(nearest).max()) / 2)


def test_hull_covering_bound_matches_the_dense_reference():
    for n in (4, 5, 6, 7, 10, 33, 50, 100, 257, 500, 1000, 1999):
        points, _ = fibonacci_sphere_states(n)
        assert net_covering_error(points) == pytest.approx(_dense_covering_error(points), abs=1e-12)
    # the README's nexp-decide resolution: its CSV bytes carry this value
    points, _ = fibonacci_sphere_states(2000)
    assert net_covering_error(points) == _dense_covering_error(points)


def test_covering_angle_bounds_the_distance_to_the_nearest_net_point():
    rng = derived_rng(82, "covering-probes")
    probes = rng.normal(size=(20000, 3))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    for n in (50, 500):
        points, _ = fibonacci_sphere_states(n)
        alpha = 2 * math.asin(net_covering_error(points))
        nearest = min(float((chunk @ points.T).max(axis=1).min()) for chunk in np.split(probes, 4))
        assert math.acos(min(nearest, 1.0)) <= alpha * (1 + 1e-9)


def test_covering_bound_refuses_points_that_do_not_surround_the_centre():
    points, _ = fibonacci_sphere_states(200)
    with pytest.raises(NumericsError):
        net_covering_error(points[points[:, 2] > 0])
    t = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    with pytest.raises(NumericsError):
        net_covering_error(np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1))


def _hull_covering_error(points):
    """The bound read off scipy's convex hull, with the hull's facets: the
    reference for the certified net triangles."""
    hull = ConvexHull(points)
    normals = hull.equations[:, :3]
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    facet_cos = np.einsum("fk,fck->fc", normals, points[hull.simplices]).max(axis=1)
    return math.sin(float(np.arccos(np.clip(facet_cos.min(), -1.0, 1.0))) / 2), hull.simplices


def _circumcircle_cos(points, triangles):
    a, b, c = (points[triangles[:, j]] for j in range(3))
    normal = np.cross(b - a, c - a)
    return np.einsum("ij,ij->i", normal / np.linalg.norm(normal, axis=1, keepdims=True), a)


def _sorted_triples(triangles, n):
    """Each triangle's sorted corners (a, b, c) as the key (a·n + b)·n + c, sorted."""
    t = np.sort(triangles, axis=1).astype(np.int64)
    return np.sort((t[:, 0] * n + t[:, 1]) * n + t[:, 2])


@pytest.mark.parametrize(
    "sizes",
    [range(4, 501), (1999, 2000, 4999, 5000, 20000, 100000)],
    ids=["every-n-to-500", "large"],
)
def test_certified_net_triangles_are_the_hull_facets(sizes):
    for n in sizes:
        points, _ = fibonacci_sphere_states(n)
        bound = net_covering_error(points)
        hull_bound, simplices = _hull_covering_error(points)
        ours = _sorted_triples(optimize._fibonacci_triangles(n), n)
        theirs = _sorted_triples(simplices, n)
        if not np.array_equal(ours, theirs):
            # a cocircular polygon may be split either way, each split with its circumcircle
            unpack = lambda keys: np.stack([keys // (n * n), keys // n % n, keys % n], axis=1)
            ours_cos = _circumcircle_cos(points, unpack(np.setdiff1d(ours, theirs)))
            theirs_cos = _circumcircle_cos(points, unpack(np.setdiff1d(theirs, ours)))
            for one, other in ((ours_cos, theirs_cos), (theirs_cos, ours_cos)):
                assert all(np.min(np.abs(other - c), initial=1.0) < 1e-12 for c in one), n
        if n in (2000, 5000):
            assert bound == hull_bound
        else:
            assert abs(bound - hull_bound) <= 2e-14, n


def _nudged_net(n):
    """The n-point net with one point moved 1e-7 rad past the circumcircle of
    the triangle across one of its edges, the edge whose quadrilateral is
    closest to cocircular, so that the Delaunay triangulation flips that edge."""
    points, _ = fibonacci_sphere_states(n)
    triangles = optimize._fibonacci_triangles(n)
    opposite = {(a, b): c for t in triangles.tolist() for a, b, c in (t, t[1:] + t[:1], t[2:] + t[:2])}
    best = None
    for (u, v), w in opposite.items():
        d = opposite[(v, u)]
        normal = np.cross(points[v] - points[u], points[w] - points[u])
        centre = normal / np.linalg.norm(normal)
        margin = math.acos(np.dot(points[d], centre)) - math.acos(np.dot(points[u], centre))
        if best is None or margin < best[0]:
            best = (margin, d, centre)
    margin, d, centre = best
    toward = centre - np.dot(centre, points[d]) * points[d]
    toward /= np.linalg.norm(toward)
    nudged = points.copy()
    nudged[d] = math.cos(margin + 1e-7) * points[d] + math.sin(margin + 1e-7) * toward
    return nudged, {tuple(sorted(t)) for t in triangles.tolist()}


def test_covering_bound_refuses_a_net_with_one_flipped_edge():
    nudged, lattice = _nudged_net(200)
    _, simplices = _hull_covering_error(nudged)
    hull = {tuple(t) for t in np.sort(simplices, axis=1).tolist()}
    assert len(hull - lattice) == len(lattice - hull) == 2
    with pytest.raises(NumericsError, match="circumcircle"):
        net_covering_error(nudged)


def test_covering_bound_refuses_swapped_net_points():
    points, _ = fibonacci_sphere_states(200)
    points[[50, 150]] = points[[150, 50]]
    with pytest.raises(NumericsError, match="face away from the centre"):
        net_covering_error(points)
    # the hemisphere and the equator fail the same check
    points, _ = fibonacci_sphere_states(200)
    t = np.linspace(0, 2 * np.pi, 12, endpoint=False)
    for bad in (points[points[:, 2] > 0], np.stack([np.cos(t), np.sin(t), np.zeros_like(t)], axis=1)):
        with pytest.raises(NumericsError, match="face away from the centre"):
            net_covering_error(bad)


def _certify(points, triangles):
    return optimize._certify_delaunay(*np.ascontiguousarray(points.T), np.asarray(triangles))


def test_certificate_refuses_a_point_left_out():
    points, _ = fibonacci_sphere_states(50)
    triangles = optimize._fibonacci_triangles(50)
    _certify(points, triangles)
    extra = np.vstack([points, [[0.0, 0.6, 0.8]]])
    with pytest.raises(NumericsError, match="do not triangulate"):
        _certify(extra, triangles)


def test_certificate_refuses_an_unpaired_edge():
    points, _ = fibonacci_sphere_states(50)
    triangles = optimize._fibonacci_triangles(50)
    triangles[0] = triangles[1]
    with pytest.raises(NumericsError, match="pair every directed edge"):
        _certify(points, triangles)


def test_certificate_refuses_two_interleaved_triangulations():
    # two octahedra sharing the poles, the second turned by 45 degrees: 16 =
    # 2 * 10 - 4 positively oriented, edge-paired, locally Delaunay triangles
    # that cover the sphere twice
    r = 1 / math.sqrt(2)
    points = np.array(
        [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1],
         [r, r, 0], [-r, r, 0], [-r, -r, 0], [r, -r, 0]]
    )
    triangles = []
    for ring in ((0, 1, 2, 3), (6, 7, 8, 9)):
        for i in range(4):
            a, b = ring[i], ring[(i + 1) % 4]
            triangles += [(a, b, 4), (b, a, 5)]
    with pytest.raises(NumericsError, match="cover the sphere 2 times"):
        _certify(points, triangles)


def _whole_net_certificate(x, y, z, triangles):
    """The covering certificate as it ran over the whole net at once, each
    check on net-sized arrays, returning the triangles' normals: a test-only
    reference for the blocked certificate."""
    n = len(x)
    if len(triangles) != 2 * n - 4 or np.bincount(triangles.ravel(), minlength=n).min() == 0:
        raise NumericsError("do not triangulate")
    a, b, c = triangles.T
    xa, ya, za, xb, yb, zb, xc, yc, zc = x[a], y[a], z[a], x[b], y[b], z[b], x[c], y[c], z[c]
    ux, uy, uz = xb - xa, yb - ya, zb - za
    vx, vy, vz = xc - xa, yc - ya, zc - za
    nx, ny, nz = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
    det = nx * xa + ny * ya + nz * za
    if not np.all(det > 0):
        raise NumericsError("face away from the centre")
    head = np.concatenate([a, b, c])
    tail = np.concatenate([b, c, a])
    third = np.concatenate([c, a, b])
    edge_key = np.minimum(head, tail).astype(np.int64) * n + np.maximum(head, tail)
    order = np.argsort(edge_key)
    key = edge_key[order]
    first, second = order[0::2], order[1::2]
    if not (
        np.array_equal(key[0::2], key[1::2])
        and np.all(key[2::2] > key[1:-1:2])
        and np.all((head[first] < tail[first]) != (head[second] < tail[second]))
    ):
        raise NumericsError("pair every directed edge")
    dots = xa * xb + ya * yb + za * zb + xb * xc + yb * yc + zb * zc + xc * xa + yc * ya + zc * za
    coverings = 2 * np.arctan2(det, 1.0 + dots).sum() / (4 * np.pi)
    if abs(coverings - 1.0) > optimize.COVERING_COUNT_TOL:
        raise NumericsError("cover the sphere")
    q = [head[first], tail[first], third[first], third[second]]
    odd = np.zeros(len(first), dtype=bool)
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        odd ^= q[i] > q[j]
        q[i], q[j] = np.minimum(q[i], q[j]), np.maximum(q[i], q[j])
    height = optimize._quad_orientation(x, y, z, *q)
    if np.any(np.where(odd, -height, height) > 0):
        raise NumericsError("circumcircle")
    return nx, ny, nz


def _whole_net_covering_error(points):
    """net_covering_error over the whole-net certificate: a test-only reference."""
    x, y, z = (np.ascontiguousarray(col, dtype=float) for col in np.asarray(points).T)
    triangles = optimize._fibonacci_triangles(len(x))
    nx, ny, nz = _whole_net_certificate(x, y, z, triangles)
    norm = np.sqrt(nx * nx + ny * ny + nz * nz)
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    facet_cos = np.max([nx * x[t] + ny * y[t] + nz * z[t] for t in triangles.T], axis=0)
    alpha = float(np.arccos(np.clip(facet_cos.min(), -1.0, 1.0)))
    return math.sin(alpha / 2)


@pytest.mark.parametrize(
    "sizes",
    [range(4, 501), (1999, 2000, 4999, 5000, 20000, 100000)],
    ids=["every-n-to-500", "large"],
)
def test_blocked_covering_bound_matches_the_whole_net_one_exactly(sizes):
    for n in sizes:
        points, _ = fibonacci_sphere_states(n)
        assert net_covering_error(points) == _whole_net_covering_error(points), n


def test_covering_bound_holds_a_small_working_set():
    points, _ = fibonacci_sphere_states(5000)
    net_covering_error(points)
    tracemalloc.start()
    try:
        net_covering_error(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 5.1 MiB when every check and the triangle builder ran on net-sized arrays
    assert peak <= 2.5 * 2**20


def _einsum_quadratic_forms(stacked, states):
    """The scan's quadratic forms as the net search computed them before the
    Bloch form: a test-only reference."""
    return np.einsum("nd,kde,ne->kn", states.conj(), stacked, states, optimize=True).real


@given(seed=st.integers(0, 2**32 - 1), maps=st.integers(1, 8), n=st.integers(4, 400))
def test_bloch_scan_matches_the_quadratic_forms(seed, maps, n):
    rng = derived_rng(seed, "bloch-scan")
    raw = rng.normal(size=(maps, 2, 2)) + 1j * rng.normal(size=(maps, 2, 2))
    unitary, _ = np.linalg.qr(raw)
    spectra = rng.uniform(0.0, 1.0, size=(maps, 1, 2))
    stacked = (unitary * spectra) @ unitary.conj().swapaxes(1, 2)
    stacked = (stacked + stacked.conj().swapaxes(1, 2)) / 2
    points, states = fibonacci_sphere_states(n)
    bloch = optimize._bloch_quadratic_forms(stacked, points)
    reference = _einsum_quadratic_forms(stacked, states)
    assert np.max(np.abs(bloch - reference)) <= 1e-13
    second, first = np.sort(reference.ravel())[-2:]
    if first - second > 1e-12:
        assert np.argmax(bloch) == np.argmax(reference)


def test_net_scan_matches_direct_quadratic_forms():
    n = 60
    _, states = fibonacci_sphere_states(n)
    for trial in range(3):
        spec, _ = random_public_coin_spec(derived_rng(83, "scan", trial))
        report = brute_force_unentangled_value(spec, OptimizerConfig(net_resolution=n))
        fam = joint_response_operators(spec)
        best = -np.inf
        for table in itertools.product(fam.responses, repeat=len(fam.challenges)):
            a = sum(fam.op(y, z).entries for y, z in zip(fam.challenges, table))
            for psi in states:
                best = max(best, (psi.conj() @ a @ psi).real)
        assert abs(report.value - best) < 1e-12
        a = sum(fam.op(y, z).entries for y, z in report.witness["responses"].items())
        psi = report.witness["state"]
        assert abs((psi.conj() @ a @ psi).real - report.value) < 1e-12


def _block_loop_net_search(spec, n):
    """The net scan as it ran before its four response maps became one
    stack: blocks of maps in lexicographic order, each scanned and argmax'd,
    keeping a strictly better block's best.  A test-only reference."""
    fam = joint_response_operators(spec)
    points, states = fibonacci_sphere_states(n)
    arr = fam.effects
    n_y, n_z = arr.shape[:2]
    y_index = np.arange(n_y)
    tables = itertools.product(range(n_z), repeat=n_y)
    step = max(1, optimize.STACK_ELEMENTS // n)
    best_value, best_table, best_state = -np.inf, None, 0
    while block := list(itertools.islice(tables, step)):
        block = np.array(block, dtype=np.intp)
        stacked = arr[y_index, block].sum(axis=1)
        values = optimize._bloch_quadratic_forms(stacked, points)
        g_idx, s_idx = divmod(int(np.argmax(values)), n)
        if values[g_idx, s_idx] > best_value:
            best_value = float(values[g_idx, s_idx])
            best_table = block[g_idx]
            best_state = s_idx
    responses = {y: fam.responses[z] for y, z in zip(fam.challenges, best_table)}
    return best_value, responses, states[best_state], net_covering_error(points)


def _assert_net_search_matches_the_block_loop(spec, n):
    report = brute_force_unentangled_value(spec, OptimizerConfig(net_resolution=n))
    value, responses, state, net_error = _block_loop_net_search(spec, n)
    assert report.value == value
    assert report.witness["responses"] == responses
    assert np.array_equal(report.witness["state"], state)
    assert report.net_error == net_error


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 3000))
def test_net_search_matches_the_block_loop_exactly(seed, n):
    spec, _ = random_public_coin_spec(derived_rng(seed, "net-block-loop"))
    _assert_net_search_matches_the_block_loop(spec, n)


def _flat_spec():
    """Acceptance 1/2 whatever the prover does, so every map and every net
    point ties, and the witness is decided by the first-max rule alone."""
    spec, _ = random_public_coin_spec(derived_rng(0, "flat-net"))
    half = MeasurementOperator(spec.joint_layout(), np.eye(8) / 2)
    return dataclasses.replace(spec, accept=half)


@pytest.mark.parametrize(
    "make_spec,n",
    [(lambda: chsh_protocol()[0], 2000), (lambda: chsh_protocol()[0], 5000), (_flat_spec, 2000)],
    ids=["chsh-2000", "chsh-5000", "flat-2000"],
)
def test_fixed_net_searches_match_the_block_loop_exactly(make_spec, n):
    _assert_net_search_matches_the_block_loop(make_spec(), n)


def test_net_resolution_budget_is_checked_before_the_net_is_built(monkeypatch):
    def no_net(n):
        raise AssertionError(f"a net of {n} points was built")

    monkeypatch.setattr(optimize, "fibonacci_sphere_states", no_net)
    monkeypatch.setattr(optimize, "_fibonacci_net", no_net)
    spec, _ = chsh_protocol()
    with pytest.raises(BudgetError):
        brute_force_unentangled_value(
            spec, OptimizerConfig(net_resolution=NET_RESOLUTION_BUDGET + 1)
        )


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 8))
def test_seesaw_traces_climb_and_reach_the_exact_value(seed, restarts):
    _, fam = random_public_coin_spec(derived_rng(seed, "seesaw-property"))
    cfg = OptimizerConfig(restarts=restarts, seed=seed)
    report = seesaw_entangled_value(fam, config=cfg)
    # non-decreasing up to rounding in the eigensolver
    for run in report.iterates:
        assert all(b >= a - optimize.ITERATE_MONOTONE_TOL for a, b in zip(run, run[1:]))
    exact = exact_classical_response_value(fam).value
    assert report.value >= exact - 100 * cfg.convergence_tol


NET_PROPERTY_RESOLUTION = 300


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1))
def test_net_value_is_within_its_error_below_the_exact_value(seed):
    spec, fam = random_public_coin_spec(derived_rng(seed, "net-property"))
    exact = exact_classical_response_value(fam).value
    report = brute_force_unentangled_value(
        spec, OptimizerConfig(net_resolution=NET_PROPERTY_RESOLUTION)
    )
    assert report.value <= exact <= report.value + report.net_error


def test_brute_force_lands_in_the_chsh_window():
    spec, _ = chsh_protocol()
    report = brute_force_unentangled_value(spec, OptimizerConfig(net_resolution=2000))
    assert 0.748 <= report.value <= 0.750
    assert report.method == "net"
    assert report.net_error < 0.05
    assert set(report.witness["responses"]) == {"0", "1"}


def test_brute_force_stays_within_net_error_of_the_exact_solver():
    for trial in range(20):
        rng = derived_rng(77, "net-oracle", trial)
        spec, fam = random_public_coin_spec(rng)
        exact = exact_classical_response_value(fam).value
        report = brute_force_unentangled_value(spec, OptimizerConfig(net_resolution=800))
        assert report.value <= exact + 1e-9
        assert report.value >= exact - report.net_error - 1e-9


def test_brute_force_on_state_independent_acceptance():
    # acceptance that ignores the stashed qubit reduces to a table search
    rng = derived_rng(78, "flat")
    spec, fam = random_public_coin_spec(rng)
    m_layout = spec.m_layout
    joint = spec.m_layout.concat(spec.v_layout)
    eye = np.eye(2)
    scores = {("0", "0"): 0.3, ("0", "1"): 0.9, ("1", "0"): 0.6, ("1", "1"): 0.2}
    flag = np.zeros((8, 8), dtype=np.complex128)
    for (x, a), c in scores.items():
        proj_a = np.outer(eye[int(a)], eye[int(a)])
        proj_x = np.outer(eye[int(x)], eye[int(x)])
        flag += c * np.kron(proj_a, np.kron(np.eye(2), proj_x))
    spec2 = type(spec)(
        m_layout=m_layout,
        v_layout=spec.v_layout,
        rounds=3,
        v2=spec.v2,
        accept=MeasurementOperator(joint, flag),
        classical_rounds=spec.classical_rounds,
        public_coin=True,
        coin_label="C",
        saved_label="R",
    )
    report = brute_force_unentangled_value(spec2, OptimizerConfig(net_resolution=200))
    assert report.value == pytest.approx((0.9 + 0.6) / 2, abs=1e-10)
    assert report.witness["responses"] == {"0": "1", "1": "0"}


def test_brute_force_rejects_multiqubit_messages():
    rng = derived_rng(79, "too-big")
    from qiplab.random_instances import random_verifier_spec

    spec = random_verifier_spec(rng, m_dim=4, classical=(2, 3))
    with pytest.raises(BudgetError):
        brute_force_unentangled_value(spec)


def test_nexp_decide_thresholds_on_chsh():
    spec, _ = chsh_protocol()
    cfg = OptimizerConfig(net_resolution=2000)
    accept = nexp_decide(spec, 0.8, 0.6, cfg)
    assert accept.accepted and accept.threshold == pytest.approx(0.7)
    reject = nexp_decide(spec, 1.0, 0.6, cfg)
    assert not reject.accepted and reject.threshold == pytest.approx(0.8)
    with pytest.raises(ValidationError):
        nexp_decide(spec, 0.6, 0.8, cfg)
    with pytest.raises(ResolutionError):
        nexp_decide(spec, 0.71, 0.69, cfg)


def test_subsampling_single_draw_deviation_is_pinned():
    _, family = chsh_protocol()
    report = subsampling_experiment(family, r=1, eps=0.1, trials=20, seed=5)
    expected = TSIRELSON - 0.75
    assert report.lhs_value == pytest.approx(0.75, abs=1e-9)
    for deviation in report.deviations:
        assert deviation == pytest.approx(expected, abs=1e-9)
    assert report.failure_fraction == 1.0
    assert report.r == 1 and report.trials == 20


def test_balanced_empirical_weights_reproduce_the_uniform_value():
    _, family = chsh_protocol()
    lhs = exact_classical_response_value(family).value
    balanced = optimize._exact_values(family, np.array([[0.5, 0.5]]))[0][0]
    assert balanced == pytest.approx(lhs, abs=0.0)


def test_subsampling_deviation_decays_with_more_draws():
    _, family = chsh_protocol()
    small = subsampling_experiment(family, r=8, eps=0.1, trials=40, seed=13)
    large = subsampling_experiment(family, r=64, eps=0.1, trials=40, seed=13)
    mean_small = np.mean(small.deviations)
    mean_large = np.mean(large.deviations)
    sem = math.sqrt(
        np.var(small.deviations) / small.trials + np.var(large.deviations) / large.trials
    )
    assert mean_large <= mean_small + 2 * sem


def test_subsampling_is_deterministic_for_a_seed():
    _, family = chsh_protocol()
    one = subsampling_experiment(family, r=16, eps=0.1, trials=10, seed=3)
    two = subsampling_experiment(family, r=16, eps=0.1, trials=10, seed=3)
    assert one == two


def test_majority_amplify_matches_the_binomial_tail():
    assert majority_amplify(1.0, 5) == pytest.approx(1.0, abs=0.0)
    assert majority_amplify(0.0, 5) == pytest.approx(0.0, abs=0.0)
    assert majority_amplify(0.5, 41) == pytest.approx(0.5, abs=1e-12)
    value = majority_amplify(2 / 3, 41)
    assert value == pytest.approx(float(scipy.stats.binom.sf(20, 41, 2 / 3)), abs=1e-12)
    assert value >= hoeffding_floor(2 / 3, 41)
    grid = [majority_amplify(p, 9) for p in np.linspace(0, 1, 21)]
    assert all(b >= a - 1e-12 for a, b in zip(grid, grid[1:]))
    with pytest.raises(ValidationError):
        majority_amplify(0.7, 40)
    with pytest.raises(ValidationError):
        majority_amplify(1.5, 5)


@given(
    st.floats(0.0, 1.0),
    st.integers(0, (optimize.AMPLIFY_K_BUDGET - 1) // 2).map(lambda i: 2 * i + 1),
)
@example(2 / 3, 41)
@example(0.3, 41)
@example(0.5, 1)
@example(0.5 + 1e-9, optimize.AMPLIFY_K_BUDGET)
@example(1.0, optimize.AMPLIFY_K_BUDGET)
def test_hoeffding_floor_is_a_lower_bound_on_majority_success(p, k):
    floor = hoeffding_floor(p, k)
    assert 0.0 <= floor <= majority_amplify(p, k) + 1e-12
    if p <= 0.5:
        assert floor == 0.0


@pytest.mark.parametrize(
    "p, k, error",
    [
        (1.2, 5, ValidationError),
        (-0.1, 5, ValidationError),
        (math.nan, 5, ValidationError),
        (0.7, 40, ValidationError),
        (0.7, 0, ValidationError),
        (0.7, -3, ValidationError),
        (0.7, 5.0, ValidationError),
        (0.7, True, ValidationError),
        (0.7, optimize.AMPLIFY_K_BUDGET + 2, BudgetError),
    ],
)
def test_hoeffding_floor_refuses_what_majority_amplify_refuses(p, k, error):
    with pytest.raises(error) as amplify_error:
        majority_amplify(p, k)
    with pytest.raises(error) as floor_error:
        hoeffding_floor(p, k)
    assert str(floor_error.value) == str(amplify_error.value)


def test_majority_amplify_budget_is_the_last_k_whose_coefficients_fit_a_double():
    assert optimize.AMPLIFY_K_BUDGET == 1029
    assert 0.5 < majority_amplify(0.6, 1029) <= 1.0
    with pytest.raises(OverflowError):
        float(math.comb(1031, 515))
    with pytest.raises(BudgetError, match="amplification budget"):
        majority_amplify(0.6, 1031)


def test_optimizer_config_and_report_guards():
    with pytest.raises(ValidationError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValidationError):
        OptimizerConfig(convergence_tol=0.0)
    with pytest.raises(ValidationError):
        OptimizerConfig(net_resolution=2)
    with pytest.raises(NumericsError):
        ValueReport(1.5, {}, (), "exhaustive")
    with pytest.raises(NumericsError):
        ValueReport(0.5, {}, ((0.5, 0.4),), "seesaw")
