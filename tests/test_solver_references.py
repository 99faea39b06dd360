"""The stacked solvers against one-at-a-time references, bit for bit.

The references below are the loops the stacked paths replaced: each see-saw
restart run on its own, and each weight row (the uniform one, then one per
subsampling trial) searched on its own in blocks of 512 response maps.  The
stacked paths promise the same LAPACK and BLAS calls in the same order, so
every comparison here is exact equality, not a tolerance.  STACK_ELEMENTS
is shrunk in most examples so that restarts, rows and maps span several
chunks.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qiplab import RegisterLayout, optimize
from qiplab.optimize import (
    OptimizerConfig,
    exact_classical_response_value,
    seesaw_entangled_value,
    subsampling_experiment,
)
from qiplab.protocol import MeasurementFamily, checked_probability
from qiplab.qmath import dagger
from qiplab.random_instances import random_measurement_family
from qiplab.utils import derived_rng

REFERENCE_MAP_BLOCK = 512
CHUNK_SIZES = st.sampled_from([1, 7, 64, 300, 2**20])


# ---------------------------------------------------------------------------
# one-at-a-time references


def _reference_psd_sqrt(mat):
    vals, vecs = np.linalg.eigh((mat + dagger(mat)) / 2)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ dagger(vecs)


def _reference_projector(mat):
    vals, vecs = np.linalg.eigh((mat + dagger(mat)) / 2)
    keep = vecs[:, vals >= 0]
    return keep @ dagger(keep)


def _reference_measurement_step(povms, steering):
    n_z = len(povms)
    if n_z == 1:
        return povms
    if n_z == 2:
        proj = _reference_projector(steering[0] - steering[1])
        return [proj, np.eye(proj.shape[0]) - proj]
    povms = [p.copy() for p in povms]
    for i, j in itertools.combinations(range(n_z), 2):
        budget = povms[i] + povms[j]
        root = _reference_psd_sqrt(budget)
        inner = _reference_projector(root @ (steering[i] - steering[j]) @ root)
        a_i = root @ inner @ root
        povms[i] = (a_i + dagger(a_i)) / 2
        povms[j] = budget - povms[i]
    return povms


def reference_seesaw_restart(fam_arr, cfg, restart):
    """One restart alone: (final value, trace, state, POVMs per challenge)."""
    n_y, n_z, d_m, _ = fam_arr.shape
    w = np.full(n_y, 1.0 / n_y)
    rng = derived_rng(cfg.seed, "seesaw", restart)
    raw = rng.normal(size=d_m * d_m) + 1j * rng.normal(size=d_m * d_m)
    psi = raw / np.linalg.norm(raw)
    povms = None
    iterates = []
    for _ in range(cfg.max_iters):
        window = psi.reshape(d_m, d_m)
        new_povms = []
        for i in range(n_y):
            steering = [window @ fam_arr[i, j].T @ dagger(window) for j in range(n_z)]
            current = povms[i] if povms is not None else [
                np.eye(d_m, dtype=np.complex128) / n_z for _ in range(n_z)
            ]
            new_povms.append(_reference_measurement_step(current, steering))
        povms = new_povms
        stacked = np.zeros((d_m * d_m,) * 2, dtype=np.complex128)
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


def reference_exact(fam, w):
    """One weight row alone: (value, best table, top eigenvector)."""
    arr = fam.effects * w[:, None, None, None]
    n_y, n_z = arr.shape[:2]
    y_index = np.arange(n_y)
    tables = itertools.product(range(n_z), repeat=n_y)
    best_value = -np.inf
    best_table = None
    while block := list(itertools.islice(tables, REFERENCE_MAP_BLOCK)):
        stacked = arr[y_index[None, :], np.array(block)].sum(axis=1)
        tops = np.linalg.eigvalsh(stacked)[:, -1]
        i = int(np.argmax(tops))
        if tops[i] > best_value:
            best_value = float(tops[i])
            best_table = block[i]
    averaged = arr[np.arange(n_y), list(best_table)].sum(axis=0)
    vals, vecs = np.linalg.eigh(averaged)
    return min(max(float(vals[-1]), 0.0), 1.0), best_table, vecs[:, -1]


def reference_subsample_rhs(fam, r, trials, seed):
    rhs = []
    for trial in range(trials):
        rng = derived_rng(seed, "subsample", r, trial)
        draws = rng.integers(0, len(fam.challenges), size=r)
        counts = np.bincount(draws, minlength=len(fam.challenges))
        rhs.append(reference_exact(fam, counts / r)[0])
    return tuple(rhs)


# ---------------------------------------------------------------------------
# instances


@st.composite
def families(draw, max_challenges):
    dim = draw(st.sampled_from([2, 3]))
    layout = RegisterLayout(("M",), (dim,))
    n_y = draw(st.integers(1, max_challenges))
    n_z = draw(st.sampled_from([1, 2, 3, 8]))
    seed = draw(st.integers(0, 2**16))
    return random_measurement_family(derived_rng(seed, "reference-family"), layout, n_y, n_z)


# ---------------------------------------------------------------------------
# see-saw


@settings(max_examples=40)
@given(
    fam=families(max_challenges=3),
    restarts=st.integers(1, 6),
    max_iters=st.sampled_from([1, 2, 3, 12]),
    tol=st.sampled_from([1e-9, 1e-4]),
    seed=st.integers(0, 2**16),
    chunk=CHUNK_SIZES,
)
def test_lockstep_seesaw_equals_one_restart_at_a_time(fam, restarts, max_iters, tol, seed, chunk):
    cfg = OptimizerConfig(restarts=restarts, max_iters=max_iters, convergence_tol=tol, seed=seed)
    with mock.patch.object(optimize, "STACK_ELEMENTS", chunk):
        report = seesaw_entangled_value(fam, config=cfg)
    runs = [reference_seesaw_restart(fam.effects, cfg, r) for r in range(restarts)]
    best = max(range(restarts), key=lambda r: runs[r][0])
    value, _, psi, povms = runs[best]
    assert report.value == value
    assert report.iterates == tuple(run[1] for run in runs)
    assert np.array_equal(report.witness["state"], psi)
    for i, y in enumerate(fam.challenges):
        got = report.witness["povms"][y]
        assert len(got) == len(fam.responses)
        for j in range(len(fam.responses)):
            assert np.array_equal(got[j], povms[i][j])


def test_restarts_that_stop_at_different_iterations_share_one_stack():
    layout = RegisterLayout(("M",), (2,))
    for n_z in (2, 3):
        fam = random_measurement_family(derived_rng(0, "uneven"), layout, 2, n_z)
        cfg = OptimizerConfig(restarts=8, seed=1)
        report = seesaw_entangled_value(fam, config=cfg)
        assert len({len(run) for run in report.iterates}) > 2
        runs = [reference_seesaw_restart(fam.effects, cfg, r) for r in range(8)]
        assert report.iterates == tuple(run[1] for run in runs)
        assert all(run[-1] - run[-2] < cfg.convergence_tol for run in report.iterates)


# ---------------------------------------------------------------------------
# exhaustive search and subsampling


@given(n_y=st.integers(1, 5), n_z=st.integers(1, 5), chunk=st.integers(1, 40))
def test_response_tables_run_in_product_order(n_y, n_z, chunk):
    want = [list(table) for table in itertools.product(range(n_z), repeat=n_y)]
    with mock.patch.object(optimize, "STACK_ELEMENTS", chunk):
        chunks = optimize._chunks(len(want), 1)
        blocks = [optimize._response_tables(n_y, n_z, maps) for maps in chunks]
    assert all(block.dtype == np.intp for block in blocks)
    assert [row for block in blocks for row in block.tolist()] == want


@settings(max_examples=40)
@given(
    fam=families(max_challenges=3),
    r=st.integers(1, 40),
    trials=st.integers(1, 12),
    seed=st.integers(0, 2**16),
    chunk=st.sampled_from([8, 64, 300, 2**20]),
)
def test_stacked_subsampling_equals_one_trial_at_a_time(fam, r, trials, seed, chunk):
    with mock.patch.object(optimize, "STACK_ELEMENTS", chunk):
        report = subsampling_experiment(fam, r, 0.1, trials, seed)
    uniform = np.full(len(fam.challenges), 1.0 / len(fam.challenges))
    assert report.lhs_value == reference_exact(fam, uniform)[0]
    assert report.rhs_values == reference_subsample_rhs(fam, r, trials, seed)


@settings(max_examples=30)
@given(
    fam=families(max_challenges=4),
    raw=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    chunk=st.sampled_from([1, 8, 64, 2**20]),
)
def test_stacked_exhaustive_search_equals_the_reference(fam, raw, chunk):
    raw = np.array(raw[: len(fam.challenges)]) + 1e-3
    w = raw / raw.sum()
    with mock.patch.object(optimize, "STACK_ELEMENTS", chunk):
        values, tables, states = optimize._exact_values(fam, w[None, :])
        report = exact_classical_response_value(fam)
    value, table, state = reference_exact(fam, w)
    # the report's clamp into [0, 1], which the reference applies too
    assert checked_probability(float(values[0])) == value
    assert tuple(tables[0].tolist()) == table
    assert np.array_equal(states[0], state)
    value, table, state = reference_exact(fam, np.full(len(w), 1.0 / len(w)))
    assert report.value == value
    assert report.witness["responses"] == {
        y: fam.responses[z] for y, z in zip(fam.challenges, table)
    }
    assert np.array_equal(report.witness["state"].amplitudes, state)


def test_ties_go_to_the_lowest_map_index_across_chunks():
    layout = RegisterLayout(("M",), (2,))
    labels = ("0", "1", "2")
    fam = MeasurementFamily(labels, labels, layout, np.broadcast_to(np.eye(2) / 3, (3, 3, 2, 2)))
    for chunk in (1, 8, 2**20):
        with mock.patch.object(optimize, "STACK_ELEMENTS", chunk):
            report = exact_classical_response_value(fam)
        assert report.witness["responses"] == {y: "0" for y in labels}
