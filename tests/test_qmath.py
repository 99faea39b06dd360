import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qiplab.errors import LayoutError, ValidationError
from qiplab.qmath import (
    DensityMatrix,
    MeasurementOperator,
    Povm,
    PureState,
    RegisterLayout,
    apply_kraus_array,
    born_probability,
    dephase_axes,
    embed_operator,
    hermitian_eig,
    measure_array,
    partial_trace,
    partial_transpose,
    prepare_array,
    reorder_array,
    tensor,
)
from qiplab.random_instances import random_density, random_effect, random_povm, random_pure

QUBIT = RegisterLayout(("M",), (2,))
PAIR = RegisterLayout(("A", "B"), (2, 2))

KET_PLUS = np.array([1, 1]) / math.sqrt(2)
BELL = np.array([1, 0, 0, 1]) / math.sqrt(2)


def eig2x2(mat):
    """Closed-form eigenvalues of a 2x2 Hermitian matrix, descending."""
    a, c = mat[0, 0].real, mat[1, 1].real
    half_gap = math.sqrt(((a - c) / 2) ** 2 + abs(mat[0, 1]) ** 2)
    mid = (a + c) / 2
    return mid + half_gap, mid - half_gap


def test_layout_basics():
    lay = RegisterLayout(("P", "M", "V"), (2, 3, 2))
    assert lay.total_dim == 12
    assert lay.axis("M") == 1
    assert lay.dim_of("V") == 2
    assert lay.subset(["V", "P"]).names == ("P", "V")
    with pytest.raises(LayoutError):
        lay.axis("X")
    with pytest.raises(LayoutError):
        RegisterLayout(("A", "A"), (2, 2))
    with pytest.raises(LayoutError):
        RegisterLayout(("A",), (1,))


def test_layout_basis_labels_row_major():
    lay = RegisterLayout(("A", "B"), (2, 3))
    labels = lay.basis_labels()
    assert labels == ("00", "01", "02", "10", "11", "12")
    # first register most significant
    assert lay.basis_index("10") == 3
    with pytest.raises(LayoutError):
        lay.basis_index("20")


def test_state_validation():
    PureState(QUBIT, [1, 0])
    with pytest.raises(ValidationError):
        PureState(QUBIT, [1, 1])
    with pytest.raises(LayoutError):
        PureState(QUBIT, [1, 0, 0])


def test_state_refuses_ragged_and_nested_amplitudes():
    # a ragged vector is a LayoutError naming its first misshaped item, not
    # numpy's bare ValueError; a nested one is not flattened into a vector
    with pytest.raises(LayoutError, match="state vector 0 has shape"):
        PureState(QUBIT, [[1], [0, 0]])
    with pytest.raises(LayoutError, match=r"shape \(1, 2\)"):
        PureState(QUBIT, [[1, 0]])


def test_density_validation():
    DensityMatrix(QUBIT, np.eye(2) / 2)
    with pytest.raises(ValidationError):
        DensityMatrix(QUBIT, np.array([[0.5, 0.1], [0.2, 0.5]]))  # not hermitian
    with pytest.raises(ValidationError):
        DensityMatrix(QUBIT, np.array([[1.5, 0.0], [0.0, -0.5]]))  # not PSD
    with pytest.raises(ValidationError):
        DensityMatrix(QUBIT, np.eye(2))  # trace 2


def test_effect_and_povm_validation():
    MeasurementOperator(QUBIT, np.diag([0.0, 1.0]))
    with pytest.raises(ValidationError):
        MeasurementOperator(QUBIT, np.diag([0.0, 1.5]))
    comp = Povm.computational(QUBIT)
    assert len(comp) == 2
    with pytest.raises(ValidationError):
        Povm(QUBIT, (comp.effects[0], comp.effects[0]))  # sums to 2|0><0|


BAD_EFFECTS = {
    "not Hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
    "above one": np.diag([1.2, 0.5]),
    "below zero": np.diag([-0.1, 0.5]),
}


@pytest.mark.parametrize("case", sorted(BAD_EFFECTS))
def test_povm_refuses_an_effect_as_measurement_operator_does(case):
    with pytest.raises(ValidationError) as single:
        MeasurementOperator(QUBIT, BAD_EFFECTS[case])
    # the other effects have spectrum {1/2}, so the stack's extremes are the bad effect's
    with pytest.raises(ValidationError) as stacked:
        Povm(QUBIT, [np.eye(2) / 2, BAD_EFFECTS[case], np.eye(2) / 2])
    assert str(stacked.value) == str(single.value)


def test_povm_is_one_checked_read_only_stack():
    comp = Povm.computational(PAIR)
    assert comp.effects.shape == (4, 4, 4) and comp.effects.dtype == np.complex128
    assert not comp.effects.flags.writeable
    with pytest.raises(ValidationError):
        Povm(QUBIT, [])
    with pytest.raises(ValidationError):
        Povm(QUBIT, np.zeros((0, 2, 2)))
    with pytest.raises(ValidationError):
        Povm(QUBIT, [np.diag([1.0, 0.0])])  # misses |1><1|
    for misshaped in (np.eye(3)[None], np.eye(2), np.eye(4)[None] / 2, np.zeros((2, 2, 2, 2))):
        with pytest.raises(LayoutError):
            Povm(QUBIT, misshaped)


def test_tensor_concatenates_layouts():
    zero = PureState(RegisterLayout(("A",), (2,)), [1, 0])
    one = PureState(RegisterLayout(("B",), (2,)), [0, 1])
    both = tensor(zero, one)
    assert both.layout.names == ("A", "B")
    assert np.allclose(both.amplitudes, [0, 1, 0, 0])
    with pytest.raises(LayoutError):
        tensor(zero, zero)  # duplicate register name
    with pytest.raises(ValidationError):
        tensor(zero, DensityMatrix.pure(one))


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    rho = DensityMatrix(PAIR, np.outer(BELL, BELL))
    for side in ("A", "B"):
        red = partial_trace(rho, [side])
        assert red.layout.names == (side,)
        assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)
    with pytest.raises(LayoutError):
        partial_trace(rho, ["C"])


def einsum_partial_trace(mat, dims, keep_axes):
    """Reference: the trace over every axis outside `keep_axes`, as one einsum
    of the row-and-column tensor; the kept axes stay in layout order."""
    n = len(dims)
    rows = [chr(ord("a") + a) for a in range(n)]
    cols = [chr(ord("n") + a) if a in keep_axes else rows[a] for a in range(n)]
    keep = sorted(keep_axes)
    out = "".join(rows[a] for a in keep) + "".join(cols[a] for a in keep)
    d = math.prod(dims[a] for a in keep)
    reduced = np.einsum("".join(rows + cols) + "->" + out, mat.reshape(tuple(dims) * 2))
    return reduced.reshape(d, d)


@given(
    st.lists(st.integers(2, 3), min_size=1, max_size=4).flatmap(
        lambda dims: st.tuples(st.just(tuple(dims)), st.permutations(range(len(dims))))
    ),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@example(((2, 3, 2), (2, 0, 1)), 2, 0)
def test_partial_trace_matches_an_einsum_on_random_layouts(case, n_keep, seed):
    dims, order = case
    keep_axes = order[: min(n_keep, len(dims))]  # in any order
    layout = RegisterLayout(tuple("ABCD"[: len(dims)]), dims)
    rho = random_density(np.random.default_rng(seed), layout)
    reduced = partial_trace(rho, [layout.names[a] for a in keep_axes])
    assert reduced.layout.names == tuple(layout.names[a] for a in sorted(keep_axes))
    want = einsum_partial_trace(rho.entries, dims, keep_axes)
    assert np.max(np.abs(reduced.entries - want)) < 1e-12


def test_partial_trace_recovers_product_factors():
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        a = random_density(rng, RegisterLayout(("A",), (2,)))
        b = random_density(rng, RegisterLayout(("B",), (3,)))
        joint = tensor(a, b)
        assert np.max(np.abs(partial_trace(joint, ["A"]).entries - a.entries)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, ["B"]).entries - b.entries)) < 1e-12


def test_hermitian_eig_on_shifted_projector():
    # (1/4) I + (1/2)|0><0| has eigenvalues 3/4 and 1/4
    mat = np.eye(2) / 4 + np.diag([0.5, 0.0])
    vals, vecs = hermitian_eig(mat)
    assert np.allclose(vals, [0.75, 0.25], atol=1e-12)
    assert np.allclose(np.abs(vecs[:, 0]), [1, 0], atol=1e-12)


def test_hermitian_eig_matches_closed_form_and_reconstructs():
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = (g + g.conj().T) / 2
        vals, vecs = hermitian_eig(h)
        hi, lo = eig2x2(h)
        assert abs(vals[0] - hi) < 1e-12 and abs(vals[1] - lo) < 1e-12
        recon = (vecs * vals) @ vecs.conj().T
        assert np.max(np.abs(recon - h)) < 1e-9


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_born_probability_hand_value():
    # effect (|0><0| + |+><+|)/2 on |0>: 1/2 * (1 + 1/2) = 3/4
    effect = MeasurementOperator(QUBIT, (np.diag([1.0, 0.0]) + np.outer(KET_PLUS, KET_PLUS)) / 2)
    rho = DensityMatrix.pure(PureState.basis(QUBIT, 0))
    assert abs(born_probability(effect, rho) - 0.75) < 1e-12


def test_born_probability_clamps_and_checks_layout():
    effect = MeasurementOperator(QUBIT, np.eye(2))
    rho = DensityMatrix.pure(PureState.basis(QUBIT, 0))
    assert born_probability(effect, rho) == 1.0
    other = DensityMatrix(RegisterLayout(("X",), (2,)), np.eye(2) / 2)
    with pytest.raises(LayoutError):
        born_probability(effect, other)


def test_povm_probabilities_sum_to_one():
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        lay = RegisterLayout(("M",), (3,))
        povm = random_povm(rng, lay, 4)
        rho = random_density(rng, lay)
        total = sum(born_probability(MeasurementOperator(lay, e), rho) for e in povm.effects)
        assert abs(total - 1.0) < 1e-9


def test_partial_transpose_of_bell_projector():
    rho = DensityMatrix(PAIR, np.outer(BELL, BELL))
    pt = partial_transpose(rho, "A")
    # independent oracle: transposing one side of |beta><beta| gives SWAP/2
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    assert np.allclose(pt, swap / 2, atol=1e-12)
    vals = np.linalg.eigvalsh(pt)
    assert abs(vals[0] + 0.5) < 1e-12
    assert np.allclose(vals[1:], 0.5, atol=1e-12)


def test_partial_transpose_involution_and_product_safety():
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        rho = random_density(rng, PAIR)
        pt = partial_transpose(rho, "B")
        # transposing the same register again restores the original
        twice = pt.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert np.max(np.abs(twice - rho.entries)) < 1e-12
        a = random_density(rng, RegisterLayout(("A",), (2,)))
        b = random_density(rng, RegisterLayout(("B",), (2,)))
        prod_pt = partial_transpose(tensor(a, b), "B")
        assert np.linalg.eigvalsh(prod_pt)[0] > -1e-12


def test_embed_operator_arbitrary_axis_order():
    dims = (2, 3, 2)
    rng = np.random.default_rng(7)
    op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    # acting on axes (2, 0) means the operator's first factor is axis 2
    full = embed_operator(op, dims, (2, 0))
    vec = [rng.normal(size=d) + 1j * rng.normal(size=d) for d in dims]
    joint = np.kron(np.kron(vec[0], vec[1]), vec[2])
    out = full @ joint
    # oracle: reorder to (axis2, axis0), apply op (x) I, reorder back
    t = joint.reshape(dims).transpose(2, 0, 1).reshape(4, 3)
    t = (op @ t).reshape(2, 2, 3).transpose(1, 2, 0).reshape(-1)
    assert np.max(np.abs(out - t)) < 1e-12
    # one operator per call: a stack of them is refused
    with pytest.raises(LayoutError):
        embed_operator(op[None], dims, (2, 0))


def test_dephase_axes_kills_off_diagonals():
    rng = np.random.default_rng(11)
    rho = random_density(rng, PAIR).entries
    out = dephase_axes(rho, (2, 2), (0,))
    blocks = out.reshape(2, 2, 2, 2)
    assert np.allclose(blocks[0, :, 1, :], 0) and np.allclose(blocks[1, :, 0, :], 0)
    assert np.allclose(blocks[0, :, 0, :], rho.reshape(2, 2, 2, 2)[0, :, 0, :])
    # dephasing everything keeps only the diagonal
    full = dephase_axes(rho, (2, 2), (0, 1))
    assert np.allclose(full, np.diag(np.diag(rho)))


def test_reorder_array_roundtrip():
    dims = (2, 3, 2)
    rng = np.random.default_rng(13)
    rho = random_density(rng, RegisterLayout(("A", "B", "C"), dims)).entries
    moved = reorder_array(rho, dims, (2, 0, 1))
    # oracle: the permutation matrix sending basis state (a, b, c) to (c, a, b)
    perm = np.zeros((12, 12))
    for a in range(2):
        for b in range(3):
            for c in range(2):
                perm[(c * 2 + a) * 3 + b, (a * 3 + b) * 2 + c] = 1.0
    assert np.array_equal(moved, perm @ rho @ perm.T)
    # (c, a, b) back to (a, b, c)
    assert np.array_equal(reorder_array(moved, (2, 2, 3), (1, 2, 0)), rho)
    with pytest.raises(LayoutError):
        reorder_array(rho, dims, (0, 0, 1))


def test_measure_and_prepare_reject_misshaped_inputs():
    rho = np.eye(12, dtype=np.complex128) / 12
    dims = (2, 3, 2)
    # identity effects on (C, A) leave the partial trace on B
    blocks = measure_array(rho, dims, [np.eye(4)], (2, 0))
    assert np.allclose(blocks[0], einsum_partial_trace(rho, dims, (1,)))
    with pytest.raises(LayoutError):
        measure_array(rho, dims, [np.eye(3)], (2, 0))
    with pytest.raises(LayoutError):
        prepare_array(blocks, dims, [np.ones(3)], (2, 0))
    with pytest.raises(LayoutError):
        prepare_array(blocks, dims, [np.ones(4), np.ones(4)], (2, 0))


def embedded_kraus_sum(rho, dims, kraus, target_axes):
    """Reference: each operator embedded into the full space, two D x D products."""
    out = np.zeros(rho.shape, dtype=np.complex128)
    for k in kraus:
        full = embed_operator(k, dims, target_axes)
        out += full @ rho @ full.conj().T
    return out


@st.composite
def kraus_cases(draw):
    """Registers, a target-axis subset in any order, operators and an input.

    The input is a random density matrix or a matrix unit |j><k|, which is
    not Hermitian for j != k (the family extraction pushes matrix units
    through the verifier's channels).
    """
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=4)))
    order = draw(st.permutations(range(len(dims))))
    target = tuple(order[: draw(st.integers(1, len(dims)))])
    n_ops = draw(st.integers(1, 4))
    unit = draw(st.none() | st.tuples(st.integers(0, 80), st.integers(0, 80)))
    seed = draw(st.integers(0, 2**32 - 1))
    return dims, target, n_ops, unit, seed


@given(kraus_cases())
@example(((2, 3, 2, 3), (3, 1), 3, (5, 30), 0))
@example(((3, 2, 2), (2, 0), 2, None, 1))
def test_apply_kraus_array_matches_the_embedded_sum(case):
    dims, target, n_ops, unit, seed = case
    rng = np.random.default_rng(seed)
    d = math.prod(dims)
    d_t = math.prod(dims[a] for a in target)
    # not trace preserving: independent Gaussian operators of unit scale
    kraus = [
        (rng.normal(size=(d_t, d_t)) + 1j * rng.normal(size=(d_t, d_t))) / math.sqrt(d_t)
        for _ in range(n_ops)
    ]
    if unit is None:
        rho = random_density(rng, RegisterLayout(tuple(f"R{i}" for i in range(len(dims))), dims)).entries
    else:
        rho = np.zeros((d, d), dtype=np.complex128)
        rho[unit[0] % d, unit[1] % d] = 1.0
    got = apply_kraus_array(rho, dims, kraus, target)
    want = embedded_kraus_sum(rho, dims, kraus, target)
    assert got.shape == (d, d)
    assert np.max(np.abs(got - want)) < 1e-12


def test_apply_kraus_array_rejects_a_misshaped_operator():
    rho = np.eye(12, dtype=np.complex128) / 12
    good = np.eye(6)
    for bad in (np.eye(4), np.eye(12), np.ones((6, 3))):
        with pytest.raises(LayoutError):
            apply_kraus_array(rho, (2, 3, 2), [good, bad], (1, 2))
