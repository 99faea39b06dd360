import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from qiplab.channels import (
    CHOI_DIMENSION_BUDGET,
    ChoiMatrix,
    EbChannel,
    KrausChannel,
    adjoint_apply,
    apply_kraus,
    check_eb_ppt,
    choi,
    eb_from_separable_choi,
)
from qiplab.errors import BudgetError, DecompositionError, LayoutError, ValidationError
from qiplab.qmath import (
    DensityMatrix,
    MeasurementOperator,
    Povm,
    PureState,
    RegisterLayout,
    born_probability,
    dagger,
    hermitian_eig,
)
from qiplab.random_instances import (
    random_density,
    random_eb_channel,
    random_effect,
    random_kraus_channel,
    random_povm,
    random_pure,
    random_separable_choi_terms,
)
from qiplab.utils import derived_rng

QUBIT = RegisterLayout(("M",), (2,))
BELL = np.array([1, 0, 0, 1]) / math.sqrt(2)


def z_measure_prepare() -> EbChannel:
    return EbChannel(
        Povm.computational(QUBIT),
        (PureState.basis(QUBIT, 0), PureState.basis(QUBIT, 1)),
    )


def test_kraus_validation():
    ops = KrausChannel.identity(QUBIT).kraus_ops
    assert ops.shape == (1, 2, 2) and ops.dtype == np.complex128 and not ops.flags.writeable
    with pytest.raises(ValidationError):
        KrausChannel(QUBIT, QUBIT, (np.eye(2) * 0.5,))
    with pytest.raises(ValidationError):
        KrausChannel(QUBIT, QUBIT, ())
    with pytest.raises(ValidationError):
        KrausChannel(QUBIT, QUBIT, np.zeros((0, 2, 2)))
    with pytest.raises(LayoutError):
        KrausChannel(QUBIT, QUBIT, (np.eye(3),))
    # a rectangular channel from a pair to a qubit needs 2 x 4 operators
    pair = RegisterLayout(("A", "B"), (2, 2))
    for misshaped in (np.eye(2), np.ones((1, 4, 2)) / 2, np.eye(4)[None]):
        with pytest.raises(LayoutError):
            KrausChannel(pair, QUBIT, misshaped)


def test_apply_kraus_identity_is_noop():
    rng = np.random.default_rng(0)
    rho = random_density(rng, QUBIT)
    out = apply_kraus(KrausChannel.identity(QUBIT), rho)
    assert np.max(np.abs(out.entries - rho.entries)) < 1e-12


def test_eb_to_kraus_matches_displayed_sum():
    for i in range(100):
        rng = np.random.default_rng(100 + i)
        ch = random_eb_channel(rng, QUBIT, n_outcomes=3)
        rho = random_density(rng, QUBIT)
        direct = sum(
            np.trace(effect @ rho.entries).real * prep.projector()
            for effect, prep in zip(ch.povm.effects, ch.preps)
        )
        via_kraus = apply_kraus(ch.to_kraus(), rho)
        assert np.max(np.abs(direct - via_kraus.entries)) < 1e-10


def test_rectangular_kraus_channel():
    rng = np.random.default_rng(5)
    big = RegisterLayout(("A", "B"), (2, 2))
    ch = random_kraus_channel(rng, big, QUBIT, n_kraus=3)
    rho = random_density(rng, big)
    out = apply_kraus(ch, rho)
    assert out.layout == QUBIT


def test_choi_of_identity_is_bell_projector():
    cm = choi(KrausChannel.identity(QUBIT))
    assert np.allclose(cm.operator.entries, np.outer(BELL, BELL), atol=1e-12)
    assert cm.in_dim == 2 and cm.out_dim == 2


def test_choi_of_z_channel():
    cm = choi(z_measure_prepare())
    want = np.zeros((4, 4))
    want[0, 0] = 0.5
    want[3, 3] = 0.5
    assert np.allclose(cm.operator.entries, want, atol=1e-12)


def test_choi_of_constant_prepare():
    ch = EbChannel(Povm(QUBIT, [np.eye(2)]), (PureState.basis(QUBIT, 0),))
    cm = choi(ch)
    want = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
    assert np.allclose(cm.operator.entries, want, atol=1e-12)


def test_choi_refuses_a_state_past_the_budget_before_allocating(monkeypatch):
    wide = RegisterLayout(("A",), (33,))
    side = RegisterLayout(("B",), (CHOI_DIMENSION_BUDGET // 2 + 1,))
    too_large = (
        KrausChannel.identity(wide),
        EbChannel(Povm(QUBIT, [np.eye(2)]), (PureState.basis(side, 0),)),
    )

    def no_allocation(*args, **kwargs):
        pytest.fail("the Choi state was allocated past the budget")

    monkeypatch.setattr(np, "zeros", no_allocation)
    for channel in too_large:
        with pytest.raises(BudgetError, match="budget"):
            check_eb_ppt(channel)
    monkeypatch.undo()
    # at the budget itself the state is built
    edge = RegisterLayout(("A",), (32,))
    assert choi(KrausChannel.identity(edge)).operator.entries.shape == (1024, 1024)


def test_choi_marginal_validation():
    bad = np.diag([1.0, 0.0, 0.0, 0.0])
    layout = RegisterLayout(("in", "out"), (2, 2))
    with pytest.raises(ValidationError):
        ChoiMatrix(DensityMatrix(layout, bad), 2)


def test_choi_agrees_between_forms():
    # same channel through the eb branch and its Kraus form
    for i in range(25):
        rng = np.random.default_rng(300 + i)
        ch = random_eb_channel(rng, QUBIT, n_outcomes=3)
        a = choi(ch).operator.entries
        b = choi(ch.to_kraus()).operator.entries
        assert np.max(np.abs(a - b)) < 1e-10


@st.composite
def choi_layouts(draw):
    """Input and output registers with in * out <= 12, as far as PPT is tested."""
    d_in = draw(st.integers(2, 6))
    d_out = draw(st.integers(2, 12 // d_in))
    return RegisterLayout(("A",), (d_in,)), RegisterLayout(("B",), (d_out,))


@given(choi_layouts(), st.integers(1, 4), st.integers(0, 2**32 - 1))
@example((RegisterLayout(("A",), (3,)), RegisterLayout(("B",), (4,))), 3, 0)
def test_choi_of_a_measure_and_prepare_channel_matches_its_kraus_form(layouts, n_outcomes, seed):
    ch = random_eb_channel(np.random.default_rng(seed), *layouts, n_outcomes=n_outcomes)
    a = choi(ch).operator.entries
    b = choi(ch.to_kraus()).operator.entries
    assert np.max(np.abs(a - b)) < 1e-10


@given(
    st.integers(1, 4),
    st.integers(2, 4),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
)
@example(2, 2, 4, 9)
def test_adjoint_duality_and_unitality(n_kraus, d_in, d_out, seed):
    # rectangular channels included: the input and output spaces differ
    assume(n_kraus * d_out >= d_in)
    rng = np.random.default_rng(seed)
    in_layout = RegisterLayout(("A",), (d_in,))
    out_layout = RegisterLayout(("B",), (d_out,))
    ch = random_kraus_channel(rng, in_layout, out_layout, n_kraus=n_kraus)
    rho = random_density(rng, in_layout)
    effect = random_effect(rng, out_layout)
    lhs = born_probability(effect, apply_kraus(ch, rho))
    rhs = born_probability(adjoint_apply(ch, effect), rho)
    assert abs(lhs - rhs) < 1e-10
    ident_image = adjoint_apply(ch, MeasurementOperator.identity(out_layout))
    assert np.max(np.abs(ident_image.entries - np.eye(d_in))) < 1e-10


def test_adjoint_of_rectangular_channel():
    rng = np.random.default_rng(9)
    big = RegisterLayout(("A", "B"), (2, 2))
    ch = random_kraus_channel(rng, QUBIT, big, n_kraus=2)
    effect = random_effect(rng, big)
    rho = random_density(rng, QUBIT)
    lhs = born_probability(effect, apply_kraus(ch, rho))
    rhs = born_probability(adjoint_apply(ch, effect), rho)
    assert abs(lhs - rhs) < 1e-10


def test_identity_channel_is_npt():
    report = check_eb_ppt(KrausChannel.identity(QUBIT))
    assert report.verdict == "NPT"
    assert abs(report.min_eigenvalue + 0.5) < 1e-10


def test_z_channel_is_ppt():
    report = check_eb_ppt(z_measure_prepare())
    assert report.verdict == "PPT"
    assert report.min_eigenvalue >= -1e-10


def test_random_eb_channels_are_ppt():
    for i in range(100):
        rng = np.random.default_rng(700 + i)
        report = check_eb_ppt(random_eb_channel(rng, QUBIT, n_outcomes=3))
        assert report.min_eigenvalue >= -1e-10, f"instance {i}"


@pytest.mark.parametrize(
    "d_in, d_out, verdict",
    [
        (2, 2, "PPT"),
        (2, 3, "PPT"),
        (3, 2, "PPT"),
        (3, 3, "PPT-inconclusive"),
        (2, 4, "PPT-inconclusive"),
    ],
)
def test_ppt_certifies_measure_and_prepare_only_up_to_in_times_out_six(d_in, d_out, verdict):
    # past in * out = 6 a positive partial transpose does not imply separability
    in_layout, out_layout = RegisterLayout(("A",), (d_in,)), RegisterLayout(("B",), (d_out,))
    for i in range(10):
        channel = random_eb_channel(np.random.default_rng(900 + i), in_layout, out_layout)
        report = check_eb_ppt(channel)
        assert report.min_eigenvalue >= -1e-10, f"instance {i}"
        assert report.verdict == verdict, f"instance {i}"
    # a negative eigenvalue certifies at every size
    if d_in == d_out:
        assert check_eb_ppt(KrausChannel.identity(in_layout)).verdict == "NPT"


def test_eb_from_separable_choi_z_example():
    terms = [
        (0.5, PureState.basis(QUBIT, 0), PureState.basis(QUBIT, 0)),
        (0.5, PureState.basis(QUBIT, 1), PureState.basis(QUBIT, 1)),
    ]
    ch = eb_from_separable_choi(2, terms)
    want = choi(z_measure_prepare()).operator.entries
    assert np.max(np.abs(choi(ch).operator.entries - want)) <= 1e-9


def test_eb_from_separable_choi_roundtrip():
    out_layout = RegisterLayout(("N",), (2,))
    for i in range(50):
        rng = np.random.default_rng(900 + i)
        terms = random_separable_choi_terms(rng, QUBIT, out_layout, n_bases=2)
        ch = eb_from_separable_choi(2, terms)
        target = sum(
            p * np.kron(v.projector(), w.projector()) for p, v, w in terms
        )
        assert np.max(np.abs(choi(ch).operator.entries - target)) < 1e-9


@given(choi_layouts(), st.integers(1, 3), st.integers(0, 2**32 - 1))
@example((RegisterLayout(("A",), (2,)), RegisterLayout(("B",), (6,))), 2, 0)
def test_choi_of_a_separable_decomposition_is_its_sum(layouts, n_bases, seed):
    terms = random_separable_choi_terms(np.random.default_rng(seed), *layouts, n_bases=n_bases)
    ch = eb_from_separable_choi(layouts[0].total_dim, terms)
    target = sum(p * np.kron(v.projector(), w.projector()) for p, v, w in terms)
    assert np.max(np.abs(choi(ch).operator.entries - target)) < 1e-9


def test_eb_from_separable_choi_complex_vectors_conjugate_on_input_copy():
    # With complex measurement-side vectors the Choi state carries their
    # conjugates on the input copy; this pins the convention.
    rng = np.random.default_rng(42)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    terms = [
        (0.5, PureState(QUBIT, u[:, 0]), random_pure(rng, QUBIT)),
        (0.5, PureState(QUBIT, u[:, 1]), random_pure(rng, QUBIT)),
    ]
    ch = eb_from_separable_choi(2, terms)
    conj_target = sum(
        p * np.kron(np.outer(v.amplitudes.conj(), v.amplitudes), w.projector())
        for p, v, w in terms
    )
    assert np.max(np.abs(choi(ch).operator.entries - conj_target)) < 1e-12


def test_eb_from_separable_choi_errors():
    good = PureState.basis(QUBIT, 0)
    with pytest.raises(ValidationError):
        eb_from_separable_choi(2, [(-0.2, good, good), (1.2, PureState.basis(QUBIT, 1), good)])
    with pytest.raises(DecompositionError):
        eb_from_separable_choi(2, [(1.0, good, good)])  # 2|0><0| != I


def old_effects(layout, matrices):
    """Test-only copy of the old tuple format: each effect frozen on its own."""
    return [MeasurementOperator(layout, m).entries for m in matrices]


def old_random_povm(rng, layout, n_outcomes):
    d = layout.total_dim
    parts = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        parts.append(g @ dagger(g))
    vals, vecs = hermitian_eig(sum(parts))
    inv_root = (vecs / np.sqrt(vals)) @ dagger(vecs)
    return old_effects(layout, [inv_root @ p @ inv_root for p in parts])


def old_random_kraus_ops(rng, d_in, d_out, n_kraus):
    g = rng.normal(size=(n_kraus * d_out, d_in)) + 1j * rng.normal(size=(n_kraus * d_out, d_in))
    q, _ = np.linalg.qr(g)
    blocks = [q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus)]
    return [np.array(k, dtype=np.complex128) for k in blocks]


def assert_same_stack(stack, old):
    assert stack.dtype == np.complex128 and not stack.flags.writeable
    assert stack.shape == (len(old),) + old[0].shape
    assert [m.tobytes() for m in stack] == [m.tobytes() for m in old]


@pytest.mark.parametrize("d_in, d_out, count", [(2, 2, 1), (2, 3, 3), (3, 2, 2), (4, 4, 5)])
def test_stacks_match_the_old_tuples_bit_for_bit(d_in, d_out, count):
    lay_in, lay_out = RegisterLayout(("A",), (d_in,)), RegisterLayout(("B",), (d_out,))
    old_basis = []
    for k in range(d_in):
        m = np.zeros((d_in, d_in))
        m[k, k] = 1.0
        old_basis.append(m)
    assert_same_stack(Povm.computational(lay_in).effects, old_effects(lay_in, old_basis))
    for seed in range(6):
        rng, old_rng = derived_rng(seed, "stack"), derived_rng(seed, "stack")
        povm = random_povm(rng, lay_in, count)
        assert_same_stack(povm.effects, old_random_povm(old_rng, lay_in, count))
        eb = random_eb_channel(rng, lay_in, lay_out, count)
        assert_same_stack(eb.povm.effects, old_random_povm(old_rng, lay_in, count))
        old_preps = [random_pure(old_rng, lay_out).amplitudes for _ in range(count)]
        assert [p.amplitudes.tobytes() for p in eb.preps] == [p.tobytes() for p in old_preps]
        n_kraus = count + d_in // d_out
        kraus = random_kraus_channel(rng, lay_in, lay_out, n_kraus).kraus_ops
        assert_same_stack(kraus, old_random_kraus_ops(old_rng, d_in, d_out, n_kraus))
        terms = random_separable_choi_terms(rng, lay_in, lay_out, count)
        eb = eb_from_separable_choi(d_in, terms)
        old = old_effects(lay_in, [d_in * p * v.projector() for p, v, _ in terms])
        assert_same_stack(eb.povm.effects, old)
        assert all(new is w for new, (_, _, w) in zip(eb.preps, terms, strict=True))
