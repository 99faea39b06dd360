import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qiplab import (
    BudgetError,
    ConditioningError,
    ContractError,
    KrausChannel,
    LayoutError,
    MeasurementOperator,
    PureState,
    RegisterLayout,
    ValidationError,
    hermitian_eig,
    protocol,
    qmath,
)
from qiplab.channels import EbChannel, adjoint_apply
from qiplab.protocol import (
    CanonicalStrategy,
    ClassicalResponseStrategy,
    EntangledStrategy,
    MeasurementFamily,
    ProtocolSpec,
    acceptance_probability,
    canonicalize_prover,
    chsh_protocol,
    classical_response_channel,
    joint_response_operators,
    postselected_acceptance,
    public_coin_protocol,
    run_interaction,
    verifier_message_distribution,
)
from qiplab.qmath import (
    Povm,
    adjoint_kraus_array,
    apply_kraus_array,
    basis_projectors,
    dephase_axes,
    embed_operator,
    kron_all,
    measure_array,
    prepare_array,
    reorder_array,
)
from qiplab.random_instances import (
    random_classical_response,
    random_density,
    random_eb_channel,
    random_effect,
    random_kraus_channel,
    random_measurement_family,
    random_public_coin_spec,
    random_pure,
    random_qcip2_spec,
    random_raw_prover,
    random_unitary,
    random_verifier_spec,
)
from qiplab.utils import derived_rng

ENTANGLED_CHSH = (1 + 1 / np.sqrt(2)) / 2  # cos^2(pi/8)


def bell_chsh_prover() -> EntangledStrategy:
    """Optimal entangled prover: share a Bell pair, measure at +-pi/4."""
    spec, _ = chsh_protocol()
    p_layout = RegisterLayout(("P",), (2,))
    pm = p_layout.concat(spec.m_layout)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    first = KrausChannel.from_unitary(pm, cnot @ np.kron(h, np.eye(2)))
    eye = np.eye(2)
    ops = []
    for x in range(2):
        theta = np.pi / 4 if x == 0 else -np.pi / 4
        basis = {
            0: np.array([np.cos(theta / 2), np.sin(theta / 2)]),
            1: np.array([-np.sin(theta / 2), np.cos(theta / 2)]),
        }
        for a in range(2):
            k = np.kron(np.outer(eye[0], basis[a]), np.outer(eye[a], eye[x]))
            ops.append(k)
    return EntangledStrategy(p_layout, first, KrausChannel(pm, pm, tuple(ops)))


def test_chsh_classical_tables_hit_the_frozen_values():
    spec, _ = chsh_protocol()
    psi = PureState.basis(spec.m_layout, "0")
    always_zero = ClassicalResponseStrategy(psi, {"0": "0", "1": "0"})
    always_one = ClassicalResponseStrategy(psi, {"0": "1", "1": "1"})
    assert acceptance_probability(spec, always_zero) == pytest.approx(0.75, abs=1e-12)
    assert acceptance_probability(spec, always_one) == pytest.approx(0.25, abs=1e-12)


def test_chsh_best_classical_table_tops_out_at_three_quarters():
    # for every response table the optimal opening message gives exactly 3/4
    _, family = chsh_protocol()
    for g0 in "01":
        for g1 in "01":
            stacked = (family.op("0", g0).entries + family.op("1", g1).entries) / 2
            vals, _ = hermitian_eig(stacked)
            assert vals[0] == pytest.approx(0.75, abs=1e-12)


def test_chsh_bell_prover_reaches_the_entangled_optimum():
    spec, _ = chsh_protocol()
    assert run_interaction(spec, bell_chsh_prover()) == pytest.approx(ENTANGLED_CHSH, abs=1e-10)


def test_chsh_joint_family_is_half_the_challenge_conditioned_one():
    spec, family = chsh_protocol()
    joint = joint_response_operators(spec)
    assert joint.challenges == ("0", "1")
    for y in "01":
        for z in "01":
            diff = joint.op(y, z).entries - family.op(y, z).entries / 2
            assert np.max(np.abs(diff)) < 1e-10


def test_family_extraction_reproduces_simulated_acceptance():
    for trial in range(20):
        rng = derived_rng(97, "family", trial)
        classical = (1, 2, 3) if trial % 2 else (2, 3)
        spec = random_verifier_spec(rng, m_dim=2, v_dim=3, classical=classical)
        family = joint_response_operators(spec)
        prover = random_classical_response(rng, spec)
        psi = prover.first_message.amplitudes
        predicted = sum(
            float(np.vdot(psi, family.op(y, prover.responses[y]).entries @ psi).real)
            for y in family.challenges
        )
        assert acceptance_probability(spec, prover) == pytest.approx(predicted, abs=1e-10)


def drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed, n_outcomes=2):
    rng = np.random.default_rng(seed)
    spec = random_verifier_spec(rng, v_dim=v_dim, classical=classical)
    workspace = RegisterLayout(("W", "S"), (w_dim, s_dim))
    return spec, random_raw_prover(rng, spec, workspace=workspace, n_outcomes=n_outcomes)


# workspace dims W and S, verifier dim V, classical rounds, seed
raw_prover_draws = given(
    st.integers(2, 4),
    st.integers(2, 3),
    st.integers(2, 3),
    st.sampled_from([(), (2,), (2, 3), (1, 2, 3)]),
    st.integers(0, 2**32 - 1),
)


@raw_prover_draws
@example(2, 2, 2, (), 0)
def test_canonical_form_never_loses_acceptance_probability(w_dim, s_dim, v_dim, classical, seed):
    spec, raw = drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed)
    raw_value = acceptance_probability(spec, raw)
    canonical = canonicalize_prover(spec, raw)
    assert isinstance(canonical, CanonicalStrategy)
    value = acceptance_probability(spec, canonical)
    assert value >= raw_value - 1e-9
    assert value <= 1 + 1e-9


def kraus_form_fold(spec, raw):
    """Test-only reference for canonicalize_prover, in the Kraus form.

    Per branch, builds rho_M -> tr_R[mix2(sigma_R (x) |0><0|_S (x) rho_M)] as
    a Kraus channel from M to (S, M) and pulls the second emission POVM back
    through its adjoint.  Returns the best branch's strategy, its sigma_R,
    and the probability q_b and candidate value of every branch kept.
    """
    workspace = raw.workspace
    dims = workspace.concat(spec.m_layout).dims
    n_p = len(workspace.names)
    m_axes = tuple(range(n_p, len(dims)))
    s_axes = tuple(workspace.axis(n) for n in workspace.names if n in raw.eb_labels)
    r_axes = tuple(workspace.axis(n) for n in workspace.names if n not in raw.eb_labels)
    d_r = math.prod(dims[a] for a in r_axes)
    d_s = math.prod(dims[a] for a in s_axes)
    d_m = spec.m_layout.total_dim
    rho1 = apply_kraus_array(
        protocol._zero_state(math.prod(dims)), dims, raw.mix1.kraus_ops, tuple(range(len(dims)))
    )
    effects = raw.emit1.povm.effects
    blocks = measure_array(rho1, dims, effects, s_axes + m_axes)
    mix2_ops = [reorder_array(k, dims, r_axes + s_axes + m_axes) for k in raw.mix2.kraus_ops]
    s_layout = workspace.subset(raw.eb_labels)
    zero_s = np.eye(d_s)[0]
    trace_ops = [np.kron(np.eye(d_r)[[i]], np.eye(d_s * d_m)) for i in range(d_r)]
    best = None
    branches = []
    for block, prep in zip(blocks, raw.emit1.preps):
        q = float(np.trace(block).real)
        if q <= protocol.BRANCH_PROBABILITY_TOL:
            continue
        sigma_r = block / q
        sigma_r = (sigma_r + sigma_r.conj().T) / 2
        vals, vecs = np.linalg.eigh(sigma_r)
        vals = np.clip(vals, 0.0, None)
        vals = vals / vals.sum()
        insert_ops = [
            np.sqrt(w) * np.kron(np.kron(vec, zero_s).reshape(-1, 1), np.eye(d_m))
            for w, vec in zip(vals, vecs.T)
            if w >= 1e-14
        ]
        lam_ops = [t @ k @ j for j in insert_ops for k in mix2_ops for t in trace_ops]
        lam = KrausChannel(spec.m_layout, s_layout.concat(spec.m_layout), tuple(lam_ops))
        emit2 = raw.emit2.povm
        pulled = [adjoint_apply(lam, MeasurementOperator(emit2.layout, f)) for f in emit2.effects]
        povm = Povm(spec.m_layout, [g.entries for g in pulled])
        candidate = CanonicalStrategy(prep, EbChannel(povm, raw.emit2.preps))
        value = acceptance_probability(spec, candidate)
        branches.append((q, value))
        if best is None or value > best[0]:
            best = (value, candidate, sigma_r)
    return best[1], best[2], branches


@raw_prover_draws
@example(2, 2, 2, (), 0)
def test_fold_matches_the_kraus_form_fold(w_dim, s_dim, v_dim, classical, seed):
    spec, raw = drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed)
    want, sigma_r, _ = kraus_form_fold(spec, raw)
    # sigma_R is complex, so a fold that used its transpose would differ
    assert np.max(np.abs(sigma_r - sigma_r.T)) > 1e-6
    got = canonicalize_prover(spec, raw)
    assert got.first_message is want.first_message
    assert got.respond.povm.layout == want.respond.povm.layout
    for g, w in zip(got.respond.povm.effects, want.respond.povm.effects, strict=True):
        assert np.max(np.abs(g - w)) < 1e-13


@raw_prover_draws
@example(2, 2, 2, (), 0)
def test_raw_value_is_the_branch_average_of_the_candidates(w_dim, s_dim, v_dim, classical, seed):
    # after the first emission's outcome b the prover holds sigma_R (x) |0><0|_S
    # and sends b's prepared message: it runs branch b's canonical candidate,
    # so the raw value is their q_b-weighted average and the best one is no worse
    for n_outcomes in (2, 3, 4):
        spec, raw = drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed, n_outcomes)
        _, _, branches = kraus_form_fold(spec, raw)
        average = sum(q * value for q, value in branches)
        assert abs(acceptance_probability(spec, raw) - average) <= 1e-12


def stacked_fold(spec, raw):
    """Test-only copy of canonicalize_prover when it pulled every second
    emission effect back through mix2 first, holding all of them, and folded
    them on each branch in turn."""
    pm, opening, response = protocol._prover_moves(spec, raw, fold=True)
    dims = pm.dims
    sm_axes = opening.emit_axes
    s_axes = sm_axes[: len(sm_axes) - len(spec.m_layout.names)]
    r_axes = tuple(a for a in opening.kraus_axes if a not in sm_axes)
    zero_s = protocol._zero_state(math.prod(dims[a] for a in s_axes))
    rho1 = apply_kraus_array(protocol._zero_state(pm.total_dim), dims, opening.kraus, opening.kraus_axes)
    blocks = measure_array(rho1, dims, opening.effects, sm_axes)
    pulled = [
        adjoint_kraus_array(embed_operator(effect, dims, sm_axes), response.kraus)
        for effect in response.effects
    ]
    best = None
    for block, prep in zip(blocks, raw.emit1.preps):
        q = float(np.trace(block).real)
        if q <= protocol.BRANCH_PROBABILITY_TOL:
            continue
        sigma_r = block / q
        sigma_r = (sigma_r + sigma_r.conj().T) / 2
        lens = np.kron(sigma_r, zero_s)
        folded = [measure_array(a, dims, [lens], r_axes + s_axes)[0] for a in pulled]
        candidate = CanonicalStrategy(prep, EbChannel(Povm(spec.m_layout, folded), raw.emit2.preps))
        value = acceptance_probability(spec, candidate)
        if best is None or value > best[0]:
            best = (value, candidate)
    return best[1]


@raw_prover_draws
@example(2, 2, 2, (), 0)
def test_fold_one_effect_at_a_time_keeps_every_bit_of_the_stacked_fold(
    w_dim, s_dim, v_dim, classical, seed
):
    for n_outcomes in (2, 3, 4):
        spec, raw = drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed, n_outcomes)
        want = stacked_fold(spec, raw)
        got = canonicalize_prover(spec, raw)
        assert got.first_message is want.first_message
        assert np.array_equal(got.respond.povm.effects, want.respond.povm.effects)


def test_fold_memory_does_not_grow_with_the_emission_outcomes():
    # (W, S) = (64, 2) and M = 2: each effect pulled back onto (P, M) is a
    # 256 x 256 complex matrix, 1 MiB, so holding all of them at once would
    # add 22 MiB from 2 to 24 outcomes, and more with the temporaries
    rng = derived_rng(3, "mem")
    spec = random_verifier_spec(rng)
    workspace = RegisterLayout(("W", "S"), (64, 2))
    peaks = []
    for n_outcomes in (2, 24):
        raw = random_raw_prover(rng, spec, workspace=workspace, n_outcomes=n_outcomes)
        tracemalloc.start()
        try:
            canonicalize_prover(spec, raw)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * 2**20


def test_single_branch_canonicalization_is_exact():
    # with a one-outcome first emission there is nothing to postselect on,
    # so folding the residual workspace must reproduce the raw value exactly
    for trial in range(10):
        rng = derived_rng(32, "single", trial)
        spec = random_verifier_spec(rng, classical=(2,))
        raw = random_raw_prover(rng, spec, n_outcomes=1)
        raw_value = acceptance_probability(spec, raw)
        canonical = canonicalize_prover(spec, raw)
        assert acceptance_probability(spec, canonical) == pytest.approx(raw_value, abs=1e-9)


def test_canonicalization_handles_a_fully_measured_workspace():
    rng = derived_rng(33, "all-eb")
    spec = random_verifier_spec(rng)
    workspace = RegisterLayout(("S",), (2,))
    raw = random_raw_prover(rng, spec, workspace=workspace, eb_labels=("S",))
    raw_value = acceptance_probability(spec, raw)
    canonical = canonicalize_prover(spec, raw)
    assert acceptance_probability(spec, canonical) >= raw_value - 1e-9


def test_canonicalize_rejects_other_strategy_forms():
    spec, _ = chsh_protocol()
    with pytest.raises(ContractError):
        canonicalize_prover(spec, ClassicalResponseStrategy(None, {"0": "0", "1": "0"}))


def test_simulator_dimension_budget_is_checked_before_allocating(monkeypatch):
    spec, _ = chsh_protocol()  # (M, V) has dimension 8
    raw = random_raw_prover(derived_rng(34, "budget"), spec)  # (W, S) = (2, 2)
    # at the budget the full (W, S, M, V) layout of dimension 32 still runs
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 32)
    assert 0 <= run_interaction(spec, raw) <= 1
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 31)
    with pytest.raises(BudgetError, match="simulator budget"):
        run_interaction(spec, raw)
    monkeypatch.undo()

    def no_allocation(*args):
        raise AssertionError("a simulator array was allocated")

    for name in ("_zero_state", "apply_kraus_array", "measure_array", "prepare_array"):
        monkeypatch.setattr(protocol, name, no_allocation)
    # (W, S, M) has dimension 2048 and (W, S, M, V) 16384; the channels stay
    # small, because the sizes are checked before anything reads them
    big = dataclasses.replace(raw, workspace=RegisterLayout(("W", "S"), (512, 2)))
    for simulate in (run_interaction, canonicalize_prover):
        with pytest.raises(BudgetError, match="simulator budget"):
            simulate(spec, big)


def test_family_extraction_holds_its_copy_of_m_to_the_budget(monkeypatch):
    spec, _ = chsh_protocol()  # (M, V) has dimension 8, (M', M, V) 16
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 16)
    assert joint_response_operators(spec).effects.shape == (2, 2, 2, 2)
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 15)

    def no_allocation(*args):
        raise AssertionError("a simulator array was allocated")

    for name in ("_zero_state", "apply_kraus_array", "adjoint_kraus_array", "measure_array"):
        monkeypatch.setattr(protocol, name, no_allocation)
    with pytest.raises(BudgetError, match="simulator budget"):
        joint_response_operators(spec)


def test_two_round_readers_hold_m_and_v_to_the_budget(monkeypatch):
    spec = random_qcip2_spec(derived_rng(37, "budget"), m_dim=2, v_dim=3)  # (M, V) is 6
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 6)
    assert sum(verifier_message_distribution(spec).values()) == pytest.approx(1.0, abs=1e-12)
    assert 0 <= postselected_acceptance(spec, "0", "0") <= 1
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 5)

    def no_allocation(*args):
        raise AssertionError("a simulator array was allocated")

    for name in ("_zero_state", "apply_kraus_array", "adjoint_kraus_array", "measure_array"):
        monkeypatch.setattr(protocol, name, no_allocation)
    with pytest.raises(BudgetError, match="simulator budget"):
        verifier_message_distribution(spec)
    with pytest.raises(BudgetError, match="simulator budget"):
        postselected_acceptance(spec, "0", "0")


def misfit_prover(spec, form):
    """A prover for `spec` with one channel or state on the wrong registers.

    The entangled and raw misfits keep the total dimension, so only a check
    of the register dimensions notices them.
    """
    rng = derived_rng(35, "misfit", form)
    if form == "entangled":
        wrong = RegisterLayout(("A",), (4,))  # (P, M) is (2, 2)
        return dataclasses.replace(bell_chsh_prover(), respond=random_kraus_channel(rng, wrong))
    if form == "raw":
        raw = random_raw_prover(rng, spec, workspace=RegisterLayout(("W", "S"), (3, 2)))
        wrong = RegisterLayout(("A", "B", "C"), (2, 3, 2))  # (W, S, M) is (3, 2, 2)
        return dataclasses.replace(raw, mix2=random_kraus_channel(rng, wrong))
    psi = PureState.basis(spec.m_layout, 0)
    if form == "canonical":
        return CanonicalStrategy(psi, random_eb_channel(rng, RegisterLayout(("A",), (3,))))
    return ClassicalResponseStrategy(
        PureState.basis(RegisterLayout(("A",), (3,)), 0), {"0": "0", "1": "1"}
    )


@pytest.mark.parametrize("form", ["entangled", "raw", "canonical", "classical"])
def test_every_prover_channel_is_checked_before_allocating(monkeypatch, form):
    spec, _ = chsh_protocol()
    prover = misfit_prover(spec, form)

    def no_allocation(*args):
        raise AssertionError("a simulator array was allocated")

    monkeypatch.setattr(protocol, "_zero_state", no_allocation)
    with pytest.raises(LayoutError):
        run_interaction(spec, prover)
    if form == "raw":
        with pytest.raises(LayoutError):
            canonicalize_prover(spec, prover)


@st.composite
def measure_prepare_cases(draw):
    """Registers, a target-axis subset in any order whose leading registers
    are reset, a POVM size and an input.

    The input is a random density matrix or a matrix unit |j><k|, which is
    not Hermitian for j != k.
    """
    dims = tuple(draw(st.lists(st.integers(2, 3), min_size=1, max_size=4)))
    order = draw(st.permutations(range(len(dims))))
    target = tuple(order[: draw(st.integers(1, len(dims)))])
    n_reset = draw(st.integers(0, len(target) - 1))
    n_outcomes = draw(st.integers(1, 4))
    unit = draw(st.none() | st.tuples(st.integers(0, 80), st.integers(0, 80)))
    seed = draw(st.integers(0, 2**32 - 1))
    return dims, target, n_reset, n_outcomes, unit, seed


@given(measure_prepare_cases())
@example(((2, 3, 2, 3), (3, 0, 1), 1, 3, (5, 30), 0))
@example(((3, 2, 2), (2, 0), 0, 2, None, 1))
def test_measure_and_prepare_matches_the_kraus_form(case):
    dims, target, n_reset, n_outcomes, unit, seed = case
    rng = np.random.default_rng(seed)
    names = tuple(f"R{i}" for i in range(len(dims)))

    def layout(axes):
        return RegisterLayout(tuple(names[a] for a in axes), tuple(dims[a] for a in axes))

    reset, out = target[:n_reset], target[n_reset:]
    channel = random_eb_channel(rng, layout(target), layout(out), n_outcomes)
    d = math.prod(dims)
    if unit is None:
        rho = random_density(rng, layout(range(len(dims)))).entries
    else:
        rho = np.zeros((d, d), dtype=np.complex128)
        rho[unit[0] % d, unit[1] % d] = 1.0
    # reference: the Kraus form of the channel followed by |0> on the reset registers
    zero = np.eye(math.prod(dims[a] for a in reset))[:, :1]
    kraus = [np.kron(zero, k) for k in channel.to_kraus().kraus_ops]
    want = apply_kraus_array(rho, dims, kraus, target)
    effects, preps = protocol._emission(channel, layout(target), layout(out), "emission")
    got = protocol._apply_move(rho, dims, protocol._Move((), (), effects, preps, target))
    assert got.shape == (d, d)
    assert np.max(np.abs(got - want)) < 1e-12


def closing_effect(spec):
    """v2^dag(accept) on (M, V), computed here rather than read from the simulator."""
    return adjoint_kraus_array(spec.accept.entries, spec.v2.kraus_ops)


def forward_closing(spec, rho, dims, mv_axes):
    """Test-only reference for the closing step: v2 applied to the state,
    then the accept flag contracted on (M, V)."""
    rho = apply_kraus_array(rho, dims, spec.v2.kraus_ops, mv_axes)
    return np.trace(measure_array(rho, dims, [spec.accept.entries], mv_axes)[0])


def forward_acceptance(spec, prover):
    full, opening, response = protocol._prover_moves(spec, prover)
    dims = full.dims
    m_axes = full.axes(spec.m_layout.names)
    v_axes = full.axes(spec.v_layout.names)
    rho = protocol._zero_state(full.total_dim)
    if spec.rounds == 3:
        rho = protocol._apply_move(rho, dims, opening)
        if 1 in spec.classical_rounds:
            rho = dephase_axes(rho, dims, m_axes)
    rho = protocol._apply_move(rho, dims, protocol._challenge(spec, full))
    if spec.challenge_round in spec.classical_rounds:
        rho = dephase_axes(rho, dims, m_axes)
    rho = protocol._apply_move(rho, dims, response)
    if spec.response_round in spec.classical_rounds:
        rho = dephase_axes(rho, dims, m_axes)
    return forward_closing(spec, rho, dims, m_axes + v_axes).real


def forward_challenge_blocks(spec, rho):
    """sigma_V of each challenge after the challenge move, and the geometry."""
    full = spec.joint_layout()
    dims, m_axes = full.dims, full.axes(spec.m_layout.names)
    rho = protocol._apply_move(rho, dims, protocol._challenge(spec, full))
    if spec.challenge_round in spec.classical_rounds:
        rho = dephase_axes(rho, dims, m_axes)
    basis = np.eye(spec.m_layout.total_dim)
    effects = basis[:, :, None] * basis[:, None, :]
    mv_axes = m_axes + full.axes(spec.v_layout.names)
    return measure_array(rho, dims, effects, m_axes), dims, m_axes, mv_axes


def forward_postselected(spec, y, z):
    start = protocol._zero_state(spec.joint_layout().total_dim)
    blocks, dims, m_axes, mv_axes = forward_challenge_blocks(spec, start)
    block = blocks[spec.m_layout.basis_index(y)]
    z_vec = np.eye(spec.m_layout.total_dim)[spec.m_layout.basis_index(z)]
    rho2 = prepare_array([block / np.trace(block).real], dims, [z_vec], m_axes)
    return forward_closing(spec, rho2, dims, mv_axes).real


def forward_family(spec):
    """N_{y,z} before symmetrization, from matrix units pushed through v2."""
    d_m = spec.m_layout.total_dim
    kets = np.eye(d_m)
    tables = np.zeros((d_m, d_m, d_m, d_m), dtype=np.complex128)
    for j in range(d_m):
        for k in range(d_m):
            rho = np.kron(np.outer(kets[j], kets[k]), protocol._zero_state(spec.v_layout.total_dim))
            if 1 in spec.classical_rounds:
                rho = dephase_axes(rho, (d_m, spec.v_layout.total_dim), (0,))
            blocks, dims, m_axes, mv_axes = forward_challenge_blocks(spec, rho)
            for y in range(d_m):
                for z in range(d_m):
                    rho2 = prepare_array(blocks[y, None], dims, kets[z, None], m_axes)
                    tables[y, z, k, j] = forward_closing(spec, rho2, dims, mv_axes)
    return tables


@st.composite
def closing_cases(draw):
    """Rounds, coin, classical rounds, M and V dimensions, and a seed.

    Every classical subset is drawn; the challenge round is added where the
    protocol needs it (a public coin, or a two-round protocol, whose only
    prover form answers a classical challenge).
    """
    rounds = draw(st.sampled_from([2, 3]))
    public = draw(st.booleans())
    classical = draw(st.sets(st.integers(1, rounds)))
    if public or rounds == 2:
        classical.add(2 if rounds == 3 else 1)
    m_dim = draw(st.integers(2, 3))
    v_dim = draw(st.integers(2, 3))
    return rounds, public, frozenset(classical), m_dim, v_dim, draw(st.integers(0, 2**32 - 1))


def drawn_spec(rng, rounds, public, classical, m_dim, v_dim):
    """A random verifier with a random v2; a public coin adds the coin
    register C (and the stash R in three rounds) in front of V.  A tuple
    `m_dim` makes M that many registers."""
    m_dims = m_dim if isinstance(m_dim, tuple) else (m_dim,)
    m_layout = RegisterLayout(("M",) + tuple(f"M{i}" for i in range(1, len(m_dims))), m_dims)
    coin_names = (("R", "C") if rounds == 3 else ("C",)) if public else ()
    d_m = m_layout.total_dim
    v_layout = RegisterLayout(coin_names + ("V",), (d_m,) * len(coin_names) + (v_dim,))
    joint = m_layout.concat(v_layout)
    return ProtocolSpec(
        m_layout=m_layout,
        v_layout=v_layout,
        rounds=rounds,
        v2=random_kraus_channel(rng, joint),
        accept=random_effect(rng, joint),
        v1=None if public else random_kraus_channel(rng, joint),
        classical_rounds=classical,
        public_coin=public,
        coin_label="C" if public else None,
        saved_label="R" if public and rounds == 3 else None,
    )


def drawn_provers(rng, spec, p_dim=2, workspace=None):
    """Every prover form the spec takes: the entangled one on a workspace of
    dimension `p_dim`, the raw one on `workspace` ((W, S) = (2, 2) if None)."""
    provers = []
    if spec.challenge_round in spec.classical_rounds:
        provers.append(random_classical_response(rng, spec))
    if spec.rounds == 3:
        p_layout = RegisterLayout(("P",), (p_dim,))
        pm = p_layout.concat(spec.m_layout)
        provers += [
            EntangledStrategy(p_layout, random_kraus_channel(rng, pm), random_kraus_channel(rng, pm)),
            random_raw_prover(rng, spec, workspace=workspace),
            CanonicalStrategy(random_pure(rng, spec.m_layout), random_eb_channel(rng, spec.m_layout)),
        ]
    return provers


@given(closing_cases())
@example((3, True, frozenset({2, 3}), 2, 2, 0))
@example((2, False, frozenset({1, 2}), 3, 2, 1))
def test_pulled_back_closing_effect_matches_the_forward_closing_step(case):
    rounds, public, classical, m_dim, v_dim, seed = case
    rng = np.random.default_rng(seed)
    spec = drawn_spec(rng, rounds, public, classical, m_dim, v_dim)
    for prover in drawn_provers(rng, spec):
        want = forward_acceptance(spec, prover)
        assert abs(acceptance_probability(spec, prover) - want) < 1e-13
    labels = spec.m_layout.basis_labels()
    if rounds == 2 and classical == {1, 2}:
        for y in labels:
            for z in labels:
                want = forward_postselected(spec, y, z)
                assert abs(postselected_acceptance(spec, y, z) - want) < 1e-13
    if rounds == 3 and {2, 3} <= classical:
        family = joint_response_operators(spec)
        tables = forward_family(spec)
        for y_idx, y in enumerate(labels):
            for z_idx, z in enumerate(labels):
                table = tables[y_idx, z_idx]
                want = (table + table.conj().T) / 2
                assert np.max(np.abs(family.op(y, z).entries - want)) < 1e-13


def applied_challenge(spec, rho, dims, m_axes, v_axes, full):
    """Test-only copy of the challenge step before it became a move: v1 or
    the public coin applied to the state, then dephasing if classical."""
    if spec.public_coin:
        n = spec.m_layout.total_dim
        if spec.rounds == 3:
            swap = np.eye(n * n).reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n)
            rho = apply_kraus_array(rho, dims, [swap], m_axes + (full.axis(spec.saved_label),))
        axes = m_axes + (full.axis(spec.coin_label),)
        blocks = measure_array(rho, dims, [np.eye(n * n) / n] * n, axes)
        rho = prepare_array(blocks, dims, np.eye(n * n)[:: n + 1], axes)
    else:
        rho = apply_kraus_array(rho, dims, spec.v1.kraus_ops, tuple(m_axes) + tuple(v_axes))
    if spec.challenge_round in spec.classical_rounds:
        rho = dephase_axes(rho, dims, m_axes)
    return rho


def applied_run_interaction(spec, prover):
    full, opening, response = protocol._prover_moves(spec, prover)
    dims = full.dims
    m_axes, v_axes = full.axes(spec.m_layout.names), full.axes(spec.v_layout.names)
    rho = protocol._zero_state(full.total_dim)
    if opening is not None:
        rho = protocol._apply_move(rho, dims, opening)
        if 1 in spec.classical_rounds:
            rho = dephase_axes(rho, dims, m_axes)
    rho = applied_challenge(spec, rho, dims, m_axes, v_axes, full)
    rho = protocol._apply_move(rho, dims, response)
    if spec.response_round in spec.classical_rounds:
        rho = dephase_axes(rho, dims, m_axes)
    block = measure_array(rho, dims, [closing_effect(spec)], m_axes + v_axes)[0]
    return protocol.checked_probability(float(np.trace(block).real), "acceptance probability")


def forward_run_interaction(spec, prover):
    """Test-only copy of the forward simulator run_interaction replaced: one
    dense state over (P, M, V) through the opening, challenge and response
    moves, each classical round dephased, then the closing effect."""
    full, opening, response = protocol._prover_moves(spec, prover)
    dims = full.dims
    m_axes, v_axes = full.axes(spec.m_layout.names), full.axes(spec.v_layout.names)
    rho = protocol._zero_state(full.total_dim)
    challenge = protocol._challenge(spec, full)
    moves = [move for move in (opening, challenge, response) if move is not None]
    for round_, move in enumerate(moves, start=1):
        rho = protocol._apply_move(rho, dims, move)
        if round_ in spec.classical_rounds:
            rho = dephase_axes(rho, dims, m_axes)
    block = measure_array(rho, dims, [closing_effect(spec)], m_axes + v_axes)[0]
    return protocol.checked_probability(float(np.trace(block).real), "acceptance probability")


@st.composite
def interaction_cases(draw):
    """Rounds, coin, classical rounds, M's registers, V's dimension, the
    entangled workspace's dimension, the raw workspace's register order, and
    a seed.

    Every classical subset is drawn, the challenge round added where the
    protocol needs it.  The shapes fall on both sides of each choice the
    contraction makes: d_P <= d_M (every canonical and classical prover, and
    workspaces up to M's size) and d_P > d_M; d_M <= d_V (every public coin)
    and d_M > d_V (a private coin with a small V).
    """
    rounds = draw(st.sampled_from([2, 3]))
    public = draw(st.booleans())
    classical = draw(st.sets(st.integers(1, rounds)))
    if public or rounds == 2:
        classical.add(2 if rounds == 3 else 1)
    m_dims = draw(st.sampled_from([(2,), (3,), (2, 2)]))
    v_dim = draw(st.integers(2, 3))
    p_dim = draw(st.integers(2, 5))
    s_first = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return rounds, public, frozenset(classical), m_dims, v_dim, p_dim, s_first, seed


@given(interaction_cases())
@example((3, False, frozenset(), (3,), 2, 2, False, 0))  # d_M > d_V, d_P <= d_M
@example((3, False, frozenset({1, 2, 3}), (3,), 2, 5, True, 1))  # d_M > d_V, d_P > d_M
@example((3, True, frozenset({2, 3}), (2,), 2, 3, False, 2))  # d_M <= d_V, d_P > d_M
@example((3, True, frozenset({1, 2}), (2, 2), 2, 4, True, 3))  # two M registers, d_P = d_M
@example((2, True, frozenset({1}), (2,), 3, 2, False, 4))
@example((2, False, frozenset({1, 2}), (2, 2), 2, 2, False, 5))
def test_contraction_matches_the_forward_run(case):
    rounds, public, classical, m_dims, v_dim, p_dim, s_first, seed = case
    rng = np.random.default_rng(seed)
    spec = drawn_spec(rng, rounds, public, classical, m_dims, v_dim)
    workspace = RegisterLayout(("S", "W") if s_first else ("W", "S"), (2, 2))
    for prover in drawn_provers(rng, spec, p_dim, workspace):
        assert abs(run_interaction(spec, prover) - forward_run_interaction(spec, prover)) < 1e-13


def stacked_embed(ops, dims, target_axes):
    """Test-only copy of embed_operator when it took a stack (n, d_t, d_t):
    one broadcast product with the identity, then one transpose of the
    whole stack back to layout order."""
    target = list(target_axes)
    order = target + [a for a in range(len(dims)) if a not in target]
    d_t = math.prod(dims[a] for a in target)
    d = math.prod(dims)
    n, n_axes = len(ops), len(dims)
    eye = np.eye(d // d_t, dtype=np.complex128)[:, None, :]
    kron = (ops[..., :, None, :, None] * eye).reshape(n, d, d)
    inverse = sorted(range(n_axes), key=order.__getitem__)
    perm = [0] + [1 + a for a in inverse] + [1 + n_axes + a for a in inverse]
    moved = kron.reshape((n,) + tuple(dims[a] for a in order) * 2).transpose(perm)
    return np.ascontiguousarray(moved.reshape(n, d, d))


def stacked_run_interaction(spec, prover):
    """Test-only copy of run_interaction when it pulled its closing terms
    back as one stack: every term embedded at once, then each Kraus operator
    broadcast over the stack as K^dag @ stack @ K."""
    full, opening, response = protocol._prover_moves(spec, prover)
    pm = full.subset(n for n in full.names if n not in spec.v_layout.names)
    m_axes = pm.axes(spec.m_layout.names)
    rho = protocol._zero_state(pm.total_dim)
    if opening is not None:
        rho = protocol._apply_move(rho, pm.dims, opening)
        if 1 in spec.classical_rounds:
            rho = dephase_axes(rho, pm.dims, m_axes)
    xs, bs = protocol._closing_terms(spec)
    axes = m_axes
    if len(response.effects):
        phis = response.preps.reshape(len(response.preps), -1, xs.shape[-1])
        weights = np.einsum("lsa,jab,lsb->jl", phis.conj(), xs, phis)
        xs, axes = np.tensordot(weights, response.effects, 1), response.emit_axes
    pulled = stacked_embed(xs, pm.dims, axes)
    if len(response.kraus):
        stack, pulled = pulled, np.zeros(pulled.shape, dtype=np.complex128)
        for k in response.kraus:
            pulled += k.conj().T @ stack @ k
    scores = protocol._challenge_scores(spec, rho, pm, bs)
    p = np.einsum("jab,jba->", pulled, scores).real
    return protocol.checked_probability(float(p), "acceptance probability")


@given(interaction_cases())
@example((3, False, frozenset(), (3,), 2, 2, False, 0))
@example((3, True, frozenset({1, 2}), (2, 2), 2, 4, True, 3))
@example((2, False, frozenset({1, 2}), (2, 2), 2, 2, False, 5))
def test_one_term_at_a_time_keeps_every_bit_of_the_stacked_pull_back(case):
    rounds, public, classical, m_dims, v_dim, p_dim, s_first, seed = case
    rng = np.random.default_rng(seed)
    spec = drawn_spec(rng, rounds, public, classical, m_dims, v_dim)
    workspace = RegisterLayout(("S", "W") if s_first else ("W", "S"), (2, 2))
    for prover in drawn_provers(rng, spec, p_dim, workspace):
        assert run_interaction(spec, prover) == stacked_run_interaction(spec, prover)


def test_one_term_at_a_time_keeps_every_bit_on_the_sim_large_shape():
    assert acceptance_probability is run_interaction
    # (W, S) = (8, 4), M = 2 and V = 4, as the sim-large benchmark draws them
    for trial in range(3):
        rng = derived_rng(38, "stacked-pull-back", trial)
        spec = random_verifier_spec(rng, m_dim=2, v_dim=4)
        raw = random_raw_prover(rng, spec, workspace=RegisterLayout(("W", "S"), (8, 4)))
        for prover in (raw, canonicalize_prover(spec, raw)):
            assert run_interaction(spec, prover) == stacked_run_interaction(spec, prover)


def test_a_sim_large_run_passes_no_array_of_the_total_dimension(monkeypatch):
    # (W, S) = (8, 4), M = 2 and V = 4, as the sim-large benchmark draws them: D = 256
    rng = derived_rng(36, "contraction")
    spec = random_verifier_spec(rng, m_dim=2, v_dim=4)
    raw = random_raw_prover(rng, spec, workspace=RegisterLayout(("W", "S"), (8, 4)))
    sides = []

    def watched(kernel):
        def call(*args):
            result = kernel(*args)
            for arr in args + (result,):
                if isinstance(arr, np.ndarray):
                    sides.extend(arr.shape)
            return result

        return call

    kernels = (
        "_zero_state", "apply_kraus_array", "adjoint_kraus_array", "dephase_axes",
        "embed_operator", "measure_array", "prepare_array",
    )
    for name in kernels:
        monkeypatch.setattr(protocol, name, watched(getattr(protocol, name)))
    forward_run_interaction(spec, raw)
    assert 256 in sides  # the forward run builds the state over (P, M, V)
    sides.clear()
    run_interaction(spec, raw)
    run_interaction(spec, canonicalize_prover(spec, raw))
    assert sides and max(sides) < 256


def applied_challenge_blocks(spec):
    full = spec.joint_layout()
    m_axes, v_axes = full.axes(spec.m_layout.names), full.axes(spec.v_layout.names)
    rho = applied_challenge(spec, protocol._zero_state(full.total_dim), full.dims, m_axes, v_axes, full)
    return measure_array(rho, full.dims, basis_projectors(spec.m_layout.total_dim), m_axes)


def applied_postselected(spec, y, z):
    full = spec.joint_layout()
    m_axes = full.axes(spec.m_layout.names)
    block = applied_challenge_blocks(spec)[spec.m_layout.basis_index(y)]
    p_y = float(np.trace(block).real)
    z_effect = basis_projectors(spec.m_layout.total_dim)[spec.m_layout.basis_index(z), None]
    e_z = measure_array(closing_effect(spec), full.dims, z_effect, m_axes)[0]
    return protocol.checked_probability(float(np.trace(e_z @ block).real) / p_y)


def applied_family(spec):
    """N_{y,z}, symmetrized, with the challenge applied to each matrix unit."""
    full = spec.joint_layout()
    dims = full.dims
    m_axes, v_axes = full.axes(spec.m_layout.names), full.axes(spec.v_layout.names)
    d_m = spec.m_layout.total_dim
    v_zero = protocol._zero_state(spec.v_layout.total_dim)
    basis = basis_projectors(d_m)
    kets = np.eye(d_m)
    closing_blocks = measure_array(closing_effect(spec), dims, basis, m_axes)
    tables = np.zeros((d_m, d_m, d_m, d_m), dtype=np.complex128)
    for j in range(d_m):
        for k in range(d_m):
            rho = np.kron(np.outer(kets[j], kets[k]), v_zero)
            if 1 in spec.classical_rounds:
                rho = dephase_axes(rho, dims, m_axes)
            rho = applied_challenge(spec, rho, dims, m_axes, v_axes, full)
            blocks = measure_array(rho, dims, basis, m_axes)
            tables[:, :, k, j] = np.einsum("zab,yba->yz", closing_blocks, blocks)
    return (tables + tables.conj().transpose(0, 1, 3, 2)) / 2


@given(closing_cases())
@example((3, True, frozenset({2, 3}), 2, 2, 0))
@example((3, False, frozenset({1, 2, 3}), 3, 2, 1))
@example((2, True, frozenset({1}), 2, 3, 2))
@example((2, False, frozenset({1, 2}), 3, 2, 3))
def test_challenge_move_matches_the_applied_challenge_exactly(case):
    rounds, public, classical, m_dim, v_dim, seed = case
    rng = np.random.default_rng(seed)
    spec = drawn_spec(rng, rounds, public, classical, m_dim, v_dim)
    for prover in drawn_provers(rng, spec):
        assert forward_run_interaction(spec, prover) == applied_run_interaction(spec, prover)
    labels = spec.m_layout.basis_labels()
    if rounds == 2:
        want = [float(np.trace(block).real) for block in applied_challenge_blocks(spec)]
        assert list(verifier_message_distribution(spec).values()) == want
    if rounds == 2 and classical == {1, 2}:
        for y in labels:
            for z in labels:
                got = postselected_acceptance(spec, y, z)
                assert abs(got - applied_postselected(spec, y, z)) <= 1e-13
    if rounds == 3 and {2, 3} <= classical:
        family = joint_response_operators(spec)
        want = applied_family(spec)
        for y_idx, y in enumerate(labels):
            for z_idx, z in enumerate(labels):
                assert np.max(np.abs(family.op(y, z).entries - want[y_idx, z_idx])) <= 1e-13


@given(st.booleans(), st.booleans(), st.integers(2, 4), st.integers(4, 5), st.integers(0, 2**32 - 1))
@example(False, False, 2, 4, 0)
@example(True, True, 4, 5, 1)
def test_message_distribution_matches_the_applied_challenge_on_a_larger_v(
    public, classical_response, m_dim, v_dim, seed
):
    # with d_V of 4 or 5 the trace over V may sum in another order than np.trace
    classical = frozenset({1, 2} if classical_response else {1})
    spec = drawn_spec(np.random.default_rng(seed), 2, public, classical, m_dim, v_dim)
    want = [float(np.trace(block).real) for block in applied_challenge_blocks(spec)]
    got = list(verifier_message_distribution(spec).values())
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


def test_postselection_recomposes_the_total_acceptance():
    for trial in range(10):
        rng = derived_rng(55, "post", trial)
        spec = random_qcip2_spec(rng, m_dim=2, v_dim=3)
        prover = random_classical_response(rng, spec)
        weights = verifier_message_distribution(spec)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-10)
        total = sum(
            p_y * postselected_acceptance(spec, y, prover.responses[y])
            for y, p_y in weights.items()
        )
        assert acceptance_probability(spec, prover) == pytest.approx(total, abs=1e-9)


def test_conditioning_on_an_impossible_challenge_raises():
    m_layout = RegisterLayout(("M",), (2,))
    v_layout = RegisterLayout(("V",), (2,))
    joint = m_layout.concat(v_layout)
    # the opening move collapses every challenge onto label "0"
    crush = tuple(
        np.kron(np.eye(2)[:, [0]] @ np.eye(2)[[j], :], np.eye(2)) for j in range(2)
    )
    spec = ProtocolSpec(
        m_layout=m_layout,
        v_layout=v_layout,
        rounds=2,
        v1=KrausChannel(joint, joint, crush),
        v2=KrausChannel.identity(joint),
        accept=MeasurementOperator.identity(joint),
        classical_rounds=frozenset({1, 2}),
    )
    assert postselected_acceptance(spec, "0", "0") == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ConditioningError):
        postselected_acceptance(spec, "1", "0")


def test_public_coin_challenges_are_uniform():
    m_layout = RegisterLayout(("M",), (2,))
    v_layout = RegisterLayout(("C",), (2,))
    spec = ProtocolSpec(
        m_layout=m_layout,
        v_layout=v_layout,
        rounds=2,
        v2=KrausChannel.identity(m_layout.concat(v_layout)),
        accept=MeasurementOperator.identity(m_layout.concat(v_layout)),
        classical_rounds=frozenset({1, 2}),
        public_coin=True,
        coin_label="C",
    )
    weights = verifier_message_distribution(spec)
    assert weights == pytest.approx({"0": 0.5, "1": 0.5}, abs=1e-12)


def test_two_round_protocols_only_take_classical_response_provers():
    rng = derived_rng(7, "two-round")
    spec = random_qcip2_spec(rng)
    with pytest.raises(ContractError):
        acceptance_probability(spec, bell_chsh_prover())
    with pytest.raises(ValidationError):
        acceptance_probability(
            spec,
            ClassicalResponseStrategy(
                PureState.basis(spec.m_layout, 0), {"0": "0", "1": "0"}
            ),
        )


def test_classical_response_needs_a_classical_challenge():
    rng = derived_rng(8, "quantum-challenge")
    spec = random_verifier_spec(rng, classical=())
    prover = random_classical_response(rng, spec)
    with pytest.raises(ContractError):
        acceptance_probability(spec, prover)


def test_response_tables_are_validated():
    m_layout = RegisterLayout(("M",), (2,))
    with pytest.raises(ValidationError):
        classical_response_channel(m_layout, {"0": "0"})
    with pytest.raises(ValidationError):
        classical_response_channel(m_layout, {"0": "0", "1": "0", "2": "1"})


def test_spec_validation_catches_shape_and_flag_mistakes():
    m_layout = RegisterLayout(("M",), (2,))
    v_layout = RegisterLayout(("R", "C"), (2, 2))
    joint = m_layout.concat(v_layout)
    good = dict(
        m_layout=m_layout,
        v_layout=v_layout,
        rounds=3,
        v2=KrausChannel.identity(joint),
        accept=MeasurementOperator.identity(joint),
        classical_rounds=frozenset({2, 3}),
        public_coin=True,
        coin_label="C",
        saved_label="R",
    )
    ProtocolSpec(**good)
    with pytest.raises(ValidationError):
        ProtocolSpec(**{**good, "rounds": 4})
    with pytest.raises(ValidationError):
        ProtocolSpec(**{**good, "coin_label": None})
    with pytest.raises(ValidationError):
        ProtocolSpec(**{**good, "saved_label": None})
    with pytest.raises(ValidationError):
        ProtocolSpec(**{**good, "classical_rounds": frozenset({3})})
    with pytest.raises(ValidationError):
        ProtocolSpec(**{**good, "public_coin": False})
    with pytest.raises(LayoutError):
        bad_accept = MeasurementOperator.identity(m_layout)
        ProtocolSpec(**{**good, "accept": bad_accept})
    with pytest.raises(LayoutError):
        coin_too_small = RegisterLayout(("R", "C"), (2, 3))
        ProtocolSpec(
            **{
                **good,
                "v_layout": coin_too_small,
                "coin_label": "C",
                "saved_label": "R",
                "v2": KrausChannel.identity(m_layout.concat(coin_too_small)),
                "accept": MeasurementOperator.identity(m_layout.concat(coin_too_small)),
            }
        )


def test_family_requires_every_challenge_response_pair():
    m_layout = RegisterLayout(("M",), (2,))
    # one effect for the two (challenge, response) pairs: a stack of the wrong shape
    with pytest.raises(LayoutError):
        MeasurementFamily(("0", "1"), ("0",), m_layout, np.eye(2)[None, None])
    family = MeasurementFamily(("0", "1"), ("0",), m_layout, np.eye(2)[None, None].repeat(2, 0))
    with pytest.raises(ValidationError, match="no effect"):
        family.op("0", "1")


BAD_EFFECTS = {
    "not Hermitian": np.array([[0.5, 0.1], [0.0, 0.5]]),
    "above one": np.diag([1.2, 0.5]),
    "below zero": np.diag([-0.1, 0.5]),
}


@pytest.mark.parametrize("case", sorted(BAD_EFFECTS))
def test_family_refuses_an_effect_as_measurement_operator_does(case):
    m_layout = RegisterLayout(("M",), (2,))
    with pytest.raises(ValidationError) as single:
        MeasurementOperator(m_layout, BAD_EFFECTS[case])
    effects = np.broadcast_to(np.eye(2) / 2, (2, 3, 2, 2)).copy()
    effects[1, 2] = BAD_EFFECTS[case]
    with pytest.raises(ValidationError) as stacked:
        MeasurementFamily(("0", "1"), ("0", "1", "2"), m_layout, effects)
    # the other effects have spectrum {1/2}, so the stack's extremes are the bad effect's
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize(
    "shape", [(2, 3, 3, 3), (3, 2, 2, 2), (2, 3, 2), (6, 2, 2), (2, 3, 2, 2, 1)]
)
def test_family_refuses_a_stack_of_the_wrong_shape(shape):
    m_layout = RegisterLayout(("M",), (2,))
    with pytest.raises(LayoutError):
        MeasurementOperator(m_layout, np.eye(3) / 2)
    with pytest.raises(LayoutError):
        MeasurementFamily(("0", "1"), ("0", "1", "2"), m_layout, np.zeros(shape))


def test_ragged_stacks_are_layout_errors():
    # numpy cannot stack items of different shapes; each format names the first misfit
    qubit = RegisterLayout(("M",), (2,))
    with pytest.raises(LayoutError, match=r"family stack 0, 1 has shape \(3, 3\), expected \(2, 2\)"):
        MeasurementFamily(("0",), ("0", "1"), qubit, [[np.eye(2) / 2, np.eye(3) / 2]])
    with pytest.raises(LayoutError, match=r"POVM effect 1 has shape \(3, 3\), expected \(2, 2\)"):
        Povm(qubit, [np.eye(2), np.eye(3)])
    with pytest.raises(LayoutError, match=r"Kraus operator 1 has shape \(3, 3\), expected \(2, 2\)"):
        KrausChannel(qubit, qubit, (np.eye(2), np.eye(3)))
    with pytest.raises(LayoutError, match=r"Kraus operator 0 has shape \(2, 2\), expected \(2, 4\)"):
        KrausChannel(RegisterLayout(("A", "B"), (2, 2)), qubit, (np.eye(2), np.eye(4)))


def test_response_dephasing_is_invisible_to_basis_diagonal_flags():
    # when the flag is diagonal on M, declaring the response classical
    # cannot change the outcome
    import dataclasses

    from qiplab.random_instances import random_effect, random_eb_channel, random_pure

    for trial in range(10):
        rng = derived_rng(61, "dephase", trial)
        m_layout = RegisterLayout(("M",), (2,))
        v_layout = RegisterLayout(("V",), (2,))
        joint = m_layout.concat(v_layout)
        eye = np.eye(2)
        flag = np.zeros((4, 4), dtype=np.complex128)
        for j in range(2):
            flag += np.kron(np.outer(eye[j], eye[j]), random_effect(rng, v_layout).entries)
        spec = ProtocolSpec(
            m_layout=m_layout,
            v_layout=v_layout,
            rounds=3,
            v1=KrausChannel.identity(joint),
            v2=KrausChannel.identity(joint),
            accept=MeasurementOperator(joint, flag),
            classical_rounds=frozenset({2}),
        )
        dephased = dataclasses.replace(spec, classical_rounds=frozenset({2, 3}))
        prover = CanonicalStrategy(
            random_pure(rng, m_layout), random_eb_channel(rng, m_layout)
        )
        a = acceptance_probability(spec, prover)
        b = acceptance_probability(dephased, prover)
        assert a == pytest.approx(b, abs=1e-10)


def test_public_coin_pipeline_equals_the_explicit_coin_mixture():
    from qiplab.random_instances import random_classical_response, random_public_coin_spec

    for trial in range(10):
        rng = derived_rng(62, "coin-mix", trial)
        spec, family = random_public_coin_spec(rng)
        prover = random_classical_response(rng, spec)
        psi = prover.first_message.amplitudes
        mixture = sum(
            0.5 * float(np.vdot(psi, family.op(x, prover.responses[x]).entries @ psi).real)
            for x in family.challenges
        )
        assert acceptance_probability(spec, prover) == pytest.approx(mixture, abs=1e-10)


def test_always_accept_verifier_accepts_any_prover():
    rng = derived_rng(63, "always")
    m_layout = RegisterLayout(("M",), (2,))
    v_layout = RegisterLayout(("V",), (2,))
    joint = m_layout.concat(v_layout)
    spec = ProtocolSpec(
        m_layout=m_layout,
        v_layout=v_layout,
        rounds=3,
        v1=KrausChannel.identity(joint),
        v2=KrausChannel.identity(joint),
        accept=MeasurementOperator.identity(joint),
        classical_rounds=frozenset({2, 3}),
    )
    from qiplab.random_instances import random_classical_response, random_raw_prover

    assert acceptance_probability(spec, random_classical_response(rng, spec)) == pytest.approx(1.0, abs=1e-12)
    assert acceptance_probability(spec, random_raw_prover(rng, spec)) == pytest.approx(1.0, abs=1e-12)
    assert acceptance_probability(spec, bell_chsh_prover()) == pytest.approx(1.0, abs=1e-12)


def test_two_round_coin_commitment_postselects_to_the_family_entry():
    # a two-round public-coin variant whose flag scores a fixed committed bit:
    # conditioning on coin x and answer a must return <0|M_{x,a}|0>
    _, family = chsh_protocol()
    m_layout = RegisterLayout(("M",), (2,))
    v_layout = RegisterLayout(("C",), (2,))
    joint = m_layout.concat(v_layout)
    eye = np.eye(2)
    zero = np.zeros(2)
    zero[0] = 1.0
    flag = np.zeros((4, 4), dtype=np.complex128)
    for x in range(2):
        for a in range(2):
            score = float(zero @ family.op(str(x), str(a)).entries.real @ zero)
            flag += score * np.kron(np.outer(eye[a], eye[a]), np.outer(eye[x], eye[x]))
    spec = ProtocolSpec(
        m_layout=m_layout,
        v_layout=v_layout,
        rounds=2,
        v2=KrausChannel.identity(joint),
        accept=MeasurementOperator(joint, flag),
        classical_rounds=frozenset({1, 2}),
        public_coin=True,
        coin_label="C",
    )
    assert postselected_acceptance(spec, "0", "0") == pytest.approx(0.75, abs=1e-12)
    assert postselected_acceptance(spec, "1", "1") == pytest.approx(0.25, abs=1e-12)


def wrong_form_instance(case):
    """A protocol and a prover, one of whose channels has the other form
    (Kraus or measure-and-prepare) while acting on the right registers."""
    rng = derived_rng(36, "wrong-form")
    spec = random_verifier_spec(rng)
    raw = random_raw_prover(rng, spec)
    pm = raw.workspace.concat(spec.m_layout)
    if case in ("v1", "v2"):
        return dataclasses.replace(spec, **{case: random_eb_channel(rng, spec.joint_layout())}), raw
    if case == "raw mix1":
        return spec, dataclasses.replace(raw, mix1=random_eb_channel(rng, pm))
    if case == "raw emit2":
        sm = raw.workspace.subset(raw.eb_labels).concat(spec.m_layout)
        return spec, dataclasses.replace(raw, emit2=random_kraus_channel(rng, sm, spec.m_layout))
    if case == "entangled respond":
        return spec, EntangledStrategy(raw.workspace, raw.mix1, random_eb_channel(rng, pm))
    psi = PureState.basis(spec.m_layout, 0)
    return spec, CanonicalStrategy(psi, KrausChannel.identity(spec.m_layout))


@pytest.mark.parametrize(
    "case", ["v1", "v2", "raw mix1", "raw emit2", "entangled respond", "canonical respond"]
)
def test_channels_of_the_wrong_form_are_refused(case):
    with pytest.raises(ValidationError, match="must be"):
        run_interaction(*wrong_form_instance(case))
    if case.startswith("raw"):
        with pytest.raises(ValidationError, match="must be"):
            canonicalize_prover(*wrong_form_instance(case))


def old_public_coin_spec(operators):
    """Test-only copy of the flag construction public_coin_protocol replaced,
    reading the family as the dict of effects it used to be."""
    m_layout = RegisterLayout(("M",), (2,))
    v_layout = RegisterLayout(("R", "C"), (2, 2))
    joint = m_layout.concat(v_layout)
    flag = np.zeros((8, 8), dtype=np.complex128)
    for x in range(2):
        for a in range(2):
            proj_a = np.zeros((2, 2))
            proj_a[a, a] = 1.0
            proj_x = np.zeros((2, 2))
            proj_x[x, x] = 1.0
            flag += kron_all([proj_a, operators[str(x), str(a)].entries, proj_x])
    return ProtocolSpec(
        m_layout=m_layout,
        v_layout=v_layout,
        rounds=3,
        v2=KrausChannel.identity(joint),
        accept=MeasurementOperator(joint, flag),
        classical_rounds=frozenset({2, 3}),
        public_coin=True,
        coin_label="C",
        saved_label="R",
    )


def old_random_operators(rng, layout, n_challenges=2, n_responses=2):
    """Test-only copy of random_measurement_family's draws as the dict of
    effects it built before the family became one array."""
    return {
        (str(y), str(z)): random_effect(rng, layout)
        for y in range(n_challenges)
        for z in range(n_responses)
    }


def old_chsh_operators():
    """Test-only copy of chsh_protocol's family as the dict it built before
    the family became one array."""
    m_layout = RegisterLayout(("M",), (2,))
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    proj = np.eye(2)[:, :, None] * np.eye(2)[:, None, :]
    return {
        (str(x), str(a)): MeasurementOperator(m_layout, (proj[a] + h @ proj[a ^ x] @ h) / 2)
        for x in range(2)
        for a in range(2)
    }


def old_random_public_coin_spec(rng):
    """Test-only copy of the random instance before it used public_coin_protocol."""
    operators = old_random_operators(rng, RegisterLayout(("M",), (2,)))
    return old_public_coin_spec(operators), operators


def assert_same_family(family, operators):
    """The family's array and typed views against a dict of effects, bit for bit."""
    n_y, n_z = len(family.challenges), len(family.responses)
    d = family.layout.total_dim
    assert family.effects.shape == (n_y, n_z, d, d) and len(operators) == n_y * n_z
    assert family.effects.dtype == np.complex128 and not family.effects.flags.writeable
    for i, y in enumerate(family.challenges):
        for j, z in enumerate(family.responses):
            want = operators[y, z]
            assert want.layout == family.layout
            assert family.effects[i, j].tobytes() == want.entries.tobytes()
            assert family.op(y, z).entries.tobytes() == want.entries.tobytes()


def assert_same_spec(a, b):
    for field in dataclasses.fields(ProtocolSpec):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "accept":
            assert x.layout == y.layout and x.entries.tobytes() == y.entries.tobytes()
        elif field.name == "v2":
            assert x.in_layout == y.in_layout and x.out_layout == y.out_layout
            assert [k.tobytes() for k in x.kraus_ops] == [k.tobytes() for k in y.kraus_ops]
        else:
            assert x == y, field.name


def test_public_coin_protocol_matches_the_old_flag_bit_for_bit():
    spec, family = chsh_protocol()
    assert_same_spec(spec, old_public_coin_spec(old_chsh_operators()))
    assert_same_family(family, old_chsh_operators())
    for seed in range(24):
        new_spec, new_family = random_public_coin_spec(derived_rng(seed, "coin-flag"))
        old_spec, old_operators = old_random_public_coin_spec(derived_rng(seed, "coin-flag"))
        assert_same_spec(new_spec, old_spec)
        assert_same_family(new_family, old_operators)


@pytest.mark.parametrize("n_y, n_z, d", [(1, 3, 2), (2, 2, 2), (3, 2, 3), (2, 4, 4)])
def test_random_family_stacks_the_old_draws_bit_for_bit(n_y, n_z, d):
    layout = RegisterLayout(("M",), (d,))
    for seed in range(6):
        family = random_measurement_family(derived_rng(seed, "family"), layout, n_y, n_z)
        old = old_random_operators(derived_rng(seed, "family"), layout, n_y, n_z)
        assert_same_family(family, old)


def checked_alone_draws(rng, layout, n_y, n_z):
    """Test-only copy of random_measurement_family's draws as they were made
    when each one was first checked alone, as a MeasurementOperator."""
    d = layout.total_dim
    draws = []
    for _ in range(n_y * n_z):
        u = random_unitary(rng, d)
        effect = u @ np.diag(rng.uniform(0.0, 1.0, size=d)) @ u.conj().T
        draws.append(MeasurementOperator(layout, effect).entries)
    return np.reshape(draws, (n_y, n_z, d, d))


@pytest.mark.parametrize("n_y, n_z, d", [(1, 3, 2), (2, 2, 2), (3, 2, 3)])
def test_random_family_checks_its_stack_once_and_keeps_every_bit(n_y, n_z, d, monkeypatch):
    checks, check = [], qmath.checked_effects

    def counted(*args, **kwargs):
        checks.append(args)
        return check(*args, **kwargs)

    # the family's stack check, and every MeasurementOperator's
    monkeypatch.setattr(protocol, "checked_effects", counted)
    monkeypatch.setattr(qmath, "checked_effects", counted)
    layout = RegisterLayout(("M",), (d,))
    for seed in range(4):
        checks.clear()
        family = random_measurement_family(derived_rng(seed, "family-once"), layout, n_y, n_z)
        assert len(checks) == 1
        want = checked_alone_draws(derived_rng(seed, "family-once"), layout, n_y, n_z)
        assert family.effects.tobytes() == want.tobytes()


@given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
@example(3, 0)
def test_public_coin_protocol_scores_each_answer_with_its_effect(d, seed):
    m_layout = RegisterLayout(("M",), (d,))
    family = random_measurement_family(np.random.default_rng(seed), m_layout, d, d)
    joint = joint_response_operators(public_coin_protocol(family))
    for y in family.challenges:
        for z in family.responses:
            want = family.op(y, z).entries / d
            assert np.max(np.abs(joint.op(y, z).entries - want)) < 1e-12


def test_public_coin_protocol_needs_basis_label_indices():
    m_layout = RegisterLayout(("M",), (2,))
    ident = np.broadcast_to(np.eye(2), (2, 2, 2, 2))
    family = MeasurementFamily(("a", "b"), ("0", "1"), m_layout, ident)
    with pytest.raises(ValidationError, match="basis labels"):
        public_coin_protocol(family)
