import ast
import dataclasses
import math
import sys
import tracemalloc
from pathlib import Path

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
from qiplab.channels import EbChannel
from qiplab.protocol import (
    CanonicalStrategy,
    ClassicalResponseStrategy,
    EntangledStrategy,
    MeasurementFamily,
    ProtocolSpec,
    RawUnentangledStrategy,
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
    apply_kraus_array,
    basis_projectors,
    dephase_axes,
    kron_all,
    measure_array,
    prepare_array,
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

import reference

ENTANGLED_CHSH = (1 + 1 / np.sqrt(2)) / 2  # cos^2(pi/8)


def bell_chsh_prover() -> EntangledStrategy:
    """Optimal entangled prover: share a Bell pair, measure at +-pi/4."""
    spec, _ = chsh_protocol()
    p_layout = RegisterLayout(("P",), (2,))
    pm = p_layout.concat(spec.m_layout)
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    first = KrausChannel(pm, pm, (cnot @ np.kron(h, np.eye(2)),))
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


def drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed, n_outcomes=2, m_dim=2):
    rng = np.random.default_rng(seed)
    spec = random_verifier_spec(rng, m_dim=m_dim, v_dim=v_dim, classical=classical)
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


@raw_prover_draws
@example(2, 2, 2, (), 0)
def test_fold_matches_the_kraus_form_fold(w_dim, s_dim, v_dim, classical, seed):
    spec, raw = drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed)
    want, branches = reference.fold(spec, raw)
    _, sigma_r, _, value = next(branch for branch in branches if branch[2] is want)
    # sigma_R is complex, so a fold that used its transpose would differ
    assert np.max(np.abs(sigma_r - sigma_r.T)) > 1e-6
    got = canonicalize_prover(spec, raw)
    assert got.first_message is want.first_message
    assert got.respond.povm.layout == want.respond.povm.layout
    assert np.max(np.abs(got.respond.povm.effects - want.respond.povm.effects)) < 1e-13
    assert abs(run_interaction(spec, got) - value) < 1e-13


@raw_prover_draws
@example(2, 2, 2, (), 0)
def test_fold_picks_the_stacked_fold_branch_and_matches_its_effects_to_1e13(
    w_dim, s_dim, v_dim, classical, seed
):
    # the reference's fold is the branch construction that the stacked fold
    # (every second emission effect pulled back through mix2 first) computed
    for n_outcomes in (2, 3, 4):
        spec, raw = drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed, n_outcomes)
        want, _ = reference.fold(spec, raw)
        got = canonicalize_prover(spec, raw)
        assert got.first_message is want.first_message
        assert np.max(np.abs(got.respond.povm.effects - want.respond.povm.effects)) < 1e-13


@raw_prover_draws
@example(2, 2, 2, (), 0)
@example(4, 3, 3, (1, 2, 3), 1)
def test_raw_and_canonical_runs_match_the_embedded_closing_term_run(
    w_dim, s_dim, v_dim, classical, seed
):
    # M = 2 and V >= 2 give J = 4 closing terms, against L = 2, 3, 4 and 6
    # emission effects: L < J, L = J and L > J
    for n_outcomes in (2, 3, 4, 6):
        spec, raw = drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed, n_outcomes)
        for prover in (raw, canonicalize_prover(spec, raw)):
            assert abs(run_interaction(spec, prover) - reference.acceptance(spec, prover)) < 1e-13


@raw_prover_draws
@example(2, 2, 2, (), 0)
def test_raw_value_is_the_branch_average_of_the_candidates(w_dim, s_dim, v_dim, classical, seed):
    # after the first emission's outcome b the prover holds sigma_R (x) |0><0|_S
    # and sends b's prepared message: it runs branch b's canonical candidate,
    # so the raw value is their q_b-weighted average and the best one is no worse
    for n_outcomes in (2, 3, 4):
        spec, raw = drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed, n_outcomes)
        _, branches = reference.fold(spec, raw)
        average = sum(q * value for q, _, _, value in branches)
        assert abs(acceptance_probability(spec, raw) - average) <= 1e-12


def scored_fold(spec, raw):
    """canonicalize_prover's winner, and each candidate it scored with its score."""
    scored = []
    score = protocol._canonical_score

    def spy(spec, candidate, bs, weights):
        scored.append((candidate, score(spec, candidate, bs, weights)))
        return scored[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_canonical_score", spy)
        return canonicalize_prover(spec, raw), scored


@pytest.mark.parametrize("m_dim", [2, 3])
@raw_prover_draws
@example(w_dim=3, s_dim=3, v_dim=3, classical=(1, 2, 3), seed=1)  # (d_M, d_V) = (3, 3) at m_dim 3
def test_the_fold_scores_each_candidate_as_its_run_bit_for_bit(
    m_dim, w_dim, s_dim, v_dim, classical, seed
):
    for n_outcomes in (2, 3, 4):
        spec, raw = drawn_raw_prover(w_dim, s_dim, v_dim, classical, seed, n_outcomes, m_dim)
        winner, scored = scored_fold(spec, raw)
        assert scored
        for candidate, score in scored:
            assert score == acceptance_probability(spec, candidate)
        best = max(score for _, score in scored)
        assert winner is next(candidate for candidate, score in scored if score == best)


def test_the_fold_runs_no_candidate_and_forms_the_closing_terms_once(monkeypatch):
    # (W, S) = (8, 4), M = 2 and V = 4, as the sim-large benchmark draws them
    rng = derived_rng(36, "contraction")
    spec = random_verifier_spec(rng, m_dim=2, v_dim=4)
    raw = random_raw_prover(rng, spec, workspace=RegisterLayout(("W", "S"), (8, 4)), n_outcomes=3)
    moved, closings = [], []
    prover_moves, closing_terms = protocol._prover_moves, protocol._closing_terms

    def no_run(*args):
        raise AssertionError("the fold ran a candidate")

    def moves(spec, prover, fold=False):
        moved.append(prover)
        return prover_moves(spec, prover, fold)

    def closing(spec):
        closings.append(spec)
        return closing_terms(spec)

    for name in ("run_interaction", "acceptance_probability"):
        monkeypatch.setattr(protocol, name, no_run)
    monkeypatch.setattr(protocol, "_prover_moves", moves)
    monkeypatch.setattr(protocol, "_closing_terms", closing)
    canonicalize_prover(spec, raw)
    assert moved == [raw]
    assert closings == [spec]


def test_the_fold_keeps_the_first_of_equal_candidates():
    # a first emission with two identical outcomes, I/2 and I/2, and equal but
    # distinct prepared states: both branches fold to the same candidate value
    rng = derived_rng(40, "ties")
    spec = random_verifier_spec(rng)
    raw = random_raw_prover(rng, spec)
    sm = raw.workspace.subset(raw.eb_labels).concat(spec.m_layout)
    psi = random_pure(rng, spec.m_layout)
    twins = (psi, PureState(spec.m_layout, psi.amplitudes.copy()))
    halves = Povm(sm, [np.eye(sm.total_dim) / 2] * 2)
    raw = dataclasses.replace(raw, emit1=EbChannel(halves, twins))
    assert canonicalize_prover(spec, raw).first_message is raw.emit1.preps[0]


@pytest.mark.parametrize(
    "m_dim, p_dims, v_dim, classical",
    [
        (2, (2,), 3, ()),  # d_P <= d_M: the challenge runs on (P, M, V)
        (3, (3,), 2, (1, 2, 3)),
        (2, (2, 3), 3, (2, 3)),  # d_P > d_M: on a copy of M, then rho's blocks
        (3, (4,), 2, (1,)),
    ],
)
def test_weights_folded_into_the_challenge_scores_match_the_folded_scores(
    m_dim, p_dims, v_dim, classical
):
    rng = derived_rng(38, "weights", m_dim, v_dim)
    spec = random_verifier_spec(rng, m_dim=m_dim, v_dim=v_dim, classical=classical)
    names = tuple(f"P{i}" for i in range(len(p_dims)))
    pm = RegisterLayout(names, p_dims).concat(spec.m_layout)
    rho = random_density(rng, pm).entries
    xs, bs = protocol._closing_terms(spec)
    preps = np.array([random_pure(rng, spec.m_layout).amplitudes for _ in range(3)])
    weights = protocol._response_weights(xs, preps)
    got = protocol._challenge_scores(spec, rho, pm, bs, weights)
    want = np.tensordot(weights.T, protocol._challenge_scores(spec, rho, pm, bs), 1)
    assert got.shape == (3, pm.total_dim, pm.total_dim)
    assert np.max(np.abs(got - want)) < 1e-15


def classical_opening_draw(classical, m_dim, seed):
    """A three-round spec with the given classical rounds, a raw prover on
    (W, S) = (2, 2), so d_P = 4 > d_M, and a first message on M."""
    rng = derived_rng(41, "classical-opening", m_dim, seed)
    spec = random_verifier_spec(rng, m_dim=m_dim, v_dim=2, classical=classical)
    return spec, random_raw_prover(rng, spec, n_outcomes=3), random_pure(rng, spec.m_layout)


def opened_state(spec, prover):
    """run_interaction's opened state on (P, M), (P, M) and the response move."""
    full, opening, response = protocol._prover_moves(spec, prover)
    pm = full.subset(n for n in full.names if n not in spec.v_layout.names)
    rho = protocol._emitted(protocol._from_zero(opening.kraus, pm.total_dim), pm.dims, opening)
    return rho, pm, response


@pytest.mark.parametrize("classical", [(1,), (1, 2), (1, 3), (1, 2, 3)])
@pytest.mark.parametrize("m_dim", [2, 3])
def test_the_challenge_dephases_a_classical_opening_itself(classical, m_dim):
    for seed in range(3):
        spec, raw, psi = classical_opening_draw(classical, m_dim, seed)
        xs, bs = protocol._closing_terms(spec)
        rho, pm, response = opened_state(spec, raw)
        weights = protocol._response_weights(xs, response.preps)
        # a canonical front on M, and a raw one whose challenge runs on a copy of M
        for front, layout in ((psi.projector(), spec.m_layout), (rho, pm)):
            dephased = dephase_axes(front, layout.dims, layout.axes(spec.m_layout.names))
            assert not np.array_equal(front, dephased)
            for w in (None, weights):
                got = protocol._challenge_scores(spec, front, layout, bs, w)
                assert np.array_equal(got, protocol._challenge_scores(spec, dephased, layout, bs, w))


def test_callers_pass_the_undephased_opening_to_the_challenge(monkeypatch):
    # only the challenge scores (the opening) and the closing terms (the
    # response round) dephase; each caller hands over the state it opened
    spec, raw, _ = classical_opening_draw((1, 2, 3), 2, 0)
    opened, _, _ = opened_state(spec, raw)
    dephasers, fronts = [], []
    dephase, challenge_scores = protocol.dephase_axes, protocol._challenge_scores

    def spied_dephase(rho, dims, axes):
        dephasers.append(sys._getframe(1).f_code.co_name)
        return dephase(rho, dims, axes)

    def spied_scores(spec, rho, pm, bs, weights=None):
        fronts.append((rho.copy(), pm))
        return challenge_scores(spec, rho, pm, bs, weights)

    monkeypatch.setattr(protocol, "dephase_axes", spied_dephase)
    monkeypatch.setattr(protocol, "_challenge_scores", spied_scores)
    run_interaction(spec, raw)
    canonical = canonicalize_prover(spec, raw)
    joint_response_operators(spec)
    assert set(dephasers) == {"_challenge_scores", "_closing_terms"}
    # the raw run's opened state, one candidate's psi psi^dag, and |Phi><Phi|
    assert np.array_equal(fronts[0][0], opened)
    assert any(np.array_equal(f, canonical.first_message.projector()) for f, _ in fronts[1:-1])
    assert np.array_equal(fronts[-1][0], protocol._maximally_entangled(spec.m_layout.total_dim))
    for front, pm in fronts:
        assert not np.array_equal(front, dephase(front, pm.dims, pm.axes(spec.m_layout.names)))


def test_the_fold_holds_m_and_v_to_the_budget_before_scoring(monkeypatch):
    rng = derived_rng(39, "budget")
    spec = random_verifier_spec(rng, v_dim=5)  # (M, V) has dimension 10
    raw = random_raw_prover(rng, spec)  # (W, S, M) has dimension 8
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 10)
    assert isinstance(canonicalize_prover(spec, raw), CanonicalStrategy)
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 9)

    def no_scoring(*args):
        raise AssertionError("a candidate was scored")

    for name in ("_closing_terms", "_canonical_score", "run_interaction", "acceptance_probability"):
        monkeypatch.setattr(protocol, name, no_scoring)
    with pytest.raises(BudgetError, match="simulator budget"):
        canonicalize_prover(spec, raw)


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


def test_a_classical_response_holds_its_projectors_to_the_budget(monkeypatch):
    layout = RegisterLayout(("M",), (4,))  # 4 projectors of 16 entries: one 8 x 8 matrix
    table = dict.fromkeys(layout.basis_labels(), "0")
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 8)
    assert len(classical_response_channel(layout, table).povm.effects) == 4
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 7)
    with pytest.raises(BudgetError, match="simulator budget"):
        classical_response_channel(layout, table)
    monkeypatch.undo()

    def no_projectors(*args):
        raise AssertionError("the computational projectors were built")

    monkeypatch.setattr(Povm, "computational", no_projectors)
    # a 7-qubit M and a qubit V make D = 256, within the budget, but the 128
    # projectors would hold 2^21 entries, past the 2^20 of a 1024 x 1024 matrix
    m_layout = RegisterLayout(tuple(f"M{i}" for i in range(7)), (2,) * 7)
    v_layout = RegisterLayout(("V",), (2,))
    joint = m_layout.concat(v_layout)
    spec = ProtocolSpec(
        m_layout=m_layout,
        v_layout=v_layout,
        rounds=2,
        v1=KrausChannel.identity(joint),
        v2=KrausChannel.identity(joint),
        accept=MeasurementOperator(joint, np.eye(256) / 2),
        classical_rounds=frozenset({1, 2}),
    )
    labels = m_layout.basis_labels()
    with pytest.raises(BudgetError, match="simulator budget"):
        run_interaction(spec, ClassicalResponseStrategy(None, dict(zip(labels, labels))))


def test_a_public_coin_flag_is_held_to_the_budget_before_it_is_built(monkeypatch):
    _, chsh = chsh_protocol()  # (M, R, C) has dimension 8
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 8)
    assert public_coin_protocol(chsh).accept.entries.shape == (8, 8)
    monkeypatch.setattr(protocol, "SIMULATOR_DIMENSION_BUDGET", 7)
    with pytest.raises(BudgetError, match="simulator budget"):
        public_coin_protocol(chsh)
    monkeypatch.undo()

    def no_flag(*args):
        raise AssertionError("a term of the flag was built")

    monkeypatch.setattr(protocol, "kron_all", no_flag)
    # M of dimension 12 makes (M, R, C) of dimension 1728
    layout = RegisterLayout(("K", "L", "M"), (2, 2, 3))
    labels = layout.basis_labels()
    halves = np.broadcast_to(np.eye(12) / 2, (12, 12, 12, 12))
    with pytest.raises(BudgetError, match="simulator budget"):
        public_coin_protocol(MeasurementFamily(labels, labels, layout, halves))


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
@example((3, False, frozenset({1, 2, 3}), 3, 2, 1))
@example((2, False, frozenset({1, 2}), 3, 2, 3))
def test_pulled_back_closing_effect_matches_the_forward_closing_step(case):
    rounds, public, classical, m_dim, v_dim, seed = case
    rng = np.random.default_rng(seed)
    spec = drawn_spec(rng, rounds, public, classical, m_dim, v_dim)
    for prover in drawn_provers(rng, spec):
        assert abs(acceptance_probability(spec, prover) - reference.acceptance(spec, prover)) < 1e-13
    labels = spec.m_layout.basis_labels()
    if rounds == 2 and classical == {1, 2}:
        for y in labels:
            for z in labels:
                want = reference.postselected(spec, y, z)
                assert abs(postselected_acceptance(spec, y, z) - want) < 1e-13
    if rounds == 3 and {2, 3} <= classical:
        family = joint_response_operators(spec)
        assert np.max(np.abs(family.effects - reference.family(spec))) < 1e-13


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
        assert abs(run_interaction(spec, prover) - reference.acceptance(spec, prover)) < 1e-13


@given(interaction_cases())
@example((3, False, frozenset(), (3,), 2, 2, False, 0))
@example((3, True, frozenset({1, 2}), (2, 2), 2, 4, True, 3))
@example((2, False, frozenset({1, 2}), (2, 2), 2, 2, False, 5))
def test_pulled_back_emission_effects_match_the_stacked_pull_back_to_1e13(case):
    rounds, public, classical, m_dims, v_dim, p_dim, s_first, seed = case
    rng = np.random.default_rng(seed)
    spec = drawn_spec(rng, rounds, public, classical, m_dims, v_dim)
    workspace = RegisterLayout(("S", "W") if s_first else ("W", "S"), (2, 2))
    # the provers that answer by an emission, whose effects the run pulls back
    for prover in drawn_provers(rng, spec, p_dim, workspace):
        if isinstance(prover, (RawUnentangledStrategy, CanonicalStrategy)):
            assert abs(run_interaction(spec, prover) - reference.acceptance(spec, prover)) < 1e-13


def test_sim_large_runs_match_the_forward_run():
    assert acceptance_probability is run_interaction
    # (W, S) = (8, 4), M = 2 and V = 4, as the sim-large benchmark draws them
    for trial in range(3):
        rng = derived_rng(38, "stacked-pull-back", trial)
        spec = random_verifier_spec(rng, m_dim=2, v_dim=4)
        raw = random_raw_prover(rng, spec, workspace=RegisterLayout(("W", "S"), (8, 4)))
        for prover in (raw, canonicalize_prover(spec, raw)):
            assert abs(run_interaction(spec, prover) - reference.acceptance(spec, prover)) < 1e-13


@st.composite
def pull_back_cases(draw):
    """A workspace (W, S) in either order before M = (2, 2), a target-axis
    subset of it in any order, a number of Kraus operators and a seed."""
    w_dim, s_dim = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    s_first = draw(st.booleans())
    order = draw(st.permutations(range(4)))
    target = tuple(order[: draw(st.integers(1, 4))])
    return s_first, w_dim, s_dim, target, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@given(pull_back_cases())
@example((False, 2, 2, (1, 2, 3), 2, 0))  # (W, S, M, M1), the lens (S, M, M1)
@example((True, 3, 2, (0, 2, 3), 2, 1))  # (S, W, M, M1): the lens is not contiguous
@example((True, 2, 3, (3, 0, 2), 3, 2))  # unsorted
@example((False, 3, 3, (2, 3), 1, 3))  # M alone, as an entangled prover's closing terms
def test_pull_back_by_gathered_rows_matches_the_embedded_pull_back(case):
    s_first, w_dim, s_dim, target, n_kraus, seed = case
    rng = np.random.default_rng(seed)
    names, dims = (("S", "W"), (s_dim, w_dim)) if s_first else (("W", "S"), (w_dim, s_dim))
    pm = RegisterLayout(names + ("M", "M1"), dims + (2, 2))
    lens = pm.subset(pm.names[a] for a in target)
    kraus = random_kraus_channel(rng, pm, n_kraus=n_kraus).kraus_ops
    effect = random_effect(rng, lens).entries
    want = sum(k.conj().T @ reference.on_axes(effect, k, pm.dims, target) for k in kraus)
    got = protocol._pulled_back(kraus, effect, pm.dims, target)
    assert got.shape == (pm.total_dim, pm.total_dim)
    assert np.max(np.abs(got - want)) < 1e-13
    # with no Kraus operators, an effect on every axis in layout order is its own pull-back
    whole = random_effect(rng, pm).entries
    assert protocol._pulled_back(kraus[:0], whole, pm.dims, tuple(range(4))) is whole


@given(
    st.lists(st.integers(2, 3), min_size=1, max_size=4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
@example([2, 2, 2, 2], 2, 0)
def test_opening_by_first_columns_matches_the_kraus_application_on_zero(dims, n_kraus, seed):
    rng = np.random.default_rng(seed)
    layout = RegisterLayout(tuple(f"R{i}" for i in range(len(dims))), tuple(dims))
    kraus = random_kraus_channel(rng, layout, n_kraus=n_kraus).kraus_ops
    d = layout.total_dim
    zero = protocol._zero_state(d)
    want = apply_kraus_array(zero, layout.dims, kraus, tuple(range(len(dims))))
    assert np.max(np.abs(protocol._from_zero(kraus, d) - want)) < 1e-15
    assert np.array_equal(protocol._from_zero((), d), zero)


def test_a_sim_large_run_pulls_back_its_emission_effects_and_opens_by_columns(monkeypatch):
    # (W, S) = (8, 4), M = 2 and V = 4, as the sim-large benchmark draws them: (P, M) is 64
    rng = derived_rng(36, "contraction")
    spec = random_verifier_spec(rng, m_dim=2, v_dim=4)
    raw = random_raw_prover(rng, spec, workspace=RegisterLayout(("W", "S"), (8, 4)))
    pulled, kraus_sides = [], []
    pull_back, apply_kraus = protocol._pulled_back, protocol.apply_kraus_array

    def counted(kraus, effect, dims, axes):
        pulled.append(effect.shape)
        return pull_back(kraus, effect, dims, axes)

    def watched(rho, dims, kraus, axes):
        kraus_sides.append(len(rho))
        return apply_kraus(rho, dims, kraus, axes)

    monkeypatch.setattr(protocol, "_pulled_back", counted)
    monkeypatch.setattr(protocol, "apply_kraus_array", watched)
    run_interaction(spec, raw)
    # the L = 2 emission effects on (S, M), not the J = 4 closing terms
    assert pulled == [(8, 8)] * 2
    canonicalize_prover(spec, raw)
    # the challenge still applies v1 on (M', M, V), of side 16
    assert kraus_sides and 64 not in kraus_sides


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
        "measure_array", "prepare_array",
    )
    for name in kernels:
        monkeypatch.setattr(protocol, name, watched(getattr(protocol, name)))
    protocol._zero_state(256)
    assert sides == [256, 256]  # a state over (P, M, V) would be seen
    sides.clear()
    run_interaction(spec, raw)
    run_interaction(spec, canonicalize_prover(spec, raw))
    assert sides and max(sides) < 256


def applied_challenge_blocks(spec):
    full = spec.joint_layout()
    m_axes, v_axes = full.axes(spec.m_layout.names), full.axes(spec.v_layout.names)
    rho = applied_challenge(spec, protocol._zero_state(full.total_dim), full.dims, m_axes, v_axes, full)
    return measure_array(rho, full.dims, basis_projectors(spec.m_layout.total_dim), m_axes)


@given(closing_cases())
@example((3, True, frozenset({2, 3}), 2, 2, 0))
@example((3, False, frozenset({1, 2, 3}), 3, 2, 1))
@example((2, True, frozenset({1}), 2, 3, 2))
@example((2, False, frozenset({1, 2}), 3, 2, 3))
def test_challenge_move_matches_the_applied_challenge_exactly(case):
    rounds, public, classical, m_dim, v_dim, seed = case
    rng = np.random.default_rng(seed)
    spec = drawn_spec(rng, rounds, public, classical, m_dim, v_dim)
    full = RegisterLayout(("P",), (2,)).concat(spec.joint_layout())  # a workspace in front
    m_axes, v_axes = full.axes(spec.m_layout.names), full.axes(spec.v_layout.names)
    rho = random_density(rng, full).entries
    got = protocol._apply_move(rho, full.dims, protocol._challenge(spec, full))
    if spec.challenge_round in spec.classical_rounds:
        got = dephase_axes(got, full.dims, m_axes)
    assert np.array_equal(got, applied_challenge(spec, rho, full.dims, m_axes, v_axes, full))
    if rounds == 2:
        want = [float(np.trace(block).real) for block in applied_challenge_blocks(spec)]
        assert list(verifier_message_distribution(spec).values()) == want


@given(st.booleans(), st.booleans(), st.integers(2, 4), st.integers(4, 5), st.integers(0, 2**32 - 1))
@example(False, False, 2, 4, 0)
@example(True, True, 4, 5, 1)
def test_message_distribution_matches_the_applied_challenge_on_a_larger_v(
    public, classical_response, m_dim, v_dim, seed
):
    # with d_V of 4 or 5 the trace over V may sum in another order than np.trace
    classical = frozenset({1, 2} if classical_response else {1})
    spec = drawn_spec(np.random.default_rng(seed), 2, public, classical, m_dim, v_dim)
    got = list(verifier_message_distribution(spec).values())
    assert np.max(np.abs(np.subtract(got, reference.message_distribution(spec)))) <= 1e-15


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


def test_the_reference_imports_no_private_qiplab_name():
    # a private name could share a defect with the simulator the reference checks
    tree = ast.parse(Path(reference.__file__).read_text())
    bound, parts = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            pairs = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
        else:
            continue
        for dotted, name in pairs:
            if dotted.split(".")[0] == "qiplab":
                parts += dotted.split(".")
                bound.add(name)

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return node

    parts += [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(root(node), "id", None) in bound
    ]
    assert bound and [p for p in parts if p.startswith("_")] == []
