"""Seeded generators for random states, channels, and protocol instances.

Everything takes an explicit numpy Generator so suites and CLI experiments
can reproduce instances exactly from (seed, index) streams.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .channels import EbChannel, KrausChannel
from .errors import ValidationError
from .protocol import (
    ClassicalResponseStrategy,
    MeasurementFamily,
    ProtocolSpec,
    RawUnentangledStrategy,
    public_coin_protocol,
)
from .qmath import (
    DensityMatrix,
    MeasurementOperator,
    Povm,
    PureState,
    RegisterLayout,
    dagger,
    hermitian_eig,
)


def random_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def random_pure(rng: np.random.Generator, layout: RegisterLayout) -> PureState:
    return PureState(layout, random_unit_vector(rng, layout.total_dim))


def random_density(rng: np.random.Generator, layout: RegisterLayout, rank: int | None = None) -> DensityMatrix:
    d = layout.total_dim
    r = d if rank is None else rank
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    mat = g @ dagger(g)
    return DensityMatrix(layout, mat / np.trace(mat).real)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _effect_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """An unchecked d x d effect: a Haar-random eigenbasis, eigenvalues in [0, 1)."""
    u = random_unitary(rng, d)
    return u @ np.diag(rng.uniform(0.0, 1.0, size=d)) @ dagger(u)


def random_effect(rng: np.random.Generator, layout: RegisterLayout) -> MeasurementOperator:
    return MeasurementOperator(layout, _effect_matrix(rng, layout.total_dim))


def random_povm(rng: np.random.Generator, layout: RegisterLayout, n_outcomes: int) -> Povm:
    d = layout.total_dim
    parts = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        parts.append(g @ dagger(g))
    total = sum(parts)
    vals, vecs = hermitian_eig(total)
    inv_root = (vecs / np.sqrt(vals)) @ dagger(vecs)
    return Povm(layout, [inv_root @ p @ inv_root for p in parts])


def random_kraus_channel(
    rng: np.random.Generator,
    in_layout: RegisterLayout,
    out_layout: RegisterLayout | None = None,
    n_kraus: int = 2,
) -> KrausChannel:
    """Channel from a Haar-random isometry split into n_kraus blocks."""
    out_layout = in_layout if out_layout is None else out_layout
    d_in = in_layout.total_dim
    d_out = out_layout.total_dim
    if n_kraus * d_out < d_in:
        raise ValidationError(
            f"need n_kraus * out_dim >= in_dim, got {n_kraus} * {d_out} < {d_in}"
        )
    g = rng.normal(size=(n_kraus * d_out, d_in)) + 1j * rng.normal(size=(n_kraus * d_out, d_in))
    q, _ = np.linalg.qr(g)
    return KrausChannel(in_layout, out_layout, q.reshape(n_kraus, d_out, d_in))


def random_eb_channel(
    rng: np.random.Generator,
    in_layout: RegisterLayout,
    out_layout: RegisterLayout | None = None,
    n_outcomes: int = 3,
) -> EbChannel:
    out_layout = in_layout if out_layout is None else out_layout
    povm = random_povm(rng, in_layout, n_outcomes)
    preps = tuple(random_pure(rng, out_layout) for _ in range(n_outcomes))
    return EbChannel(povm, preps)


def random_separable_choi_terms(
    rng: np.random.Generator,
    in_layout: RegisterLayout,
    out_layout: RegisterLayout,
    n_bases: int = 2,
) -> list[tuple[float, PureState, PureState]]:
    """Valid separable Choi decomposition with real measurement-side vectors.

    Mixes n_bases random real orthonormal bases with random weights, so the
    measurement side resolves the identity exactly; the prepared states are
    generic complex vectors.
    """
    d = in_layout.total_dim
    weights = rng.dirichlet(np.ones(n_bases))
    terms = []
    for k in range(n_bases):
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        q = q * np.sign(np.diag(r))
        for j in range(d):
            v = PureState(in_layout, q[:, j].astype(np.complex128))
            w = random_pure(rng, out_layout)
            terms.append((float(weights[k]) / d, v, w))
    return terms


def random_verifier_spec(
    rng: np.random.Generator,
    m_dim: int = 2,
    v_dim: int = 2,
    classical: tuple[int, ...] = (2, 3),
) -> ProtocolSpec:
    """Random private-coin three-round verifier on single qudit registers."""
    m_layout = RegisterLayout(("M",), (m_dim,))
    v_layout = RegisterLayout(("V",), (v_dim,))
    joint = m_layout.concat(v_layout)
    return ProtocolSpec(
        m_layout=m_layout,
        v_layout=v_layout,
        rounds=3,
        v1=random_kraus_channel(rng, joint, n_kraus=2),
        v2=random_kraus_channel(rng, joint, n_kraus=2),
        accept=random_effect(rng, joint),
        classical_rounds=frozenset(classical),
    )


def random_qcip2_spec(rng: np.random.Generator, m_dim: int = 2, v_dim: int = 2) -> ProtocolSpec:
    """Random two-round verifier with classical challenge and response: the
    draws of random_verifier_spec, cut to two rounds."""
    return dataclasses.replace(random_verifier_spec(rng, m_dim, v_dim, (1, 2)), rounds=2)


def random_raw_prover(
    rng: np.random.Generator,
    spec: ProtocolSpec,
    workspace: RegisterLayout | None = None,
    eb_labels: tuple[str, ...] = ("S",),
    n_kraus: int = 2,
    n_outcomes: int = 2,
) -> RawUnentangledStrategy:
    """Random raw unentangled prover; the default workspace keeps one
    register outside the emission lens so residual folding is exercised."""
    if workspace is None:
        workspace = RegisterLayout(("W", "S"), (2, 2))
    pm = workspace.concat(spec.m_layout)
    sm = workspace.subset(eb_labels).concat(spec.m_layout)
    return RawUnentangledStrategy(
        workspace=workspace,
        eb_labels=tuple(eb_labels),
        mix1=random_kraus_channel(rng, pm, n_kraus=n_kraus),
        emit1=random_eb_channel(rng, sm, spec.m_layout, n_outcomes=n_outcomes),
        mix2=random_kraus_channel(rng, pm, n_kraus=n_kraus),
        emit2=random_eb_channel(rng, sm, spec.m_layout, n_outcomes=n_outcomes),
    )


def random_classical_response(
    rng: np.random.Generator, spec: ProtocolSpec
) -> ClassicalResponseStrategy:
    labels = spec.m_layout.basis_labels()
    responses = {y: labels[int(rng.integers(len(labels)))] for y in labels}
    psi = random_pure(rng, spec.m_layout) if spec.rounds == 3 else None
    return ClassicalResponseStrategy(psi, responses)


def random_measurement_family(
    rng: np.random.Generator,
    layout: RegisterLayout,
    n_challenges: int = 2,
    n_responses: int = 2,
) -> MeasurementFamily:
    challenges = tuple(str(i) for i in range(n_challenges))
    responses = tuple(str(i) for i in range(n_responses))
    # drawn challenge by challenge, each challenge's responses in order, and
    # checked once, as the family's stack
    draws = [_effect_matrix(rng, layout.total_dim) for _ in range(n_challenges * n_responses)]
    shape = (n_challenges, n_responses) + (layout.total_dim,) * 2
    return MeasurementFamily(challenges, responses, layout, np.reshape(draws, shape))


def random_public_coin_spec(
    rng: np.random.Generator,
) -> tuple[ProtocolSpec, MeasurementFamily]:
    """Random CHSH-shaped qubit protocol: stash the opening qubit, send a
    uniform bit, score the answer with a random effect on the stash.

    Returns the protocol together with its challenge-conditioned scoring family.
    """
    family = random_measurement_family(rng, RegisterLayout(("M",), (2,)))
    return public_coin_protocol(family), family
