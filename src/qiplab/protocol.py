"""Interactive proof protocols between a verifier and a single prover.

A ProtocolSpec fixes the verifier side of a two- or three-round interaction
over a message register M and a private verifier register V; the prover
brings its own workspace P.  Three-round schedule: the prover sends a first
message, the verifier replies with a challenge, the prover responds, and
the verifier applies a final channel and measures an accept flag.
Two-round protocols drop the prover's first message (the verifier opens).

Rounds may be declared classical, which dephases M in the computational
basis after the round's move.  A public-coin verifier does not apply a first
channel at all: it stashes the incoming message in a designated workspace
register, samples a uniform coin, records the coin, and transmits the coin
(a uniform-challenge verifier keeps the message intact this way, which is
what the final measurement acts on).

Each round's move is Kraus operators, then a measure-and-prepare emission
(effects contracted by qmath.measure_array, vectors written by
qmath.prepare_array).  The prover's opening and response, the public coin
and v1 all take this form.  The verifier's closing channel v2 is never
applied to a state: it and the accept flag enter as one effect
v2^dag(accept) on (M, V), the Heisenberg picture.

The prover's workspace P never meets the verifier's register V: they meet
only through M.  So run_interaction is an exact contraction, not a forward
run over (P, M, V).  The opening runs forward on (P, M); the closing
effect, split over M|V into min(d_M, d_V)^2 product terms, is pulled back
through the response onto (P, M) term by term; the challenge runs on
(X, M, V), where X is P when d_P <= d_M and a copy of M otherwise.  No
array is larger than (P, M) or (X, M, V).

Family extraction and the two-round postselection read the verifier the
same way, through the same closing terms and challenge scores, as the
transcript scores S[y, z] of challenge y and response z.

Prover strategies come in four forms, from the most general unentangled one
(arbitrary workspace channels with measure-and-prepare message emission) to
a fixed classical response table.  canonicalize_prover compresses the raw
form into the canonical one (pure first message plus a measure-and-prepare
response) without ever lowering the acceptance probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .channels import EbChannel, KrausChannel
from .errors import (
    BudgetError,
    ConditioningError,
    ContractError,
    LayoutError,
    NumericsError,
    ValidationError,
)
from .qmath import (
    MeasurementOperator,
    Povm,
    PureState,
    RegisterLayout,
    adjoint_kraus_array,
    apply_kraus_array,
    basis_projectors,
    checked_effects,
    dagger,
    dephase_axes,
    embed_operator,
    kron_all,
    measure_array,
    prepare_array,
)

BRANCH_PROBABILITY_TOL = 1e-12
CONDITIONING_TOL = 1e-12
# How far outside [0, 1] a computed probability may land before it is a fault.
VALUE_RANGE_TOL = 1e-9
# Largest total dimension D the simulator accepts.  Its states and scratch
# arrays are dense complex matrices of side up to D, so memory grows as D^2
# and time up to D^3: a raw run plus its canonicalization at D = 1024
# takes at most about 0.5 s and 140 MB peak (47 MB of it the interpreter and
# numpy) on a 2-core host, over six raw shapes with d_M from 2 to 8.
SIMULATOR_DIMENSION_BUDGET = 1024


# ---------------------------------------------------------------------------
# prover strategies


@dataclass(frozen=True)
class EntangledStrategy:
    """Unrestricted prover: arbitrary channels on workspace plus message."""

    workspace: RegisterLayout
    first: KrausChannel
    respond: KrausChannel


@dataclass(frozen=True)
class RawUnentangledStrategy:
    """General unentangled prover move pair.

    Each move mixes workspace and message (mix_i on P+M), then emits the
    outgoing message through a measure-and-prepare channel reading the
    sub-register S plus M and writing M; S is reset to zeros afterwards.
    """

    workspace: RegisterLayout
    eb_labels: tuple[str, ...]
    mix1: KrausChannel
    emit1: EbChannel
    mix2: KrausChannel
    emit2: EbChannel

    def __post_init__(self):
        labels = tuple(self.eb_labels)
        object.__setattr__(self, "eb_labels", labels)
        if not labels:
            raise ValidationError("eb_labels must name at least one workspace register")
        for name in labels:
            self.workspace.axis(name)


@dataclass(frozen=True)
class CanonicalStrategy:
    """Pure first message plus a measure-and-prepare response on M."""

    first_message: PureState
    respond: EbChannel


@dataclass(frozen=True)
class ClassicalResponseStrategy:
    """Fixed response table over computational-basis challenge labels.

    first_message is the round-one message for three-round protocols and
    must be None for two-round ones (where the verifier opens).
    """

    first_message: PureState | None
    responses: Mapping[str, str]


ProverStrategy = (
    EntangledStrategy | RawUnentangledStrategy | CanonicalStrategy | ClassicalResponseStrategy
)


# ---------------------------------------------------------------------------
# protocol specification


@dataclass(frozen=True)
class ProtocolSpec:
    """Verifier side of a two- or three-round interaction.

    classical_rounds contains round numbers whose message is measured in the
    computational basis before transmission.  In a three-round protocol the
    rounds are (1) prover's opening message, (2) verifier's challenge,
    (3) prover's response; a two-round protocol has (1) challenge,
    (2) response.  Public-coin protocols have no v1; the coin is recorded in
    v register `coin_label`, and three-round ones stash the opening message
    in v register `saved_label`.
    """

    m_layout: RegisterLayout
    v_layout: RegisterLayout
    rounds: int
    v2: KrausChannel
    accept: MeasurementOperator
    v1: KrausChannel | None = None
    classical_rounds: frozenset[int] = frozenset()
    public_coin: bool = False
    coin_label: str | None = None
    saved_label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "classical_rounds", frozenset(self.classical_rounds))
        if self.rounds not in (2, 3):
            raise ValidationError(f"rounds must be 2 or 3, got {self.rounds}")
        joint = self.m_layout.concat(self.v_layout)
        if not self.classical_rounds <= set(range(1, self.rounds + 1)):
            raise ValidationError(
                f"classical rounds {sorted(self.classical_rounds)} outside 1..{self.rounds}"
            )
        for name, ch in (("v1", self.v1), ("v2", self.v2)):
            if ch is None:
                continue
            _kraus_of(ch, joint, name)
            if ch.in_layout != joint or ch.out_layout != joint:
                raise LayoutError(f"{name} must act on the (M, V) layout {joint.names}")
        if self.accept.layout != joint:
            raise LayoutError(f"accept flag must live on the (M, V) layout {joint.names}")
        if self.public_coin:
            if self.v1 is not None:
                raise ValidationError("public-coin protocols must not declare v1")
            if self.coin_label is None:
                raise ValidationError("public-coin protocols need coin_label")
            if self.v_layout.dim_of(self.coin_label) != self.m_layout.total_dim:
                raise LayoutError("coin register dimension must equal the message dimension")
            if self.challenge_round not in self.classical_rounds:
                raise ValidationError("the public coin must be declared a classical round")
            if self.rounds == 3:
                if self.saved_label is None:
                    raise ValidationError("three-round public-coin protocols need saved_label")
                if self.saved_label == self.coin_label:
                    raise ValidationError("saved_label and coin_label must differ")
                if self.v_layout.dim_of(self.saved_label) != self.m_layout.total_dim:
                    raise LayoutError("stash register dimension must equal the message dimension")
        elif self.v1 is None:
            raise ValidationError("private-coin protocols must declare v1")

    @property
    def challenge_round(self) -> int:
        return 2 if self.rounds == 3 else 1

    @property
    def response_round(self) -> int:
        return 3 if self.rounds == 3 else 2

    def joint_layout(self) -> RegisterLayout:
        return self.m_layout.concat(self.v_layout)


@dataclass(frozen=True)
class MeasurementFamily:
    """Challenge/response indexed effects on the message register.

    ``effects[i, j]`` is the effect of challenge ``challenges[i]`` and
    response ``responses[j]`` on ``layout``: one read-only complex array of
    shape (n_y, n_z, d, d), checked as MeasurementOperator checks one effect.
    The solvers read the array; ``op`` is the typed view of one effect.
    """

    challenges: tuple[str, ...]
    responses: tuple[str, ...]
    layout: RegisterLayout
    effects: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "challenges", tuple(self.challenges))
        object.__setattr__(self, "responses", tuple(self.responses))
        if not self.challenges or not self.responses:
            raise ValidationError("family needs nonempty challenge and response alphabets")
        if len(set(self.challenges)) != len(self.challenges):
            raise ValidationError("duplicate challenge labels")
        if len(set(self.responses)) != len(self.responses):
            raise ValidationError("duplicate response labels")
        lead = (len(self.challenges), len(self.responses))
        effects = checked_effects(self.layout, self.effects, lead, "family stack")
        object.__setattr__(self, "effects", effects)

    def op(self, y: str, z: str) -> MeasurementOperator:
        if y not in self.challenges or z not in self.responses:
            raise ValidationError(f"family has no effect for {(y, z)}")
        i, j = self.challenges.index(y), self.responses.index(z)
        return MeasurementOperator(self.layout, self.effects[i, j])


# ---------------------------------------------------------------------------
# simulator internals


def _check_simulator_dimension(layout: RegisterLayout):
    if layout.total_dim > SIMULATOR_DIMENSION_BUDGET:
        raise BudgetError(
            f"registers {layout.names} have total dimension {layout.total_dim}, "
            f"above the simulator budget {SIMULATOR_DIMENSION_BUDGET}"
        )


def _zero_state(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    return rho


def checked_probability(p: float, what: str = "value") -> float:
    """`p` clamped into [0, 1]; more than VALUE_RANGE_TOL outside (or NaN) is a fault."""
    if not -VALUE_RANGE_TOL <= p <= 1 + VALUE_RANGE_TOL:
        raise NumericsError(f"{what} {p!r} escaped [0, 1]")
    return min(max(p, 0.0), 1.0)


def _kraus_of(channel: KrausChannel, layout: RegisterLayout, what: str):
    if not isinstance(channel, KrausChannel):
        raise ValidationError(f"{what} must be a Kraus channel, got {type(channel).__name__}")
    if channel.in_layout.dims != layout.dims or channel.out_layout.dims != layout.dims:
        raise LayoutError(f"{what} does not act on layout dims {layout.dims}")
    return channel.kraus_ops


def _emission(channel: EbChannel, reads: RegisterLayout, writes: RegisterLayout, what: str):
    """Effects and prepared vectors of `channel`, which reads `reads` = (S, M)
    and writes `writes` = M; the vectors put |0> on S."""
    if not isinstance(channel, EbChannel):
        raise ValidationError(f"{what} must be measure-and-prepare, got {type(channel).__name__}")
    dims = (channel.in_layout.dims, channel.out_layout.dims)
    if dims != (reads.dims, writes.dims):
        raise LayoutError(f"{what} maps dims {dims[0]}->{dims[1]}, not {reads.dims}->{writes.dims}")
    n, d_m = len(channel.preps), writes.total_dim
    preps = np.zeros((n, reads.total_dim // d_m, d_m), dtype=np.complex128)
    preps[:, 0] = [p.amplitudes for p in channel.preps]
    return channel.povm.effects, preps.reshape(n, -1)


class _Move(NamedTuple):
    """Kraus operators on kraus_axes (P, M), then an emission: the effects
    measured and the vectors prepared on emit_axes (S, M).  Each is a stack
    along its first axis, and either may be empty."""

    kraus: np.ndarray
    kraus_axes: tuple[int, ...]
    effects: np.ndarray
    preps: np.ndarray
    emit_axes: tuple[int, ...]


def _apply_move(rho: np.ndarray, dims, move: _Move) -> np.ndarray:
    if len(move.kraus):
        rho = apply_kraus_array(rho, dims, move.kraus, move.kraus_axes)
    if len(move.effects):
        blocks = measure_array(rho, dims, move.effects, move.emit_axes)
        rho = prepare_array(blocks, dims, move.preps, move.emit_axes)
    return rho


def _prover_moves(spec: ProtocolSpec, prover: ProverStrategy, fold: bool = False):
    """The simulator's registers and the prover's opening and response moves.

    Every form becomes the same two steps per move.  The entangled form has
    Kraus operators only; the raw form mixes (P, M), then emits from (S, M),
    S its eb_labels, returned to |0>; the canonical and classical forms emit
    from M only, the opening measuring I and preparing the first message.
    A two-round protocol has no opening (None).  All is checked before any
    state exists, the workspace names and the budget before any channel: on
    (P, M, V), or (P, M) with `fold` (canonicalize_prover, raw form only).
    """
    if fold and not isinstance(prover, RawUnentangledStrategy):
        raise ContractError("canonicalize_prover expects the raw unentangled form")
    if fold and spec.rounds != 3:
        raise ValidationError("canonical form is defined for three-round protocols")
    m_layout = spec.m_layout
    pm = m_layout
    if isinstance(prover, (EntangledStrategy, RawUnentangledStrategy)):
        clash = set(prover.workspace.names) & set(m_layout.names + spec.v_layout.names)
        if clash:
            raise LayoutError(f"workspace names {sorted(clash)} clash with the protocol layout")
        pm = prover.workspace.concat(m_layout)
    layout = pm if fold else pm.concat(spec.v_layout)
    _check_simulator_dimension(layout)
    if spec.rounds == 2 and not isinstance(prover, ClassicalResponseStrategy):
        raise ContractError("two-round protocols support classical-response provers only")
    pm_axes = layout.axes(pm.names)
    if isinstance(prover, EntangledStrategy):
        first = _kraus_of(prover.first, pm, "prover first channel")
        respond = _kraus_of(prover.respond, pm, "prover respond channel")
        return layout, _Move(first, pm_axes, [], [], ()), _Move(respond, pm_axes, [], [], ())
    if isinstance(prover, RawUnentangledStrategy):
        sm = prover.workspace.subset(prover.eb_labels).concat(m_layout)
        sm_axes = layout.axes(sm.names)
        mix1 = _kraus_of(prover.mix1, pm, "prover mix1 channel")
        mix2 = _kraus_of(prover.mix2, pm, "prover mix2 channel")
        emit1 = _emission(prover.emit1, sm, m_layout, "prover emit1 channel")
        emit2 = _emission(prover.emit2, sm, m_layout, "prover emit2 channel")
        return layout, _Move(mix1, pm_axes, *emit1, sm_axes), _Move(mix2, pm_axes, *emit2, sm_axes)
    if not isinstance(prover, (CanonicalStrategy, ClassicalResponseStrategy)):
        raise ContractError(f"unknown prover strategy {type(prover).__name__}")
    psi = prover.first_message
    if spec.rounds == 2 and psi is not None:
        raise ValidationError("two-round protocols have no prover opening message")
    if spec.rounds == 3 and psi is None:
        raise ValidationError("three-round protocols need a first message")
    if psi is not None and psi.layout.dims != m_layout.dims:
        raise LayoutError("first message does not fit the message register")
    if isinstance(prover, CanonicalStrategy):
        respond = prover.respond
    elif spec.challenge_round not in spec.classical_rounds:
        raise ContractError("a classical-response prover needs a classical challenge round")
    else:
        respond = classical_response_channel(m_layout, prover.responses)
    response = _Move((), (), *_emission(respond, m_layout, m_layout, "response channel"), pm_axes)
    if psi is None:
        return layout, None, response
    opening = _Move((), (), np.eye(m_layout.total_dim)[None], psi.amplitudes[None], pm_axes)
    return layout, opening, response


def _challenge(spec: ProtocolSpec, layout: RegisterLayout) -> _Move:
    """The verifier's challenge move on `layout`: v1's Kraus operators on (M, V),
    or the public coin, which swaps M into the stash (three rounds only), then
    measures n effects I/n and prepares the pairs |y>|y> on (M, coin)."""
    m_axes = layout.axes(spec.m_layout.names)
    if not spec.public_coin:
        return _Move(spec.v1.kraus_ops, m_axes + layout.axes(spec.v_layout.names), [], [], ())
    n = spec.m_layout.total_dim
    pairs = np.eye(n * n)
    swap, swap_axes = (), ()
    if spec.rounds == 3:
        swap = (pairs.reshape(n, n, n * n).transpose(1, 0, 2).reshape(n * n, n * n),)
        swap_axes = m_axes + (layout.axis(spec.saved_label),)
    coin_axes = m_axes + (layout.axis(spec.coin_label),)
    return _Move(swap, swap_axes, [pairs / n] * n, pairs[:: n + 1], coin_axes)


def _copy_of_m(spec: ProtocolSpec) -> RegisterLayout:
    """(M', M): one register of M's dimension in front of M.

    Its name, longer than any of the protocol's, clashes with none of them."""
    name = "'" * (1 + max(len(n) for n in spec.joint_layout().names))
    return RegisterLayout((name,), (spec.m_layout.total_dim,)).concat(spec.m_layout)


def _maximally_entangled(d: int) -> np.ndarray:
    """|Phi><Phi| on (M', M), Phi = sum_a |a>|a>: block (a, b) of M' is |a><b| on M."""
    phi = np.eye(d).reshape(-1)
    return np.outer(phi, phi).astype(np.complex128)


def _closing_terms(spec: ProtocolSpec) -> tuple[np.ndarray, np.ndarray]:
    """v2^dag(accept) on (M, V) as sum_j X_j (x) B_j, X_j on M and B_j on V.

    The verifier's last channel and flag as one effect, dephased on M when
    the response round is classical (dephasing is its own adjoint), split
    over the matrix units of the smaller of M and V: min(d_M, d_V)^2 terms.
    A plain array: v2 is trace preserving only to KrausChannel's tolerance,
    so the callers check the probabilities it gives."""
    joint = spec.joint_layout()
    effect = adjoint_kraus_array(spec.accept.entries, spec.v2.kraus_ops)
    if spec.response_round in spec.classical_rounds:
        effect = dephase_axes(effect, joint.dims, joint.axes(spec.m_layout.names))
    d_m, d_v = spec.m_layout.total_dim, spec.v_layout.total_dim
    blocks = effect.reshape(d_m, d_v, d_m, d_v)
    d = min(d_m, d_v)
    units = np.eye(d * d, dtype=np.complex128).reshape(d * d, d, d)  # |a><b| at a*d + b
    if d_m <= d_v:
        return units, blocks.transpose(0, 2, 1, 3).reshape(d * d, d_v, d_v)
    return blocks.transpose(1, 3, 0, 2).reshape(d * d, d_m, d_m), units


def _pulled_back(kraus: np.ndarray, effect: np.ndarray, dims, axes) -> np.ndarray:
    """sum_k K_k^dag (E (x) I) K_k for the effect E on `axes` of `dims`, or
    E (x) I with no Kraus operators."""
    effect = embed_operator(effect, dims, axes)
    if len(kraus):
        effect = adjoint_kraus_array(effect, kraus)
    return effect


def _challenge_scores(spec: ProtocolSpec, rho: np.ndarray, pm: RegisterLayout, bs) -> np.ndarray:
    """Q_j = tr_V[(I (x) B_j) sigma] on (P, M), sigma the state after the challenge.

    This is the one place the challenge move runs: on (X, M, V), followed by
    its round's dephasing.  X is P when d_P <= d_M, and sigma starts from
    rho (x) |0><0|_V.  Otherwise X is a copy of M and the challenge takes
    |Phi><Phi| (x) |0><0|_V; its block (a, b) of X is the image of |a><b| on
    M, and rho's blocks rho_ab on P are contracted in afterwards:
    Q_j = sum_ab rho_ab (x) (block (a, b)).  M's registers come last in pm."""
    d_m, d_v = spec.m_layout.total_dim, spec.v_layout.total_dim
    d_p = pm.total_dim // d_m
    on_p = d_p <= d_m
    layout = (pm if on_p else _copy_of_m(spec)).concat(spec.v_layout)
    front = rho if on_p else _maximally_entangled(d_m)
    sigma = np.zeros((len(front), d_v, len(front), d_v), dtype=np.complex128)
    sigma[:, 0, :, 0] = front
    sigma = _apply_move(sigma.reshape(layout.total_dim, -1), layout.dims, _challenge(spec, layout))
    if spec.challenge_round in spec.classical_rounds:
        sigma = dephase_axes(sigma, layout.dims, layout.axes(spec.m_layout.names))
    scores = measure_array(sigma, layout.dims, bs, layout.axes(spec.v_layout.names))
    if on_p:
        return scores
    n = len(bs)
    # rows (p, p') and columns (a, b) against rows (a, b) and columns (m, m')
    blocks = rho.reshape(d_p, d_m, d_p, d_m).transpose(0, 2, 1, 3).reshape(d_p * d_p, -1)
    images = scores.reshape((n,) + (d_m,) * 4).transpose(0, 1, 3, 2, 4).reshape(n, d_m * d_m, -1)
    q = (blocks @ images).reshape(n, d_p, d_p, d_m, d_m).transpose(0, 1, 3, 2, 4)
    return q.reshape(n, pm.total_dim, pm.total_dim)


def _transcript_scores(spec: ProtocolSpec, front: np.ndarray, pm: RegisterLayout):
    """S[y, z] = sum_j <z|X_j|z> <y|Q_j|y>_M on P, and tr_V of the challenged state.

    `front` is the state on `pm` = (P, M) before the challenge; the caller
    holds (P, M, V) to the budget.  The marginal tr_V, the score of an
    identity term appended to the B_j, has the challenge distribution on
    its M-diagonal."""
    xs, bs = _closing_terms(spec)
    bs = np.concatenate([bs, np.eye(spec.v_layout.total_dim)[None]])
    scores = _challenge_scores(spec, front, pm, bs)
    d_m = spec.m_layout.total_dim
    q = scores[:-1].reshape(len(xs), -1, d_m, pm.total_dim // d_m, d_m)
    return np.einsum("jzz,jpyqy->yzpq", xs, q), scores[-1]


def classical_response_channel(layout: RegisterLayout, responses: Mapping[str, str]) -> EbChannel:
    """Measure M in the computational basis, emit the mapped basis state."""
    labels = layout.basis_labels()
    missing = [y for y in labels if y not in responses]
    if missing:
        raise ValidationError(f"response table is missing challenges {missing}")
    extra = [y for y in responses if y not in labels]
    if extra:
        raise ValidationError(f"response table has unknown challenges {extra}")
    povm = Povm.computational(layout)
    preps = tuple(PureState.basis(layout, responses[y]) for y in labels)
    return EbChannel(povm, preps)


def run_interaction(spec: ProtocolSpec, prover: ProverStrategy) -> float:
    """Simulate the interaction and return the acceptance probability.

    An exact contraction: the opening runs forward on (P, M) to rho; the
    closing effect, split as sum_j X_j (x) B_j, has each X_j pulled back
    through the response to A_j on (P, M); the challenge, run on (X, M, V),
    gives Q_j on (P, M); the acceptance is sum_j tr(A_j Q_j).  Everything is
    checked, the budget on (P, M, V) included, before any array is built.
    """
    full, opening, response = _prover_moves(spec, prover)
    pm = full.subset(n for n in full.names if n not in spec.v_layout.names)
    m_axes = pm.axes(spec.m_layout.names)
    rho = _zero_state(pm.total_dim)
    if opening is not None:
        rho = _apply_move(rho, pm.dims, opening)
        if 1 in spec.classical_rounds:
            rho = dephase_axes(rho, pm.dims, m_axes)
    xs, bs = _closing_terms(spec)
    axes = m_axes
    if len(response.effects):  # X_j -> sum_l <phi_l|X_j|phi_l> F_l on (S, M)
        phis = response.preps.reshape(len(response.preps), -1, xs.shape[-1])
        weights = np.einsum("lsa,jab,lsb->jl", phis.conj(), xs, phis)
        xs, axes = np.tensordot(weights, response.effects, 1), response.emit_axes
    pulled = np.array([_pulled_back(response.kraus, x, pm.dims, axes) for x in xs])
    scores = _challenge_scores(spec, rho, pm, bs)
    p = np.einsum("jab,jba->", pulled, scores).real
    return checked_probability(float(p), "acceptance probability")


acceptance_probability = run_interaction


def verifier_message_distribution(spec: ProtocolSpec) -> dict[str, float]:
    """Challenge distribution of a two-round protocol's opening move: the
    M-diagonal of tr_V of the challenged state, challenged from |0><0|_M."""
    if spec.rounds != 2:
        raise ValidationError("message distribution is defined for two-round protocols")
    _check_simulator_dimension(spec.joint_layout())
    eye_v = np.eye(spec.v_layout.total_dim)[None]
    marginal = _challenge_scores(spec, _zero_state(spec.m_layout.total_dim), spec.m_layout, eye_v)[0]
    return dict(zip(spec.m_layout.basis_labels(), np.diagonal(marginal).real.tolist()))


def postselected_acceptance(spec: ProtocolSpec, y: str, z: str) -> float:
    """Acceptance conditioned on challenge y being sent and response z given.

    Requires the two-round shape with both messages classical.  The transcript
    score S[y, z] of the opening from |0><0|_M, the closing effect compressed
    on response z against the state projected onto challenge y, is divided
    by y's probability, read off the marginal.  (M, V) is held to the budget.
    """
    if spec.rounds != 2 or not {1, 2} <= spec.classical_rounds:
        raise ValidationError(
            "postselection needs a two-round protocol with both rounds classical"
        )
    _check_simulator_dimension(spec.joint_layout())
    scores, marginal = _transcript_scores(spec, _zero_state(spec.m_layout.total_dim), spec.m_layout)
    i = spec.m_layout.basis_index(y)
    p_y = float(marginal[i, i].real)
    if p_y <= CONDITIONING_TOL:
        raise ConditioningError(f"challenge {y!r} has probability {p_y!r}; cannot condition")
    p = float(scores[i, spec.m_layout.basis_index(z), 0, 0].real) / p_y
    return checked_probability(p, "conditional acceptance")


# ---------------------------------------------------------------------------
# canonicalization


def canonicalize_prover(spec: ProtocolSpec, raw: ProverStrategy) -> CanonicalStrategy:
    """Fold a raw unentangled prover into canonical form, never losing value.

    Enumerates the branches of the first emission POVM, each with the lens
    sigma_R (x) |0><0|_S of its residual workspace state.  Each second
    emission effect F_l in turn is pulled back through mix2, to
    A_l = mix2^dag(I_R (x) F_l) on (P, M), and folded on every branch to
    G_l = tr_{R,S}[(lens (x) I_M) A_l], so one A_l is held at a time.  A
    branch's G_l, with the emitted states, are its response.  The branch with
    the best conditional acceptance wins (ties break toward the lowest index).
    """
    pm, opening, response = _prover_moves(spec, raw, fold=True)
    dims = pm.dims
    sm_axes = opening.emit_axes
    s_axes = sm_axes[: len(sm_axes) - len(spec.m_layout.names)]
    r_axes = tuple(a for a in opening.kraus_axes if a not in sm_axes)
    zero_s = _zero_state(math.prod(dims[a] for a in s_axes))

    rho1 = apply_kraus_array(_zero_state(pm.total_dim), dims, opening.kraus, opening.kraus_axes)
    # the residual workspace state of each branch, unnormalized, on R
    blocks = measure_array(rho1, dims, opening.effects, sm_axes)
    branches = []  # the prepared message, lens and folded effects of each branch kept
    for block, prep in zip(blocks, raw.emit1.preps):
        q = float(np.trace(block).real)
        if q <= BRANCH_PROBABILITY_TOL:
            continue
        sigma_r = block / q
        branches.append((prep, np.kron((sigma_r + dagger(sigma_r)) / 2, zero_s), []))
    if not branches:
        raise NumericsError("no emission branch has positive probability")
    for effect in response.effects:
        a = _pulled_back(response.kraus, effect, dims, sm_axes)
        for _, lens, folded in branches:
            folded.append(measure_array(a, dims, [lens], r_axes + s_axes)[0])
    candidates = [
        CanonicalStrategy(prep, EbChannel(Povm(spec.m_layout, folded), raw.emit2.preps))
        for prep, _, folded in branches
    ]
    return max(candidates, key=lambda c: acceptance_probability(spec, c))


# ---------------------------------------------------------------------------
# family extraction and the CHSH instance


def joint_response_operators(spec: ProtocolSpec) -> MeasurementFamily:
    """Effects N_{y,z} on M with the challenge probability folded in.

    For a three-round protocol with classical challenge and response, the
    acceptance of a prover that opens with rho on M and answers challenge y
    with g(y) is sum_y tr(N_{y,g(y)} rho).  The transcript scores are read
    once from |Phi><Phi| on a copy M' of M and M, as from a prover whose
    workspace is M': S[y, z] on M' has entry (j, k) from the matrix unit
    |j><k| on M, so N_{y,z} is S[y, z] transposed, then symmetrized.
    (M', M, V) is held to the simulator budget.
    """
    if spec.rounds != 3:
        raise ValidationError("family extraction needs a three-round protocol")
    if spec.challenge_round not in spec.classical_rounds:
        raise ValidationError("family extraction needs a classical challenge round")
    if spec.response_round not in spec.classical_rounds:
        raise ValidationError("family extraction needs a classical response round")
    pm = _copy_of_m(spec)
    _check_simulator_dimension(pm.concat(spec.v_layout))
    front = _maximally_entangled(spec.m_layout.total_dim)
    if 1 in spec.classical_rounds:
        front = dephase_axes(front, pm.dims, pm.axes(spec.m_layout.names))
    scores, _ = _transcript_scores(spec, front, pm)
    tables = scores.transpose(0, 1, 3, 2)
    labels = spec.m_layout.basis_labels()
    return MeasurementFamily(labels, labels, spec.m_layout, (tables + dagger(tables)) / 2)


def public_coin_protocol(family: MeasurementFamily) -> ProtocolSpec:
    """The public-coin protocol whose scoring family is `family`.

    The verifier stashes the prover's opening message in R, sends a uniform
    coin x, recorded in C, receives an answer a on M, and accepts with the
    effect F_{x,a} on the stash.  v2 is the identity and the flag is
    sum_{x,a} |a><a|_M (x) F_{x,a} (x) |x><x|_C.  Coins and answers are the
    basis labels of the family's layout, which becomes M.
    """
    m_layout = family.layout
    labels = m_layout.basis_labels()
    if family.challenges != labels or family.responses != labels:
        raise ValidationError(f"family must be indexed by the basis labels {labels} of its layout")
    d = m_layout.total_dim
    v_layout = RegisterLayout(("R", "C"), (d, d))
    joint = m_layout.concat(v_layout)
    projectors = basis_projectors(d)
    flag = np.zeros((joint.total_dim,) * 2, dtype=np.complex128)
    for coin, row in zip(projectors, family.effects):
        for answer, effect in zip(projectors, row):
            flag += kron_all([answer, effect, coin])
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


def chsh_protocol() -> tuple[ProtocolSpec, MeasurementFamily]:
    """Public-coin qubit protocol testing the CHSH condition, plus its family.

    The verifier stashes the prover's qubit, sends a uniform bit x, receives
    a bit a, and measures the stashed qubit in the Z basis (probability 1/2)
    or the X basis, accepting when the product condition a xor b = x.y
    holds; folding the private basis choice into the flag leaves the effect
    (|a><a| + H|a xor x><a xor x|H) / 2 on the stashed qubit.
    """
    m_layout = RegisterLayout(("M",), (2,))
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    proj = basis_projectors(2)
    effects = [[(proj[a] + h @ proj[a ^ x] @ h) / 2 for a in range(2)] for x in range(2)]
    family = MeasurementFamily(("0", "1"), ("0", "1"), m_layout, effects)
    return public_coin_protocol(family), family
