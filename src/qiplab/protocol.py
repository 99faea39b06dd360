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

The simulator keeps one dense density matrix over (P, M, V) up to the
prover's response, and one loop applies each round's move: Kraus
operators, then a measure-and-prepare emission (effects contracted by
qmath.measure_array, vectors written by qmath.prepare_array).  The
prover's opening and response, the public coin and v1 all take this form.
The verifier's closing channel v2 is never applied to a state: it and the
accept flag enter as one effect v2^dag(accept) on (M, V), the Heisenberg
picture, contracted against what the prover leaves behind.

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
# arrays are dense D x D complex matrices, so memory grows as D^2 and time up
# to D^3: a raw run plus its canonicalization at D = 1024 takes about 3 s and
# 160 MB peak on a 2-core host.
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


def _geometry(spec: ProtocolSpec):
    """The verifier's registers (M, V), checked against the budget, and M's axes."""
    full = spec.joint_layout()
    _check_simulator_dimension(full)
    return full, full.axes(spec.m_layout.names)


def _zero_state(dim: int) -> np.ndarray:
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = 1.0
    return rho


def _closing_effect(spec: ProtocolSpec) -> np.ndarray:
    """v2^dag(accept) on (M, V): the verifier's last channel and flag as one effect.

    A plain array: v2 is trace preserving only to KrausChannel's tolerance,
    so the image need not pass MeasurementOperator's checks; the callers
    check the probabilities it gives instead.
    """
    return adjoint_kraus_array(spec.accept.entries, spec.v2.kraus_ops)


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
    zero = np.eye(reads.total_dim // writes.total_dim)[0]
    return channel.povm.effects, [np.kron(zero, p.amplitudes) for p in channel.preps]


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


def _opening_blocks(spec: ProtocolSpec) -> np.ndarray:
    """The block on V of each challenge y of a two-round protocol's opening move.

    Measuring M in its basis zeroes what dephasing the challenge would."""
    full, m_axes = _geometry(spec)
    rho = _apply_move(_zero_state(full.total_dim), full.dims, _challenge(spec, full))
    return measure_array(rho, full.dims, basis_projectors(spec.m_layout.total_dim), m_axes)


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
    """Simulate the interaction and return the acceptance probability."""
    full, opening, response = _prover_moves(spec, prover)
    dims = full.dims
    m_axes, v_axes = full.axes(spec.m_layout.names), full.axes(spec.v_layout.names)
    rho = _zero_state(full.total_dim)
    moves = [move for move in (opening, _challenge(spec, full), response) if move is not None]
    for round_, move in enumerate(moves, start=1):
        # nested so the pre-move state is freed after the dephasing: freed before,
        # glibc trims the heap and the next move's D x D temporaries page-fault
        if round_ in spec.classical_rounds:
            rho = dephase_axes(_apply_move(rho, dims, move), dims, m_axes)
        else:
            rho = _apply_move(rho, dims, move)
    block = measure_array(rho, dims, [_closing_effect(spec)], m_axes + v_axes)[0]
    return checked_probability(float(np.trace(block).real), "acceptance probability")


def acceptance_probability(spec: ProtocolSpec, prover: ProverStrategy) -> float:
    return run_interaction(spec, prover)


def verifier_message_distribution(spec: ProtocolSpec) -> dict[str, float]:
    """Challenge distribution of a two-round protocol's opening move."""
    if spec.rounds != 2:
        raise ValidationError("message distribution is defined for two-round protocols")
    blocks = _opening_blocks(spec)
    return {
        label: float(np.trace(block).real)
        for label, block in zip(spec.m_layout.basis_labels(), blocks)
    }


def postselected_acceptance(spec: ProtocolSpec, y: str, z: str) -> float:
    """Acceptance conditioned on challenge y being sent and response z given.

    Requires the two-round shape with both messages classical.  The joint
    state is projected onto challenge y and renormalized on V; the closing
    effect compressed on response z, E_z = <z|v2^dag(accept)|z>, scores it.
    """
    if spec.rounds != 2 or not {1, 2} <= spec.classical_rounds:
        raise ValidationError(
            "postselection needs a two-round protocol with both rounds classical"
        )
    full, m_axes = _geometry(spec)
    block = _opening_blocks(spec)[spec.m_layout.basis_index(y)]
    p_y = float(np.trace(block).real)
    if p_y <= CONDITIONING_TOL:
        raise ConditioningError(f"challenge {y!r} has probability {p_y!r}; cannot condition")
    z_effect = basis_projectors(spec.m_layout.total_dim)[spec.m_layout.basis_index(z), None]
    e_z = measure_array(_closing_effect(spec), full.dims, z_effect, m_axes)[0]
    p = float(np.trace(e_z @ block).real) / p_y
    return checked_probability(p, "conditional acceptance")


# ---------------------------------------------------------------------------
# canonicalization


def canonicalize_prover(spec: ProtocolSpec, raw: ProverStrategy) -> CanonicalStrategy:
    """Fold a raw unentangled prover into canonical form, never losing value.

    Enumerates the branches of the first emission POVM.  Each second
    emission effect F_l is pulled back once through mix2, to
    A_l = mix2^dag(I_R (x) F_l) on (P, M); a branch with residual workspace
    state sigma_R compresses them to the response POVM
    G_l = tr_{R,S}[(sigma_R (x) |0><0|_S (x) I_M) A_l], which keeps the
    emitted states.  The branch with the best conditional acceptance wins
    (ties break toward the lowest index).
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
    pulled = [
        adjoint_kraus_array(embed_operator(f, dims, sm_axes), response.kraus)
        for f in response.effects
    ]

    best: tuple[float, CanonicalStrategy] | None = None
    for block, prep in zip(blocks, raw.emit1.preps):
        q = float(np.trace(block).real)
        if q <= BRANCH_PROBABILITY_TOL:
            continue
        sigma_r = block / q
        sigma_r = (sigma_r + dagger(sigma_r)) / 2
        lens = np.kron(sigma_r, zero_s)
        folded = [measure_array(a, dims, [lens], r_axes + s_axes)[0] for a in pulled]
        povm = Povm(spec.m_layout, folded)
        candidate = CanonicalStrategy(prep, EbChannel(povm, raw.emit2.preps))
        value = acceptance_probability(spec, candidate)
        if best is None or value > best[0]:
            best = (value, candidate)
    if best is None:
        raise NumericsError("no emission branch has positive probability")
    return best[1]


# ---------------------------------------------------------------------------
# family extraction and the CHSH instance


def joint_response_operators(spec: ProtocolSpec) -> MeasurementFamily:
    """Effects N_{y,z} on M with the challenge probability folded in.

    For a three-round protocol with classical challenge and response, the
    acceptance of a prover that opens with rho on M and answers challenge y
    with g(y) is sum_y tr(N_{y,g(y)} rho).  Matrix units are driven forward
    through the (linear) challenge move; the closing effect, compressed on
    each response z to E_z = <z|v2^dag(accept)|z> on V, then scores every
    challenge-conditioned block at once.
    """
    if spec.rounds != 3:
        raise ValidationError("family extraction needs a three-round protocol")
    if spec.challenge_round not in spec.classical_rounds:
        raise ValidationError("family extraction needs a classical challenge round")
    if spec.response_round not in spec.classical_rounds:
        raise ValidationError("family extraction needs a classical response round")
    full, m_axes = _geometry(spec)
    dims = full.dims
    challenge = _challenge(spec, full)
    d_m = spec.m_layout.total_dim
    labels = spec.m_layout.basis_labels()
    v_zero = _zero_state(spec.v_layout.total_dim)
    basis = basis_projectors(d_m)
    kets = np.eye(d_m)
    closing_blocks = measure_array(_closing_effect(spec), dims, basis, m_axes)
    # tables[y, z] is N_{y,z} before symmetrization
    tables = np.zeros((d_m, d_m, d_m, d_m), dtype=np.complex128)
    for j in range(d_m):
        for k in range(d_m):
            rho = np.kron(np.outer(kets[j], kets[k]), v_zero)
            if 1 in spec.classical_rounds:
                rho = dephase_axes(rho, dims, m_axes)
            rho = _apply_move(rho, dims, challenge)
            # sigma_V of each challenge y (measured in M's basis, so not dephased
            # first), scored by tr(E_z sigma_V) for every z
            blocks = measure_array(rho, dims, basis, m_axes)
            tables[:, :, k, j] = np.einsum("zab,yba->yz", closing_blocks, blocks)
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
