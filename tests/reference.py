"""The protocol read literally: the one reference the simulator's tests compare with.

Nothing here is contracted or reordered for speed.  The interaction is
ProtocolSpec's definition (the paper, arXiv 2509.15319), with the Kraus
and measure-and-prepare semantics of Nielsen & Chuang:

- one dense state over every register: the prover's workspace P, the
  message M and the verifier's V, its coin and stash registers included;
- each channel's Kraus operators applied to their own registers,
  rho -> sum_k (K_k (x) I) rho (K_k (x) I)^dag;
- each emission rho -> sum_l |phi_l><phi_l| (x) tr_t[(E_l (x) I) rho];
- M dephased after each classical round;
- v2 applied forward, then the accept flag measured.

The postselection and the measurement family condition that same run on
the challenge sent, and the canonical fold is the branch construction,
each candidate scored by a run here.  Only public qiplab names are
imported, so no defect of the simulator's private steps is shared here
(test_protocol.py checks the imports).
"""

import itertools
import math

import numpy as np

from qiplab.channels import EbChannel
from qiplab.protocol import (
    BRANCH_PROBABILITY_TOL,
    CanonicalStrategy,
    ClassicalResponseStrategy,
    EntangledStrategy,
    RawUnentangledStrategy,
)
from qiplab.qmath import Povm, PureState


def _split(dims, axes):
    """Register order (axes, rest), its inverse, and the dimensions of both."""
    order = list(axes) + [a for a in range(len(dims)) if a not in axes]
    d_t = math.prod(dims[a] for a in axes)
    return order, sorted(range(len(order)), key=order.__getitem__), d_t, math.prod(dims) // d_t


def on_axes(op, mat, dims, axes):
    """(op (x) I) @ mat, op's tensor factors on `axes` of `dims` in that order
    and the identity on the other registers: op meets the rows of mat
    reshaped as (target, rest); op (x) I is never built."""
    order, back, _, _ = _split(dims, axes)
    n = len(dims)
    t = mat.reshape(tuple(dims) + (-1,)).transpose(order + [n])
    out = (op @ t.reshape(len(op), -1)).reshape(t.shape)
    return out.transpose(back + [n]).reshape(mat.shape)


def applied(rho, dims, kraus, axes):
    """sum_k (K_k (x) I) rho (K_k (x) I)^dag, each K_k on `axes` of `dims`:
    X (K (x) I)^dag is the transpose of (conj(K) (x) I) X^T."""
    return sum(on_axes(k.conj(), on_axes(k, rho, dims, axes).T, dims, axes).T for k in kraus)


def labels_on(dims, axes):
    """The index of each basis state of `dims` restricted to the registers `axes`."""
    digits = np.indices(dims).reshape(len(dims), -1)
    return np.ravel_multi_index(tuple(digits[a] for a in axes), tuple(dims[a] for a in axes))


def traced_out(rho, dims, axes):
    """tr_t rho over the registers `axes`; the others stay in layout order."""
    order, _, d_t, d_r = _split(dims, axes)
    n = len(dims)
    t = rho.reshape(tuple(dims) * 2).transpose(order + [n + a for a in order])
    return np.einsum("iaib->ab", t.reshape(d_t, d_r, d_t, d_r))


def placed(op, rest, dims, axes):
    """op (x) rest, op's tensor factors on `axes` of `dims` in that order and
    rest on the other registers in layout order."""
    order, back, _, _ = _split(dims, axes)
    n, d = len(dims), math.prod(dims)
    t = np.multiply.outer(op, rest).transpose(0, 2, 1, 3)  # rows (t, r), columns (t, r)
    t = t.reshape(tuple(dims[a] for a in order) * 2)
    return t.transpose(back + [n + a for a in back]).reshape(d, d)


def emitted(rho, dims, effects, vecs, axes):
    """sum_l |phi_l><phi_l| (x) tr_t[(E_l (x) I) rho], each E_l and phi_l on `axes`."""
    blocks = [traced_out(on_axes(e, rho, dims, axes), dims, axes) for e in effects]
    return sum(placed(np.outer(v, v.conj()), block, dims, axes) for v, block in zip(vecs, blocks))


def prover_moves(spec, prover, layout):
    """The prover's opening (None in two rounds) and response, as maps of the
    state on `layout`."""
    dims, m_names = layout.dims, spec.m_layout.names
    m = layout.axes(m_names)
    if isinstance(prover, EntangledStrategy):
        pm = layout.axes(prover.workspace.names + m_names)
        first, respond = prover.first.kraus_ops, prover.respond.kraus_ops
        return lambda rho: applied(rho, dims, first, pm), lambda rho: applied(rho, dims, respond, pm)
    if isinstance(prover, RawUnentangledStrategy):
        # mix on (P, M), then measure (S, M), prepare on M and put |0> back on S
        pm = layout.axes(prover.workspace.names + m_names)
        s = prover.workspace.subset(prover.eb_labels)
        zero_s = np.eye(s.total_dim)[0]
        sm = layout.axes(s.names + m_names)

        def move(mix, emit):
            vecs = [np.kron(zero_s, p.amplitudes) for p in emit.preps]
            return lambda rho: emitted(
                applied(rho, dims, mix.kraus_ops, pm), dims, emit.povm.effects, vecs, sm
            )

        return move(prover.mix1, prover.emit1), move(prover.mix2, prover.emit2)
    d_m = spec.m_layout.total_dim
    if isinstance(prover, CanonicalStrategy):
        effects, vecs = prover.respond.povm.effects, [p.amplitudes for p in prover.respond.preps]
    else:  # read M's basis label y, send responses[y]
        effects = [np.outer(e, e) for e in np.eye(d_m)]
        labels = spec.m_layout.basis_labels()
        vecs = [np.eye(d_m)[spec.m_layout.basis_index(prover.responses[y])] for y in labels]
    psi = prover.first_message

    def opening(rho):  # measure nothing, send psi
        return emitted(rho, dims, [np.eye(d_m)], [psi.amplitudes], m)

    return opening if psi is not None else None, lambda rho: emitted(rho, dims, effects, vecs, m)


def challenge_move(spec, layout):
    """The verifier's challenge as a map of the state on `layout`: v1 on
    (M, V), or the public coin, which stashes M (three rounds), tosses a
    uniform coin y, records it on C and sends it on M."""
    dims = layout.dims
    m = layout.axes(spec.m_layout.names)
    if not spec.public_coin:
        mv = layout.axes(spec.joint_layout().names)
        return lambda rho: applied(rho, dims, spec.v1.kraus_ops, mv)
    n = spec.m_layout.total_dim
    swap = sum(np.kron(np.outer(a, b), np.outer(b, a)) for a in np.eye(n) for b in np.eye(n))
    coin = m + (layout.axis(spec.coin_label),)
    tosses = [np.kron(e, e) for e in np.eye(n)]

    def toss(rho):
        if spec.rounds == 3:
            rho = applied(rho, dims, [swap], m + (layout.axis(spec.saved_label),))
        return emitted(rho, dims, [np.eye(n * n) / n] * n, tosses, coin)

    return toss


def final_state(spec, prover, challenge=None):
    """The layout (P, M, V) and the state on it after the interaction and v2.

    Given a challenge label, M is projected onto it after the challenge
    round, so the state's trace is the probability that it was sent."""
    layout = spec.joint_layout()
    if isinstance(prover, (EntangledStrategy, RawUnentangledStrategy)):
        layout = prover.workspace.concat(layout)
    label = labels_on(layout.dims, layout.axes(spec.m_layout.names))  # of M
    rho = np.zeros((layout.total_dim,) * 2, dtype=np.complex128)
    rho[0, 0] = 1.0
    opening, response = prover_moves(spec, prover, layout)
    moves = [opening] if spec.rounds == 3 else []
    for round_, move in enumerate(moves + [challenge_move(spec, layout), response], start=1):
        rho = move(rho)
        if round_ in spec.classical_rounds:  # no coherence between M's basis states
            rho = rho * (label[:, None] == label[None, :])
        if round_ == spec.challenge_round and challenge is not None:
            sent = label == spec.m_layout.basis_index(challenge)  # (|y><y| (x) I) rho (|y><y| (x) I)
            rho = rho * (sent[:, None] & sent[None, :])
    mv = layout.axes(spec.joint_layout().names)
    return layout, applied(rho, layout.dims, spec.v2.kraus_ops, mv)


def accepted(spec, layout, rho):
    """tr[(accept (x) I_P) rho] for a state rho on `layout` after v2."""
    mv = layout.axes(spec.joint_layout().names)
    return float(np.trace(on_axes(spec.accept.entries, rho, layout.dims, mv)).real)


def acceptance(spec, prover, challenge=None):
    """The acceptance probability, or with a challenge label the
    probability that it is sent and the verifier accepts."""
    return accepted(spec, *final_state(spec, prover, challenge))


def constant_response(spec, psi, z):
    """The classical prover that opens with psi and answers z to every challenge."""
    return ClassicalResponseStrategy(psi, {y: z for y in spec.m_layout.basis_labels()})


def message_distribution(spec):
    """The probability of each challenge of a two-round protocol."""
    labels = spec.m_layout.basis_labels()
    some = constant_response(spec, None, labels[0])
    return [float(np.trace(final_state(spec, some, y)[1]).real) for y in labels]


def postselected(spec, y, z):
    """Acceptance given challenge y and response z (two rounds, both classical)."""
    layout, rho = final_state(spec, constant_response(spec, None, z), y)
    return accepted(spec, layout, rho) / float(np.trace(rho).real)


def family(spec):
    """N[y, z] on M for a three-round protocol with classical challenge and
    response: <psi|N[y, z]|psi> is the probability that a prover opening
    with psi and answering z is challenged with y and accepted.  Each
    Hermitian N[y, z] is read off by polarization, from the openings e_j,
    (e_j + e_k)/sqrt(2) and (e_j + i e_k)/sqrt(2)."""
    m_layout = spec.m_layout
    d, labels = m_layout.total_dim, m_layout.basis_labels()
    kets = np.eye(d)
    out = np.zeros((d, d, d, d), dtype=np.complex128)
    for (i, y), (j, z) in itertools.product(enumerate(labels), repeat=2):

        def value(psi):
            opening = PureState(m_layout, psi / np.linalg.norm(psi))
            return acceptance(spec, constant_response(spec, opening, z), y)

        diag = [value(ket) for ket in kets]
        out[i, j] = np.diag(diag)
        for a, b in itertools.combinations(range(d), 2):
            mid = (diag[a] + diag[b]) / 2
            re, im = value(kets[a] + kets[b]) - mid, mid - value(kets[a] + 1j * kets[b])
            out[i, j, a, b], out[i, j, b, a] = re + 1j * im, re - 1j * im
    return out


def fold(spec, raw):
    """The canonical fold of a raw prover, by its branch construction.

    mix1 runs on |0> of (P, M) and emit1 measures (S, M).  Its outcome b,
    of probability q_b, sends b's prepared message and leaves the rest R
    of the workspace in sigma_b, with S back at |0>.  Branch b's candidate
    opens with that message and answers a message rho on M as the raw
    prover does from sigma_b (x) |0><0|_S (x) rho: its folded effect G_l
    has tr(G_l rho) = tr[(F_l (x) I_R) mix2(sigma_b (x) |0><0|_S (x) rho)],
    F_l emit2's effects.  G_l is read off every matrix unit rho = |a><c|
    at once, from |Phi><Phi| on a copy M' of M and M, Phi = sum_a |a>|a>:
    tr_{P,M} of (F_l (x) I) on its image is G_l transposed, on M'.

    Returns the candidate of highest acceptance here (the first of equal
    ones), and (q_b, sigma_b, candidate, acceptance) for every branch with
    q_b above BRANCH_PROBABILITY_TOL."""
    pm = raw.workspace.concat(spec.m_layout)
    dims, everything = pm.dims, tuple(range(len(pm.dims)))
    s = raw.workspace.subset(raw.eb_labels)
    sm = pm.axes(s.names + spec.m_layout.names)
    zero = np.zeros((pm.total_dim,) * 2, dtype=np.complex128)
    zero[0, 0] = 1.0
    opened = applied(zero, dims, raw.mix1.kraus_ops, everything)
    # on (M', P, M) every register of (P, M) is one axis further on
    d_m = spec.m_layout.total_dim
    copied = (d_m,) + dims
    pm_copied, sm_copied = tuple(1 + a for a in everything), tuple(1 + a for a in sm)
    phi = np.eye(d_m).reshape(-1)
    zero_s = np.outer(*[np.eye(s.total_dim)[0]] * 2)
    start = np.kron(zero_s, np.outer(phi, phi))  # on (S, M', M)
    start_axes = sm_copied[: len(s.names)] + (0,) + sm_copied[len(s.names) :]
    branches = []
    for effect, prep in zip(raw.emit1.povm.effects, raw.emit1.preps):
        block = traced_out(on_axes(effect, opened, dims, sm), dims, sm)
        q = float(np.trace(block).real)
        if q <= BRANCH_PROBABILITY_TOL:
            continue
        sigma = block / q
        started = placed(start, sigma, copied, start_axes)
        answered = applied(started, copied, raw.mix2.kraus_ops, pm_copied)
        folded = [
            traced_out(on_axes(f, answered, copied, sm_copied), copied, pm_copied).T
            for f in raw.emit2.povm.effects
        ]
        candidate = CanonicalStrategy(prep, EbChannel(Povm(spec.m_layout, folded), raw.emit2.preps))
        branches.append((q, sigma, candidate, acceptance(spec, candidate)))
    best = max(value for _, _, _, value in branches)
    return next(c for _, _, c, value in branches if value == best), branches
