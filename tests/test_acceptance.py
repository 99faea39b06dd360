"""Top-level acceptance gate.

Ten numbered criteria, each printing a single PASS/FAIL line with the
measured numbers so a plain `pytest -v` run doubles as a release report.
"""

import math
import time

import numpy as np

from qiplab import (
    KrausChannel,
    acceptance_probability,
    adjoint_apply,
    apply_kraus,
    check_eb_ppt,
    choi,
    chsh_protocol,
    eb_from_separable_choi,
    postselected_acceptance,
    verifier_message_distribution,
)
from qiplab.optimize import (
    OptimizerConfig,
    exact_classical_response_value,
    hoeffding_floor,
    majority_amplify,
    nexp_decide,
    seesaw_entangled_value,
    subsampling_experiment,
)
from qiplab.protocol import canonicalize_prover
from qiplab.qmath import MeasurementOperator, RegisterLayout, born_probability
from qiplab.random_instances import (
    random_classical_response,
    random_density,
    random_eb_channel,
    random_effect,
    random_kraus_channel,
    random_qcip2_spec,
    random_raw_prover,
    random_separable_choi_terms,
    random_verifier_spec,
)
from qiplab.utils import derived_rng

TSIRELSON = (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
QUBIT = RegisterLayout(("M",), (2,))


def report(capsys, number, label, ok, detail):
    line = f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_exact_unentangled_game_value(capsys):
    t0 = time.perf_counter()
    _, fam = chsh_protocol()
    value = exact_classical_response_value(fam).value
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.75) <= 1e-9 and elapsed < 1.0
    report(capsys, 1, "exact unentangled value", ok, f"value={value:.9f} time={elapsed:.3f}s")


def test_criterion_02_seesaw_entangled_value(capsys):
    t0 = time.perf_counter()
    _, fam = chsh_protocol()
    cfg = OptimizerConfig(restarts=16, seed=0)
    value = seesaw_entangled_value(fam, config=cfg).value
    elapsed = time.perf_counter() - t0
    ok = TSIRELSON - 1e-4 <= value <= TSIRELSON + 1e-6 and elapsed < 5.0
    report(capsys, 2, "see-saw entangled value", ok, f"value={value:.9f} time={elapsed:.3f}s")


def test_criterion_03_canonicalization_never_loses_value(capsys):
    t0 = time.perf_counter()
    worst = math.inf
    for trial in range(200):
        rng = derived_rng(300, "canon", trial)
        spec = random_verifier_spec(rng)
        prover = random_raw_prover(rng, spec)
        raw = acceptance_probability(spec, prover)
        canon = acceptance_probability(spec, canonicalize_prover(spec, prover))
        worst = min(worst, canon - raw)
    elapsed = time.perf_counter() - t0
    ok = worst >= -1e-9 and elapsed < 60.0
    report(capsys, 3, "canonical form monotone x200", ok, f"min gain={worst:.2e} time={elapsed:.1f}s")


def test_criterion_04_eb_choi_suite(capsys):
    identity_report = check_eb_ppt(KrausChannel.identity(QUBIT))
    ident_ok = (
        abs(identity_report.min_eigenvalue + 0.5) <= 1e-10
        and identity_report.verdict == "NPT"
    )

    worst_pt = math.inf
    for i in range(100):
        rng = derived_rng(400, "ppt", i)
        worst_pt = min(worst_pt, check_eb_ppt(random_eb_channel(rng, QUBIT)).min_eigenvalue)
    ppt_ok = worst_pt >= -1e-10

    out_layout = RegisterLayout(("N",), (2,))
    worst_gap = 0.0
    for i in range(50):
        rng = derived_rng(400, "roundtrip", i)
        terms = random_separable_choi_terms(rng, QUBIT, out_layout, n_bases=2)
        target = sum(p * np.kron(v.projector(), w.projector()) for p, v, w in terms)
        rebuilt = choi(eb_from_separable_choi(2, terms)).operator.entries
        worst_gap = max(worst_gap, float(np.max(np.abs(rebuilt - target))))
    trip_ok = worst_gap <= 1e-9

    ok = ident_ok and ppt_ok and trip_ok
    detail = (
        f"identity min eig={identity_report.min_eigenvalue:.6f}, "
        f"100-channel min PT eig={worst_pt:.2e}, max round-trip gap={worst_gap:.2e}"
    )
    report(capsys, 4, "EB/Choi suite", ok, detail)


def test_criterion_05_adjoint_duality(capsys):
    pair = RegisterLayout(("A", "B"), (2, 2))
    wide = RegisterLayout(("C",), (3,))
    worst_pairing = 0.0
    worst_unital = 0.0
    for i in range(100):
        rng = derived_rng(500, "dual", i)
        out_layout = wide if i % 2 else pair
        ch = random_kraus_channel(rng, pair, out_layout, n_kraus=3)
        effect = random_effect(rng, out_layout)
        rho = random_density(rng, pair)
        lhs = born_probability(effect, apply_kraus(ch, rho))
        rhs = born_probability(adjoint_apply(ch, effect), rho)
        worst_pairing = max(worst_pairing, abs(lhs - rhs))
        ident = adjoint_apply(ch, MeasurementOperator.identity(out_layout)).entries
        worst_unital = max(worst_unital, float(np.max(np.abs(ident - np.eye(4)))))
    ok = worst_pairing <= 1e-10 and worst_unital <= 1e-10
    detail = f"max pairing gap={worst_pairing:.2e}, max unitality defect={worst_unital:.2e}"
    report(capsys, 5, "adjoint duality x100", ok, detail)


def test_criterion_06_postselection_recomposition(capsys):
    worst = 0.0
    for i in range(50):
        rng = derived_rng(600, "post", i)
        spec = random_qcip2_spec(rng)
        prover = random_classical_response(rng, spec)
        weights = verifier_message_distribution(spec)
        recomposed = sum(
            p_y * postselected_acceptance(spec, y, prover.responses[y])
            for y, p_y in weights.items()
        )
        worst = max(worst, abs(recomposed - acceptance_probability(spec, prover)))
    ok = worst <= 1e-9
    report(capsys, 6, "postselection recomposition x50", ok, f"max gap={worst:.2e}")


def test_criterion_07_subsampling_decay(capsys):
    t0 = time.perf_counter()
    _, fam = chsh_protocol()
    means = []
    errors = []
    for r in (8, 16, 32, 64, 128):
        rep = subsampling_experiment(fam, r, 0.1, 100, seed=1)
        devs = np.array(rep.deviations)
        means.append(float(devs.mean()))
        errors.append(float(devs.std(ddof=1) / math.sqrt(len(devs))))
    tail = subsampling_experiment(fam, 256, 0.1, 100, seed=1)
    elapsed = time.perf_counter() - t0

    decay_ok = all(
        means[i + 1] <= means[i] + 2.0 * math.hypot(errors[i], errors[i + 1])
        for i in range(len(means) - 1)
    )
    ok = tail.failure_fraction <= 0.05 and decay_ok and elapsed < 30.0
    detail = (
        f"failure@256={tail.failure_fraction:.3f}, means 8..128="
        + "/".join(f"{m:.4f}" for m in means)
        + f", time={elapsed:.1f}s"
    )
    report(capsys, 7, "subsampling decay", ok, detail)


def test_criterion_08_threshold_decision(capsys):
    spec, _ = chsh_protocol()
    cfg = OptimizerConfig(net_resolution=2000)
    low = nexp_decide(spec, 0.8, 0.6, cfg)
    high = nexp_decide(spec, 1.0, 0.6, cfg)
    ok = low.accepted and not high.accepted and low.net_error < 0.05
    detail = (
        f"value={low.value:.6f}, net error={low.net_error:.4f}, "
        f"verdicts accept/reject as required"
    )
    report(capsys, 8, "net threshold decision", ok, detail)


def test_criterion_09_majority_amplification(capsys):
    boosted = majority_amplify(2.0 / 3.0, 41)
    floor = hoeffding_floor(2.0 / 3.0, 41)
    symmetric = majority_amplify(0.5, 41)
    ok = boosted >= 0.8985 and boosted >= floor and abs(symmetric - 0.5) <= 1e-12
    detail = f"amplify(2/3,41)={boosted:.6f} (floor {floor:.6f}), amplify(1/2,41)={symmetric:.12f}"
    report(capsys, 9, "majority amplification", ok, detail)


def test_criterion_10_cli_byte_determinism(capsys, tmp_path, run_cli):
    jobs = [
        ["chsh-gap", "--restarts", "4", "--seed", "7"],
        ["canonicalize", "--trials", "5", "--seed", "0"],
        ["eb-check", "--count", "5", "--seed", "0"],
        ["nexp-decide", "--c", "0.8", "--s", "0.6", "--resolution", "2000", "--seed", "0"],
        ["subsample", "--r", "16", "--eps", "0.1", "--trials", "10", "--seed", "1"],
        ["amplify", "--p", "0.66", "--k", "11"],
    ]
    mismatched = []
    for args in jobs:
        outputs = []
        for attempt in ("first", "second"):
            cwd = tmp_path / f"{args[0]}-{attempt}"
            cwd.mkdir()
            proc = run_cli([*args, "--csv", "out.csv"], cwd=cwd)
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append((cwd / "out.csv").read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(args[0])
    ok = not mismatched
    detail = "all 6 commands byte-identical" if ok else f"mismatch in {mismatched}"
    report(capsys, 10, "CLI byte determinism across two fresh runs", ok, detail)
