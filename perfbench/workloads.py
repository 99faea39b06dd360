"""Instances, operations and correctness checks of the in-process workloads.

Every call into qiplab goes through a module attribute looked up at call
time (``qiplab.canonicalize_prover``, ``qiplab.optimize.seesaw_entangled_value``),
so the timing wrappers that ``tracer`` installs in the ``qiplab.*``
namespaces see the calls the harness makes.  Only public names that the
planned refactors keep are used; no call passes ``max_workers`` or
``backend``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import qiplab
import qiplab.optimize
import qiplab.random_instances
import qiplab.utils

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Absolute tolerance of every value comparison: with the recorded reference
# and in the cross-checks.
VALUE_TOL = 1e-9
# Canonicalization never loses acceptance, up to the package's own tolerance.
GAIN_TOL = 1e-9

# Solver parameters of the solve workload.
SEESAW_RESTARTS = 16
NET_RESOLUTION = 5000
SUBSAMPLE_R = 256
SUBSAMPLE_EPS = 0.1
SUBSAMPLE_TRIALS = 100


def seesaw_slack(convergence_tol: float) -> float:
    """Shortfall of a converged see-saw restart that still counts as a pass.

    The see-saw stops once a step gains less than ``convergence_tol``, so
    its value is a lower bound.  If the remaining steps shrink at least
    geometrically with ratio rho, what is left after the stop is at most
    tol * rho / (1 - rho); rho = 0.99 gives 99 * tol, rounded up to 100 * tol.
    At tol = 1e-9 that is 1e-7, above the largest shortfall observed on
    random public-coin instances (3.1e-8).
    """
    return 100.0 * convergence_tol


# Instance pool per seed.  Ops cycle through it, so the recorded reference
# covers every op of a run whose seed has one.
# sim-small is not a workload of its own: traced sim-large runs also run it
# (worker.run_small), so that the D=16 simulator path has layer metrics.
POOL_SIZE = {"sim-small": 16, "sim-large": 16, "solve": 32}

SIM_SHAPES = {
    # (m_dim, v_dim, workspace dims (W, S)); total dimension W*S*M*V
    "sim-small": (2, 2, (2, 2)),  # D = 16, mix1 applied at D = 8
    "sim-large": (2, 4, (8, 4)),  # D = 256, mix1 applied at D = 64
}


def make_instance(workload: str, seed: int, index: int):
    rng = qiplab.utils.derived_rng(seed, "perfbench", workload, index)
    ri = qiplab.random_instances
    if workload in SIM_SHAPES:
        m_dim, v_dim, ws_dims = SIM_SHAPES[workload]
        spec = ri.random_verifier_spec(rng, m_dim=m_dim, v_dim=v_dim)
        workspace = qiplab.RegisterLayout(("W", "S"), ws_dims)
        return spec, ri.random_raw_prover(rng, spec, workspace=workspace)
    if workload == "solve":
        spec, fam = ri.random_public_coin_spec(rng)
        return spec, fam, int(rng.integers(2**31))
    raise ValueError(f"unknown in-process workload {workload!r}")


def make_pool(workload: str, seed: int) -> list:
    return [make_instance(workload, seed, i) for i in range(POOL_SIZE[workload])]


# ---------------------------------------------------------------------------
# operations: each returns the values the reference records, plus extras


def sim_op(instance) -> dict:
    spec, raw = instance
    raw_value = qiplab.acceptance_probability(spec, raw)
    canonical = qiplab.canonicalize_prover(spec, raw)
    canonical_value = qiplab.acceptance_probability(spec, canonical)
    return {"raw": raw_value, "canonical": canonical_value}


def solve_op(instance) -> dict:
    spec, fam, solver_seed = instance
    opt = qiplab.optimize
    joint = qiplab.joint_response_operators(spec)
    exact = opt.exact_classical_response_value(fam)
    seesaw_cfg = opt.OptimizerConfig(restarts=SEESAW_RESTARTS, seed=solver_seed)
    seesaw = opt.seesaw_entangled_value(fam, config=seesaw_cfg)
    brute = opt.brute_force_unentangled_value(
        spec, opt.OptimizerConfig(net_resolution=NET_RESOLUTION)
    )
    sub = opt.subsampling_experiment(
        fam, SUBSAMPLE_R, SUBSAMPLE_EPS, SUBSAMPLE_TRIALS, solver_seed
    )
    return {
        "exact": exact.value,
        "brute": brute.value,
        "net_error": brute.net_error,
        "seesaw": seesaw.value,
        "subsample_lhs": sub.lhs_value,
        "subsample_rhs_mean": math.fsum(sub.rhs_values) / len(sub.rhs_values),
        "subsample_failure_fraction": sub.failure_fraction,
        # not recorded: inputs to the cross-checks and the see-saw statistics
        "_joint": joint,
        "_iterates": seesaw.iterates,
        "_seesaw_tol": seesaw_cfg.convergence_tol,
        "_seesaw_max_iters": seesaw_cfg.max_iters,
    }


OPS = {"sim-small": sim_op, "sim-large": sim_op, "solve": solve_op}


def recorded_values(out: dict) -> dict:
    return {k: v for k, v in out.items() if not k.startswith("_")}


# ---------------------------------------------------------------------------
# checks: return a list of failure reasons, empty when the op passed


def check_sim(instance, out: dict) -> list[str]:
    gain = out["canonical"] - out["raw"]
    if not gain >= -GAIN_TOL:
        return [f"canonical prover lost {-gain:.3e} acceptance"]
    return []


def check_solve(instance, out: dict) -> list[str]:
    _, fam, _ = instance
    bad = []
    exact, brute, err = out["exact"], out["brute"], out["net_error"]
    if not brute <= exact + VALUE_TOL:
        bad.append(f"net value {brute!r} above the exact value {exact!r}")
    if not exact <= brute + err + VALUE_TOL:
        bad.append(f"exact value {exact!r} above net value + net error {brute + err!r}")
    slack = seesaw_slack(out["_seesaw_tol"])
    if not out["seesaw"] >= exact - slack:
        bad.append(f"see-saw {out['seesaw']!r} below exact {exact!r} by more than {slack:g}")
    if not abs(out["subsample_lhs"] - exact) <= VALUE_TOL:
        bad.append(f"subsample LHS {out['subsample_lhs']!r} differs from exact {exact!r}")
    # the joint response family folds in the uniform challenge probability
    joint = out["_joint"]
    n_y = len(fam.challenges)
    for y in fam.challenges:
        for z in fam.responses:
            gap = abs(joint.op(y, z).entries - fam.op(y, z).entries / n_y).max()
            if not gap <= VALUE_TOL:
                bad.append(f"joint response operator ({y}, {z}) off by {gap:.3e}")
    return bad


CHECKS = {"sim-small": check_sim, "sim-large": check_sim, "solve": check_solve}


def check_reference(expected: dict, out: dict) -> list[str]:
    bad = []
    for key, want in expected.items():
        got = out[key]
        if not abs(got - want) <= VALUE_TOL:
            bad.append(f"{key} = {got!r}, reference {want!r}")
    return bad


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> list[dict] | None:
    """Recorded per-instance values for this seed, or None if not recorded."""
    doc = json.loads(reference_path(workload).read_text(encoding="utf-8"))
    if doc["pool_size"] != POOL_SIZE[workload]:
        raise ValueError(f"{workload} reference was recorded for another pool size")
    return doc["seeds"].get(str(seed))


def seesaw_stats(iterates, max_iters: int, tol: float) -> dict:
    """Why and where each see-saw restart stopped, from ValueReport.iterates."""
    finals = [run[-1] for run in iterates]
    best = max(finals)
    return {
        "restarts": len(iterates),
        "iterations": sum(len(run) for run in iterates),
        "max_iter_stops": sum(1 for run in iterates if len(run) >= max_iters),
        "best_restart_share": sum(1 for v in finals if v >= best - seesaw_slack(tol))
        / len(finals),
    }
