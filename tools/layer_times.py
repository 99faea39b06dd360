"""Time the simulator's building blocks one at a time, at three prover sizes.

    python3 tools/layer_times.py

For each raw-prover workspace (W, S) in SHAPES, on a random verifier with
M = 2 and V = 4 (the ``sim-large`` shape at (8, 4)), it prints one JSON line
per block:

- ``opening``: the opening move on (P, M) from |0>, as ``run_interaction``
  runs it (the Kraus operators by their first columns, then the emission);
- ``pulled_back``: one second-emission effect pulled back through mix2;
- ``challenge``: the challenge scores of the raw run's front, the opened
  state on (P, M), with the response weights folded in: the call
  ``run_interaction`` makes;
- ``run_interaction``: the raw prover's acceptance probability;
- ``canonicalize_prover``: the fold into canonical form;
- ``canonical_run``: the canonical prover's acceptance probability.

Each line holds the block, the shape, d_PM and the total dimension D, the
best time in seconds over ``repeats`` calls, and ``os.cpu_count()``, since
the times depend on how many cores BLAS may use.  The qiplab imported is the
one in this checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qiplab import RegisterLayout, protocol, random_instances  # noqa: E402
from qiplab.utils import derived_rng  # noqa: E402

SHAPES = ((2, 2), (8, 4), (16, 8))
M_DIM, V_DIM = 2, 4
SEED = 0
REPEATS = 15


def best_time(fn) -> float:
    """The least wall time of `fn` over REPEATS calls."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def blocks(w_dim: int, s_dim: int) -> tuple[dict, dict]:
    """The shape's fields and each block as a call without arguments."""
    rng = derived_rng(SEED, "layer_times", w_dim, s_dim)
    spec = random_instances.random_verifier_spec(rng, m_dim=M_DIM, v_dim=V_DIM)
    workspace = RegisterLayout(("W", "S"), (w_dim, s_dim))
    raw = random_instances.random_raw_prover(rng, spec, workspace=workspace)
    canonical = protocol.canonicalize_prover(spec, raw)
    pm, opening, response = protocol._prover_moves(spec, raw, fold=True)

    def open_from_zero():
        rho = protocol._from_zero(opening.kraus, pm.total_dim)
        return protocol._emitted(rho, pm.dims, opening)

    def pull_back():
        return protocol._pulled_back(response.kraus, response.effects[0], pm.dims, response.emit_axes)

    front = open_from_zero()
    xs, bs = protocol._closing_terms(spec)
    weights = protocol._response_weights(xs, response.preps)

    def challenge():
        return protocol._challenge_scores(spec, front, pm, bs, weights)

    shape = {
        "w": w_dim, "s": s_dim, "m": M_DIM, "v": V_DIM,
        "d_pm": pm.total_dim, "d": pm.total_dim * spec.v_layout.total_dim,
    }
    calls = {
        "opening": open_from_zero,
        "pulled_back": pull_back,
        "challenge": challenge,
        "run_interaction": lambda: protocol.run_interaction(spec, raw),
        "canonicalize_prover": lambda: protocol.canonicalize_prover(spec, raw),
        "canonical_run": lambda: protocol.run_interaction(spec, canonical),
    }
    return shape, calls


def layer_lines(w_dim: int, s_dim: int) -> list[dict]:
    shape, calls = blocks(w_dim, s_dim)
    lines = []
    for name, fn in calls.items():
        line = {"block": name, **shape, "best_s": best_time(fn), "repeats": REPEATS}
        lines.append({**line, "cpu_count": os.cpu_count()})
    return lines


def main() -> int:
    for w_dim, s_dim in SHAPES:
        for line in layer_lines(w_dim, s_dim):
            print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
