"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` lists the same metrics; ``smoke.py`` checks that the two
agree.  Untraced runs print ``END_TO_END``; traced runs print ``PER_LAYER``.
Per-layer work and time are per traced op (``/op`` units), so they do not
grow with the number of ops a run fits into its seconds.
"""

from __future__ import annotations

import tracer

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

CLI_COMMANDS = ("chsh-gap", "canonicalize", "eb-check", "nexp-decide", "subsample", "amplify")

# Import cost in `python -X importtime -c "import qiplab.cli"`: metric
# suffix -> top-level package whose modules it sums (clirun.import_times).
IMPORT_PACKAGES = {
    "qiplab_cli_s": "qiplab",
    "scipy_s": "scipy",
    "numpy_s": "numpy",
}

# Layers timed by tracer.py: (metric prefix, tracer key, fields).  A field
# is (metric suffix, tracer counter, unit, better).
_CALLS = ("calls", "calls", "count/op", "lower")
_SELF = ("self_s", "self_s", "s/op", "lower")
# Inclusive time, for solvers whose work runs in child spans or on pool threads.
_TOTAL = ("total_s", "total_s", "s/op", "lower")
KRAUS_BUCKETS = (*(f"D{d}" for d in tracer.KRAUS_BUCKETS), "Dother")

TRACED_LAYERS = (
    *(
        (
            f"qmath.apply_kraus_array.{b}",
            f"qmath.apply_kraus_array.{b}",
            (
                _CALLS,
                _SELF,
                ("kraus_ops", "kraus_ops", "count/op", "lower"),
                ("gflop_computed", "gflop_computed", "GFLOP/op", "lower"),
            ),
        )
        for b in KRAUS_BUCKETS
    ),
    ("qmath.embed_operator", "qmath.embed_operator", (_CALLS, _SELF)),
    ("qmath.dephase_axes", "qmath.dephase_axes", (_CALLS, _SELF)),
    ("qmath.partial_trace_array", "qmath.partial_trace_array", (_CALLS, _SELF)),
    (
        "channels.EbChannel.to_kraus",
        "channels.EbChannel.to_kraus",
        (_CALLS, _SELF, ("kraus_ops_out", "kraus_ops_out", "count/op", "lower")),
    ),
    ("channels.adjoint_apply", "channels.adjoint_apply", (_CALLS, _SELF)),
    ("protocol.run_interaction", "protocol.run_interaction", (_CALLS, _SELF)),
    ("protocol.canonicalize_prover", "protocol.canonicalize_prover", (_CALLS, _SELF)),
    ("protocol.joint_response_operators", "protocol.joint_response_operators", (_CALLS, _SELF)),
    (
        "optimize.exact_classical_response_value",
        "optimize.exact_classical_response_value",
        (_CALLS, _SELF, ("maps", "maps", "count/op", "lower")),
    ),
    ("optimize.seesaw_entangled_value", "optimize.seesaw_entangled_value", (_CALLS, _SELF, _TOTAL)),
    (
        "optimize.brute_force_unentangled_value",
        "optimize.brute_force_unentangled_value",
        (_CALLS, _SELF, _TOTAL),
    ),
    (
        "optimize.net",
        "optimize.brute_force_unentangled_value",
        (("points_scanned", "points_scanned", "count/op", "lower"),),
    ),
    ("optimize.net_covering_error", "optimize.net_covering_error", (_CALLS, _SELF)),
    ("optimize.subsampling_experiment", "optimize.subsampling_experiment", (_CALLS, _SELF, _TOTAL)),
    (
        "kernels.quad_forms",
        "kernels.quad_forms",
        (_CALLS, _SELF, ("forms", "forms", "count/op", "lower")),
    ),
    (
        "utils.indexed_map",
        "utils.indexed_map",
        (_CALLS, _SELF, ("workers", "workers_max", "count", "lower")),
    ),
)

# See-saw statistics read from ValueReport.iterates on the solve workload.
SEESAW = (
    ("optimize.seesaw.restarts", "count/op", "lower"),
    ("optimize.seesaw.iterations", "count/op", "lower"),
    ("optimize.seesaw.max_iter_stops", "count/op", "lower"),
    ("optimize.seesaw.best_restart_share", "ratio", "higher"),
    ("optimize.seesaw.shortfall_max", "prob", "lower"),
)

# (name, unit, better)
PER_LAYER = (
    ("op_samples", "count", "higher"),
    ("failed_frac", "ratio", "lower"),
    ("check.reference_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.missing_wrappers", "count", "lower"),
    *((f"cli.{c}.wall_s", "s", "lower") for c in CLI_COMMANDS),
    ("cli.csv_bytes_identical", "count", "higher"),
    *((f"import.{s}", "s", "lower") for s in IMPORT_PACKAGES),
    *(
        (f"{prefix}.{suffix}", unit, better)
        for prefix, _, fields in TRACED_LAYERS
        for suffix, _, unit, better in fields
    ),
    *SEESAW,
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Per-layer metrics measured only by the traced run of run.CLI_LAYER_WORKLOAD;
# the other workloads report them as 0, since they do no such work.
CLI_ONLY = tuple(n for n, *_ in PER_LAYER if n.startswith(("cli.", "import.")))


def layer_metrics(totals: dict, traced_ops: int) -> dict[str, float]:
    """Per-op values of every traced layer metric from Tracer.totals()."""
    out = {}
    for prefix, key, fields in TRACED_LAYERS:
        agg = totals.get(key, {})
        for suffix, counter, _, _ in fields:
            value = agg.get(counter, 0.0)
            if not counter.endswith("_max"):
                value = value / traced_ops
            out[f"{prefix}.{suffix}"] = value
    return out


def render(values: dict[str, float], names) -> dict:
    """The ``metrics`` object of the result line, in the order of ``names``."""
    return {name: {"value": values[name], "unit": UNITS[name]} for name, *_ in names}
