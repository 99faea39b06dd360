"""Timing wrappers around qiplab's layer functions, installed from outside.

Each target function is replaced, in every ``qiplab.*`` namespace that binds
it (modules import with ``from .x import y``), by a wrapper that records a
span: the call's duration, the part of it covered by wrapped calls it made
on the same thread (its children), and per-layer work counters.  The span
stack is kept per thread because ``indexed_map`` runs see-saw restarts and
subsampling trials on pool threads; a span opened on a pool thread has no
parent, so the waiting ``indexed_map`` keeps that time as its own.

Spans are aggregated in memory as they close and read out at the end; the
traced run does no I/O.  A target that no longer exists is listed in
``missing`` and its metrics read 0, so the benchmark outlives the planned
removal of ``kernels.quad_forms`` and ``utils.indexed_map``.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from collections import defaultdict

# Buckets of apply_kraus_array by the product of its ``dims`` argument.
KRAUS_BUCKETS = (8, 16, 64, 256)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kraus_counters(args, kwargs, result, original):
    try:
        dims = _arg(args, kwargs, 1, "dims")
        n_ops = len(_arg(args, kwargs, 2, "kraus"))
    except (IndexError, KeyError, TypeError):  # a changed signature
        return "Dother", {}
    d = math.prod(dims)
    bucket = f"D{d}" if d in KRAUS_BUCKETS else "Dother"
    # two D x D complex matmuls per Kraus operator, 8 D^3 real flops each
    return bucket, {"kraus_ops": n_ops, "gflop_computed": n_ops * 16 * d**3 / 1e9}


def _to_kraus_counters(args, kwargs, result, original):
    return None, {"kraus_ops_out": len(result.kraus_ops)}


def _maps_counters(args, kwargs, result, original):
    fam = _arg(args, kwargs, 0, "fam")
    return None, {"maps": len(fam.responses) ** len(fam.challenges)}


def _net_counters(args, kwargs, result, original):
    from qiplab.optimize import OptimizerConfig

    spec = _arg(args, kwargs, 0, "spec")
    config = (args[1] if len(args) > 1 else kwargs.get("config")) or OptimizerConfig()
    # the net is scanned once per deterministic response map of the
    # family; the unwrapped call keeps this count out of the spans
    fam = original["protocol.joint_response_operators"](spec)
    maps = len(fam.responses) ** len(fam.challenges)
    return None, {"points_scanned": config.net_resolution * maps}


def _quad_counters(args, kwargs, result, original):
    return None, {"forms": result.shape[0] * result.shape[1]}


def _map_counters(args, kwargs, result, original):
    return None, {"workers_max": args[2] if len(args) > 2 else kwargs.get("workers", 1)}


# (dotted target under qiplab, counter function or None)
TARGETS = (
    ("qmath.apply_kraus_array", _kraus_counters),
    ("qmath.embed_operator", None),
    ("qmath.dephase_axes", None),
    ("qmath.partial_trace_array", None),
    ("channels.EbChannel.to_kraus", _to_kraus_counters),
    ("channels.adjoint_apply", None),
    ("protocol.run_interaction", None),
    ("protocol.canonicalize_prover", None),
    ("protocol.joint_response_operators", None),
    ("optimize.exact_classical_response_value", _maps_counters),
    ("optimize.seesaw_entangled_value", None),
    ("optimize.brute_force_unentangled_value", _net_counters),
    ("optimize.net_covering_error", None),
    ("optimize.subsampling_experiment", None),
    ("kernels.quad_forms", _quad_counters),
    ("utils.indexed_map", _map_counters),
)


def _resolve(dotted: str):
    """(owner object, attribute name, function) or None when it is gone."""
    parts = dotted.split(".")
    try:
        owner = importlib.import_module("qiplab." + parts[0])
    except ImportError:
        return None
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, parts[-1], None)
    return None if fn is None else (owner, parts[-1], fn)


class Tracer:
    """Installs and removes the wrappers; owns the aggregated spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict] = []
        self.counter_errors = 0
        self.missing: list[str] = []
        # the functions as found, by dotted target, for counters that call them
        self.original: dict[str, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        for dotted, counters in TARGETS:
            found = _resolve(dotted)
            if found is None:
                self.missing.append(dotted)
                continue
            owner, name, fn = found
            self.original[dotted] = fn
            wrapper = self._wrap(dotted, fn, counters)
            if isinstance(owner, type):
                self._patches.append((owner, name, fn, wrapper))
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "qiplab" or mod_name.startswith("qiplab."):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def _stats(self) -> dict:
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = defaultdict(lambda: defaultdict(float))
            self._local.stack = []
            with self._lock:
                self._thread_stats.append(stats)
        return stats

    def _wrap(self, layer, fn, counters):
        perf = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = self._stats()
            stack = local.stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
            key = layer
            extra = {}
            if counters is not None:
                try:
                    bucket, extra = counters(args, kwargs, result, self.original)
                except (AttributeError, IndexError, KeyError, TypeError):
                    with self._lock:
                        self.counter_errors += 1
                    bucket = None
                if bucket is not None:
                    key = f"{layer}.{bucket}"
            agg = stats[key]
            agg["calls"] += 1
            agg["total_s"] += dt
            agg["self_s"] += dt - frame[0]
            for name, value in extra.items():
                if name.endswith("_max"):
                    agg[name] = max(agg[name], value)
                else:
                    agg[name] += value
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per-layer counters summed over every thread that ran a span."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        with self._lock:
            per_thread = list(self._thread_stats)
        for stats in per_thread:
            for key, agg in list(stats.items()):
                for name, value in agg.items():
                    if name.endswith("_max"):
                        out[key][name] = max(out[key][name], value)
                    else:
                        out[key][name] += value
        return out
