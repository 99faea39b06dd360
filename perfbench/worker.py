"""One process of an in-process workload (sim-large, solve).

Started by run.py with qiplab's ``src`` on PYTHONPATH.  It builds the
seed's instance pool, runs one warm-up op, prints ``{"ready": true}``, and,
unless ``--setup-only``, runs a closed loop of ops (one at a time, no
threads of its own) for ``--seconds`` before printing ``{"result": ...}``.

With ``--trace 1`` each instance runs twice in a row, untraced and then with
the tracer's wrappers installed.  The traced halves give the per-layer
metrics, and the pair sums ``trace.overhead_frac``.  A traced sim-large run
then also runs SMALL_OPS traced sim-small ops (total dimension 16), whose
apply_kraus_array D16 bucket it reports per sim-small op.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import machine
import metrics
import tracer as tracing
import workloads


# Traced sim-small ops per traced sim-large run, and the metrics taken from them.
SMALL_OPS = 64
SMALL_PREFIX = "qmath.apply_kraus_array.D16."


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


class Loop:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.pool = workloads.make_pool(workload, seed)
        self.reference = workloads.load_reference(workload, seed)
        self.op = workloads.OPS[workload]
        self.check = workloads.CHECKS[workload]
        self.reset()

    def reset(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference_checked = 0
        self.seesaw = {"restarts": 0, "iterations": 0, "max_iter_stops": 0, "best_restart_share": 0.0}
        self.shortfall_max = float("-inf")

    def attempt(self, index: int, tracer=None) -> float:
        """Run the op on pool instance ``index``; return its latency."""
        instance = self.pool[index]
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = self.op(instance)
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            elapsed = time.perf_counter() - t0
            reasons = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - t0
            reasons = self.check(instance, out)
            if self.reference is not None:
                reasons += workloads.check_reference(self.reference[index], out)
                self.reference_checked += 1
            if "_iterates" in out:
                self._seesaw(out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        if reasons:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {self.workload} instance {index} failed: {reasons}", file=sys.stderr)
        return elapsed

    def _seesaw(self, out: dict) -> None:
        stats = workloads.seesaw_stats(out["_iterates"], out["_seesaw_max_iters"], out["_seesaw_tol"])
        for key, value in stats.items():
            self.seesaw[key] += value
        self.shortfall_max = max(self.shortfall_max, out["exact"] - out["seesaw"])

    def seesaw_metrics(self, ops: int) -> dict:
        out = {f"optimize.seesaw.{k}": v / ops for k, v in self.seesaw.items()}
        shortfall = self.shortfall_max if self.shortfall_max > float("-inf") else 0.0
        out["optimize.seesaw.shortfall_max"] = shortfall
        return out


def run_untraced(loop: Loop, seconds: float) -> dict:
    times = []
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(loop.attempt(len(times) % len(loop.pool)))
    after = resource.getrusage(resource.RUSAGE_SELF)
    n = len(times)
    # p90 only with at least ten samples beyond it
    tail = {"op_p90_s": statistics.quantiles(times, n=10)[-1]} if n >= 100 else {}
    return {
        "ops_per_s": n / sum(times),
        "op_p50_s": statistics.median(times),
        "op_samples": n,
        **tail,
        # where the time went, for the perfbench-info line
        "op_user_s": (after.ru_utime - before.ru_utime) / n,
        "op_sys_s": (after.ru_stime - before.ru_stime) / n,
        "op_minor_faults": (after.ru_minflt - before.ru_minflt) / n,
    }


def run_traced(loop: Loop, seconds: float) -> dict:
    tracer = tracing.Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        index = len(plain) % len(loop.pool)
        plain.append(loop.attempt(index))
        traced.append(loop.attempt(index, tracer))
    values = {
        "op_samples": len(plain),
        "trace.overhead_frac": sum(traced) / sum(plain) - 1.0,
        "trace.missing_wrappers": len(tracer.missing),
        **metrics.layer_metrics(tracer.totals(), len(traced)),
        **loop.seesaw_metrics(loop.attempted),
    }
    if tracer.missing:
        print(f"perfbench: not found, reported as 0: {tracer.missing}", file=sys.stderr)
    if tracer.counter_errors:
        print(f"perfbench: {tracer.counter_errors} counter errors", file=sys.stderr)
    return values


def run_small(seed: int) -> tuple[dict, int, int]:
    """D16 layer metrics of SMALL_OPS traced sim-small ops; with attempted, failed."""
    small = Loop("sim-small", seed)
    small.attempt(0)  # warm-up, not counted
    small.reset()
    tracer = tracing.Tracer()
    for i in range(SMALL_OPS):
        small.attempt(i % len(small.pool), tracer)
    layers = metrics.layer_metrics(tracer.totals(), SMALL_OPS)
    values = {k: v for k, v in layers.items() if k.startswith(SMALL_PREFIX)}
    return values, small.attempted, small.failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    loop = Loop(args.workload, args.seed)
    loop.attempt(0)  # warm-up, not counted
    loop.reset()
    emit({"ready": True})
    if args.setup_only:
        return 0
    run = run_traced if args.trace else run_untraced
    values = run(loop, args.seconds)
    values["check.reference_frac"] = loop.reference_checked / loop.attempted
    attempted, failed = loop.attempted, loop.failed
    if args.trace and args.workload == "sim-large":
        small, small_attempted, small_failed = run_small(args.seed)
        values.update(small)
        attempted += small_attempted
        failed += small_failed
    values["failed_frac"] = failed / attempted
    result = {"attempted": attempted, "failed": failed, "values": values}
    emit({"result": {**result, "machine": machine.machine_info()}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
