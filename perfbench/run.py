"""qiplab benchmark: one workload, end to end or per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 0 --seconds 30 --trace 0

Workloads (see README.md in this directory for why each exists):

    sim-large    canonicalize one random prover at total dimension 256
    solve        bound one random public-coin qubit protocol with every solver

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from a separate traced run; a traced ``solve`` run also times the six README
commands as fresh processes (``clirun.py``).  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
the line before it, prefixed ``perfbench-info``, records the machine and its
thread settings.
Exit status is 0 when the run completed (even with failed ops, which
``correct`` and ``failed`` report) and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import clirun
import machine
import metrics
import proc

WORKLOADS = ("sim-large", "solve")
# The workload whose traced run also measures the command-line layer.
CLI_LAYER_WORKLOAD = "solve"
# Fresh worker processes whose set-up time is measured before and after the
# timed one; setup_s is the median of all of them.  Spreading them over the
# run keeps one slow stretch of the host from setting the median.
SETUP_BEFORE = 2
SETUP_AFTER = 2
# The whole run, children included, ends within this many seconds of its start.
RUN_BUDGET_S = 170.0


def _read_line(child: subprocess.Popen, buf: bytearray, deadline: float) -> dict:
    """Next JSON line of the child's stdout, waiting until ``deadline``."""
    fd = child.stdout.fileno()
    while b"\n" not in buf:
        remaining = deadline - time.perf_counter()
        ready, _, _ = select.select([fd], [], [], max(remaining, 0.0))
        if not ready:
            raise proc.ChildError("child did not answer in time")
        chunk = os.read(fd, 65536)
        if not chunk:
            raise proc.ChildError("child exited before answering")
        buf.extend(chunk)
    line, _, rest = bytes(buf).partition(b"\n")
    buf[:] = rest
    return json.loads(line)


def _run_child(argv: list[str], deadline: float, n_lines: int) -> tuple[list[tuple[float, dict]], int]:
    """Run a child that prints JSON lines; return them, each with the seconds
    from start to its arrival, and the child's peak RSS in KiB."""
    buf = bytearray()
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, env=proc.child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        lines = []
        for _ in range(n_lines):
            doc = _read_line(child, buf, deadline)
            lines.append((time.perf_counter() - t0, doc))
    except BaseException:
        child.kill()
        raise
    finally:
        child.stdout.close()
        rss = proc.reap(child, deadline - time.perf_counter())
    if child.returncode != 0:
        raise proc.ChildError(f"{argv[1]} exited with status {child.returncode}")
    return lines, rss


def _worker(args, deadline: float, setup_only: bool) -> tuple[float, dict | None, int]:
    """Start one worker; return (set-up seconds, result or None, peak RSS KiB)."""
    argv = [
        sys.executable, str(proc.HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    lines, rss = _run_child(argv, deadline, 1 if setup_only else 2)
    setup, ready = lines[0]
    if not ready.get("ready"):
        raise proc.ChildError("worker did not report ready")
    return setup, None if setup_only else lines[1][1]["result"], rss


def run_in_process(args, deadline: float) -> tuple[dict, int, int, dict]:
    if args.trace:
        _, result, _ = _worker(args, deadline, setup_only=False)
        values = result["values"]
    else:
        setups = [_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_BEFORE)]
        setup, result, rss = _worker(args, deadline, setup_only=False)
        setups += [setup] + [_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_AFTER)]
        values = {
            **result["values"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss / 1024,
        }
    return values, result["attempted"], result["failed"], result["machine"]


def run_cli_layer(seed: int, deadline: float) -> tuple[dict, int, int]:
    """The ``cli.*`` and ``import.*`` metrics, with commands attempted and failed."""
    tmp_root = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=os.getcwd()))
    try:
        loop = clirun.CliLoop(seed, tmp_root, deadline)
        values = clirun.layer_metrics(loop)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    return values, loop.attempted, loop.failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (proc.SRC / "qiplab" / "__init__.py").is_file():
        print(f"perfbench: no qiplab package under {proc.SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_BUDGET_S
    ticks = machine.cpu_ticks()
    try:
        values, attempted, failed, host = run_in_process(args, deadline)
        if args.trace and args.workload == CLI_LAYER_WORKLOAD:
            cli_values, cli_attempted, cli_failed = run_cli_layer(args.seed, deadline)
            values.update(cli_values)
            attempted += cli_attempted
            failed += cli_failed
            values["failed_frac"] = failed / attempted
        elif args.trace:
            values.update(dict.fromkeys(metrics.CLI_ONLY, 0.0))
    except proc.ChildError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 3
    names = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "op_samples": values["op_samples"],
        **{k: values[k] for k in ("op_p90_s", "op_user_s", "op_sys_s", "op_minor_faults") if k in values},
        "host_steal_share": machine.steal_share(ticks, machine.cpu_ticks()),
        "machine": host,
    }
    print("perfbench-info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.render(values, names),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
