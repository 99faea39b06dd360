"""Smoke test of the benchmark itself: every workload, both modes, briefly.

    python3 perfbench/smoke.py

Runs ``run.py`` from a working directory other than the repository root (so
children must find ``src`` from the benchmark's own location) with the
shortest run each workload allows, and checks that:

- ``BENCHMARK.json`` lists exactly the workloads and metrics of ``metrics.py``;
- every run exits 0 and ends with the result line, every metric printed by
  name with its unit, and no op failed (``failed`` and ``failed_frac`` 0);
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` (no
  qiplab sources) the benchmark exits non-zero without printing a result.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import metrics
import proc
import run

ROOT = proc.HERE.parent
RUN_PY = proc.HERE / "run.py"


def check_manifest() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = []
    if [w["name"] for w in doc["workloads"]] != list(run.WORKLOADS):
        bad.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]]
    if e2e != list(metrics.END_TO_END):
        bad.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    layers = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    if layers != list(metrics.PER_LAYER):
        bad.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    return bad


def check_run(workload: str, trace: int, cwd: Path) -> list[str]:
    argv = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", "0",
            "--seconds", "0.5", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{where}: exit status {out.returncode}: {out.stderr[-1000:]}"]
    result = json.loads(out.stdout.splitlines()[-1])
    bad = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        bad.append(f"{where}: result keys {sorted(result)}")
    if result["failed"] != 0 or result["correct"] is not True or result["attempted"] < 1:
        bad.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != {name: unit for name, unit, *_ in expected}:
        bad.append(f"{where}: metric names or units differ from metrics.py")
    if trace and result["metrics"]["failed_frac"]["value"] != 0:
        bad.append(f"{where}: failed_frac is not 0")
    return bad


def check_without_sources(tmp_dir: Path) -> list[str]:
    bare = tmp_dir / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(proc.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "0",
            "--seconds", "1", "--trace", "0"]
    out = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return ["without qiplab sources the benchmark still printed a result"]
    return []


def main() -> int:
    bad = check_manifest()
    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as tmp:
        tmp_dir = Path(tmp)
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                bad += check_run(workload, trace, tmp_dir)
        bad += check_without_sources(tmp_dir)
    for line in bad:
        print(f"FAIL {line}")
    print("smoke: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
