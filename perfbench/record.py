"""Record the reference outputs that the benchmark checks every op against.

Run from any directory, at the commit whose outputs are the reference:

    python3 perfbench/record.py --workload solve
    python3 perfbench/record.py --workload cli

In-process workloads (and sim-small, which traced sim-large runs also run)
store, for seeds 0 to SEEDS - 1, the values of every instance in the seed's
pool (``workloads.POOL_SIZE``).  ``cli`` stores the CSV report of
each README command (clirun.py), which the benchmark compares number by number and
byte by byte.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from proc import HERE, SRC, child_env

# Seeds with a recorded reference; runs with other seeds only cross-check.
SEEDS = 32


def record_in_process(workload: str) -> None:
    sys.path.insert(0, str(SRC))
    import workloads

    op = workloads.OPS[workload]
    seeds = {}
    for seed in range(SEEDS):
        pool = workloads.make_pool(workload, seed)
        seeds[str(seed)] = [workloads.recorded_values(op(inst)) for inst in pool]
        print(f"{workload}: seed {seed} recorded", file=sys.stderr)
    doc = {"workload": workload, "pool_size": workloads.POOL_SIZE[workload], "seeds": seeds}
    path = workloads.reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")


def record_cli() -> None:
    import clirun

    out_dir = clirun.REFERENCE_CSV_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    for name, args in clirun.COMMANDS:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=HERE.parent) as cwd:
            subprocess.run(
                [sys.executable, "-m", "qiplab.cli", name, *args],
                cwd=cwd, env=env, check=True, stdout=subprocess.DEVNULL,
            )
            shutil.copyfile(Path(cwd) / f"{name}.csv", out_dir / f"{name}.csv")
        print(f"cli: {name} recorded", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    if not (SRC / "qiplab").is_dir():
        print(f"record: no qiplab package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(HERE.parent)
    if args.workload == "cli":
        record_cli()
    else:
        record_in_process(args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
