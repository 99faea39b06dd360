"""Print a JSON fingerprint of a source tree's outputs, for bit-identity checks.

    python3 tools/output_fingerprint.py TREE > fingerprint.json

TREE is a checkout of this repository (for example a ``git archive`` of a
parent commit, unpacked).  The fingerprint holds:

- ``csv``: the sha256 of the CSV report of each README command, run as a
  fresh ``python -m qiplab.cli`` process, with TREE's ``src`` first on
  PYTHONPATH, in a temporary working directory (the commands and flags are
  TREE's ``perfbench/clirun.COMMANDS``);
- ``ops``: ``float.hex`` of every recorded op value of the ``sim-small``,
  ``sim-large`` and ``solve`` workloads (TREE's ``perfbench/workloads``),
  for each instance of the pools of seeds 0 and 1.

Two trees whose fingerprints are equal produce the same report bytes and
the same op values to the last bit.  The perfbench modules are only read.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("sim-small", "sim-large", "solve")
SEEDS = (0, 1)
COMMAND_TIMEOUT_S = 120.0


def csv_digests(clirun, proc) -> dict[str, str]:
    digests = {}
    for name, args in clirun.COMMANDS:
        with tempfile.TemporaryDirectory(prefix="fingerprint-") as cwd:
            subprocess.run(
                [sys.executable, "-m", "qiplab.cli", name, *args],
                cwd=cwd, env=proc.child_env(), check=True, stdout=subprocess.DEVNULL,
                timeout=COMMAND_TIMEOUT_S,
            )
            digests[name] = hashlib.sha256((Path(cwd) / f"{name}.csv").read_bytes()).hexdigest()
    return digests


def op_values(workloads) -> dict[str, dict[str, list[dict[str, str]]]]:
    out = {}
    for workload in WORKLOADS:
        op = workloads.OPS[workload]
        out[workload] = {
            str(seed): [
                {key: float(value).hex() for key, value in workloads.recorded_values(op(inst)).items()}
                for inst in workloads.make_pool(workload, seed)
            ]
            for seed in SEEDS
        }
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: output_fingerprint.py TREE", file=sys.stderr)
        return 2
    tree = Path(argv[0]).resolve()
    if not (tree / "src" / "qiplab").is_dir() or not (tree / "perfbench").is_dir():
        print(f"output_fingerprint: {tree} has no src/qiplab or perfbench", file=sys.stderr)
        return 2
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import clirun
    import proc
    import qiplab
    import workloads

    if not Path(qiplab.__file__).resolve().is_relative_to(tree):
        print(f"output_fingerprint: imported qiplab from {qiplab.__file__}", file=sys.stderr)
        return 2

    doc = {"csv": csv_digests(clirun, proc), "ops": op_values(workloads)}
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
