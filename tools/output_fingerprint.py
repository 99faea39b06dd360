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
  for each instance of the pools of seeds 0 and 1;
- ``documents``: the sha256 of five input documents that TREE's codec
  writes from fixed ``derived_rng`` draws (two ``random_verifier_spec`` and
  ``random_raw_prover`` pairs, and a ``random_eb_channel``), and of what
  ``canonicalize --spec --prover --emit`` and ``eb-check --channel`` make
  of them, each run as a fresh process like the README commands: the
  emitted canonical strategies and the CSV reports.  The second pair's
  spec has every round classical, round 1 included, which no benchmark
  instance or README command has; ``opening-family`` is the sha256 of its
  ``joint_response_operators`` effects, computed in this process.

Two trees whose fingerprints, taken on the same host, are equal produce
the same report bytes, documents and op values to the last bit on that
host.  Bit identity holds per host and BLAS kernel, not across CPUs: the
last digits of some values depend on which kernel OpenBLAS picks for the
CPU, so compare fingerprints taken on one host only.  The perfbench
modules are only read.
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
DOCUMENT_SEED = 0
COMMAND_TIMEOUT_S = 120.0


def run_cli(proc, cwd, name: str, *args: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "qiplab.cli", name, *args],
        cwd=cwd, env=proc.child_env(), check=True, stdout=subprocess.DEVNULL,
        timeout=COMMAND_TIMEOUT_S,
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_digests(clirun, proc) -> dict[str, str]:
    digests = {}
    for name, args in clirun.COMMANDS:
        with tempfile.TemporaryDirectory(prefix="fingerprint-") as cwd:
            run_cli(proc, cwd, name, *args)
            digests[name] = sha256(Path(cwd) / f"{name}.csv")
    return digests


def document_digests(proc) -> dict[str, str]:
    from qiplab import cli, random_instances
    from qiplab.protocol import joint_response_operators
    from qiplab.qmath import RegisterLayout
    from qiplab.utils import derived_rng

    rng = derived_rng(DOCUMENT_SEED, "output_fingerprint")
    spec = random_instances.random_verifier_spec(rng)
    prover = random_instances.random_raw_prover(rng, spec)
    qutrit, qubit = RegisterLayout(("A",), (3,)), RegisterLayout(("B",), (2,))
    channel = random_instances.random_eb_channel(rng, qutrit, qubit)
    opening_spec = random_instances.random_verifier_spec(rng, classical=(1, 2, 3))
    opening_prover = random_instances.random_raw_prover(rng, opening_spec)
    inputs = {
        "spec.json": cli.protocol_document(spec),
        "prover.json": cli.strategy_document(prover),
        "channel.json": cli.channel_document(channel),
        "opening-spec.json": cli.protocol_document(opening_spec),
        "opening-prover.json": cli.strategy_document(opening_prover),
    }
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as cwd:
        for name, doc in inputs.items():
            (Path(cwd) / name).write_text(cli.dumps_document(doc) + "\n")
        outputs = []
        for pair in ("", "opening-"):
            run_cli(
                proc, cwd, "canonicalize", "--spec", f"{pair}spec.json",
                "--prover", f"{pair}prover.json",
                "--emit", f"{pair}canonical.json", "--csv", f"{pair}canonicalize.csv",
            )
            outputs += [f"{pair}canonical.json", f"{pair}canonicalize.csv"]
        run_cli(proc, cwd, "eb-check", "--channel", "channel.json", "--csv", "eb-check.csv")
        digests = {name: sha256(Path(cwd) / name) for name in [*inputs, *outputs, "eb-check.csv"]}
    family = joint_response_operators(opening_spec).effects
    digests["opening-family"] = hashlib.sha256(family.tobytes()).hexdigest()
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

    doc = {
        "csv": csv_digests(clirun, proc),
        "documents": document_digests(proc),
        "ops": op_values(workloads),
    }
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
