"""tools/output_fingerprint.py, run on this checkout as a fresh process."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_fingerprint.py"
WORKLOADS = {"sim-small", "sim-large", "solve"}
DOCUMENTS = {
    "spec.json", "prover.json", "channel.json", "opening-spec.json", "opening-prover.json",
    "canonical.json", "canonicalize.csv", "opening-canonical.json", "opening-canonicalize.csv",
    "eb-check.csv", "opening-family",
}


def command_names():
    """The command names of perfbench/clirun.py's COMMANDS, read from its
    source, so that no benchmark module is imported here."""
    tree = ast.parse((ROOT / "perfbench" / "clirun.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["COMMANDS"]:
            return {name for name, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/clirun.py has no COMMANDS")


def run_tool(tree, cwd):
    # writes no bytecode, so the run leaves this checkout as it found it
    return subprocess.run(
        [sys.executable, str(TOOL), str(tree)],
        cwd=cwd, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )


def is_sha256(digest):
    return len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_fingerprint_of_this_checkout_holds_every_report_document_and_op(tmp_path):
    result = run_tool(ROOT, tmp_path)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert set(doc) == {"csv", "documents", "ops"}
    assert set(doc["csv"]) == command_names()
    assert set(doc["documents"]) == DOCUMENTS
    assert all(map(is_sha256, [*doc["csv"].values(), *doc["documents"].values()]))
    assert set(doc["ops"]) == WORKLOADS
    for pools in doc["ops"].values():
        assert set(pools) == {"0", "1"}
        for pool in pools.values():
            assert pool and all(values for values in pool)
            for values in pool:
                assert all(math.isfinite(float.fromhex(value)) for value in values.values())


def test_fingerprint_refuses_a_directory_without_the_package(tmp_path):
    result = run_tool(tmp_path, tmp_path)
    assert result.returncode == 2
    assert "has no src/qiplab" in result.stderr
