"""Shared test settings: the property-test profile, and helpers for tests
that start the CLI as a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import qiplab

# Property tests draw the same examples on every run, and keep no example
# database on disk, so the suite's result does not depend on earlier runs.
settings.register_profile("qiplab", derandomize=True, database=None, deadline=None)
settings.load_profile("qiplab")

# The directory that holds the qiplab package this test run imported.
PACKAGE_ROOT = Path(qiplab.__file__).resolve().parent.parent


@pytest.fixture
def cli_env():
    """Environment for a child interpreter that must import this very qiplab.

    A relative ``PYTHONPATH`` such as ``src`` stops resolving once the child
    runs in another working directory, so the package root goes first as an
    absolute path; existing entries follow it.
    """
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([str(PACKAGE_ROOT), inherited] if inherited else [str(PACKAGE_ROOT)])
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def run_cli(cli_env):
    """``run_cli(args, cwd, stdin)`` runs ``python -m qiplab.cli ARGS`` in ``cwd``."""

    def run(args, cwd, stdin=None):
        return subprocess.run(
            [sys.executable, "-m", "qiplab.cli", *args],
            cwd=cwd,
            env=cli_env,
            input=stdin,
            capture_output=True,
            timeout=120,
        )

    return run
