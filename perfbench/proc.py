"""Starting and reaping the benchmark's child processes."""

from __future__ import annotations

import os
import select
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
# qiplab's sources, found from this file's location so that children import
# the package whatever their working directory.
SRC = HERE.parent / "src"


class ChildError(Exception):
    """A child process failed, or did not finish in time."""


def child_env() -> dict[str, str]:
    """The caller's environment with the absolute ``src`` first on PYTHONPATH.

    Thread settings (LAB_THREADS, OPENBLAS_*) pass through untouched.
    """
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def reap(proc: subprocess.Popen, timeout: float) -> int:
    """Wait for ``proc`` at most ``timeout`` seconds; return its peak RSS in KiB.

    A child still running at the deadline is killed, reaped, and reported
    with ChildError.
    """
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if not ready:
        raise ChildError(f"{proc.args!r} did not finish in time")
    return usage.ru_maxrss
