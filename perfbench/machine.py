"""The machine, library versions and thread settings, as found.

Nothing here changes a setting: thread variables are reported, never set.
Run as a script (with qiplab's ``src`` on PYTHONPATH) to print the record as
JSON.
"""

from __future__ import annotations

import json
import os
import sys


def _proc_field(path: str, key: str) -> str | None:
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.startswith(key):
                return line.split(":", 1)[1].strip()
    return None


def cpu_ticks() -> list[int]:
    """Machine-wide CPU time counters (the ``cpu`` line of /proc/stat)."""
    with open("/proc/stat", encoding="utf-8") as f:
        return [int(x) for x in f.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor took from this machine in between.

    Other tenants of the host slow every workload; a run with a high share
    measured a busier host, not a slower program.
    """
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user .. steal; guest time is already in user
    return delta[7] / total if total else 0.0


def machine_info() -> dict:
    import numpy
    import scipy

    try:
        from qiplab.kernels import BACKEND
    except ImportError:  # the kernel module is slated for removal
        BACKEND = None
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '')} {blas.get('version', '')}",
        "qiplab_kernels_backend": BACKEND,
        "thread_env": {
            k: v for k, v in sorted(os.environ.items()) if k == "LAB_THREADS" or k.startswith("OPENBLAS")
        },
    }


if __name__ == "__main__":
    print(json.dumps(machine_info()))
