"""The command-line layer: the six README commands as fresh processes.

A traced ``solve`` run also times each README command, ROUNDS times, as a
fresh ``python -m qiplab.cli <command> <README flags>`` in a fresh working
directory, from start to exit, and reads the import cost of ``import
qiplab.cli`` from ``python -X importtime``.  Commands run in a fixed
round-robin order whose starting command comes from the seed.  A command
fails if it exits non-zero, its CSV report is missing, a number in it is
off by more than 1e-9 from the recorded report, or any other text (a
header, the config echo, a verdict) differs.  Byte equality
with the recorded report is counted separately, in ``cli.csv_bytes_identical``.
"""

from __future__ import annotations

import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import metrics
import proc

REFERENCE_CSV_DIR = proc.HERE / "reference" / "cli"
VALUE_TOL = 1e-9
# Fresh `import qiplab.cli` processes and rounds of the six commands per
# traced run; import times and command walls are medians.
IMPORT_REPEATS = 5
ROUNDS = 3
COMMAND_TIMEOUT_S = 60.0

# The commands and flags of the README's "Command line" section.
COMMANDS = (
    ("chsh-gap", ("--restarts", "16", "--seed", "7")),
    ("canonicalize", ("--trials", "50", "--seed", "0")),
    ("eb-check", ("--count", "100", "--seed", "0")),
    ("nexp-decide", ("--c", "0.8", "--s", "0.6", "--resolution", "2000")),
    ("subsample", ("--family", "chsh", "--r", "256", "--eps", "0.1", "--trials", "100", "--seed", "1")),
    ("amplify", ("--p", "0.6666666666666666", "--k", "41")),
)

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# A line of `python -X importtime`: cumulative microseconds, nesting
# indent (two spaces a level), module.
_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")


def _split_numbers(text: str) -> tuple[list[str], list[float]]:
    return _NUMBER.split(text), [float(x) for x in _NUMBER.findall(text)]


def csv_differences(got: bytes, want: bytes) -> list[str]:
    """Why ``got`` does not match the recorded report, up to VALUE_TOL."""
    got_text, got_nums = _split_numbers(got.decode("utf-8", errors="replace"))
    want_text, want_nums = _split_numbers(want.decode("utf-8"))
    if got_text != want_text or len(got_nums) != len(want_nums):
        return ["report text differs from the recorded report"]
    off = max((abs(a - b) for a, b in zip(got_nums, want_nums)), default=0.0)
    return [f"a value is off by {off:.3e}"] if not off <= VALUE_TOL else []


def _run(argv: list[str], cwd: Path, deadline: float) -> tuple[float, int, Path]:
    """(wall seconds, exit status, stderr file) of one child."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(
            argv, cwd=cwd, env=proc.child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        proc.reap(child, min(COMMAND_TIMEOUT_S, deadline - time.perf_counter()))
        wall = time.perf_counter() - t0
    return wall, child.returncode, err_path


def import_times(stderr_text: str) -> dict[str, float]:
    """Seconds spent importing each package of metrics.IMPORT_PACKAGES.

    A package's time is the cumulative time of each of its modules that no
    other module of the same package imported, so nothing counts twice.
    """
    micros = dict.fromkeys(metrics.IMPORT_PACKAGES.values(), 0)
    ancestors: list[str] = []  # package of each enclosing import, by depth
    # importtime prints a module after the modules it imported; read
    # backwards, every module comes right after its ancestors
    for line in reversed(stderr_text.splitlines()):
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth = len(m.group(2)) // 2
        package = m.group(3).split(".")[0]
        del ancestors[depth:]
        if package in micros and package not in ancestors:
            micros[package] += int(m.group(1))
        ancestors.append(package)
    return {f"import.{suffix}": micros[pkg] / 1e6 for suffix, pkg in metrics.IMPORT_PACKAGES.items()}


class CliLoop:
    def __init__(self, seed: int, tmp_root: Path, deadline: float):
        start = seed % len(COMMANDS)
        self.order = COMMANDS[start:] + COMMANDS[:start]
        self.tmp_root = tmp_root
        self.deadline = deadline
        self.reference = {name: (REFERENCE_CSV_DIR / f"{name}.csv").read_bytes() for name, _ in COMMANDS}
        self.attempted = 0
        self.failed = 0
        self.not_identical: set[str] = set()

    def import_times(self) -> dict[str, float]:
        """import_times() of one fresh ``python -X importtime -c "import qiplab.cli"``."""
        cwd = Path(tempfile.mkdtemp(dir=self.tmp_root))
        argv = [sys.executable, "-X", "importtime", "-c", "import qiplab.cli"]
        _, status, err = _run(argv, cwd, self.deadline)
        stderr_text = err.read_text(errors="replace")
        shutil.rmtree(cwd)
        if status != 0:
            raise proc.ChildError(f"import qiplab.cli failed: {stderr_text[-2000:]}")
        return import_times(stderr_text)

    def attempt(self, name: str, args) -> float:
        """Run one command; return its wall time."""
        cwd = Path(tempfile.mkdtemp(dir=self.tmp_root))
        wall, status, err = _run([sys.executable, "-m", "qiplab.cli", name, *args], cwd, self.deadline)
        csv = cwd / f"{name}.csv"
        if status != 0:
            reasons = [f"exit status {status}: {err.read_text(errors='replace')[-500:]}"]
        elif not csv.is_file():
            reasons = ["no CSV report"]
        else:
            got = csv.read_bytes()
            reasons = csv_differences(got, self.reference[name])
            if got != self.reference[name]:
                self.not_identical.add(name)
        shutil.rmtree(cwd)
        self.attempted += 1
        if reasons:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: cli {name} failed: {reasons}", file=sys.stderr)
        return wall


def layer_metrics(loop: CliLoop) -> dict:
    """The ``cli.*`` and ``import.*`` metrics: medians over IMPORT_REPEATS
    fresh imports and over ROUNDS runs of each command."""
    imports = [loop.import_times() for _ in range(IMPORT_REPEATS)]
    walls: dict[str, list[float]] = {name: [] for name, _ in COMMANDS}
    for _ in range(ROUNDS):
        for name, args in loop.order:
            walls[name].append(loop.attempt(name, args))
    return {
        "cli.csv_bytes_identical": sum(1 for name, _ in COMMANDS if name not in loop.not_identical),
        **{f"cli.{name}.wall_s": statistics.median(w) for name, w in walls.items()},
        **{key: statistics.median(t[key] for t in imports) for key in imports[0]},
    }
