"""Child interpreters with their wall time, peak memory and CPU time."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TIMEOUT_S = 170.0

# What the `qcomb` console script that `pip install` generates runs.
QCOMB = [sys.executable, "-c", "import sys; from qcomb.cli import main; sys.exit(main())"]


def child_env() -> dict:
    """Environment of every interpreter the benchmark starts.

    qcomb is imported from this checkout's sources only.  String hashing
    is pinned because set iteration order decides how many pairs the
    closure loops in `words.generate` and `projmod.closure` visit; with
    random hashing the work of one `generate` call varies by up to 1.6x
    between processes and the exact counts would not repeat.  Byte code
    is cached under .bench_build so that the sources stay untouched.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / ".bench_build" / "pycache")
    return env


@dataclass
class Finished:
    code: int
    output: str  # stdout and stderr, interleaved
    wall_s: float
    rss_mb: float
    cpu_s: float


def _spawn(argv: list[str]) -> tuple[subprocess.Popen, threading.Timer]:
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
    )
    killer = threading.Timer(TIMEOUT_S, proc.kill)
    killer.start()
    return proc, killer


def _reap(proc: subprocess.Popen, killer: threading.Timer):
    _, status, usage = os.wait4(proc.pid, 0)
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return usage


def run(argv: list[str]) -> Finished:
    """Run argv to completion (killed after TIMEOUT_S); its wall time
    runs from spawn to exit."""
    t0 = perf_counter()
    proc, killer = _spawn(argv)
    output = proc.stdout.read()
    usage = _reap(proc, killer)
    wall = perf_counter() - t0
    return Finished(
        proc.returncode,
        output.decode(errors="replace"),
        wall,
        usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        usage.ru_utime + usage.ru_stime,
    )


def time_to_import() -> float:
    """Seconds from starting a fresh interpreter to `import qcomb.cli`
    having returned."""
    t0 = perf_counter()
    proc, killer = _spawn(
        [sys.executable, "-c", "import qcomb.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"]
    )
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    proc.stdout.read()
    _reap(proc, killer)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import qcomb.cli")
    return ready
