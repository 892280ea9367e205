"""Self-test of the benchmark: python3 bench/selftest.py

1. Runs every workload at its tiny size through run.py, untraced and
   traced, and checks that the result line carries exactly the metrics
   BENCHMARK.json names, each with its unit, with no failed item.
2. Injects a wrong expected value into each workload's gate and checks
   that the pass reports failed items.
3. Runs run.py in a directory that holds only BENCHMARK.json and bench/,
   and checks that it exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import proc
from metrics import CLI_LABELS

SPEC = json.loads((proc.ROOT / "BENCHMARK.json").read_text())


def _run_tiny(workload: str, trace: int, root: Path = proc.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_metrics(problems: list[str]) -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = _run_tiny(workload, trace)
            if done.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{workload} trace={trace}: {result['failed']} of {result['attempted']} failed")
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics/units differ: {sorted(set(got.items()) ^ set(want.items()))}")


def check_injection(problems: list[str]) -> None:
    """A wrong expected value on the benchmark side must fail items."""
    sys.path.insert(0, str(proc.SRC))
    import workloads
    from workloads import Choices, Gate

    if {label for label, *_ in workloads.cli_invocations(1)} != set(CLI_LABELS):
        problems.append("cli invocation labels differ from the per-layer metric names")

    def wrong_spec(w):
        return workloads.words.mod_k(7)

    injections = {
        "gram": lambda: workloads.NC_FAMILY_SIZES.__setitem__(3, 6),
        "modules": lambda: workloads.MODULE_LABELS.__setitem__("NC2", ["proj", "proj0"]),
        "words": lambda: setattr(workloads, "expected_spec", wrong_spec),
        "cli": lambda: setattr(workloads, "TREES_OUTPUT", "verdict: pass\n"),
    }
    for workload, inject in injections.items():
        inject()
        gate = Gate()
        workloads.WORKLOADS[workload](Choices(0), True, gate, False)
        if not gate.failures:
            problems.append(f"{workload}: an injected wrong expected value did not fail any item")


def check_bare_directory(problems: list[str]) -> None:
    with tempfile.TemporaryDirectory(dir=proc.ROOT / ".bench_build") as tmp:
        root = Path(tmp)
        shutil.copy(proc.ROOT / "BENCHMARK.json", root)
        for path in SPEC["paths"]:
            shutil.copytree(proc.ROOT / path, root / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = _run_tiny("words", 0, root)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-300:]!r}")


def main() -> int:
    os.makedirs(proc.ROOT / ".bench_build", exist_ok=True)
    problems: list[str] = []
    check_metrics(problems)
    check_injection(problems)
    check_bare_directory(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
