"""qcomb benchmark: cold-start verification workloads, end to end and per layer.

    python3 bench/run.py --workload {gram,modules,words,cli} --seed N \\
        --seconds S --trace {0,1} [--tiny]

Run from the root of a checkout; qcomb is imported from its src/.  After
one warm-up start that compiles the byte code, a run repeats rounds while
the next round's expected midpoint lies within S seconds (at least one).
An untraced round times SETUP_PROBES_PER_ROUND fresh interpreters up to
`import qcomb.cli` having returned (`setup_s` is their median; spreading
them over the run evens out the machine's slow spells), then runs one
pass of the workload.  Every pass is a fresh interpreter (worker.py), so
the lru_cache in `categories` and the cached properties of
`PartitionUniverse` start cold, as in every CLI invocation.

--trace 0 prints the end-to-end metrics over untraced passes: `wall_s`
(median pass time to the verdict), `setup_s` and `peak_rss_mb` (median
of the passes' peak resident memory).  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones (median
per metric), `process.cpu_s` of the untraced ones and the tracing
overhead.  Failed verification items are reported as `failed` out of
`attempted` (their ratio is printed as `fail_ratio` on the line before the
result); a run with any failure prints "correct": false.  --tiny runs
a small subset of every workload, for the self-test.

The last line of stdout is the JSON result; the lines before it record
the environment and any failure reasons.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import proc
from metrics import END_TO_END, PER_LAYER

WORKLOADS = ("gram", "modules", "words", "cli")
SETUP_PROBES_PER_ROUND = 3
WORKER = str(Path(__file__).resolve().parent / "worker.py")


def _environment() -> dict:
    """What the numbers depend on; no CPU pinning or frequency control is
    applied, since the machine's settings are left alone."""
    commit = None
    if (proc.ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=proc.ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    versions = proc.run(
        [sys.executable, "-c", "import numpy, qcomb; print(numpy.__version__); print(qcomb.__file__)"]
    )
    numpy_version, qcomb_file = (versions.output.split("\n") + ["", ""])[:2]
    digest = hashlib.sha256()
    for path in sorted(proc.SRC.rglob("*.py")):
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "qcomb": qcomb_file,
        "pythonhashseed": proc.child_env()["PYTHONHASHSEED"],
        "cpu_pinning": "none",
        "frequency_control": "none",
    }


def _pass(workload: str, seed: int, traced: bool, tiny: bool) -> dict:
    cmd = [sys.executable, WORKER, workload, "--seed", str(seed)]
    cmd += ["--trace"] * traced + ["--tiny"] * tiny
    done = proc.run(cmd)
    lines = done.output.strip().splitlines()
    if done.code != 0 or not lines:
        raise RuntimeError(f"pass of {workload} exited {done.code}:\n{done.output[-2000:]}")
    return json.loads(lines[-1])


def _layer_metrics(result: dict) -> dict[str, float]:
    trace = result["trace"]
    counts = trace["counts"]
    out = {}
    for name, (_, source) in PER_LAYER.items():
        if source is not None:
            section, key = source
            out[name] = trace[section].get(key, 0)
    candidates = counts["categories.enum_candidates"]
    out["categories.enum_yield"] = counts["categories.enum_kept"] / candidates if candidates else 0.0
    out["cli.startup.s"] = result["startup_s"]
    out["trace.traced_wall_s"] = result["wall_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if not (proc.SRC / "qcomb" / "cli.py").is_file():
        print(f"error: no qcomb sources under {proc.SRC}; run from a qcomb checkout", file=sys.stderr)
        return 2
    try:
        env = _environment()
        proc.time_to_import()  # warm-up: compiles the byte code once
        setup, untraced, traced = [], [], []
        t0 = perf_counter()
        # run another round while its expected midpoint lies within the
        # measuring time, so that runs measure S seconds on average
        while not untraced or (perf_counter() - t0) * (len(untraced) + 0.5) / len(untraced) <= args.seconds:
            if not args.trace:
                setup += [proc.time_to_import() for _ in range(SETUP_PROBES_PER_ROUND)]
            untraced.append(_pass(args.workload, args.seed, False, args.tiny))
            if args.trace:
                traced.append(_pass(args.workload, args.seed, True, args.tiny))
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "fail_ratio": failed / attempted,
        "setup_s": setup,
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
    }))
    for failure in dict.fromkeys(f for p in passes for f in p["failures"]):
        print(f"FAILED {failure}")

    wall = statistics.median(p["wall_s"] for p in untraced)
    if args.trace:
        layer = [_layer_metrics(p) for p in traced]
        values = {name: statistics.median(m[name] for m in layer) for name in PER_LAYER if name in layer[0]}
        values["process.cpu_s"] = statistics.median(p["cpu_s"] for p in untraced)
        values["trace.overhead_s"] = values["trace.traced_wall_s"] - wall
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
