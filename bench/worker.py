"""One pass of one workload in a fresh interpreter.

    python3 worker.py WORKLOAD --seed N [--trace] [--tiny]

Prints one JSON line: items attempted and failed (with the first failure
reasons), wall seconds from the first item to the verdict, CPU seconds,
peak resident memory, and with --trace the span statistics.
"""

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

import proc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import qcomb

    if proc.SRC not in Path(qcomb.__file__).resolve().parents:
        print(f"qcomb was imported from {qcomb.__file__}, not from {proc.SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, Choices, Gate

    tracer = None
    if args.trace and args.workload != "cli":  # cli traces inside each invocation
        tracer = Tracer()
        tracer.install()
    gate = Gate()
    t0, c0 = perf_counter(), process_time()
    measured = WORKLOADS[args.workload](Choices(args.seed), args.tiny, gate, args.trace)
    result = {
        "wall_s": perf_counter() - t0,
        "cpu_s": process_time() - c0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer else None,
        "startup_s": 0.0,
    }
    result.update(measured or {})
    result.update(attempted=gate.attempted, failed=len(gate.failures), failures=gate.failures[:20])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
