"""Command-line surface: word classification, the orthogonal module
table, and the named verification suites.

Output contract: text mode is human-oriented; json mode emits a single
object with "config", "results" and "verdict".  Exit codes: 0 pass,
1 mismatch or violation, 2 usage / input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import errors, qgraph, suites, words

# work budgets, checked before a command starts (README "Command line")
MAX_WORD_BOUND = 16
MAX_TABLE_BOUND = 10
MAX_LAW_POINTS = 7
MAX_LAW_ENTRIES = 10**4  # N**points, the largest realization checked
MAX_PSI_LENGTH = 22
MAX_REDUCE_BOUND = 100
MAX_REDUCE_COUNT = 10**4
MAX_TREE_DEPTH = 100  # binds only one-dimensional bases; the level budget binds the rest


def _check(option: str, value: int, least: int, most: int | None = None) -> int:
    """Reject an argument outside [least, most] before any work starts."""
    if value < least:
        raise errors.InputError(f"{option} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise errors.TooLarge(f"{option} must be at most {most}, got {value}")
    return value


def _emit(config: dict, outcome: suites.Outcome, fmt: str) -> int:
    verdict = "pass" if outcome.ok else "fail"
    if fmt == "json":
        print(json.dumps({"config": config, "results": outcome.lines, "verdict": verdict}))
    else:
        for line in outcome.lines:
            print(line)
        print(f"verdict: {verdict}")
    return 0 if outcome.ok else 1


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify_words(args) -> int:
    gens = [words.word_from_str(g) for g in args.gens.split(",")]
    bound = _check("--bound", args.bound, 0, MAX_WORD_BOUND)
    config = {"command": "classify-words", "gens": args.gens, "bound": bound}
    res = words.classify(gens, bound)
    lines = [f"catalog: {res.spec}", "diff: (empty)"]
    lines += [f"flag: {f}" for f in res.flags]
    return _emit(config, suites.Outcome(True, lines), args.format)


def cmd_table(args) -> int:
    bound = _check("--bound", args.bound, 0, MAX_TABLE_BOUND)
    names = [args.category] if args.category else list(suites.REFERENCE_MODULE_COUNTS)
    config = {"command": "table", "bound": bound, "categories": names}
    return _emit(config, suites.table(names, bound), args.format)


def _laws(args) -> suites.Outcome:
    points = _check("--points", args.points, 0, MAX_LAW_POINTS)
    # N itself is capped too: at --points 0 the entry budget does not bound
    # it, and realize computes powers of N in int64
    Ns = [2, 3] if args.N is None else [_check("--N", args.N, 1, MAX_LAW_ENTRIES)]
    entries = max(Ns) ** points
    if entries > MAX_LAW_ENTRIES:
        raise errors.TooLarge(
            f"--N {max(Ns)} at --points {points} realizes {entries} entries, "
            f"more than {MAX_LAW_ENTRIES}"
        )
    return suites.laws(points, Ns)


def _fusion_rank(args) -> suites.Outcome:
    from . import linreal  # numpy, loaded only by the suites that realize

    length = _check("--length", args.length, 0, linreal.MAX_POINTS)
    return suites.fusion_rank(length, 4 if args.N is None else args.N)


def _psi(args) -> suites.Outcome:
    k = _check("--k", args.k, 0)
    length = _check("--length", args.length, 0, MAX_PSI_LENGTH)
    return suites.psi(k, length, max(0, length - 2))


def _trees(args) -> suites.Outcome:
    m = re.fullmatch(r"([cm])([1-9][0-9]*)", args.base)
    if m is None:
        raise errors.InputError(f"--base must be c<N> or m<N> with N >= 1, got {args.base!r}")
    n = int(m[2])
    base = qgraph.classical(n) if m[1] == "c" else qgraph.matrix_trace(n)
    if base.dim > qgraph.MAX_LEVEL_DIM:
        raise errors.TooLarge(
            f"--base {args.base} has dimension {base.dim}, more than {qgraph.MAX_LEVEL_DIM}"
        )
    depth = _check("--depth", args.depth, 0, MAX_TREE_DEPTH)
    if base.dim**depth > qgraph.MAX_LEVEL_DIM:
        raise errors.TooLarge(
            f"--depth {depth} at --base {args.base} gives level dimension "
            f"{base.dim**depth}, more than {qgraph.MAX_LEVEL_DIM}"
        )
    return suites.trees(base, depth)


def _reduce(args) -> suites.Outcome:
    bound = _check("--bound", args.bound, 2, MAX_REDUCE_BOUND)
    count = _check("--count", args.count, 0, MAX_REDUCE_COUNT)
    return suites.reduce(bound, count, args.seed)


SUITES = {
    "laws": _laws,
    "fusion-rank": _fusion_rank,
    "psi": _psi,
    "trees": _trees,
    "reduce": _reduce,
}


def cmd_verify(args) -> int:
    config = {
        "command": "verify",
        "suite": args.suite,
        "N": args.N,
        "seed": args.seed,
    }
    if args.N is not None:
        _check("--N", args.N, 1)
    return _emit(config, SUITES[args.suite](args), args.format)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcomb")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify-words", help="match generated word sets to the catalog")
    p.add_argument("--gens", required=True, help="comma-separated words over o/x; e = empty")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify_words)

    p = sub.add_parser("table", help="recompute the orthogonal module table")
    p.add_argument("--bound", type=int, default=8)
    p.add_argument("--category", choices=sorted(suites.REFERENCE_MODULE_COUNTS))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--N", type=int)
    p.add_argument("--points", type=int, default=6)
    p.add_argument("--length", "--len", type=int, default=4, dest="length")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--bound", type=int, default=12)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--base", default="c2", help="cN (classical) or mN (matrix trace)")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except errors.Violation as e:
        print(f"violation: {e}", file=sys.stderr)
        return errors.Violation.exit_code
    except errors.InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return errors.InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
