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

from . import errors, suites, words

# work budgets, checked before a command starts (README "Command line")
MAX_WORD_BOUND = 16
MAX_TABLE_BOUND = 10
MAX_LAW_POINTS = 7
MAX_LAW_ENTRIES = 10**4  # N**points, the largest realization checked
MAX_RANK_LENGTH = 10
MAX_PSI_LENGTH = 22
MAX_REDUCE_BOUND = 100
MAX_REDUCE_COUNT = 10**4
MAX_TREE_DEPTH = 100  # binds only one-dimensional bases; the level budget binds the rest

# The numeric options of each command and verify suite: option -> (default,
# least, most), where None bounds nothing.  Each parser takes exactly these
# plus its string options (--gens, --category, trees --base), and main checks
# every range before any work starts.
NUMERIC = {
    "classify-words": {"--bound": (8, 0, MAX_WORD_BOUND)},
    "table": {"--bound": (8, 0, MAX_TABLE_BOUND)},
    # N is capped too: at --points 0 the entry budget does not bound it,
    # and a realization takes N - 1 shifts per block
    "laws": {"--points": (6, 0, MAX_LAW_POINTS), "--N": (None, 1, MAX_LAW_ENTRIES)},
    # the rank equals the fold multiplicity only from N = 2; at N = 1 every
    # realization is the same 1x1 matrix
    "fusion-rank": {"--length": (4, 0, MAX_RANK_LENGTH), "--N": (None, 2, None)},
    "psi": {"--k": (1, 0, None), "--length": (4, 0, MAX_PSI_LENGTH)},
    "trees": {"--depth": (2, 0, MAX_TREE_DEPTH)},
    "reduce": {
        "--bound": (12, 2, MAX_REDUCE_BOUND),
        "--count": (100, 0, MAX_REDUCE_COUNT),
        "--seed": (0, None, None),
    },
}


def _check_ranges(args) -> None:
    """Reject a numeric argument outside [least, most] before any work starts."""
    for option, (_, least, most) in args.numeric.items():
        value = getattr(args, option[2:])
        if value is None:
            continue
        if least is not None and value < least:
            raise errors.InputError(f"{option} must be at least {least}, got {value}")
        if most is not None and value > most:
            raise errors.TooLarge(f"{option} must be at most {most}, got {value}")


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
    config = {"command": "classify-words", "gens": args.gens, "bound": args.bound}
    res = words.classify(gens, args.bound)
    lines = [f"catalog: {res.spec}", "diff: (empty)"]
    lines += [f"flag: {f}" for f in res.flags]
    return _emit(config, suites.Outcome(True, lines), args.format)


def cmd_table(args) -> int:
    names = [args.category] if args.category else list(suites.REFERENCE_MODULE_COUNTS)
    config = {"command": "table", "bound": args.bound, "categories": names}
    return _emit(config, suites.table(names, args.bound), args.format)


def _laws(args) -> suites.Outcome:
    Ns = [2, 3] if args.N is None else [args.N]
    entries = max(Ns) ** args.points
    if entries > MAX_LAW_ENTRIES:
        raise errors.TooLarge(
            f"--N {max(Ns)} at --points {args.points} realizes {entries} entries, "
            f"more than {MAX_LAW_ENTRIES}"
        )
    return suites.laws(args.points, Ns)


def _trees(args) -> suites.Outcome:
    m = re.fullmatch(r"([cm])([1-9][0-9]*)", args.base)
    if m is None:
        raise errors.InputError(f"--base must be c<N> or m<N> with N >= 1, got {args.base!r}")
    from . import qgraph  # and fractions, which only this suite needs
    n = int(m[2])
    base = qgraph.classical(n) if m[1] == "c" else qgraph.matrix_trace(n)
    if base.dim > qgraph.MAX_LEVEL_DIM:
        raise errors.TooLarge(
            f"--base {args.base} has dimension {base.dim}, more than {qgraph.MAX_LEVEL_DIM}"
        )
    if base.dim**args.depth > qgraph.MAX_LEVEL_DIM:
        raise errors.TooLarge(
            f"--depth {args.depth} at --base {args.base} gives level dimension "
            f"{base.dim**args.depth}, more than {qgraph.MAX_LEVEL_DIM}"
        )
    return suites.trees(base, args.depth)


SUITES = {
    "laws": _laws,
    "fusion-rank": lambda args: suites.fusion_rank(args.length, 4 if args.N is None else args.N),
    "psi": lambda args: suites.psi(args.k, args.length, max(0, args.length - 2)),
    "trees": _trees,
    "reduce": lambda args: suites.reduce(args.bound, args.count, args.seed),
}


def cmd_verify(args) -> int:
    config = {
        "command": "verify",
        "suite": args.suite,
        # a suite without --N reports null, and one without --seed reports 0
        "N": getattr(args, "N", None),
        "seed": getattr(args, "seed", 0),
    }
    return _emit(config, SUITES[args.suite](args), args.format)


# ---------------------------------------------------------------------------


def _add_parser(sub, name: str, func, **kwargs) -> argparse.ArgumentParser:
    p = sub.add_parser(name, **kwargs)
    for option, (default, _, _) in NUMERIC[name].items():
        p.add_argument(option, type=int, default=default)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=func, numeric=NUMERIC[name])
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcomb")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_parser(
        sub, "classify-words", cmd_classify_words, help="match generated word sets to the catalog"
    )
    p.add_argument("--gens", required=True, help="comma-separated words over o/x; e = empty")

    p = _add_parser(sub, "table", cmd_table, help="recompute the orthogonal module table")
    p.add_argument("--category", choices=sorted(suites.REFERENCE_MODULE_COUNTS))

    p = sub.add_parser("verify", help="run a named verification suite")
    verify = p.add_subparsers(dest="suite", required=True)
    for name in SUITES:
        p = _add_parser(verify, name, cmd_verify)
        if name == "trees":
            p.add_argument("--base", default="c2", help="cN (classical) or mN (matrix trace)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except errors.Violation as e:
        print(f"violation: {e}", file=sys.stderr)
        return errors.Violation.exit_code
    except errors.InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return errors.InputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
