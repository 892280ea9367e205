"""Command-line surface: word classification, the orthogonal module
table, and the named verification suites.

Output contract: text mode is human-oriented; json mode emits a single
object with "config", "results" and "verdict".  Exit codes: 0 pass,
1 mismatch or violation, 2 usage / input error.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from . import categories, fusion, linreal, projmod, qgraph, words

EXPECTED_MODULE_COUNTS = {
    "NC2": 3,
    "NC12": 3,
    "NC12prime": 4,
    "NC12sharp": 4,
    "NCeven": 4,
    "NCall": 2,
    "NCprime": 3,
}

# Counts this implementation actually produces from the stated
# definitions, where they provably differ from the reference table.
#
# NC12: proj2 coincides with proj as a set.  The witness r in P(1,2)
# (one strand plus a lower singleton) lies in NC12, r*r is the single
# strand and rr* is dominated by the doubled strand, so saturation pulls
# the single strand into the closure of the doubled strand.
#
# NCprime: proj2 is a genuine fourth module.  Every member of the
# category has an even total number of points, so no operation relates
# the doubled strand (even rows) to the single strand (odd rows).
DOCUMENTED_MODULE_COUNTS = {"NC12": 2, "NCprime": 4}


class TableMismatch(Exception):
    pass


def _emit(config: dict, results: list, verdict: str, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps({"config": config, "results": results, "verdict": verdict}))
    else:
        for line in results:
            print(line if isinstance(line, str) else json.dumps(line))
        print(f"verdict: {verdict}")
    return 0 if verdict == "pass" else 1


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify_words(args) -> int:
    gens = [words.word_from_str(g) for g in args.gens.split(",")]
    config = {"command": "classify-words", "gens": args.gens, "bound": args.bound}
    res = words.classify(gens, args.bound)
    lines = [f"catalog: {res.spec}", "diff: (empty)"]
    lines += [f"flag: {f}" for f in res.flags]
    return _emit(config, lines, "pass", args.format)


def cmd_table(args) -> int:
    names = [args.category] if args.category else list(EXPECTED_MODULE_COUNTS)
    config = {"command": "table", "bound": args.bound, "categories": names}
    results = []
    ok = True
    for name in names:
        cat = categories.NAMED[name]
        universe = projmod.PartitionUniverse(cat, args.bound)
        found = projmod.distinct_generated_modules(universe)
        cat_mods = projmod.catalog(universe)
        matched = []
        for mod in found:
            hits = [n for n, m in cat_mods.items() if m.members == mod.members]
            matched.append(hits[0] if hits else "?")
        expected = EXPECTED_MODULE_COUNTS[name]
        line = f"{name}: {len(found)} modules ({', '.join(sorted(matched))})"
        if len(found) != expected or "?" in matched:
            ok = False
            documented = DOCUMENTED_MODULE_COUNTS.get(name)
            if documented is not None and len(found) == documented and "?" not in matched:
                line += f"  MISMATCH (expected {expected}; documented discrepancy)"
            else:
                line += f"  MISMATCH (expected {expected})"
            if args.bound == 0:
                line += " [degenerate: bound 0]"
            elif args.bound < 8:
                line += " [bound may be too small]"
        results.append(line)
    return _emit(config, results, "pass" if ok else "fail", args.format)


def _verify_laws(args, config, results) -> bool:
    for N in [2, 3] if args.N is None else [args.N]:
        report = linreal.check_laws(linreal.law_pairs(args.points), N)
        results.append(
            f"laws N={N}: {report['pairs_checked']} pairs, "
            f"loop orientation {report['orientation']}"
        )
    return True


def _verify_fusion_rank(args, config, results) -> bool:
    N = 4 if args.N is None else args.N
    ok = True
    for w in words.all_words(args.length):
        mult = fusion.fold_product(list(w))[""]
        dim = linreal.fixed_points_dim(w, N)
        count = len(categories.enumerate_members(categories.CU, "", w, args.cache_dir))
        good = mult == dim == count
        ok = ok and good
        results.append(
            f"w={words.word_to_str(w)}: fold mult {mult}, rank {dim}, "
            f"diagrams {count} -> {'ok' if good else 'MISMATCH'}"
        )
    return ok


def _verify_psi(args, config, results) -> bool:
    k, L = args.k, args.length
    ok = True
    seen = {}
    for v in sorted(words.truncation(words.white(k + 1), L)):
        x = fusion.psi_inverse(v, k)
        if fusion.psi(x, k) != v or not all(
            words.member(words.white(k), l) for l in x.letters
        ):
            ok = False
            results.append(f"roundtrip fails at {words.word_to_str(v)}")
        if x in seen:
            ok = False
            results.append(f"collision {words.word_to_str(v)} / {seen[x]}")
        seen[x] = v
    letters = sorted(words.truncation(words.white(k), max(0, L - 2)))
    pairs = 0
    for a in letters:
        for b in letters:
            x, y = fusion.WreathWord((a,)), fusion.WreathWord((b,))
            lhs = fusion.psi_vector(fusion.wreath_product(x, y), k)
            rhs = fusion.product_u(fusion.psi(x, k), fusion.psi(y, k))
            pairs += 1
            if lhs != rhs:
                ok = False
                results.append(
                    f"multiplicativity fails at [{words.word_to_str(a)}]"
                    f" (x) [{words.word_to_str(b)}]"
                )
    results.append(
        f"psi k={k}: {len(seen)} words of length <= {L} inverted, "
        f"{pairs} single-letter products checked"
    )
    return ok


def _verify_trees(args, config, results) -> bool:
    m = re.fullmatch(r"([cm])([1-9][0-9]*)", args.base)
    if m is None:
        raise ValueError(f"--base must be c<N> or m<N> with N >= 1, got {args.base!r}")
    n = int(m[2])
    base = qgraph.classical(n) if m[1] == "c" else qgraph.matrix_trace(n)
    if not qgraph.check_delta_form(base):
        results.append("delta-form axiom FAILS")
        return False
    tree = qgraph.QuantumTree(base, args.depth)
    if not tree.state_is_unital():
        results.append("weighted state is not unital")
        return False
    for weighted in (True, False):
        results.extend(qgraph.schur_constants(tree, weighted).lines())
    results.append(
        "embedding scalars: "
        + ", ".join(str(s) for s in qgraph.embedding_scalars(tree))
    )
    return True


def _verify_reduce(args, config, results) -> bool:
    rng = random.Random(args.seed)
    ok = True
    done = 0
    for _ in range(args.count):
        k = rng.randint(1, 4)
        w = words.sample_peak_word(k, args.bound, rng)
        trace = words.reduce(w, k)
        good = (
            trace[0] == w
            and trace[-1] == "o" * k + "x" * k
            and all(b in words.cancellations(a) for a, b in zip(trace, trace[1:]))
        )
        ok = ok and good
        done += 1
        if not good:
            results.append(f"invalid trace for {words.word_to_str(w)} (k={k})")
    results.append(f"reduce: {done} sampled words traced")
    return ok


SUITES = {
    "laws": _verify_laws,
    "fusion-rank": _verify_fusion_rank,
    "psi": _verify_psi,
    "trees": _verify_trees,
    "reduce": _verify_reduce,
}


def cmd_verify(args) -> int:
    config = {
        "command": "verify",
        "suite": args.suite,
        "N": args.N,
        "seed": args.seed,
    }
    if args.N is not None and args.N < 1:
        raise ValueError(f"--N must be at least 1, got {args.N}")
    results: list = []
    ok = SUITES[args.suite](args, config, results)
    return _emit(config, results, "pass" if ok else "fail", args.format)


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
    p.add_argument("--category", choices=sorted(EXPECTED_MODULE_COUNTS))
    p.add_argument("--cache-dir")
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
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-dir")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (linreal.LawViolation, fusion.ClosureViolation, TableMismatch) as e:
        print(f"violation: {e}", file=sys.stderr)
        return 1
    except (
        ValueError,
        KeyError,
        words.NoCatalogMatch,
        words.PreconditionViolated,
        linreal.TooLarge,
        qgraph.TooLarge,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
