"""The four benchmark workloads and the correctness gate inside each.

Every workload is one closed-loop client in one process with no threads.
It runs a fixed list of verification items; an item is a frame, a table
row, a generator or a CLI invocation.  An item fails when its computed
value differs from the pinned one or when it raises; the run reports
failed/attempted.  Reference values are never edited to make a run pass:
where qcomb provably differs from the reference (the NC12 and NCprime
module counts, the level-dependent tree constants) the computed values
are pinned and the reference is kept next to them.

Seed 0 gives the canonical item order and the first of every choice;
another seed shuffles the order and draws the choices.  The drawn choices
are between items of equal work (see each workload), so every seed
measures the same amount of work.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from math import comb
from pathlib import Path

# traced functions are called through their modules, so that the
# wrappers the tracer installs later see the calls
from qcomb import categories, linreal, projmod, words
from qcomb.categories import CU, NAMED

import proc
from tracer import TRACE_MARKER

CLI_CHILD = str(Path(__file__).resolve().parent / "cli_child.py")


class Gate:
    """Counts the verification items of a pass and the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def item(self, label: str, check) -> None:
        """check() returns None when the item is correct, else a reason."""
        self.attempted += 1
        try:
            problem = check()
        except Exception as e:  # an exception is a failed item, not a crash
            problem = f"raised {type(e).__name__}: {e}"
        if problem:
            self.failures.append(f"{label}: {problem}")


class Choices:
    """Every free choice of a workload, drawn from the seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed) if seed else None

    def order(self, items) -> list:
        items = list(items)
        if self.rng:
            self.rng.shuffle(items)
        return items

    def pick(self, items, k: int) -> list:
        items = list(items)
        return self.rng.sample(items, k) if self.rng else items[:k]

    def integer(self, default: int) -> int:
        return self.rng.randint(1, 10**6) if self.rng else default


def _expect(what: str, got, want):
    return None if got == want else f"{what} is {got!r}, expected {want!r}"


# ---------------------------------------------------------------------------
# gram: exact Gram ranks (acceptance criterion 5, sized to a pass)

# number of noncrossing partitions of n points (Catalan numbers)
NC_FAMILY_SIZES = [1, 1, 2, 5, 14, 42, 132, 429]
GRAM_N = (4, 5)


def _full_rank(cat, upper: str, lower: str, want_size):
    parts = categories.enumerate_members(cat, upper, lower)
    if want_size is not None and len(parts) != want_size:
        return f"family has {len(parts)} members, expected {want_size}"
    for N in GRAM_N:
        r = linreal.gram_rank(parts, N)
        if r != len(parts):
            return f"rank {r} at N={N}, expected {len(parts)}"
    return None


def gram(choices: Choices, tiny: bool, gate: Gate, traced: bool):
    """gram_rank at N=4 and N=5 on every NCall frame up to 6 points, one
    7-point NCall frame (429 members), every CU frame up to 6 points and
    the CU frames of two 8-point splits.

    The 7-point frames all hold the same 429 diagrams up to rotation of
    the points, and rotating a point between the rows (flipping its
    color) is a bijection between the CU frames of two splits that keeps
    family sizes, so the seed-drawn ones are equal work.  Every scanned CU
    frame is an item; the empty ones are checked by the per-split count
    of non-empty frames, which is C(n, n/2).
    """
    nc_points = 4 if tiny else 6
    frames = [(NAMED["NCall"], "o" * a, "o" * (n - a)) for n in range(nc_points + 1) for a in range(n + 1)]
    splits = [(n, k) for n in range(0, nc_points + 1, 2) for k in range(n + 1)]
    if not tiny:
        a = choices.pick(range(8), 1)[0]
        frames.append((NAMED["NCall"], "o" * a, "o" * (7 - a)))
        splits += [(8, k) for k in choices.pick(range(9), 2)]
    for n, k in splits:
        for colors in itertools.product("ox", repeat=n):
            frames.append((CU, "".join(colors[:k]), "".join(colors[k:])))
    non_empty = dict.fromkeys(splits, 0)

    for cat, upper, lower in choices.order(frames):
        if cat is CU:
            def check(upper=upper, lower=lower):
                if categories.enumerate_members(CU, upper, lower):
                    non_empty[(len(upper) + len(lower), len(upper))] += 1
                    return _full_rank(CU, upper, lower, None)
                return None
        else:
            def check(cat=cat, upper=upper, lower=lower):
                return _full_rank(cat, upper, lower, NC_FAMILY_SIZES[len(upper) + len(lower)])
        gate.item(f"{cat.name} frame {upper or 'e'}|{lower or 'e'}", check)
    for n, k in splits:
        gate.item(
            f"CU split {k}|{n - k}",
            lambda n=n, k=k: _expect("non-empty frame count", non_empty[(n, k)], comb(n, n // 2)),
        )


# ---------------------------------------------------------------------------
# modules: the module table and the CU word modules (criteria 1 and 10)

MODULE_BOUND = 8
REFERENCE_MODULE_COUNTS = {
    "NC2": 3,
    "NC12": 3,
    "NC12prime": 4,
    "NC12sharp": 4,
    "NCeven": 4,
    "NCall": 2,
    "NCprime": 3,
}
# The computed table, set-exact: each module is named by every catalog
# entry with the same member set.  NC12 and NCprime differ from the
# reference counts by construction (documented discrepancy): NC12's
# doubled strand collapses onto the full module, and NCprime has a
# genuine fourth module.
MODULE_LABELS = {
    "NC2": ["proj", "proj0", "proj2"],
    "NC12": ["proj/proj2", "proj0"],
    "NC12prime": ["cap", "proj", "proj0", "proj2"],
    "NC12sharp": ["cap", "proj", "proj0", "proj2"],
    "NCeven": ["proj", "proj0", "proj2", "proj_half"],
    "NCall": ["proj", "proj0"],
    "NCprime": ["cap", "proj", "proj0", "proj2"],
}
DOCUMENTED_MODULE_COUNTS = {"NC12": 2, "NCprime": 4}
UNIVERSE_SIZES = {
    ("NC2", 8): 175,
    ("NC12", 8): 4476,
    ("NC12prime", 8): 3316,
    ("NC12sharp", 8): 1539,
    ("NCeven", 8): 598,
    ("NCall", 8): 17577,
    ("NCprime", 8): 13871,
    ("CU", 8): 2343,
    ("CU", 4): 47,
}
WORD_MODULE_GENERATORS = ("", "ox", "ooxx", "o")


def _table_row(name: str):
    universe = projmod.PartitionUniverse(NAMED[name], MODULE_BOUND)
    problem = _expect("universe size", len(universe.members), UNIVERSE_SIZES[(name, MODULE_BOUND)])
    if problem:
        return problem
    catalog = projmod.catalog(universe)
    labels = sorted(
        "/".join(sorted(k for k, v in catalog.items() if v.members == mod.members))
        for mod in projmod.distinct_generated_modules(universe)
    )
    want_count = DOCUMENTED_MODULE_COUNTS.get(name, REFERENCE_MODULE_COUNTS[name])
    return _expect("module count", len(labels), want_count) or _expect(
        "module names", labels, MODULE_LABELS[name]
    )


def modules(choices: Choices, tiny: bool, gate: Gate, traced: bool):
    """The module table at bound 8 for the seven uncolored categories, then
    the CU universe at bound 8 and its four word modules.  The seed orders
    the rows and the word modules."""
    names = ["NC2", "NCeven"] if tiny else list(REFERENCE_MODULE_COUNTS)
    cu_bound = 4 if tiny else MODULE_BOUND
    gens = WORD_MODULE_GENERATORS[:2] if tiny else WORD_MODULE_GENERATORS

    def cu_block():
        holder = {}

        def build():
            holder["u"] = projmod.PartitionUniverse(CU, cu_bound)
            return _expect("universe size", len(holder["u"].members), UNIVERSE_SIZES[("CU", cu_bound)])

        gate.item(f"CU universe at bound {cu_bound}", build)
        for w in choices.order(gens):

            def word_module(w=w):
                mod = projmod.word_module(holder["u"], w)
                want = words.generate([w], cu_bound // 2).members
                return _expect("through-words", projmod.through_word_module(mod), want)

            gate.item(f"CU word module <p_{w or 'e'}>", word_module)

    units = [lambda name=name: gate.item(f"table row {name}", lambda: _table_row(name)) for name in names]
    for unit in choices.order(units + [cu_block]):
        unit()


# ---------------------------------------------------------------------------
# words: classification and the generate headroom ladder (criterion 2)

WORD_BOUND = 8
HEADROOM_LADDER = (2, 3, 4)
# classify: every generator of length 1-4 plus the two 5-letter ones that
# need the most headroom; the ladder: one generator per closure size
# (511, 341, 171, 16, 31 members) plus the two that climb all three rungs.
CLASSIFY_WORDS = ["".join(t) for n in range(1, 5) for t in itertools.product("ox", repeat=n)] + [
    "ooooo",
    "xxxxx",
]
LADDER_WORDS = ["o", "oo", "ooo", "ooxx", "oxxo", "ooooo", "xxxxx"]


def expected_spec(w: str):
    """The catalog set a single generator w generates at length 8: the
    balanced-mod-|b| words when w has color balance b != 0, else the set
    bounded by w's lowest and highest prefix balance.  Checked against
    qcomb at the seed commit for all 62 generators of length 1-5."""
    balance = words.color_balance(w)
    if balance:
        return words.mod_k(abs(balance))
    prefixes = words.prefix_balances(w)
    return words.pair(max(prefixes), -min(prefixes))


def _ladder(w: str):
    target = words.truncation(expected_spec(w), WORD_BOUND)
    for headroom in HEADROOM_LADDER:
        if words.generate([w], WORD_BOUND, headroom=headroom).members == target:
            return None
    return f"no headroom in {HEADROOM_LADDER} generates {expected_spec(w)}"


def words_workload(choices: Choices, tiny: bool, gate: Gate, traced: bool):
    """classify at L=8 on CLASSIFY_WORDS, then the headroom ladder on
    LADDER_WORDS checked against the truncation of the expected set.  The
    seed orders the generators within each phase."""
    classify_words = CLASSIFY_WORDS[:6] if tiny else CLASSIFY_WORDS
    ladder_words = ["ox", "oo"] if tiny else LADDER_WORDS
    for w in choices.order(classify_words):
        gate.item(
            f"classify {w}",
            lambda w=w: _expect("class", str(words.classify([w], WORD_BOUND).spec), str(expected_spec(w))),
        )
    for w in choices.order(ladder_words):
        gate.item(f"ladder {w}", lambda w=w: _ladder(w))


# ---------------------------------------------------------------------------
# cli: every README invocation as its own qcomb process

FUSION_MULTIPLICITIES = {"": 1, "ox": 1, "xo": 1, "ooxx": 1, "oxox": 2, "oxxo": 1, "xoox": 1, "xoxo": 2, "xxoo": 1}
FUSION_RANK_OUTPUT = "".join(
    f"w={words.word_to_str(w)}: fold mult {m}, rank {m}, diagrams {m} -> ok\n"
    for w in words.all_words(4)
    for m in [FUSION_MULTIPLICITIES.get(w, 0)]
) + "verdict: pass\n"
TABLE_OUTPUT = """\
NC2: 3 modules (proj, proj0, proj2)
NC12: 2 modules (proj0, proj2)  MISMATCH (expected 3; documented discrepancy)
NC12prime: 4 modules (cap, proj, proj0, proj2)
NC12sharp: 4 modules (cap, proj, proj0, proj2)
NCeven: 4 modules (proj, proj0, proj2, proj_half)
NCall: 2 modules (proj, proj0)
NCprime: 4 modules (cap, proj, proj0, proj2)  MISMATCH (expected 3; documented discrepancy)
verdict: fail
"""
# the constants are level-dependent (documented discrepancy), so the
# suite passes while reporting them
TREES_OUTPUT = """\
base=classical(2) depth=2 mode=weighted delta_k^2=11+6*sqrt(2)
  level 0: id coefficient 3+1*sqrt(2), embedding coefficient 3+1*sqrt(2)
  level 1: id coefficient 2+3*sqrt(2), embedding coefficient 2+3*sqrt(2)
  level 2: id coefficient 6+2*sqrt(2)
  verdict: level-dependent constants
base=classical(2) depth=2 mode=per-level delta_k^2=11+6*sqrt(2)
  level 0: id coefficient 1, embedding coefficient 1
  level 1: id coefficient 2, embedding coefficient 2
  level 2: id coefficient 4
  verdict: level-dependent constants
embedding scalars: 1*sqrt(2), 1*sqrt(2)
verdict: pass
"""
CLASSIFY_E_JSON = {
    "config": {"command": "classify-words", "gens": "e", "bound": 8},
    "results": ["catalog: White(0)", "diff: (empty)"],
    "verdict": "pass",
}


def cli_invocations(reduce_seed: int) -> list[tuple[str, list[str], int, object]]:
    """(label, argv, exit code, expected output) per README invocation; an
    expected output is the exact text or, for JSON, the parsed payload."""
    return [
        ("classify-words-ooxx", ["classify-words", "--gens", "ooxx"], 0,
         "catalog: White(2)\ndiff: (empty)\nverdict: pass\n"),
        ("classify-words-e-json", ["classify-words", "--gens", "e", "--format", "json"], 0, CLASSIFY_E_JSON),
        ("table", ["table", "--bound", "8"], 1, TABLE_OUTPUT),
        ("verify-laws", ["verify", "laws", "--points", "6", "--N", "3"], 0,
         "laws N=3: 1207 pairs, loop orientation maps_scale_composite\nverdict: pass\n"),
        ("verify-fusion-rank", ["verify", "fusion-rank", "--length", "4", "--N", "4"], 0, FUSION_RANK_OUTPUT),
        ("verify-psi", ["verify", "psi", "--k", "1", "--length", "8"], 0,
         "psi k=1: 16 words of length <= 8 inverted, 16 single-letter products checked\nverdict: pass\n"),
        ("verify-reduce", ["verify", "reduce", "--count", "100", "--bound", "12", "--seed", str(reduce_seed)], 0,
         "reduce: 100 sampled words traced\nverdict: pass\n"),
        ("verify-trees", ["verify", "trees", "--base", "c2", "--depth", "2"], 0, TREES_OUTPUT),
    ]


TINY_SKIPS = {"table", "verify-laws"}  # the two heavy invocations


def _check_invocation(code: int, output: str, want_code: int, want) -> str | None:
    if isinstance(want, dict):
        try:
            got = json.loads(output)
        except ValueError:
            return f"output is not JSON: {output[-300:]!r}"
        problem = _expect("JSON payload", got, want)
    else:
        problem = None if output == want else f"output differs:\n{output[-600:]}"
    return _expect("exit code", code, want_code) or problem


def merge_traces(reports: list[dict]) -> dict:
    """Sum the span statistics of several processes."""
    out: dict = {}
    for report in reports:
        for section, values in report.items():
            acc = out.setdefault(section, {})
            for key, v in values.items():
                if key == "words.classify.headroom_max":
                    acc[key] = max(acc.get(key, 0), v)
                else:
                    acc[key] = acc.get(key, 0) + v
    return out


def cli(choices: Choices, tiny: bool, gate: Gate, traced: bool):
    """Each README invocation as its own fresh interpreter, one after the
    other, in seed order; the seed also draws the `reduce` sample seed
    (1, as in the README, for seed 0).  Wall time and CPU time are summed
    over the invocations and peak memory is their maximum.  Traced, each
    invocation runs under cli_child.py and `cli.<label>` is the span of
    `qcomb.cli.main`; start-up is the rest of each process's lifetime."""
    wall = cpu = rss = startup = 0.0
    reports = []
    for label, argv, want_code, want in choices.order(cli_invocations(choices.integer(1))):
        if tiny and label in TINY_SKIPS:
            continue
        cmd = [sys.executable, CLI_CHILD, label, *argv] if traced else proc.QCOMB + argv
        done = proc.run(cmd)
        wall += done.wall_s
        cpu += done.cpu_s
        rss = max(rss, done.rss_mb)
        output = done.output
        if traced:
            output, _, blob = output.partition(TRACE_MARKER)
            if blob:
                report = json.loads(blob)
                reports.append(report)
                startup += done.wall_s - report["busy"][f"cli.{label}"]
        gate.item(f"qcomb {' '.join(argv)}", lambda: _check_invocation(done.code, output, want_code, want))
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_mb": rss,
        "trace": merge_traces(reports) if traced else None,
        "startup_s": startup,
    }


WORKLOADS = {"gram": gram, "modules": modules, "words": words_workload, "cli": cli}
