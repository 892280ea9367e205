"""Command line interface: output contract and exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from itertools import product
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qcomb
from qcomb import cli, errors, qgraph, suites, words


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--format", "json"])
    payload = json.loads(out)
    assert set(payload) == {"config", "results", "verdict"}
    return code, payload


# the stdout and exit code of each README invocation, pinned from a run
# through cli.main
README = Path(__file__).parent.parent / "README.md"
PINNED = json.loads((Path(__file__).parent / "data" / "readme_invocations.json").read_text())


def test_the_pins_are_the_readme_invocations():
    assert [r["invocation"] for r in PINNED] == re.findall(r"^qcomb (.+)$", README.read_text(), re.M)


@pytest.mark.parametrize("pinned", PINNED, ids=lambda r: r["invocation"])
def test_each_readme_invocation_prints_its_pinned_output(capsys, pinned):
    code, out = run(capsys, shlex.split(pinned["invocation"]))
    assert out == pinned["stdout"]
    assert code == pinned["exit_code"]


# the outputs at the caps, which CI also diffs against the same files:
# argv, pinned stdout, exit code
CAPPED = [
    (["table", "--bound", "10"], "table_bound10.txt", 1),
    (["verify", "laws", "--points", "7"], "laws_points7.txt", 0),
    (["verify", "fusion-rank", "--length", "10"], "fusion_rank_length10.txt", 0),
]


@pytest.mark.parametrize("argv, name, exit_code", CAPPED, ids=[name for _, name, _ in CAPPED])
def test_each_capped_run_prints_its_pinned_file_as_text_and_json(capsys, argv, name, exit_code):
    pinned = (Path(__file__).parent / "data" / name).read_text()
    assert run(capsys, argv) == (exit_code, pinned)
    code, payload = run_json(capsys, argv)
    *results, verdict = pinned.splitlines()
    assert code == exit_code
    assert payload["results"] == results
    assert verdict == f"verdict: {payload['verdict']}"


def test_classify_words_reports_the_matched_set(capsys):
    code, payload = run_json(capsys, ["classify-words", "--gens", "ooxx"])
    assert code == 0
    assert payload["verdict"] == "pass"
    assert any("White(2)" in line for line in payload["results"])


def test_classify_words_accepts_e_as_the_empty_word(capsys):
    code, payload = run_json(capsys, ["classify-words", "--gens", "e"])
    assert code == 0


def test_classify_words_widens_the_headroom_for_a_long_unbalanced_generator(capsys):
    code, out = run(capsys, ["classify-words", "--gens", "oooooooo"])
    assert code == 0
    assert out.splitlines()[0] == "catalog: ModK(8)"


def test_classify_words_rejects_bad_letters(capsys):
    assert cli.main(["classify-words", "--gens", "zz"]) == 2


def test_table_is_honest_about_known_count_differences(capsys):
    code, payload = run_json(capsys, ["table", "--bound", "8"])
    # two of the seven rows differ from the reference counts by
    # construction, the command reports that and fails
    assert code == 1
    assert payload["verdict"] == "fail"
    mismatches = [l for l in payload["results"] if "MISMATCH" in l]
    assert len(mismatches) == 2
    assert all("documented discrepancy" in l for l in mismatches)
    assert any(l.startswith("NC12:") for l in mismatches)
    assert any(l.startswith("NCprime:") for l in mismatches)


def test_verify_laws(capsys):
    code, payload = run_json(capsys, ["verify", "laws", "--points", "4", "--N", "2"])
    assert code == 0
    assert payload["verdict"] == "pass"
    assert any("maps_scale_composite" in l for l in payload["results"])


def test_verify_reduce(capsys):
    code, payload = run_json(
        capsys,
        ["verify", "reduce", "--count", "20", "--bound", "10", "--seed", "3"],
    )
    assert code == 0
    assert payload["verdict"] == "pass"


def test_verify_psi(capsys):
    code, payload = run_json(capsys, ["verify", "psi", "--k", "1", "--length", "6"])
    assert code == 0
    assert payload["verdict"] == "pass"


def test_verify_trees(capsys):
    code, payload = run_json(
        capsys, ["verify", "trees", "--base", "c2", "--depth", "2"]
    )
    assert code == 0
    assert payload["verdict"] == "pass"


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_text_format_is_the_default(capsys):
    code, out = run(capsys, ["classify-words", "--gens", "ox"])
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "laws", "--N", "0"],
        ["verify", "fusion-rank", "--N", "0"],
        ["verify", "trees", "--depth", "20"],
        ["verify", "trees", "--base", "c0"],
        ["verify", "trees", "--base", "q3"],
        ["verify", "laws", "--points", "11"],
        ["verify", "fusion-rank", "--length", "13"],
        ["table", "--bound", "13"],
        # negative values
        ["verify", "laws", "--points", "-1"],
        ["verify", "psi", "--length", "-3"],
        ["verify", "psi", "--k", "-1"],
        ["verify", "reduce", "--count", "-1"],
        ["verify", "reduce", "--bound", "-1"],
        ["verify", "fusion-rank", "--length", "-1"],
        ["verify", "trees", "--depth", "-1"],
        ["table", "--bound", "-1"],
        ["classify-words", "--gens", "ox", "--bound", "-1"],
        # work budgets
        ["verify", "laws", "--points", "8"],
        ["verify", "laws", "--points", "6", "--N", "5"],
        ["verify", "laws", "--points", "0", "--N", "99999999999999999999"],
        ["verify", "psi", "--length", "23"],
        ["verify", "psi", "--k", "2", "--length", "20"],
        ["verify", "reduce", "--bound", "101"],
        ["verify", "reduce", "--count", "10001"],
        ["verify", "trees", "--base", "c5001", "--depth", "0"],
        ["verify", "trees", "--base", "m71", "--depth", "0"],
        ["verify", "trees", "--base", "c1", "--depth", "101"],
        ["verify", "trees", "--base", "m8", "--depth", "4"],
        ["table", "--bound", "11"],
        ["classify-words", "--gens", "ox", "--bound", "17"],
        ["classify-words", "--gens", "o" * 16, "--bound", "16"],
        # the rank equals the fold multiplicity only from N = 2
        ["verify", "fusion-rank", "--N", "1"],
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_the_tree_budget_is_checked_without_listing_the_basis(capsys, monkeypatch):
    def listed(self):
        raise AssertionError("the basis labels were listed")

    monkeypatch.setattr(qgraph.QuantumSpace, "labels", property(listed))
    code = cli.main(["verify", "trees", "--base", "m100000"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --base m100000")


def test_the_tree_level_budget_names_the_depth_and_the_numbers(capsys):
    assert cli.main(["verify", "trees", "--base", "m8", "--depth", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --depth 4 at --base m8 gives level dimension 16777216, more than 5000\n"
    )


@pytest.mark.parametrize("bound", range(2, 13))
def test_reduce_runs_at_every_bound_from_2(capsys, bound):
    for seed in range(5):
        argv = ["verify", "reduce", "--bound", str(bound), "--seed", str(seed)]
        assert cli.main(argv) == 0, seed
    assert capsys.readouterr().err == ""


def test_reduce_rejects_a_bound_below_2_naming_the_option(capsys):
    assert cli.main(["verify", "reduce", "--bound", "1", "--count", "0"]) == 2
    assert capsys.readouterr().err == "error: --bound must be at least 2, got 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "psi", "--N", "3"],
        ["verify", "trees", "--count", "5"],
        ["verify", "reduce", "--points", "2"],
        ["verify", "laws", "--k", "1"],
        ["verify", "fusion-rank", "--depth", "1"],
    ],
)
def test_an_option_the_suite_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[2:])}" in captured.err


@pytest.mark.parametrize(
    "argv,N,seed",
    [
        (["laws"], None, 0),
        (["fusion-rank"], None, 0),
        (["psi"], None, 0),
        (["trees"], None, 0),
        (["reduce"], None, 0),
        (["laws", "--N", "2"], 2, 0),
        (["fusion-rank", "--N", "3"], 3, 0),
        (["reduce", "--seed", "5"], None, 5),
    ],
)
def test_the_json_config_names_the_suite_its_N_and_its_seed(capsys, cheap, argv, N, seed):
    # a suite without --N reports null and one without --seed reports 0
    code, payload = run_json(capsys, ["verify", *argv])
    assert code == 0
    assert payload["config"] == {"command": "verify", "suite": argv[0], "N": N, "seed": seed}


@pytest.mark.parametrize("suite", ["fusion-rank", "psi"])
def test_len_is_read_as_length(capsys, suite):
    short = run(capsys, ["verify", suite, "--len", "3"])
    assert short == run(capsys, ["verify", suite, "--length", "3"])
    assert short != run(capsys, ["verify", suite])


# -- the output contract on drawn argument lists

BIG = 2**63  # one past the largest int64


def boundary(cap=None):
    """The boundary pool of a numeric option: 0, 1, its cap and one past
    it, and 2^63."""
    return [0, 1, BIG] if cap is None else [0, 1, cap, cap + 1, BIG]


# the numeric options of each subcommand with their pools; --base carries
# its number after the kind, capped by the dimension budget
NUMERIC = {
    "classify-words": {"--bound": boundary(cli.MAX_WORD_BOUND)},
    "table": {"--bound": boundary(cli.MAX_TABLE_BOUND)},
    "laws": {"--points": boundary(cli.MAX_LAW_POINTS), "--N": boundary(cli.MAX_LAW_ENTRIES)},
    "fusion-rank": {"--length": boundary(cli.MAX_RANK_LENGTH), "--N": boundary()},
    "psi": {"--k": boundary(), "--length": boundary(cli.MAX_PSI_LENGTH)},
    "trees": {
        "--base": [
            f"{kind}{n}"
            for kind, cap in (("c", qgraph.MAX_LEVEL_DIM), ("m", isqrt(qgraph.MAX_LEVEL_DIM)))
            for n in boundary(cap)
        ],
        "--depth": boundary(cli.MAX_TREE_DEPTH),
    },
    "reduce": {
        "--bound": boundary(cli.MAX_REDUCE_BOUND),
        "--count": boundary(cli.MAX_REDUCE_COUNT),
        "--seed": boundary(),
    },
}
HEAD = {"classify-words": ["classify-words", "--gens", "ooxx"], "table": ["table"]}
MALFORMED = ["", "x", "2.5", "0x10"]
VALUES = {
    "--gens": ["ooxx", "e", "ox,xo", "oooo", "o,e", "", ",", "zz"],
    "--base": ["c2", "m2", "c3", "q3", "m", "c-2"],
    "--category": ["NC2", "NCall", "NCprime"],
    "--format": ["text", "json"],
}
OPTIONS = {
    "classify-words": ["--gens", "--bound", "--format"],
    "table": ["--bound", "--category", "--format"],
    "laws": ["--points", "--N", "--format"],
    "fusion-rank": ["--length", "--len", "--N", "--format"],
    "psi": ["--k", "--length", "--format"],
    "trees": ["--base", "--depth", "--format"],
    "reduce": ["--bound", "--count", "--seed", "--format"],
}


def values(command, option):
    """Mostly well-formed values of the option: its boundary pool and its
    fixed values (-1 for a number); sometimes a malformed one, or None,
    which leaves the option without its value."""
    pool = NUMERIC.get(command, {}).get("--length" if option == "--len" else option, [])
    good = [str(v) for v in pool] + VALUES.get(option, ["-1"])
    return st.sampled_from(good * 3 + MALFORMED + [None])


@st.composite
def argument_lists(draw):
    argv = [draw(st.sampled_from(["classify-words", "table", "verify", "verify"]))]
    if argv[0] == "verify":
        argv.append(draw(st.sampled_from([*sorted(cli.SUITES), "nope"])))
    options = draw(st.lists(st.sampled_from(OPTIONS.get(argv[-1], []) + ["--bogus"]), max_size=3))
    if argv[0] == "classify-words":  # --gens is required
        options.insert(0, "--gens")
    command = argv[-1]
    for option in options:
        argv.append(option)
        value = draw(values(command, option))
        if value is not None:
            argv.append(value)
    return argv


# the work a drawn run calls, capped so that it stays cheap while the
# command line still checks the values it was given
TABLE, LAWS, REDUCE, TREES = suites.table, suites.laws, suites.reduce, suites.trees
CLASSIFY = words.classify


def cheap_table(names, bound):
    return TABLE(names, min(bound, 4))


def cheap_laws(points, Ns):
    return LAWS(min(points, 3), Ns)


def cheap_reduce(bound, count, seed):
    return REDUCE(bound, min(count, 3), seed)


def cheap_trees(base, depth):
    return TREES(base, min(depth, 2 if base.dim < 10 else 0))


def cheap_classify(gens, bound):
    return CLASSIFY(gens, min(bound, 8))


@pytest.fixture
def cheap(monkeypatch):
    monkeypatch.setattr(suites, "table", cheap_table)
    monkeypatch.setattr(suites, "laws", cheap_laws)
    monkeypatch.setattr(suites, "reduce", cheap_reduce)
    monkeypatch.setattr(suites, "trees", cheap_trees)
    monkeypatch.setattr(words, "classify", cheap_classify)


def assert_contract(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse rejects the argument list
        code = e.code
    captured = capsys.readouterr()
    assert code in (0, 1, 2), argv
    assert "Traceback" not in captured.err, argv
    if code == 2:
        assert captured.out == "", argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=argument_lists())
def test_drawn_argument_lists_keep_the_output_contract(capsys, cheap, argv):
    assert_contract(capsys, argv)


@pytest.mark.parametrize("command", NUMERIC)
def test_boundary_values_drawn_together_keep_the_output_contract(capsys, cheap, command):
    # every joint choice from the pools, so that a fault needing two rare
    # values at once (--points 0 with --N past int64) cannot be missed
    head = HEAD.get(command, ["verify", command])
    pools = NUMERIC[command]
    for choice in product(*pools.values()):
        argv = head + [token for option, v in zip(pools, choice) for token in (option, str(v))]
        assert_contract(capsys, argv)


ERROR_CLASSES = [
    cls for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, Exception)
]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_of_each_error_class(capsys, monkeypatch, cls):
    def fail(*args):
        raise cls("boom")

    monkeypatch.setattr(suites, "trees", fail)
    code = cli.main(["verify", "trees"])
    captured = capsys.readouterr()
    violation = issubclass(cls, errors.Violation)
    assert violation != issubclass(cls, errors.InputError)
    assert code == cls.exit_code == (1 if violation else 2)
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{'violation' if violation else 'error'}: boom"]


@pytest.mark.parametrize("cls", [ValueError, KeyError])
def test_a_builtin_error_is_a_bug_not_an_input_error(capsys, monkeypatch, cls):
    # every deliberate error is an errors class; a builtin one escapes
    # with its traceback instead of passing for a usage error (exit 2)
    def fail(*args):
        raise cls("boom")

    monkeypatch.setattr(suites, "trees", fail)
    with pytest.raises(cls, match="boom"):
        cli.main(["verify", "trees"])
    assert capsys.readouterr().err == ""


# Runs in a fresh interpreter, because this one has these modules loaded
# already.  Prints, as JSON, which of STARTUP_MODULES are loaded after
# `import qcomb.cli` and after each argv, with each exit code.  A module
# stays loaded once loaded, so the runs that load one come last.
STARTUP_MODULES = ["dataclasses", "fractions", "inspect", "numpy"]
STARTUP_PROBE = """
import contextlib, io, json, sys
modules = json.loads(sys.argv[2])
import qcomb.cli
seen = [["import", None, [m for m in modules if m in sys.modules]]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = qcomb.cli.main(argv)
    seen.append([" ".join(argv), code, [m for m in modules if m in sys.modules]])
print(json.dumps(seen))
"""

# argv, exit code, the STARTUP_MODULES loaded after it
STARTUP_RUNS = [
    (["classify-words", "--gens", "ooxx"], 0, []),
    (["table", "--bound", "2"], 1, []),
    (["verify", "psi"], 0, []),
    (["verify", "reduce"], 0, []),
    # the realization laws are identities of Python integers
    (["verify", "laws", "--points", "4"], 0, []),
    # a rejected length is rejected before the suite loads numpy
    (["verify", "fusion-rank", "--length", "11"], 2, []),
    # a family of at most laws._SMALL_FAMILY members ranks without numpy:
    # the largest at length 6 has 5
    (["verify", "fusion-rank", "--length", "4", "--N", "4"], 0, []),
    (["verify", "fusion-rank", "--length", "6"], 0, []),
    # a rejected base is rejected before the suite loads qgraph
    (["verify", "trees", "--base", "q3"], 2, []),
    # qgraph's exact scalars load fractions
    (["verify", "trees"], 0, ["fractions"]),
    # one of 14 families at length 8 loads numpy, which loads inspect
    (["verify", "fusion-rank", "--length", "8"], 0, ["fractions", "inspect", "numpy"]),
]


def test_only_the_suites_that_need_them_load_numpy_or_fractions():
    src = str(Path(qcomb.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    argvs = [argv for argv, _, _ in STARTUP_RUNS]
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, json.dumps(argvs), json.dumps(STARTUP_MODULES)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        check=True,
    )
    expected = [["import", None, []]]
    expected += [[" ".join(argv), code, loaded] for argv, code, loaded in STARTUP_RUNS]
    assert json.loads(done.stdout) == expected
