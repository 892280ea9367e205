"""Command line interface: output contract and exit codes."""

import json

import pytest

from qcomb import cli


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_json(capsys, argv):
    code, out = run(capsys, argv + ["--format", "json"])
    payload = json.loads(out)
    assert set(payload) == {"config", "results", "verdict"}
    return code, payload


def test_classify_words_reports_the_matched_set(capsys):
    code, payload = run_json(capsys, ["classify-words", "--gens", "ooxx"])
    assert code == 0
    assert payload["verdict"] == "pass"
    assert any("White(2)" in line for line in payload["results"])


def test_classify_words_accepts_e_as_the_empty_word(capsys):
    code, payload = run_json(capsys, ["classify-words", "--gens", "e"])
    assert code == 0


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
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
