"""Command-line behavior: records, emission order, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from symsug.cli import main
from conftest import WORKED_DOCUMENT


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_document(tmp_path, document, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


# -- compute -----------------------------------------------------------------


def test_compute_all_emits_the_documented_golden_record(worked_file, capsys):
    code, out, err = run(capsys, "compute", "--input", str(worked_file), "--all")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    # plain choquet and sugeno are skipped: the profile has a negative score
    assert list(record) == [
        "choquet_sym",
        "choquet_asym",
        "sugeno_sym",
        "v1",
        "v2",
        "v3",
        "mobius_interval",
        "diagnostics",
    ]
    assert record["choquet_sym"] == "0.02"
    assert record["choquet_asym"] == "-0.08"
    assert record["sugeno_sym"] == "0"
    assert record["v1"] == "0.25"
    assert record["v2"] == "0.2"
    assert record["v3"] == "0.3"
    interval = record["mobius_interval"]
    assert interval["lower"]["{1,3}"] == "0"
    assert interval["upper"]["{1,3}"] == "0.3"
    assert interval["upper"] == {
        key: value for key, value in WORKED_DOCUMENT["capacity"].items()
    }
    diagnostics = record["diagnostics"]
    assert diagnostics["order"] == [1, 2, 3]
    assert diagnostics["p"] == 1
    assert diagnostics["mobius"] == "lower"
    assert diagnostics["terms"]["sugeno_sym"] == ["-0.3", "0.3", "0.2"]
    assert diagnostics["terms"]["v2"] == ["-0.3", "0.3", "0.2"]
    assert diagnostics["terms"]["v3"] == ["-0.3", "0.3", "0.3"]


def test_compute_is_deterministic(worked_file, capsys):
    first = run(capsys, "compute", "--input", str(worked_file), "--all")
    second = run(capsys, "compute", "--input", str(worked_file), "--all")
    assert first == second
    # each defined output fixes its own fold rule; there is no --rule flag
    with_rule = run(
        capsys, "compute", "--input", str(worked_file), "--all", "--rule", "ceil"
    )
    assert with_rule[0] == 2


def test_compute_only_respects_canonical_order(worked_file, capsys):
    code, out, _ = run(
        capsys, "compute", "--input", str(worked_file), "--only", "v3,sugeno_sym"
    )
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["sugeno_sym", "v3", "diagnostics"]
    assert record["sugeno_sym"] == "0"
    assert record["v3"] == "0.3"
    assert list(record["diagnostics"]["terms"]) == ["sugeno_sym", "v3"]


def test_compute_upper_representative(worked_file, capsys):
    code, out, _ = run(
        capsys,
        "compute", "--input", str(worked_file), "--only", "v1", "--mobius", "upper",
    )
    assert code == 0
    record = json.loads(out)
    assert record["v1"] == "0.25"  # this instance is representative-independent
    assert record["diagnostics"]["mobius"] == "upper"


def test_compute_nonnegative_profile_unlocks_the_plain_integrals(tmp_path, capsys):
    document = dict(WORKED_DOCUMENT, profile=["0.2", "0.3", "1"])
    path = write_document(tmp_path, document)
    code, out, _ = run(capsys, "compute", "--input", path, "--only", "choquet,sugeno")
    assert code == 0
    record = json.loads(out)
    assert record["choquet"] == "0.4"
    assert record["sugeno"] == "0.3"


def test_compute_defaults_to_the_outputs_stored_in_the_file(tmp_path, capsys):
    document = dict(WORKED_DOCUMENT, options={"outputs": ["sugeno_sym"]})
    path = write_document(tmp_path, document)
    code, out, _ = run(capsys, "compute", "--input", path)
    assert code == 0
    record = json.loads(out)
    assert list(record) == ["sugeno_sym", "diagnostics"]


def test_compute_levels_scale_skips_the_choquet_family(tmp_path, capsys):
    document = {
        "scale": {"kind": "levels", "levels": 2},
        "capacity": {"{1}": 1, "{2}": 0, "{1,2}": 2},
        "profile": [-1, 2],
    }
    path = write_document(tmp_path, document)
    code, out, _ = run(capsys, "compute", "--input", path, "--all")
    assert code == 0
    record = json.loads(out)
    assert "choquet_sym" not in record and "choquet" not in record
    # f+ folds to 0 (v({2}) = 0), f- folds to 1, so the combination is -1
    assert record["sugeno_sym"] == "-1"


# -- compute exit codes ---------------------------------------------------------


def test_malformed_documents_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, "compute", "--input", str(path), "--all")
    assert code == 1
    assert out == "" and "error:" in err

    code, _, err = run(capsys, "compute", "--input", str(tmp_path / "no.json"), "--all")
    assert code == 1 and "cannot read" in err

    twice = '"{1}": "0.9", "{1}": "0.3"'
    text = json.dumps(WORKED_DOCUMENT).replace('"{1}": "0.3"', twice)
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "compute", "--input", str(path), "--all")
    assert code == 1
    assert out == "" and "repeated key" in err


def test_invalid_instances_exit_2(tmp_path, capsys):
    table = dict(WORKED_DOCUMENT["capacity"], **{"{1,2}": "0.1"})
    path = write_document(tmp_path, dict(WORKED_DOCUMENT, capacity=table))
    code, _, err = run(capsys, "compute", "--input", path, "--all")
    assert code == 2 and "error:" in err

    path = write_document(
        tmp_path, dict(WORKED_DOCUMENT, profile=["-1", "0.3", "1.5"]), "off.json"
    )
    code, _, err = run(capsys, "compute", "--input", path, "--all")
    assert code == 2 and "outside the scale" in err


def test_inapplicable_requests_exit_2(worked_file, tmp_path, capsys):
    # plain integrals need a nonnegative profile
    code, _, err = run(
        capsys, "compute", "--input", str(worked_file), "--only", "choquet"
    )
    assert code == 2 and "nonnegative" in err

    # the Choquet family needs the unit scale
    document = {
        "scale": {"kind": "levels", "levels": 1},
        "capacity": {"{1}": 1, "{2}": 0, "{1,2}": 1},
        "profile": [1, 0],
    }
    path = write_document(tmp_path, document)
    code, _, err = run(capsys, "compute", "--input", path, "--only", "choquet_sym")
    assert code == 2 and "unit scale" in err


def test_bad_output_requests_exit_2(worked_file, capsys):
    code, _, err = run(
        capsys, "compute", "--input", str(worked_file), "--only", "v9"
    )
    assert code == 2 and "unknown output" in err

    code, _, err = run(
        capsys, "compute", "--input", str(worked_file), "--only", "v1,v1"
    )
    assert code == 2 and "repeats" in err

    code, _, err = run(capsys, "compute", "--input", str(worked_file))
    assert code == 2 and "--all or --only" in err


def test_bad_flags_exit_2(worked_file, capsys):
    assert run(capsys, "compute")[0] == 2  # --input is required
    assert run(capsys, "nonsense")[0] == 2
    assert (
        run(capsys, "compute", "--input", str(worked_file), "--rule", "round")[0] == 2
    )
    assert run(capsys, "--help")[0] == 0


# -- verify ---------------------------------------------------------------------


def test_verify_single_law_record(capsys):
    code, out, err = run(capsys, "verify", "--law", "opposites-cancel", "--levels", "1")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["law"] == "opposites-cancel"
    assert record["status"] == "pass"
    assert record["checks"] > 0


def test_verify_reports_expected_failures_as_xfail(capsys):
    code, out, _ = run(capsys, "verify", "--law", "angle-monotonic")
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "xfail"
    assert "witness" in record["detail"] or record["detail"]


def test_verify_full_suite_is_deterministic(capsys):
    argv = ("verify", "--levels", "2", "--samples", "40", "--seed", "11", "--n", "3")
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0
    records = [json.loads(line) for line in first[1].splitlines()]
    statuses = {record["status"] for record in records}
    assert statuses <= {"pass", "xfail", "info"}
    laws = [record["law"] for record in records]
    assert len(laws) == len(set(laws))


def test_verify_flag_validation(capsys):
    assert run(capsys, "verify", "--law", "no-such-law")[0] == 2
    assert run(capsys, "verify", "--n", "4")[0] == 2  # exhaustive needs n <= 3
    assert run(capsys, "verify", "--n", "0")[0] == 2
    assert run(capsys, "verify", "--levels", "0")[0] == 2
    assert run(capsys, "verify", "--samples", "0")[0] == 2
    assert run(capsys, "verify", "--exhaustive", "--samples", "5")[0] == 2
    code, out, _ = run(capsys, "verify", "--n", "4", "--samples", "5", "--seed", "2")
    assert code == 0  # sampled mode lifts the player bound


# -- mobius ----------------------------------------------------------------------


def test_mobius_prints_interval_and_canonical_forms(worked_file, capsys):
    code, out, err = run(capsys, "mobius", "--input", str(worked_file))
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["transform"] for r in records] == ["interval", "canonical", "canonical"]
    interval = records[0]
    assert interval["lower"]["{1,3}"] == "0"
    assert interval["upper"]["{1,3}"] == "0.3"
    floor_record, angle_record = records[1], records[2]
    assert floor_record["rule"] == "floor"
    assert floor_record["table"] == interval["lower"]
    assert angle_record["rule"] == "angle"
    assert angle_record["table"]["{}"] == "0"


def test_mobius_exit_codes(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[]", encoding="utf-8")
    assert run(capsys, "mobius", "--input", str(path))[0] == 1
    assert run(capsys, "mobius")[0] == 2


# -- console script ----------------------------------------------------------------


def test_console_script_matches_the_library_entry(worked_file, capsys):
    code, out, _ = run(capsys, "compute", "--input", str(worked_file), "--all")
    completed = subprocess.run(
        [sys.executable, "-m", "symsug.cli", "compute", "--input", str(worked_file), "--all"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == code == 0
    assert completed.stdout == out
