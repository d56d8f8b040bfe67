"""Command-line behavior: records, emission order, exit codes, determinism."""

import argparse
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symsug import (
    Rule,
    canonical_ordinal_mobius,
    choquet,
    load_problem,
    ordinal_mobius_interval,
    read_problem,
    sugeno,
    sugeno_symmetric,
    to_real_capacity,
    to_real_profile,
)
from symsug.capacity import full_set, subset_text
from symsug.cli import _build_parser, _parse, main
from symsug.io import record_line, set_function_record
from symsug.scale import SymmetricScale
from symsug.verify import law_names
from conftest import WORKED_DOCUMENT, count_calls, documents, mutated_documents


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


def test_compute_validates_the_capacity_once(worked_file, capsys, monkeypatch):
    import symsug.capacity

    checks = count_calls(monkeypatch, symsug.capacity, "_check_capacity")
    problems = count_calls(monkeypatch, symsug.capacity, "capacity_problems")
    code, _, _ = run(capsys, "compute", "--input", str(worked_file), "--all")
    assert code == 0
    assert len(checks) == 1  # on loading; the ranked capacity is not checked again
    assert problems == []  # the messages are listed only for a failing table


def test_compute_tabulates_no_conjugate(worked_file, capsys, monkeypatch):
    import symsug.mobius

    calls = count_calls(monkeypatch, symsug.mobius, "real_conjugate")
    code, out, _ = run(capsys, "compute", "--input", str(worked_file), "--all")
    assert code == 0 and "choquet_asym" in json.loads(out)
    assert calls == []  # choquet_asym reads the conjugate on its chain only


@pytest.mark.parametrize("profile", [["-1", "0.3", "1"], ["0.2", "0.3", "1"]])
def test_compute_folds_the_printed_terms_for_every_sugeno_output(
    tmp_path, capsys, monkeypatch, profile
):
    import symsug.integrals

    path = write_document(tmp_path, dict(WORKED_DOCUMENT, profile=profile))
    calls = {
        name: count_calls(monkeypatch, symsug.integrals, name)
        for name in ("sugeno", "sugeno_symmetric")
    }
    code, out, _ = run(capsys, "compute", "--input", path, "--all")
    assert code == 0
    assert calls == {"sugeno": [], "sugeno_symmetric": []}
    record = json.loads(out)
    assert ("sugeno" in record) == (profile[0] != "-1")
    assert "sugeno" not in record["diagnostics"]["terms"]
    v, f = read_problem(path).ranked()
    assert record["sugeno_sym"] == str(sugeno_symmetric(v, f))
    if "sugeno" in record:
        assert record["sugeno"] == str(sugeno(v, f))


@pytest.mark.parametrize("kind", ["unit", "levels"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compute_sugeno_records_match_the_split_form(kind, data):
    document = data.draw(documents().filter(lambda d: d["scale"]["kind"] == kind))
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "problem.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["compute", "--input", str(path), "--all"]) == 0
        v, f = read_problem(str(path)).ranked()
    record = json.loads(out.getvalue())
    assert record["sugeno_sym"] == str(sugeno_symmetric(v, f))
    if f.is_nonnegative:
        assert record["sugeno"] == str(sugeno(v, f))
    else:
        assert "sugeno" not in record


def test_compute_upper_representative(worked_file, capsys):
    code, out, _ = run(
        capsys,
        "compute", "--input", str(worked_file), "--only", "v1", "--mobius", "upper",
    )
    assert code == 0
    record = json.loads(out)
    assert record["v1"] == "0.25"  # this instance is representative-independent
    assert record["diagnostics"]["mobius"] == "upper"


def test_v2_depends_on_how_tied_players_are_numbered(tmp_path, capsys):
    # v2 breaks a tie of both score and capacity value by player index, and
    # its angle fold is tie-sensitive; sugeno_sym and v3 do not move
    # a five-player levels_scale(3) capacity, in mask order
    capacity = [int(g) for g in "02031213133323330333233333333333"]
    profile = [2, -2, -2, -2, -2]
    sigma = (4, 3, 2, 0, 1)  # old player i is new player sigma[i]
    renumbered = [0] * len(capacity)
    for mask, grade in enumerate(capacity):
        renumbered[sum(1 << sigma[i] for i in range(5) if mask >> i & 1)] = grade
    records = []
    for table, scores in (
        (capacity, profile),
        (renumbered, [profile[sigma.index(i)] for i in range(5)]),
    ):
        document = {
            "scale": {"kind": "levels", "levels": 3},
            "capacity": {subset_text(mask): g for mask, g in enumerate(table)},
            "profile": scores,
        }
        path = write_document(tmp_path, document)
        code, out, _ = run(
            capsys, "compute", "--input", path, "--only", "sugeno_sym,v2,v3"
        )
        assert code == 0
        records.append(json.loads(out))
    assert [r["sugeno_sym"] for r in records] == ["0", "0"]
    assert [r["v3"] for r in records] == ["-2", "-2"]
    assert [r["v2"] for r in records] == ["-1", "0"]


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


def test_compute_prints_choquet_values_past_the_int_text_limit(tmp_path, capsys):
    # every input is under 1,000 characters, but the exact value has a
    # ~3,900-digit numerator over a ~4,400-digit denominator: past the
    # 4,300 digits Python's str() prints for an int by default
    d = [10**490 + c for c in (1, 3, 7, 9, 13, 19, 21, 27, 31, 33, 37)]
    n = 5
    capacity = {"{}": "0", subset_text(full_set(n)): "1"}
    for mask in range(1, full_set(n)):
        size = bin(mask).count("1")
        big = d[5 + size]
        capacity[subset_text(mask)] = f"{size * big // 6}/{big}"
    profile = [f"{i}/{6 * d[i - 1]}" for i in range(1, n + 1)]
    document = {"scale": {"kind": "unit"}, "capacity": capacity, "profile": profile}
    assert max(len(text) for text in [*capacity.values(), *profile]) < 1000
    path = write_document(tmp_path, document)
    code, out, err = run(capsys, "compute", "--input", path, "--only", "choquet")
    assert (code, err) == (0, "")
    numerator, denominator = json.loads(out)["choquet"].split("/")
    # rebuilt through Decimal: int(text) has the same limit
    printed = Fraction(Decimal(numerator)) / Fraction(Decimal(denominator))
    problem = load_problem(json.dumps(document))
    v, f = to_real_capacity(problem.capacity), to_real_profile(problem.profile)
    assert len(numerator) > 4300 or len(denominator) > 4300
    assert printed == choquet(v, f)


# SHA-256 of the stdout of each command on the document below, generated
# when the Choquet family and the rank map still computed on Fractions
LONG_DENOMINATOR_DIGESTS = {
    "compute": "d48bbfbcbc736c6f3f46b38d85743c64a4d5973a327afc09f7191a4354eecd15",
    "mobius": "a4feff503a49e5d292e27de95f0b510cf0d07ead72ac84f4717b6bc56c5d35ec",
}
# each command takes about 0.1 s in process; the budget is 50 times that
LONG_DENOMINATOR_BUDGET_S = 5.0


def test_long_denominators_load_and_render_in_bounded_time(tmp_path, capsys):
    # 1,022 distinct ~480-digit denominators at n = 10: a common
    # denominator of the whole table would have about half a million
    # digits, so this pins that loading ranks by comparisons instead
    def value(m):
        q = 10**480 + 2 * m + 1
        return f"{m * q // 1024}/{q}"

    n = 10
    top = full_set(n)
    capacity = {subset_text(mask): value(mask) for mask in range(1, top)}
    capacity[subset_text(top)] = "1"
    profile = ["-" * (i % 2) + value(1 + 113 * i) for i in range(n)]
    document = {"scale": {"kind": "unit"}, "capacity": capacity, "profile": profile}
    assert max(len(text) for text in [*capacity.values(), *profile]) < 1000
    path = write_document(tmp_path, document)
    for argv in (("compute", "--input", path, "--all"), ("mobius", "--input", path)):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, "")
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert digest == LONG_DENOMINATOR_DIGESTS[argv[0]]
        assert elapsed < LONG_DENOMINATOR_BUDGET_S, (argv[0], elapsed)


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

    # decoder failures that are not JSONDecodeErrors
    long_int = json.dumps(WORKED_DOCUMENT).replace('"-1"', "1" * 5000)
    for text in (long_int, "[" * 100_000 + "]" * 100_000):
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "compute", "--input", str(path), "--all")
        assert code == 1
        assert out == "" and err.startswith("error: not valid JSON:")

    # unit-scale text past the documented exponent bound
    document = dict(WORKED_DOCUMENT, profile=["-1", "1e-1000000", "1"])
    code, out, err = run(
        capsys, "compute", "--input", write_document(tmp_path, document), "--all"
    )
    assert code == 1
    assert out == "" and "bad unit-scale value" in err


def test_non_utf8_input_is_a_malformed_document(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(WORKED_DOCUMENT).encode("utf-8") + b"\xff")
    code, out, err = run(capsys, "compute", "--input", str(path), "--all")
    assert code == 1
    assert out == "" and err.startswith("error: cannot read")


@pytest.mark.parametrize(
    "capacity, message",
    [
        # no 1 anywhere: the ranks must still place v(N) below the top
        (
            {"{1}": "0.5", "{2}": "0.25", "{1,2}": "0.9"},
            "v({1,2}) = 0.9, expected 1",
        ),
        # no 0 anywhere: the ranks must still place v({}) above the bottom
        (
            {"{}": "0.1", "{1}": "0.5", "{2}": "0.25", "{1,2}": "1"},
            "v({}) = 0.1, expected 0",
        ),
        (
            {"{}": "0", "{1}": "-0.5", "{2}": "0.25", "{1,2}": "1"},
            "v({1}) = -0.5 is negative; v({}) = 0 exceeds v({1}) = -0.5",
        ),
    ],
)
def test_unit_capacities_off_their_bounds_exit_2(tmp_path, capsys, capacity, message):
    profile = ["0.5", "-0.25"]  # neither 0 nor 1 here either
    document = {"scale": {"kind": "unit"}, "capacity": capacity, "profile": profile}
    path = write_document(tmp_path, document)
    for argv in (("compute", "--input", path, "--all"), ("mobius", "--input", path)):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")


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

    code, _, err = run(capsys, "compute", "--input", str(worked_file), "--only", "v1,")
    assert code == 2 and "empty output name" in err

    code, _, err = run(capsys, "compute", "--input", str(worked_file))
    assert code == 2 and "--all or --only" in err


def test_bad_flags_exit_2(worked_file, capsys):
    assert run(capsys, "compute")[0] == 2  # --input is required
    assert run(capsys, "nonsense")[0] == 2
    assert (
        run(capsys, "compute", "--input", str(worked_file), "--rule", "round")[0] == 2
    )
    assert run(capsys, "--help")[0] == 0


@settings(max_examples=200, deadline=None)
@given(documents() | mutated_documents())
def test_compute_all_exits_0_1_or_2_on_any_document(document):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "problem.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["compute", "--all", "--input", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        assert "diagnostics" in json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


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
    assert "angle-monotonic" in run(capsys, "verify", "--law", "no-such-law")[2]
    assert run(capsys, "verify", "--n", "4")[0] == 2  # exhaustive needs n <= 3
    assert run(capsys, "verify", "--n", "0")[0] == 2
    assert run(capsys, "verify", "--levels", "0")[0] == 2
    assert run(capsys, "verify", "--samples", "0")[0] == 2
    assert run(capsys, "verify", "--exhaustive", "--samples", "5")[0] == 2
    code, out, _ = run(capsys, "verify", "--n", "4", "--samples", "5", "--seed", "2")
    assert code == 0  # sampled mode lifts the player bound


def test_verify_rejects_player_counts_past_the_table_ceiling(capsys):
    # checked before any law builds a 2**n table
    argv = ("verify", "--n", "64", "--samples", "1", "--law", "conjugate-involution")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: --n must be in 1..")


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


def test_mobius_computes_the_interval_once(worked_file, capsys, monkeypatch):
    import symsug.mobius

    intervals = count_calls(monkeypatch, symsug.mobius, "ordinal_mobius_interval")
    canonicals = count_calls(monkeypatch, symsug.mobius, "canonical_ordinal_mobius")
    code, out, _ = run(capsys, "mobius", "--input", str(worked_file))
    assert code == 0 and len(out.splitlines()) == 3
    assert len(intervals) == 1
    assert canonicals == []  # both canonical tables are the lower bound


@pytest.mark.parametrize("kind", ["unit", "levels"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mobius_canonical_records_match_their_definition(kind, data):
    document = data.draw(documents().filter(lambda d: d["scale"]["kind"] == kind))
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "problem.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["mobius", "--input", str(path)]) == 0
        v = read_problem(str(path)).ranked()[0]
    floor_record, angle_record = map(json.loads, out.getvalue().splitlines()[1:])
    for record, rule in ((floor_record, Rule.FLOOR), (angle_record, Rule.ANGLE)):
        assert record == {
            "transform": "canonical",
            "rule": rule.value,
            "table": set_function_record(canonical_ordinal_mobius(v, rule)),
        }


LABELLED_DOCUMENT = {
    "scale": {"kind": "levels", "levels": 3, "labels": ["zéro", 'a "b"', "c\\d", "e\tf"]},
    "capacity": {"{1}": 'a "b"', "{2}": "c\\d", "{1,2}": "e\tf"},
    "profile": ["-c\\d", "zéro"],
}


@settings(max_examples=60, deadline=None)
@given(documents().map(json.dumps) | st.just(json.dumps(LABELLED_DOCUMENT)))
def test_mobius_lines_are_the_record_lines_of_their_records(text):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "problem.json"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["mobius", "--input", str(path)]) == 0
        interval = ordinal_mobius_interval(read_problem(str(path)).ranked()[0])
    lower = set_function_record(interval.lower)
    upper = set_function_record(interval.upper)
    records = [{"transform": "interval", "lower": lower, "upper": upper}] + [
        {"transform": "canonical", "rule": rule, "table": lower}
        for rule in ("floor", "angle")
    ]
    assert out.getvalue() == "".join(record_line(r) + "\n" for r in records)


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
        # the package need not be installed: run the one under test
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
        capture_output=True,
        text=True,
    )
    assert completed.returncode == code == 0
    assert completed.stdout == out


# -- compute/mobius golden records ---------------------------------------------------

COMPUTE_GOLDEN_PATH = Path(__file__).parent / "golden" / "compute_records.jsonl"
CORPUS_SIZE = 200
LABEL_WORDS = ("none", "poor", "weak", "fair", "good", "strong", "great")
UNIT_DENOMINATORS = (2, 3, 4, 5, 10, 12)

# the output request of document i is REQUESTS[(i // 2) % 8]: extra flags
# and extra options; --all wins over options.outputs, and `sugeno,choquet`
# or `choquet_asym` is refused on signed profiles or levels scales
REQUESTS = (
    (["--all"], {}),
    (["--only", "v1"], {}),
    (["--only", "v3,sugeno_sym"], {}),
    (["--only", "choquet_asym,v2"], {}),
    ([], {"outputs": ["mobius_interval", "v3", "v1", "sugeno_sym"]}),
    (["--all", "--mobius", "upper"], {}),
    (["--all"], {"mobius": "upper", "outputs": ["v1"]}),
    (["--only", "sugeno,choquet,v1"], {"mobius": "upper"}),
)

# one broken document in every 20, at i = 10, 30, ..., 190
BROKEN = (
    "json",
    "float",
    "missing",
    "nonmonotone",
    "offscale",
    "bad-text",
    "repeated",
    "players",
    "option",
    "repeated-output",
)


def _grade_text(rng, grade, scale):
    """A grade in one of the spellings a problem file accepts."""
    kind, top, labels = scale
    if kind == "unit":
        value = Fraction(grade, top)
        if value.denominator == 1 and rng.random() < 0.3:
            return int(value)
        if 100 % top == 0 and rng.random() < 0.7:
            hundredths = abs(grade) * (100 // top)
            sign = "-" if grade < 0 else ""
            return f"{sign}{hundredths // 100}.{hundredths % 100:02d}"
        return f"{grade}/{top}"
    if labels is not None:
        return ("-" if grade < 0 else "") + labels[abs(grade)]
    return grade if rng.random() < 0.6 else str(grade)


def _monotone_grades(rng, n, top):
    """v({}) = 0, v(N) = top, small sets drawn low; the closure over covers
    makes ties."""
    size = 1 << n
    grades = [
        rng.randint(0, (top * mask.bit_count() + n - 1) // n) for mask in range(size)
    ]
    for mask in sorted(range(size), key=int.bit_count):
        for i in range(n):
            if mask >> i & 1:
                grades[mask] = max(grades[mask], grades[mask ^ 1 << i])
    grades[0], grades[size - 1] = 0, top
    return grades


def corpus_case(i):
    """The text of document i of the compute corpus and its compute flags."""
    rng = Random(i)
    n = 7 if i % 40 == 39 else 1 + i % 6
    kind = ("unit", "levels", "labelled")[(i // 6) % 3]
    if kind == "unit":
        top = rng.choice(UNIT_DENOMINATORS)
        scale, descriptor = ("unit", top, None), {"kind": "unit"}
    else:
        top = rng.randint(1, 6)
        labels = list(LABEL_WORDS[: top + 1]) if kind == "labelled" else None
        scale = ("levels", top, labels)
        descriptor = {"kind": "levels", "levels": top}
        if labels is not None:
            descriptor["labels"] = labels
    grades = _monotone_grades(rng, n, top)
    capacity = {
        subset_text(mask): _grade_text(rng, g, scale)
        for mask, g in enumerate(grades)
        if mask or rng.random() < 0.5
    }
    # a pool of two or three magnitudes forces ties and opposite pairs
    pool = rng.sample(range(top + 1), min(top + 1, rng.choice((2, 3))))
    signed = (i // 18) % 3 != 0
    profile = [
        g * rng.choice((-1, 1)) if signed else g
        for g in (rng.choice(pool) for _ in range(n))
    ]
    flags, options = REQUESTS[(i // 2) % len(REQUESTS)]
    document = {
        "scale": descriptor,
        "capacity": capacity,
        "profile": [_grade_text(rng, g, scale) for g in profile],
    }
    if rng.random() < 0.3:
        document["players"] = [f"p{j + 1}" for j in range(n)]
    if options:
        document["options"] = options
    defect = BROKEN[i // 20] if i % 20 == 10 else None
    flags = list(flags)
    if defect == "float":
        document["profile"][0] = 0.5
    elif defect == "missing":
        del document["capacity"][subset_text(full_set(n))]
    elif defect == "nonmonotone":
        document["capacity"][subset_text(1)] = _grade_text(rng, top, scale)
        document["capacity"][subset_text(full_set(n))] = _grade_text(rng, 0, scale)
    elif defect == "offscale":
        document["profile"][-1] = str(top + 1) if kind != "unit" else "3/2"
    elif defect == "bad-text":
        document["profile"][0] = "excellent"
    elif defect == "players":
        document["players"] = ["only"] * (n + 1)
    elif defect == "option":
        document["options"] = {"rule": "angle"}
    elif defect == "repeated-output":
        flags = ["--only", "v2,v2"]
    text = json.dumps(document)
    if defect == "json":
        text = text[:-1]
    elif defect == "repeated":
        text = text.replace('"profile":', '"scale": {"kind": "unit"}, "profile":')
    return text, flags


def compute_golden_text(tmp_path) -> str:
    """Each corpus document's `compute` and then `mobius` output, each
    after a header line with the flags, and followed by the exit code and
    any stderr.  Regenerate (only when a record is meant to change) with::

        PYTHONPATH=src:tests python -c "import pathlib, tempfile; \\
            from test_cli import *; \\
            COMPUTE_GOLDEN_PATH.write_text(compute_golden_text( \\
                pathlib.Path(tempfile.mkdtemp())), encoding='utf-8')"
    """
    parts = []
    for i in range(CORPUS_SIZE):
        text, flags = corpus_case(i)
        path = tmp_path / f"doc{i}.json"
        path.write_text(text, encoding="utf-8")
        for argv in (["compute", *flags], ["mobius"]):
            parts.append(json.dumps({"doc": i, "argv": argv}) + "\n")
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([argv[0], "--input", str(path), *argv[1:]])
            parts.append(out.getvalue())
            parts.append(json.dumps({"exit": code, "stderr": err.getvalue()}) + "\n")
    return "".join(parts)


def test_compute_records_match_the_golden_file(tmp_path):
    assert compute_golden_text(tmp_path) == COMPUTE_GOLDEN_PATH.read_text(
        encoding="utf-8"
    )


def test_the_golden_corpus_never_maps_x_to_one_minus_x(tmp_path, monkeypatch):
    """``compute`` and ``mobius`` run the Sugeno side on ranked grades,
    which keep order, signs and opposites but not x -> 1 - x: the corpus
    prints its records with no call to a function that reads that map."""
    import symsug.capacity
    import symsug.mobius

    def refuse(*args):
        raise AssertionError("a ranked grade was mapped to 1 - x")

    monkeypatch.setattr(SymmetricScale, "negate", refuse)
    calls = [
        count_calls(monkeypatch, symsug.capacity, "conjugate"),
        count_calls(monkeypatch, symsug.capacity, "necessity_measure"),
        count_calls(monkeypatch, symsug.mobius, "reconstruct_from_conjugate"),
    ]
    assert compute_golden_text(tmp_path) == COMPUTE_GOLDEN_PATH.read_text(
        encoding="utf-8"
    )
    assert calls == [[], [], []]


# -- argument parsing --------------------------------------------------------------

CLI_MESSAGES_PATH = Path(__file__).parent / "golden" / "cli_messages.jsonl"
PROBLEM = "PROBLEM"  # stands for the path of the worked example in an argv
MESSAGE_COLUMNS = (30, 80)

# help, every argparse refusal, and trailing extras after a valid command
MESSAGE_ARGVS = (
    [],
    ["-h"],
    ["--help"],
    ["compute", "-h"],
    ["verify", "-h"],
    ["mobius", "-h"],
    ["mobius", "--input", PROBLEM, "-h"],
    ["nope"],
    ["comp", "--input", PROBLEM, "--all"],
    ["--"],
    ["--", "compute", "--input", PROBLEM, "--all"],
    ["--verbose", "compute", "--input", PROBLEM, "--all"],
    ["compute"],
    ["compute", "--all"],
    ["compute", "--input"],
    ["mobius"],
    ["compute", "--input", PROBLEM, "--mobius", "middle", "--all"],
    ["verify", "--law", "nope"],
    ["verify", "--n", "two"],
    ["compute", "--input", PROBLEM, "--all", "--only", "v1"],
    ["compute", "--input", PROBLEM, "--all", "extra"],
    ["compute", "--input", PROBLEM, "--all", "mobius"],
    ["compute", "--input", PROBLEM, "--all", "--", "x"],
    ["mobius", "--input", PROBLEM, "verify"],
    ["mobius", "--input", PROBLEM, "--", "x"],
    ["mobius", "--input", PROBLEM, "--seed", "1"],
    ["verify", "--n", "1", "--law", "worked-example-goldens", "compute"],
    ["verify", "--n", "1", "--law", "worked-example-goldens"],
    ["compute", "--inp", PROBLEM, "--all"],
    ["mobius", "--inp", PROBLEM],
    # where the command's own parser hands the line to the full parser
    ["compute", "--input", PROBLEM, "--h"],
    ["compute", "--bogus", "--input", PROBLEM, "--all"],
    ["compute", "-", "--input", PROBLEM],
    ["verify", "--"],
    ["verify", "--", "--n", "2"],
    ["mobius", "--", "--input", PROBLEM],
    ["compute", "--input", PROBLEM, "--all", "-h", "extra"],
)


def cli_messages_text(tmp_path) -> str:
    """One line per argv and terminal width: the exit code, stdout and
    stderr of ``main``, with ``PROBLEM`` standing for the worked example's
    path.  argparse words its messages differently across Python versions;
    this file is CPython 3.11's.  Regenerate (only when a message is meant
    to change) with::

        PYTHONPATH=src:tests python -c "import pathlib, tempfile; \\
            from test_cli import *; \\
            CLI_MESSAGES_PATH.write_text(cli_messages_text( \\
                pathlib.Path(tempfile.mkdtemp())), encoding='utf-8')"
    """
    path = write_document(tmp_path, WORKED_DOCUMENT)
    saved = os.environ.get("COLUMNS")
    lines = []
    try:
        for columns in MESSAGE_COLUMNS:
            os.environ["COLUMNS"] = str(columns)
            for argv in MESSAGE_ARGVS:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main([path if arg == PROBLEM else arg for arg in argv])
                record = {
                    "columns": columns,
                    "argv": argv,
                    "exit": code,
                    "stdout": out.getvalue(),
                    "stderr": err.getvalue(),
                }
                lines.append(json.dumps(record) + "\n")
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return "".join(lines)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the golden holds CPython 3.11's argparse wording",
)
def test_cli_messages_match_the_golden_file(tmp_path):
    assert cli_messages_text(tmp_path) == CLI_MESSAGES_PATH.read_text(encoding="utf-8")


def test_compute_and_mobius_never_build_the_verify_parser(
    worked_file, capsys, monkeypatch
):
    commands = (
        ["compute", "--input", str(worked_file), "--all"],
        ["mobius", "--input", str(worked_file)],
    )
    expected = [run(capsys, *argv) for argv in commands]

    def refuse():
        raise AssertionError("the verify parser was built")

    monkeypatch.setattr("symsug.cli.law_names", refuse)
    assert [run(capsys, *argv) for argv in commands] == expected
    assert all(code == 0 for code, _, _ in expected)

    monkeypatch.undo()
    code, out, err = run(capsys, "verify", "--law", "nope")
    assert code == 2 and out == ""
    assert "invalid choice: 'nope'" in err
    assert all(repr(name) in err for name in law_names())


def test_a_valid_command_line_builds_one_parser(worked_file, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _build_parser()
    full = len(built)
    assert full == 4  # the top-level parser and one per command

    def parsers(*argv):
        built.clear()
        code, _, _ = run(capsys, *argv)
        return code, len(built)

    problem = str(worked_file)
    assert parsers("compute", "--input", problem, "--all") == (0, 1)
    assert parsers("mobius", "--input", problem) == (0, 1)
    assert parsers("verify", "--n", "1", "--law", "worked-example-goldens") == (0, 1)
    # leftovers and unknown commands get the full parser's message
    assert parsers("compute", "--input", problem, "--all", "extra") == (2, 1 + full)
    assert parsers("nope") == (2, full)


def test_a_valid_command_line_queries_no_terminal_size(
    worked_file, capsys, monkeypatch
):
    def refuse(*args, **kwargs):
        raise AssertionError("the terminal size was looked up")

    monkeypatch.setattr(shutil, "get_terminal_size", refuse)
    problem = str(worked_file)
    for argv in (
        ["compute", "--input", problem, "--all"],
        ["mobius", "--input", problem],
        ["verify", "--n", "1", "--law", "worked-example-goldens"],
    ):
        assert run(capsys, *argv)[0] == 0


# argv tokens, drawn alone or as an option with its value: every option
# string, unique and ambiguous prefixes, help, separators, and valid and
# invalid values
PARSE_WORDS = """compute verify mobius comp --input --all --only --mobius --n
--levels --samples --seed --law --inp --al --s --l --h -h --help -- - extra"""
PARSE_TOKENS = (
    *([word] for word in PARSE_WORDS.split()),
    ["--input", PROBLEM],
    ["--inp", PROBLEM],
    [f"--input={PROBLEM}"],
    [PROBLEM],
    ["--only", "v1,sugeno_sym"],
    ["--mobius", "upper"],
    ["--mobius", "middle"],
    ["--n", "1"],
    ["--n", "two"],
    ["--n", "-1"],
    ["--levels", "2"],
    ["--samples", "3"],
    ["--seed", "4"],
    ["--law", "worked-example-goldens"],
    ["--law", "nope"],
)


def parse_outcome(parse, argv):
    """The namespace ``parse`` returns, without ``command``, or its exit
    code and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    assert out.getvalue() == err.getvalue() == ""
    return {key: value for key, value in vars(args).items() if key != "command"}


@settings(max_examples=300, deadline=None)
@given(
    head=st.sampled_from(("compute", "verify", "mobius")),
    tokens=st.lists(st.sampled_from(PARSE_TOKENS), max_size=6),
)
def test_the_quiet_parser_parses_as_the_full_parser(head, tokens):
    argv = [head, *(arg for token in tokens for arg in token)]
    with patch.dict(os.environ, {"COLUMNS": "80"}):
        assert parse_outcome(_parse, argv) == parse_outcome(
            lambda line: _build_parser().parse_args(line), argv
        )
