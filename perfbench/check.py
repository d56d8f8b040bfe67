"""Output checks behind ``failed`` and ``failed_ops_frac``.

An op fails when any of its command lines exits with the wrong code or
prints output that does not pass these checks:

* for committed seeds, every record must match the golden digest byte for
  byte (``golden/<workload>-seed<seed>.json``, made by ``make_golden.py``);
* for any seed, compute and mobius records must agree with the library's
  other forms of the same quantity (see :func:`cross_form_problems`), and
  verify records must report an ok status;
* an op repeated in a later pass must print exactly what it printed first.

Checking runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace

from workloads import Op

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# the default seed and one held out while the benchmark was written
GOLDEN_SEEDS = (0, 7)
OK_STATUSES = ("pass", "xfail", "info")
# the classical transforms walk every submask, O(3^n); skip them above this
CLASSICAL_MAX_N = 8


@dataclass(frozen=True)
class OpResult:
    """What one op printed and returned, and how long it took."""

    key: str
    exits: tuple[int, ...]
    outputs: tuple[str, ...]
    seconds: float
    digested: bool = False  # outputs hold SHA-256 digests, not the text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digested(result: OpResult) -> OpResult:
    if result.digested:
        return result
    return replace(result, outputs=tuple(digest(out) for out in result.outputs), digested=True)


def fingerprint(result: OpResult) -> list[list]:
    """Exit code and output digest of each command line of an op."""
    return [list(pair) for pair in zip(result.exits, digested(result).outputs)]


def golden_path(workload: str, seed: int) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}-seed{seed}.json")


def load_golden(workload: str, seed: int) -> dict | None:
    try:
        with open(golden_path(workload, seed), encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None


class Checker:
    """Checks op results; each distinct op is checked in depth once."""

    def __init__(self, golden: dict | None) -> None:
        self.golden = golden
        self._seen: dict[str, list[list]] = {}

    def problems(self, op: Op, result: OpResult) -> list[str]:
        prints = fingerprint(result)
        first = self._seen.get(op.key)
        if first is not None:
            return [] if prints == first else [f"{op.key}: output differs from its first run"]
        self._seen[op.key] = prints
        found = []
        if self.golden is not None:
            expected = self.golden.get(op.key)
            if expected is None:
                found.append(f"{op.key}: no golden record")
            elif prints != expected:
                found.append(f"{op.key}: output differs from the golden record")
        try:
            if op.document is not None:
                found += document_problems(op, result)
            else:
                found += verify_problems(op, result)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            # unparseable or misshapen output
            found.append(f"{op.key}: malformed output ({type(exc).__name__}: {exc})")
        return found


def verify_problems(op: Op, result: OpResult) -> list[str]:
    law = op.argvs[0][-1]
    if result.exits != (0,):
        return [f"{op.key}: exit {result.exits[0]}, expected 0"]
    lines = result.outputs[0].splitlines()
    if len(lines) != 1:
        return [f"{op.key}: {len(lines)} records, expected 1"]
    record = json.loads(lines[0])
    if record["law"] != law:
        return [f"{op.key}: record names law {record['law']!r}"]
    if record["status"] not in OK_STATUSES:
        return [f"{op.key}: status {record['status']}"]
    if not isinstance(record["checks"], int) or record["checks"] < 0:
        return [f"{op.key}: bad check count {record['checks']!r}"]
    return []


def document_problems(op: Op, result: OpResult) -> list[str]:
    expect = op.document.expect_exit
    if result.exits != (expect,) * len(op.argvs):
        return [f"{op.key}: exits {list(result.exits)}, expected {expect}"]
    if expect != 0:
        if any(result.outputs):
            return [f"{op.key}: invalid document produced records"]
        return []
    compute_lines = result.outputs[0].splitlines()
    mobius_lines = result.outputs[1].splitlines()
    if len(compute_lines) != 1 or len(mobius_lines) != 3:
        return [f"{op.key}: expected 1 compute and 3 mobius records"]
    record = json.loads(compute_lines[0])
    interval, floor, angle = (json.loads(line) for line in mobius_lines)
    return [f"{op.key}: {text}" for text in cross_form_problems(op.document.text, record, interval, floor, angle)]


def cross_form_problems(
    text: str, record: dict, interval: dict, floor: dict, angle: dict
) -> list[str]:
    """Compare a document's compute and mobius records with forms the
    command does not print: the explicit and transform forms of the
    symmetric Sugeno integral, the even-odd transform, the one-pass and
    classical-transform forms of the Choquet integrals."""
    from symsug.integrals import (
        choquet_mobius,
        choquet_symmetric_explicit,
        sipos_mobius,
        sugeno_symmetric_explicit,
        sugeno_symmetric_mobius,
        to_real_capacity,
        to_real_profile,
    )
    from symsug.io import fraction_text, load_problem, set_function_record
    from symsug.mobius import (
        classical_mobius,
        classical_zeta,
        even_odd_mobius,
        ordinal_mobius_interval,
    )

    problem = load_problem(text)
    v, f = problem.capacity, problem.profile
    unit = problem.scale.kind == "unit"
    nonnegative = f.is_nonnegative
    found = []

    expected_keys = [
        name
        for name, applies in (
            ("choquet", unit and nonnegative),
            ("choquet_sym", unit),
            ("choquet_asym", unit),
            ("sugeno", nonnegative),
            ("sugeno_sym", True),
            ("v1", True),
            ("v2", True),
            ("v3", True),
            ("mobius_interval", True),
            ("diagnostics", True),
        )
        if applies
    ]
    if list(record) != expected_keys:
        found.append(f"record keys {list(record)}, expected {expected_keys}")
        return found

    bounds = ordinal_mobius_interval(v)
    sugeno_forms = {
        "explicit": sugeno_symmetric_explicit(v, f),
        "mobius on lower": sugeno_symmetric_mobius(bounds.lower, f),
        "mobius on upper": sugeno_symmetric_mobius(bounds.upper, f),
    }
    for form, value in sugeno_forms.items():
        if record["sugeno_sym"] != str(value):
            found.append(f"sugeno_sym {record['sugeno_sym']} != {form} form {value}")

    lower = record["mobius_interval"]["lower"]
    upper = record["mobius_interval"]["upper"]
    if interval.get("transform") != "interval":
        found.append("first mobius record is not the interval")
    if (interval["lower"], interval["upper"]) != (lower, upper):
        found.append("compute and mobius print different intervals")
    if upper != set_function_record(v):
        found.append("interval upper bound is not the capacity")
    for name, canonical in (("floor", floor), ("angle", angle)):
        if canonical.get("rule") != name or canonical["table"] != lower:
            found.append(f"{name} canonical table != interval lower bound")
    small = v.n <= CLASSICAL_MAX_N
    if small and set_function_record(even_odd_mobius(v)) != lower:
        found.append("even-odd transform != interval lower bound")

    if unit:
        rv, rf = to_real_capacity(v), to_real_profile(f)
        explicit = fraction_text(choquet_symmetric_explicit(rv, rf))
        if record["choquet_sym"] != explicit:
            found.append(f"choquet_sym {record['choquet_sym']} != one-pass form {explicit}")
        if small:
            m = classical_mobius(rv)
            if classical_zeta(m).table != rv.table:
                found.append("classical zeta does not invert the transform")
            if fraction_text(sipos_mobius(m, rf)) != record["choquet_sym"]:
                found.append("choquet_sym != classical transform form")
            if fraction_text(choquet_mobius(m, rf)) != record["choquet_asym"]:
                found.append("choquet_asym != classical transform form")
    return found
