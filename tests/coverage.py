"""Line coverage: which lines of ``src/symsug`` does the tier-1 suite
never run?

The script runs the tier-1 suite in this process under a ``sys.settrace``
hook that records each line of ``src/symsug`` that runs; it needs nothing
beyond the standard library and pytest.  It then prints every executable
line that never ran, as ``file:line  function  text``, and compares them
with ``GAPS`` below, which gives one reason per line.  A line that never
ran and is not listed, or a listed line that ran or is gone, is reported.
Lines are matched by file, function and text, not by number, so an edit
elsewhere in a file does not stale the list.

Run from the repository root, with pytest and hypothesis installed:

    python tests/coverage.py

The exit status is 0 when the suite passes and the lines that never ran
are exactly the listed ones.  Tier-1 runs several times slower under the
hook, and a child process the suite starts is not traced.  Pytest does not
collect this file: its name does not start with ``test_``.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "symsug"

# each line tier-1 never runs, with the reason; a line is keyed by file,
# function and stripped text, and a text that occurs twice is listed twice
SCRIPT = "runs only as ``python -m symsug.cli``, which tier-1 starts in a child"
TRACER_PIN = (
    "no caller; perfbench/tracing.py MEMBERS wraps it by name, so it stays "
    "until the tracer pins behaviour, not bindings (ROADMAP item 1)"
)
WITNESS = (
    "a law's failure branch: every law holds, or fails as pinned, on every "
    "tier-1 instance; planted faults per law would run it (ROADMAP item 2)"
)
XPASS = (
    "the xpass branch: every documented violation shows on every config "
    "tier-1 runs (ROADMAP item 2)"
)
GAPS: tuple[tuple[str, str, str, str], ...] = (
    ("cli.py", "<module>", "sys.exit(main())", SCRIPT),
    ("scale.py", "SymmetricScale.minus_one", "return self.value(-self._top)", TRACER_PIN),
    ("scale.py", "ScaleValue.magnitude", "return abs(self.signed)", TRACER_PIN),
    ("verify.py", "run_law", "return LawResult(", XPASS),
    ("verify.py", "run_law", 'law.name, law.kind, "xpass", checks,', XPASS),
    ("verify.py", "run_law", 'note or "expected violation was not exhibited",', XPASS),
    ("verify.py", "_reflection_involution", 'return f"-(-{a}) != {a}"', WITNESS),
    ("verify.py", "_reflection_de_morgan", 'return f"de morgan fails at ({a}, {b})"', WITNESS),
    ("verify.py", "_marichal_forms", 'return f"sym-max mismatch at ({a}, {b})"', WITNESS),
    ("verify.py", "_marichal_forms", 'return f"sym-min mismatch at ({a}, {b})"', WITNESS),
    ("verify.py", "_symmax_commutative", 'return f"sym-max not commutative at ({a}, {b})"', WITNESS),
    ("verify.py", "_symmin_commutative", 'return f"sym-min not commutative at ({a}, {b})"', WITNESS),
    ("verify.py", "_zero_neutral_absorbing", 'return f"neutral-element test wrong at {candidate}"', WITNESS),
    ("verify.py", "_zero_neutral_absorbing", 'return f"absorbing-element test wrong at {candidate}"', WITNESS),
    ("verify.py", "_one_neutral_absorbing", 'return f"neutral-element test wrong at {candidate}"', WITNESS),
    ("verify.py", "_one_neutral_absorbing", 'return f"absorbing-element test wrong at {candidate}"', WITNESS),
    ("verify.py", "_opposites_cancel", 'return f"{a} sym-max -{a} != 0"', WITNESS),
    ("verify.py", "_reflection_distributes", 'return f"reflection fails at ({a}, {b})"', WITNESS),
    ("verify.py", "_symmax_conditional_associative", 'return f"associativity fails at ({a}, {b}, {c})"', WITNESS),
    ("verify.py", "_symmin_associative", 'return f"associativity fails at ({a}, {b}, {c})"', WITNESS),
    ("verify.py", "_symmin_distributive", 'return f"distributivity fails at ({a}, {b}, {c})"', WITNESS),
    ("verify.py", "_rules_agree", 'return f"{rule} != plain fold on {_show(values)}"', WITNESS),
    ("verify.py", "_rules_agree", 'return f"{rule} order-dependent on {_show(values)}"', WITNESS),
    ("verify.py", "_fold_reflection", 'return f"{rule} breaks symmetry on {_show(values)}"', WITNESS),
    ("verify.py", "_fold_order_invariance", 'return f"{rule} order-dependent on {_show(values)}"', WITNESS),
    ("verify.py", "_fold_identities", "return witness.format(rule=rule, a=expected)", WITNESS),
    ("verify.py", "_conjugate_involution", 'return f"involution fails on {_table(v)}"', WITNESS),
    ("verify.py", "_possibility_maxitive", 'return f"possibility not maxitive for pi={_show(pi)}"', WITNESS),
    ("verify.py", "_possibility_maxitive", 'return f"necessity not minitive for pi={_show(pi)}"', WITNESS),
    ("verify.py", "_named_capacities_valid", 'return f"unanimity on {subset_text(b_mask)}: {problems[0]}"', WITNESS),
    ("verify.py", "_named_capacities_valid", 'return f"pi={_show(pi)}: {problems[0]}"', WITNESS),
    ("verify.py", "_k_maxitive_families", 'return f"possibility not {k}-maxitive for pi={_show(pi)}"', WITNESS),
    ("verify.py", "_k_maxitive_families", 'return f"unanimity on {subset_text(b_mask)} not {k}-maxitive"', WITNESS),
    ("verify.py", "_k_maxitive_families", 'return f"unanimity on {subset_text(b_mask)} wrongly {k - 1}-maxitive"', WITNESS),
    ("verify.py", "_classical_roundtrip", 'return f"reverse roundtrip fails on {_rationals(v.table)}"', WITNESS),
    ("verify.py", "_classical_unanimity", 'return f"indicator fails for B={subset_text(b_mask)}"', WITNESS),
    ("verify.py", "_interval_bounds_are_solutions", 'return f"endpoint not a solution on {_table(v)}"', WITNESS),
    ("verify.py", "_interval_is_solution_set", 'f"{len(solutions)} solutions but box volume {volume} "', WITNESS),
    ("verify.py", "_interval_is_solution_set", 'f"on {_table(v)}"', WITNESS),
    ("verify.py", "_interval_is_solution_set", 'else f"library rejects the lower bound on {_table(v)}"', WITNESS),
    ("verify.py", "_canonical_equals_lower", 'return f"{rule} canonical != lower on {_table(v)}"', WITNESS),
    ("verify.py", "_even_odd_equals_lower", 'return f"parity form != lower on {_table(v)}"', WITNESS),
    ("verify.py", "_reconstruction_exact", 'return f"reconstruction fails at {subset_text(mask)} on {_table(v)}"', WITNESS),
    ("verify.py", "_conjugate_reconstruction", "return (", WITNESS),
    ("verify.py", "_conjugate_reconstruction", 'f"conjugate reconstruction fails at "', WITNESS),
    ("verify.py", "_conjugate_reconstruction", 'f"{subset_text(mask)} on {_table(v)}"', WITNESS),
    ("verify.py", "_mobius_not_linear", '"transform unexpectedly linear on the witness"', WITNESS),
    ("verify.py", "_possibility_mobius", 'return f"closed form != lower for pi={_show(pi)}"', WITNESS),
    ("verify.py", "_possibility_mobius", 'return f"closed form not a solution for pi={_show(pi)}"', WITNESS),
    ("verify.py", "_possibility_mobius", 'return f"support off singletons for pi={_show(pi)}"', WITNESS),
    ("verify.py", "_necessity_mobius", 'return f"closed form != lower for pi={_show(pi)}"', WITNESS),
    ("verify.py", "_necessity_mobius", 'return f"closed form not a solution for pi={_show(pi)}"', WITNESS),
    ("verify.py", "_necessity_mobius", 'return f"support not a chain for pi={_show(pi)}"', WITNESS),
    ("verify.py", "_sugeno_representative_free", 'return f"transform form differs on {_at(v, f)}"', WITNESS),
    ("verify.py", "_symmetric_forms_agree", 'else f"one-pass form differs on {_at(v, f)}"', WITNESS),
    ("verify.py", "_symmetric_forms_agree", 'else f"three-block form differs on {_at(v, f)}"', WITNESS),
    ("verify.py", "_mixed_block_vanishes", 'return f"mixed block nonzero on {_at(v, f)}"', WITNESS),
    ("verify.py", "_first_difference", 'return f"{label} {verb} on {_at(v, f)}"', WITNESS),
    ("verify.py", "_sugeno_monotone", 'return f"split form decreases on {_at(v, f)} -> {_show(bumped.scores)}"', WITNESS),
    ("verify.py", "_sugeno_monotone", 'return f"variant 3 decreases on {_at(v, f)} -> {_show(bumped.scores)}"', WITNESS),
    ("verify.py", "_floor_tie_order_invariant", "return (", WITNESS),
    ("verify.py", "_floor_tie_order_invariant.<locals>.<listcomp>", 'f"ranking {[i + 1 for i in order]} gives {v.scale.value(folded)} "', WITNESS),
    ("verify.py", "_floor_tie_order_invariant", 'f"instead of {reference} on {_at(v, f)}"', WITNESS),
    ("verify.py", "_worked_example_goldens", 'else f"{name}: got {got}, expected {expected}"', WITNESS),
    ("verify.py", "_worked_example_goldens", 'else f"threshold terms {_show(variant3_terms(v, f))}"', WITNESS),
    ("verify.py", "_worked_example_goldens", 'f"interval at {subset_text(mask)} is [{lo}, {hi}]"', WITNESS),
    ("verify.py", "_at", 'return f"{_table(v)}, f={_show(f.scores)}"', WITNESS),
)


def executable_lines(path: Path) -> dict[int, str]:
    """Each line of ``path`` that holds an instruction, with the qualified
    name of the innermost function (or class body) whose code holds it."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    owner: dict[int, tuple[int, str]] = {}
    stack = [(code, 0)]
    while stack:
        block, depth = stack.pop()
        for _, _, line in block.co_lines():
            if line and owner.get(line, (-1, ""))[0] < depth:
                owner[line] = (depth, block.co_qualname)
        stack.extend(
            (const, depth + 1) for const in block.co_consts if hasattr(const, "co_lines")
        )
    return {line: name for line, (_, name) in owner.items()}


def run_suite(files: set[str]) -> tuple[int, dict[str, set[int]]]:
    """Pytest's exit status over tier-1, and the lines of ``files`` that ran."""
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename not in ran:
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main() -> int:
    start = time.perf_counter()
    paths = sorted(SOURCES.glob("*.py"))
    status, ran = run_suite({str(path) for path in paths})
    elapsed = time.perf_counter() - start
    missed = []
    total = 0
    for path in paths:
        lines = executable_lines(path)
        total += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(set(lines) - ran[str(path)]):
            missed.append((path.name, line, lines[line], text[line - 1].strip()))
    print(f"\n{len(missed)} of {total} executable lines in src/symsug never ran:")
    for name, line, function, text in missed:
        print(f"  {name}:{line}  {function}  {text}")
    found = Counter((name, function, text) for name, _, function, text in missed)
    listed = Counter(gap[:3] for gap in GAPS)
    unlisted, stale = found - listed, listed - found
    for key in sorted(unlisted.elements()):
        print(f"not listed in GAPS: {key}")
    for key in sorted(stale.elements()):
        print(f"listed in GAPS but ran or gone: {key}")
    print(f"tier-1 exit status {status}, {elapsed:.0f} s under the trace")
    return 0 if status == 0 and not unlisted and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
