"""The mutation check in ``mutants.py`` still fits the code it mutates.

Running the mutants takes minutes, so it is not part of the test suite;
these checks are fast and catch a mutant gone stale by a later edit.
"""

import sys

from mutants import MUTANTS, ROOT, outcome, run


def test_every_mutant_snippet_occurs_once_in_its_file():
    counts = {
        m.name: (ROOT / m.path).read_text(encoding="utf-8").count(m.snippet)
        for m in MUTANTS
    }
    assert {name: count for name, count in counts.items() if count != 1} == {}


def test_every_mutant_names_tests_that_exist():
    missing = []
    for mutant in MUTANTS:
        for node in mutant.tests:
            path, name = node.split("::")
            if f"def {name}(" not in (ROOT / path).read_text(encoding="utf-8"):
                missing.append((mutant.name, node))
    assert missing == []


def test_a_run_past_its_timeout_is_reported_as_timed_out():
    # a child that loops for five seconds, stopped after a tenth of one
    looping = "import time\nend = time.time() + 5\nwhile time.time() < end:\n    pass"
    assert outcome(run([sys.executable, "-c", looping], 0.1)) == ("timed out", None)
    assert outcome(run([sys.executable, "-c", "pass"], 30)) == ("survived", None)
