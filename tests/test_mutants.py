"""The mutation check in ``mutants.py`` still fits the code it mutates.

Running the mutants takes minutes, so it is not part of the test suite;
these checks are fast and catch a mutant gone stale by a later edit.
"""

from mutants import MUTANTS, ROOT


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
