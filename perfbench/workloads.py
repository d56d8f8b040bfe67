"""Seeded inputs for the benchmark workloads.

Every workload is a fixed list of ops built from the workload seed alone.
An op is a list of ``symsug`` command lines run one after another; the
documents an op reads are written to disk before any timing starts, so the
program under test only ever receives files.

* ``compute_small``: 100 small problem documents, 20 for each n in 2..6,
  half on the unit scale and half on levels scales, 70% of profiles signed,
  ties on purpose, and 5 deliberately invalid documents with the exit code
  the CLI must return.  Per-call costs (argument parsing, file reading, JSON
  and value parsing, capacity validation, record rendering) dominate.
* ``compute_large``: eight n = 7 unit-scale documents with signed, tied
  profiles.  The 128-mask tables make the subset loops, the fold rules,
  ``Fraction`` arithmetic and the rendering of large records dominate.
  (One n = 8 op takes about 80 ms, and its best time over a run still
  follows the host's drift; n = 7 takes about 30 ms.)
* ``verify_laws``: every registered law on three instance families on the
  two-level scale.  Tiny scale operations on interned grades dominate;
  file IO is negligible.

The mix of each workload (player counts, scale kinds, signedness, which
documents are invalid and how, which use the upper Mobius member) is fixed
by a document's index; the seed draws the values.  So every seed costs
about the same, and the spread of a metric over seeds is the host's.  The
sizes keep one pass over a workload's ops under a second, so that a
30-second run times every op about 30 times or more: an op's best time
over a run is steady only with that many tries on a shared machine, whose
speed drifts by tens of percent over seconds, and only when the op is
short next to that drift.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random

WORKLOADS = ("compute_small", "compute_large", "verify_laws")

SMALL_DOCS = 100
LARGE_DOCS = 8
LARGE_N = 7
# one invalid document in each block of 20, at indices with n = 6, 5, 4, 3, 2
SMALL_INVALID = {4: "nonmonotone", 23: "float", 42: "missing", 61: "nonmonotone", 80: "offscale"}
# the large documents that ask for the upper Mobius member
LARGE_UPPER = (1, 4)
UNIT_DENOMINATORS = (2, 3, 5, 10, 12, 100)
LARGE_DENOMINATORS = (10, 12, 100)
LABEL_WORDS = ("none", "poor", "weak", "fair", "good", "strong", "great", "top")

# verify flags per family; a sampling seed derived from the workload seed is
# appended to each
VERIFY_FAMILIES = (
    ("--n", "2", "--levels", "2", "--samples", "20"),
    ("--n", "3", "--levels", "2", "--samples", "20"),
    ("--n", "4", "--levels", "2", "--samples", "10"),
)


@dataclass(frozen=True)
class Document:
    """One generated problem file and the exit code the CLI must return."""

    name: str
    text: str
    expect_exit: int
    n: int


@dataclass(frozen=True)
class Op:
    """One unit of work: the command lines run in order for one input."""

    key: str
    argvs: tuple[tuple[str, ...], ...]
    document: Document | None = None


# -- documents -------------------------------------------------------------------


def _unit_text(rng: Random, grade: int, den: int) -> object:
    """Exact text for grade/den on the unit scale, in one of the accepted
    spellings: a terminating decimal, an unreduced p/q, or a JSON integer
    for the endpoints."""
    value = Fraction(grade, den)
    if value.denominator == 1 and rng.random() < 0.3:
        return int(value)
    if 100 % den == 0 and rng.random() < 0.7:
        hundredths = abs(grade) * (100 // den)
        sign = "-" if grade < 0 else ""
        return f"{sign}{hundredths // 100}.{hundredths % 100:02d}"
    return f"{grade}/{den}"


def _levels_text(rng: Random, grade: int, labels: list[str] | None) -> object:
    if labels is not None:
        text = labels[abs(grade)]
        return "-" + text if grade < 0 else text
    return grade if rng.random() < 0.6 else str(grade)


def _capacity_grades(rng: Random, n: int, top: int) -> list[int]:
    """A monotone grade table with v({}) = 0 and v(N) = top.  Small sets
    draw low grades, and the closure over covers creates ties."""
    size = 1 << n
    grades = [0] * size
    for mask in range(1, size):
        grades[mask] = rng.randint(0, (top * mask.bit_count() + n - 1) // n)
    for mask in sorted(range(size), key=int.bit_count):
        rest = mask
        while rest:
            bit = rest & -rest
            grades[mask] = max(grades[mask], grades[mask ^ bit])
            rest ^= bit
    grades[size - 1] = top
    grades[0] = 0
    return grades


def _profile_grades(rng: Random, n: int, top: int, signed: bool) -> list[int]:
    """Grades drawn from a small pool of magnitudes, so ties and opposite
    pairs (the inputs on which fold rules disagree) are common."""
    pool = [rng.randint(0, top) for _ in range(max(2, n // 2))]
    grades = []
    for _ in range(n):
        grade = rng.choice(pool)
        if signed and rng.random() < 0.5:
            grade = -grade
        grades.append(grade)
    return grades


def _subset_key(mask: int) -> str:
    members = [str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


def _document(
    rng: Random, n: int, unit: bool, signed: bool, upper: bool, den: int, invalid: str | None
) -> tuple[dict, int]:
    """A problem document as a JSON-ready dict and its expected exit code."""
    labels = None
    if unit:
        top = den
        scale: dict = {"kind": "unit"}

        def text(grade: int) -> object:
            return _unit_text(rng, grade, den)

    else:
        top = den
        scale = {"kind": "levels", "levels": top}
        if rng.random() < 0.4:
            labels = list(LABEL_WORDS[: top + 1])
            scale["labels"] = labels

        def text(grade: int) -> object:
            return _levels_text(rng, grade, labels)

    grades = _capacity_grades(rng, n, top)
    profile = _profile_grades(rng, n, top, signed)
    first = 0 if rng.random() < 0.5 else 1
    capacity = {_subset_key(mask): text(grades[mask]) for mask in range(first, 1 << n)}
    document: dict = {"scale": scale}
    if rng.random() < 0.3:
        document["players"] = [f"p{i}" for i in range(1, n + 1)]
    document["capacity"] = capacity
    document["profile"] = [text(g) for g in profile]
    if upper:
        document["options"] = {"mobius": "upper"}

    if invalid is None:
        return document, 0
    if invalid == "float":
        document["profile"][rng.randrange(n)] = 0.5
        return document, 1
    if invalid == "missing":
        del document[rng.choice(("capacity", "profile"))]
        return document, 1
    if invalid == "offscale":
        # an integer literal one grade beyond the top is syntactically fine
        # on both scale kinds, so it is a validation error
        document["profile"][rng.randrange(n)] = (1 if unit else top) + 1
        return document, 2
    if invalid == "nonmonotone":
        # n >= 3 here, so {1,2} is a proper subset and {1} a cover of it
        capacity["{1}"] = text(top)
        capacity["{1,2}"] = text(0)
        return document, 2
    raise ValueError(f"unknown invalid kind: {invalid}")


def compute_small_documents(seed: int) -> list[Document]:
    rng = Random(f"compute_small:{seed}")
    documents = []
    for index in range(SMALL_DOCS):
        # n cycles through 2..6 and each block of five shares a scale kind;
        # documents 10-19, 40-49 and 70-79 are unsigned, and the third block
        # of five in each 25 asks for the upper member
        n = 2 + index % 5
        unit = index // 5 % 2 == 0
        signed = index // 10 % 10 not in (1, 4, 7)
        upper = index // 5 % 5 == 2
        den = rng.choice(UNIT_DENOMINATORS) if unit else rng.randint(2, 7)
        invalid = SMALL_INVALID.get(index)
        body, expect = _document(rng, n, unit, signed, upper, den, invalid)
        documents.append(
            Document(f"small-{index:04d}.json", json.dumps(body), expect, n)
        )
    return documents


def compute_large_documents(seed: int) -> list[Document]:
    rng = Random(f"compute_large:{seed}")
    documents = []
    for index in range(LARGE_DOCS):
        # the same mix of denominators for every seed
        den = LARGE_DENOMINATORS[index % len(LARGE_DENOMINATORS)]
        body, expect = _document(rng, LARGE_N, True, True, index in LARGE_UPPER, den, None)
        documents.append(
            Document(f"large-{index:02d}.json", json.dumps(body), expect, LARGE_N)
        )
    return documents


# -- ops -------------------------------------------------------------------------------


def document_ops(documents: list[Document], directory: str) -> list[Op]:
    """Write the documents into ``directory`` and return one op per
    document: ``compute --all`` followed by ``mobius``."""
    ops = []
    for document in documents:
        path = os.path.join(directory, document.name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(document.text)
        argvs = (("compute", "--input", path, "--all"), ("mobius", "--input", path))
        ops.append(Op(document.name, argvs, document))
    return ops


def verify_ops(seed: int, laws: list[str]) -> list[Op]:
    """One ``verify --law NAME`` op per registered law and family.

    Each family gets a sampling seed of its own.  A law's random stream
    depends only on the sampling seed, and a law that stops at its first
    finding (``variant1-representative-sensitivity``) costs two to three
    times more on some seeds than on others; with one seed shared by the
    three families those costs would add up instead of averaging out."""
    ops = []
    for index, family in enumerate(VERIFY_FAMILIES):
        flags = family + ("--seed", str(seed * len(VERIFY_FAMILIES) + index))
        for law in laws:
            key = " ".join(family) + " " + law
            ops.append(Op(key, (("verify", *flags, "--law", law),)))
    return ops


def build_ops(workload: str, seed: int, directory: str, laws: list[str]) -> list[Op]:
    if workload == "compute_small":
        return document_ops(compute_small_documents(seed), directory)
    if workload == "compute_large":
        return document_ops(compute_large_documents(seed), directory)
    if workload == "verify_laws":
        return verify_ops(seed, laws)
    raise ValueError(f"unknown workload: {workload}")
