"""Slow oracle: do ``verify``'s reference runs still print their pinned bytes?

``tests/golden/verify_n3_levels3.jsonl`` holds the 48 records of
``symsug verify --n 3`` at the default ``--levels 3``: every capacity on
three players and three grades against every signed profile, several
million checks.  This script runs that command on the sources under
``src/``, compares its output with the golden file byte for byte and
reports the wall time.  Then it runs the five smaller commands of
``PINNED`` and compares the first 16 hex digits of the SHA-256 of each
output with the pinned prefix, naming each command that differs.  It
takes minutes, so pytest does not collect it: its name does not start
with ``test_``.

Run from the repository root:

    python tests/verify_oracle.py           # compare with the golden file
    python tests/verify_oracle.py --write   # regenerate the golden file

The exit status is 0 when every output matches (or the golden file was
written, which skips the pinned commands) and 1 when one differs; for the
golden file the first differing record is printed.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verify_n3_levels3.jsonl"
COMMAND = ("verify", "--n", "3")
# each command, with the first 16 hex digits of the SHA-256 of its output
PINNED = (
    ("verify --n 3 --levels 2", "808101f97f8e043d"),
    ("verify --n 2 --levels 3", "5b2fbc6f1aa6cf33"),
    ("verify --n 3 --levels 2 --samples 200 --seed 4", "9c685ba9992c4b4b"),
    ("verify --n 4 --levels 5 --samples 50 --seed 9", "396ff68e56ff13f2"),
    (
        "verify --n 3 --levels 2 --samples 2500 --seed 1"
        " --law reconstruction-exact --law conjugate-reconstruction",
        "5a432f9a545556cb",
    ),
)


def run(command: tuple[str, ...]) -> tuple[bytes, float]:
    """The command's stdout and its wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "symsug.cli", *command],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    return result.stdout, time.perf_counter() - start


def pinned_mismatches() -> list[str]:
    """The commands of ``PINNED`` whose output has another prefix."""
    differ = []
    for command, prefix in PINNED:
        output, elapsed = run(tuple(command.split()))
        digest = hashlib.sha256(output).hexdigest()[:16]
        print(f"symsug {command}: {digest} in {elapsed:.1f} s")
        if digest != prefix:
            print(f"  differs from the pinned prefix {prefix}: symsug {command}")
            differ.append(command)
    return differ


def golden_differs(output: bytes) -> bool:
    """Compare with the golden file, printing the first differing record."""
    expected = GOLDEN.read_bytes()
    if output == expected:
        print(f"matches {GOLDEN.relative_to(ROOT)} ({len(expected)} bytes)")
        return False
    got, want = output.splitlines(), expected.splitlines()
    for index, (line, golden) in enumerate(zip(got, want), 1):
        if line != golden:
            print(f"record {index} differs:\n  got    {line!r}\n  golden {golden!r}")
            break
    else:
        print(f"{len(got)} records, the golden file has {len(want)}")
    return True


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    output, elapsed = run(COMMAND)
    print(f"symsug {' '.join(COMMAND)}: {elapsed:.1f} s wall time")
    if argv == ["--write"]:
        GOLDEN.write_bytes(output)
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    differs = golden_differs(output)
    return 1 if pinned_mismatches() or differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
