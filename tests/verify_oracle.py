"""Slow oracle: does the default ``verify --n 3`` still print its golden bytes?

``tests/golden/verify_n3_levels3.jsonl`` holds the 48 records of
``symsug verify --n 3`` at the default ``--levels 3``: every capacity on
three players and three grades against every signed profile, several
million checks.  This script runs that command on the sources under
``src/``, compares its output with the golden file byte for byte and
reports the wall time.  It takes minutes, so pytest does not collect it:
its name does not start with ``test_``.

Run from the repository root:

    python tests/verify_oracle.py           # compare with the golden file
    python tests/verify_oracle.py --write   # regenerate the golden file

The exit status is 0 when the output matches (or was written) and 1 when
it differs, in which case the first differing record is printed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "verify_n3_levels3.jsonl"
COMMAND = ("verify", "--n", "3")


def run() -> tuple[bytes, float]:
    """The command's stdout and its wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "symsug.cli", *COMMAND],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    return result.stdout, time.perf_counter() - start


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    output, elapsed = run()
    print(f"symsug {' '.join(COMMAND)}: {elapsed:.1f} s wall time")
    if argv == ["--write"]:
        GOLDEN.write_bytes(output)
        print(f"wrote {GOLDEN.relative_to(ROOT)}")
        return 0
    expected = GOLDEN.read_bytes()
    if output == expected:
        print(f"matches {GOLDEN.relative_to(ROOT)} ({len(expected)} bytes)")
        return 0
    got, want = output.splitlines(), expected.splitlines()
    for index, (line, golden) in enumerate(zip(got, want), 1):
        if line != golden:
            print(f"record {index} differs:\n  got    {line!r}\n  golden {golden!r}")
            break
    else:
        print(f"{len(got)} records, the golden file has {len(want)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
