"""Write the golden digests that check.py compares against.

    python3 perfbench/make_golden.py

Runs every op of every workload once for each seed in ``GOLDEN_SEEDS`` and
stores, per op, each command line's exit code and the SHA-256 of its
output.  An op that fails the cross-form checks is refused, so a golden
file never pins a wrong answer.  Regenerate only when the program's output
is meant to change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from check import GOLDEN_SEEDS, Checker, fingerprint, golden_path
from run import WORK_DIR, import_library, library_caches, run_op
from workloads import WORKLOADS, build_ops


def main() -> int:
    cli = import_library()
    if cli is None:
        return 2
    from symsug.verify import law_names

    caches = library_caches()
    WORK_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in GOLDEN_SEEDS:
            inputs = tempfile.mkdtemp(prefix="golden-", dir=WORK_DIR)
            try:
                ops = build_ops(workload, seed, inputs, law_names())
                checker = Checker(None)
                golden = {}
                for op in ops:
                    for clear in caches:
                        clear()
                    result = run_op(cli, op)
                    problems = checker.problems(op, result)
                    if problems:
                        print("refused: " + "; ".join(problems), file=sys.stderr)
                        return 1
                    golden[op.key] = fingerprint(result)
            finally:
                shutil.rmtree(inputs)
            with open(golden_path(workload, seed), "w", encoding="utf-8") as handle:
                lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in golden.items())
                handle.write("{\n" + ",\n".join(lines) + "\n}\n")
            print(f"{workload} seed {seed}: {len(golden)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
