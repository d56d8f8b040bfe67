"""Opcode counts of a benchmark workload: work done, in a unit that does
not move with the host.

The script builds a workload's ops with ``perfbench/workloads.py`` for a
seed, runs one pass untraced and then one pass with every frame of
``src/symsug`` traced opcode by opcode (``frame.f_trace_opcodes``), each
op with the library's caches cleared, as ``perfbench/run.py`` runs it.
It prints the opcodes executed per module and for the largest code
objects.  Given two
checkouts or exports, it runs the same ops on each one's ``src`` and
prints both counts and their difference.

Only Python bytecode in ``src/symsug`` is counted: work in C, in
``fractions``, ``json`` or ``argparse``, is not.  So a count shows where
the work is and how it grows; fewer opcodes can still run slower, and a
count is never a speed-up on its own.  Two runs on one seed print the
same counts.  Run from the repository root, with the standard library
alone:

    python tests/opcounts.py compute_large --seed 7
    python tests/opcounts.py compute_large --seed 7 PARENT CHANGE

Pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compute_small", "compute_large", "verify_laws")
# every module is listed; code objects, the largest first, up to this many
CODE_OBJECT_ROWS = 15


def count(src: Path, workload: str, seed: int) -> Counter:
    """Opcodes executed per (module, code object) in ``src/symsug`` over
    one traced pass of the workload, after one untraced pass."""
    src = src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import symsug.cli as cli
    from symsug.verify import law_names
    from workloads import build_ops

    package = str(Path(cli.__file__).resolve().parent)
    if package != str(src / "symsug"):
        raise SystemExit(f"imported symsug from {package}, not {src}")
    clears = [
        value.cache_clear
        for name, module in list(sys.modules.items())
        if name.split(".")[0] == "symsug"
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]
    by_code: Counter = Counter()

    def opcode(frame, event, arg):
        if event == "opcode":
            by_code[frame.f_code] += 1
        return opcode

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_opcodes = True
        return opcode

    with tempfile.TemporaryDirectory() as tmp:
        ops = build_ops(workload, seed, tmp, law_names())
        for traced in (False, True):
            for op in ops:
                for clear in clears:
                    clear()
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    if traced:
                        sys.settrace(call)
                    try:
                        for argv in op.argvs:
                            cli.main(list(argv))
                    finally:
                        sys.settrace(None)
    counts: Counter = Counter()
    for code, n in by_code.items():
        counts[f"{Path(code.co_filename).stem}.{code.co_qualname}"] += n
    return counts


def counted(checkout: Path, workload: str, seed: int) -> Counter:
    """:func:`count` on ``checkout/src`` in a fresh interpreter."""
    command = [
        sys.executable, __file__, workload, "--seed", str(seed),
        "--child", str(checkout / "src"),
    ]
    result = subprocess.run(command, capture_output=True, text=True, check=True)
    return Counter(json.loads(result.stdout))


def by_module(counts: Counter) -> Counter:
    modules: Counter = Counter()
    for name, n in counts.items():
        modules[name.split(".")[0]] += n
    return modules


def report(counts: Counter) -> None:
    total = sum(counts.values())
    print(f"total {total:,} opcodes")
    for title, table, top in (
        ("module", by_module(counts), None),
        ("code object", counts, CODE_OBJECT_ROWS),
    ):
        print(f"\nper {title}:")
        for name, n in table.most_common(top):
            print(f"  {n:>12,}  {n / total:6.1%}  {name}")


def compare(first: Counter, second: Counter) -> None:
    total_a, total_b = sum(first.values()), sum(second.values())
    print(f"total {total_a:,} -> {total_b:,} ({total_b - total_a:+,})")
    for title, a, b, top in (
        ("module", by_module(first), by_module(second), None),
        ("code object", first, second, CODE_OBJECT_ROWS),
    ):
        print(f"\nper {title} (first, second, difference), largest changes first:")
        names = sorted(a.keys() | b.keys(), key=lambda name: -abs(b[name] - a[name]))
        for name in names[:top]:
            print(f"  {a[name]:>12,}  {b[name]:>12,}  {b[name] - a[name]:>+12,}  {name}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "checkouts", nargs="*", type=Path,
        help="two checkouts or exports to compare (default: count this one)",
    )
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    # intermixed: the checkouts may follow --seed, as the usage above shows
    args = parser.parse_intermixed_args(argv)
    if args.child:
        print(json.dumps(count(args.child, args.workload, args.seed)))
        return 0
    if not args.checkouts:
        report(counted(ROOT, args.workload, args.seed))
        return 0
    if len(args.checkouts) != 2:
        parser.error("give no checkout or two")
    first, second = (counted(path, args.workload, args.seed) for path in args.checkouts)
    compare(first, second)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
