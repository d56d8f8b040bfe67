"""End-to-end and per-layer benchmark for symsug.

    python3 perfbench/run.py --workload compute_small --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  Every op calls ``symsug.cli.main`` in-process, in a
closed loop with one client, so the timings measure the library rather
than interpreter start-up; ``setup_s`` measures start-up on its own, as
the median wall time of fresh interpreters that ``import symsug.cli``.
Library caches are cleared before every op, since each real CLI call
starts with them empty.

``--trace 0`` runs whole passes over the workload's ops until
``--seconds`` have elapsed and reports the end-to-end metrics listed in
BENCHMARK.json:

* ``latency_p50_ms``: median over the workload's distinct ops of each op's
  best latency over the passes (``latency_p90_ms`` likewise, printed only
  when there are at least 100 distinct ops);
* ``throughput_ops_s``: distinct ops divided by the sum of those best
  latencies, i.e. ops per second of the single client at each op's best;
* ``peak_rss_mb``: peak resident memory of this process after the passes;
* ``setup_s``: median over 21 interpreter spawns spread over the run.

The op latencies, and so the two metrics made from them, are scaled to a
nominal host speed: a fixed calibration loop (calibrate.py) is timed
about ten times a second between ops, and every op time is multiplied by
``host_factor``, the loop's nominal time over its time in this run.  The
host's speed drifts by a third between runs of the same code, and the
ops' best times drift with it; scaled, they drift by about 5%.  The
unscaled figures and the factor are printed on the line before the
result.  ``setup_s`` is not scaled: interpreter spawns do not follow the
loop, and their median is steady unscaled.

``--trace 1`` runs one pass untraced and one traced (see tracing.py) and
reports the per-layer metrics.  Outputs are checked after the timed region
(see check.py); ``failed_ops_frac`` is printed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

import calibrate
from check import Checker, OpResult, digested, load_golden
from workloads import WORKLOADS, Op, build_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_SPAWNS = 21
CALIBRATION_INTERVAL_S = 0.1
# the highest percentile reported must have at least 10 samples beyond it
P90_MIN_SAMPLES = 100
SPAWN_TIMEOUT_S = 60
# a fresh interpreter importing the CLI.  -S: the library needs only the
# standard library, and site-packages start-up hooks are the environment's
# cost, not the library's
SETUP_COMMAND = (sys.executable, "-S", "-c", "import symsug.cli")


def latency_metrics(seconds: list[float]) -> dict[str, float]:
    """Median latency, and p90 only when there are at least
    ``P90_MIN_SAMPLES`` samples."""
    ms = [s * 1000 for s in seconds]
    result = {"latency_p50_ms": statistics.median(ms)}
    if len(ms) >= P90_MIN_SAMPLES:
        result["latency_p90_ms"] = statistics.quantiles(ms, n=10, method="inclusive")[8]
    return result


def setup_environment() -> dict:
    """Environment for the ``setup_s`` interpreters.  Bytecode is cached
    under ``WORK_DIR``, as an installed package has it.  A first spawn, not
    counted, writes that cache and checks that the checkout's copy is the
    one imported."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(WORK_DIR / "pycache"))
    probe = subprocess.run(
        [*SETUP_COMMAND[:-1], "import symsug.cli; print(symsug.cli.__file__)"],
        env=env, capture_output=True, text=True, check=True, timeout=SPAWN_TIMEOUT_S,
    )
    if Path(probe.stdout.strip()).resolve() != SRC / "symsug" / "cli.py":
        raise RuntimeError(f"a fresh interpreter imported {probe.stdout.strip()}")
    return env


def _spawn_seconds(command: list[str], env: dict) -> float:
    """Wall time from spawn to exit.  ``Popen.wait`` with a timeout polls
    in steps of up to 50 ms, so the wait blocks and a watchdog thread kills
    a child that hangs."""
    start = time.perf_counter()
    with subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL) as child:
        watchdog = threading.Timer(SPAWN_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{command} exited with {code}")
    return elapsed


def library_caches() -> list:
    """The ``cache_clear`` of every memoized function in the library."""
    clears = []
    for name, module in list(sys.modules.items()):
        if name == "symsug" or name.startswith("symsug."):
            for value in vars(module).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clears.append(clear)
    return clears


def run_op(cli, op: Op) -> OpResult:
    """Run an op's command lines; an exception escaping ``main`` is
    reported on stderr and recorded as exit code -1, which fails the op."""
    exits, outputs = [], []
    start = time.perf_counter()
    for argv in op.argvs:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                exits.append(cli.main(list(argv)))
        except Exception:
            traceback.print_exc()
            exits.append(-1)
        outputs.append(out.getvalue())
    return OpResult(op.key, tuple(exits), tuple(outputs), time.perf_counter() - start)


def run_passes(cli, ops: list[Op], seconds: float, caches: list, tracer=None, before_op=None):
    """Whole passes over ``ops`` until ``seconds`` have elapsed (at least
    one pass); returns the results in order and the wall time.

    Passes after the first run the ops in a seeded shuffled order, so that
    an op's repeats do not all fall at the same phase of any periodic
    slowdown of the host.  Their results keep only output digests, so
    memory does not grow with the number of passes.  ``before_op(elapsed)``
    runs between ops."""
    results = []
    start = time.perf_counter()
    order = ops
    while True:
        first_pass = not results
        for op in order:
            if before_op is not None:
                before_op(time.perf_counter() - start)
            for clear in caches:
                clear()
            # like a fresh process, each op starts with no garbage left by
            # the one before; the survivors are harness state, which later
            # collections need not scan
            gc.collect()
            gc.freeze()
            if tracer is not None:
                tracer.op = len(results)
            result = run_op(cli, op)
            results.append(result if first_pass else digested(result))
        if time.perf_counter() - start >= seconds:
            return results, time.perf_counter() - start
        order = random.Random(len(results)).sample(ops, len(ops))


def best_latencies(results: list[OpResult]) -> dict[str, float]:
    """Each distinct op's lowest latency over the run's passes."""
    best: dict[str, float] = {}
    for result in results:
        best[result.key] = min(result.seconds, best.get(result.key, result.seconds))
    return best


def check_results(checker: Checker, ops: list[Op], results: list[OpResult]) -> list[list[str]]:
    by_key = {op.key: op for op in ops}
    return [checker.problems(by_key[result.key], result) for result in results]


def verify_checks(results: list[OpResult]) -> int:
    """Sum of the ``checks`` fields of the verify records among results."""
    total = 0
    for result in results:
        for text in result.outputs:
            for line in text.splitlines():
                record = json.loads(line)
                if "law" in record:
                    total += record["checks"]
    return total


def host_factor(calibration_times: list[float], passes: int) -> float:
    """``calibrate.NOMINAL_S`` over the calibration loop's time at the
    quantile that an op's best of ``passes`` tries estimates, 1/(passes+1):
    the factor that scales this run's times to the nominal host speed."""
    ordered = sorted(calibration_times)
    return calibrate.NOMINAL_S / ordered[len(ordered) // (passes + 1)]


def timed_run(cli, ops, seconds, caches, checker) -> tuple[dict, list, dict]:
    """End-to-end metrics.  On a shared machine the CPU speed can drift by
    tens of percent within seconds, so each op is timed at its best pass,
    the setup spawns are spread evenly over the run instead of taken in one
    burst, and the ops' times are scaled by the host factor of the
    calibration loop timed between them (see calibrate.py)."""
    env = setup_environment()
    setup_times: list[float] = []
    calibration_times: list[float] = []

    def before_op(elapsed: float) -> None:
        if len(setup_times) < SETUP_SPAWNS and elapsed >= len(setup_times) * seconds / SETUP_SPAWNS:
            setup_times.append(_spawn_seconds(list(SETUP_COMMAND), env))
        if elapsed >= len(calibration_times) * CALIBRATION_INTERVAL_S:
            calibration_times.append(calibrate.seconds())

    results, wall = run_passes(cli, ops, seconds, caches, before_op=before_op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_times) < SETUP_SPAWNS:
        setup_times.append(_spawn_seconds(list(SETUP_COMMAND), env))
    problems = check_results(checker, ops, results)
    best = best_latencies(results)
    passes = len(results) // len(ops)
    factor = host_factor(calibration_times, passes)
    latency = latency_metrics([best_s * factor for best_s in best.values()])
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_ops_s": len(best) / (sum(best.values()) * factor),
        "latency_p50_ms": latency["latency_p50_ms"],
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "ops": len(best), "passes": passes, "wall_s": wall, "calibration_runs": len(calibration_times),
        "host_factor": factor,
        "unscaled_latency_p50_ms": metrics["latency_p50_ms"] / factor,
        "unscaled_throughput_ops_s": metrics["throughput_ops_s"] * factor,
    }
    if "latency_p90_ms" in latency:
        extra["latency_p90_ms"] = latency["latency_p90_ms"]
    return metrics, problems, extra


def traced_run(cli, ops, caches, checker, spans_path: Path) -> tuple[dict, list, dict]:
    from tracing import Tracer

    untraced, plain_wall = run_passes(cli, ops, 0, caches)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = run_passes(cli, ops, 0, caches, tracer)
    finally:
        tracer.restore()
    problems = check_results(checker, ops, untraced + traced)
    metrics = tracer.metrics()
    metrics["io.bytes_out"] = sum(len(out.encode("utf-8")) for r in traced for out in r.outputs)
    metrics["verify.checks"] = verify_checks(traced)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    tracer.write_spans(str(spans_path))
    extra = {"ops": len(traced), "spans": len(tracer.spans), "spans_file": str(spans_path)}
    return metrics, problems, extra


def import_library():
    """``symsug.cli`` from this checkout's ``src``, or None (with a message)
    when the sources are missing or another copy was imported."""
    if not (SRC / "symsug" / "cli.py").is_file():
        print(f"error: no symsug sources under {SRC}", file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import symsug.cli as cli

    if Path(cli.__file__).resolve() != SRC / "symsug" / "cli.py":
        print(f"error: imported symsug from {cli.__file__}", file=sys.stderr)
        return None
    return cli


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_library()
    if cli is None:
        return 2
    from symsug.verify import law_names

    units = declared_metrics(bool(args.trace))
    WORK_DIR.mkdir(exist_ok=True)
    inputs = tempfile.mkdtemp(prefix="inputs-", dir=WORK_DIR)
    try:
        ops = build_ops(args.workload, args.seed, inputs, law_names())
        caches = library_caches()
        checker = Checker(load_golden(args.workload, args.seed))
        run_op(cli, ops[0])  # warm-up: first-use costs inside the process
        if args.trace:
            spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, problems, extra = traced_run(cli, ops, caches, checker, spans_path)
        else:
            metrics, problems, extra = timed_run(cli, ops, args.seconds, caches, checker)
    finally:
        shutil.rmtree(inputs)

    failures = [p for p in problems if p]
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, golden "
          f"{'yes' if checker.golden is not None else 'no'}")
    for name, unit in units.items():
        print(f"  {name:34} {metrics[name]!r:>24} {unit}")
    if not args.trace:
        if "latency_p90_ms" in extra:
            print(f"  {'latency_p90_ms':34} {extra['latency_p90_ms']!r:>24} ms ({extra['ops']} ops)")
        else:
            print(f"  {'latency_p90_ms':34} {'omitted':>24} ({extra['ops']} ops < {P90_MIN_SAMPLES})")
    print(f"  {'failed_ops_frac':34} {len(failures) / len(problems)!r:>24} ({len(failures)} of {len(problems)})")
    print("  " + ", ".join(f"{k} {v!r}" for k, v in extra.items() if k != "latency_p90_ms"))
    for found in failures[:10]:
        print("  FAILED " + "; ".join(found), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(problems),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
