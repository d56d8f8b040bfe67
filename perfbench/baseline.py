"""Run every workload on several seeds and write a summary with quartiles.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

Each run is ``run.py`` in a child process, one at a time, with the
``run_seconds`` of BENCHMARK.json: seeds 0..N-1 untraced for the
end-to-end metrics, then one traced run per workload on seed 0 for the
per-layer metrics.  Per end-to-end metric the summary gives the median,
the quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, which must stay below the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"

# which end-to-end metric, on which workload, each per-layer metric
# should move
LAYER_TO_END_TO_END = {
    "cli.self_ms": "latency_p50_ms on compute_small",
    "io.*": "latency_p50_ms and throughput_ops_s on compute_small; latency_p50_ms on compute_large (128-entry records)",
    "capacity.*": "throughput_ops_s on compute_small and verify_laws; latency_p50_ms on compute_large (n*2^n cover checks)",
    "mobius.*": "latency_p50_ms on compute_large; latency_p90_ms on verify_laws",
    "integrals.*": "latency_p50_ms on compute_large (variant1_terms and ranked_terms run twice per compute)",
    "rules.*": "throughput_ops_s on verify_laws; latency_p50_ms on compute_large (angle fold over 127 terms)",
    "scale.*": "latency_p50_ms on compute_large; throughput_ops_s on verify_laws",
    "verify.*": "throughput_ops_s on verify_laws",
    "trace.overhead_frac": "none: the cost of tracing itself",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[str, dict]:
    """The run's printed report and its final JSON result."""
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "system": platform.system()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"environment": environment(), "run_seconds": seconds, "seeds": args.seeds,
              "layer_to_end_to_end": LAYER_TO_END_TO_END, "workloads": {}}
    for workload in WORKLOADS:
        outputs = [run_once(workload, seed, seconds, 0) for seed in range(args.seeds)]
        # every metric by name and unit, latency_p90_ms and failed_ops_frac too
        print(outputs[0][0], flush=True)
        runs = [result for _, result in outputs]
        metrics = {}
        for name in bounds:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            print(f"{workload:14} {name:18} median {metrics[name]['median']:.6g} "
                  f"spread {metrics[name]['spread']:.4f} (bound {bounds[name]})", flush=True)
        _, traced = run_once(workload, 0, seconds, 1)
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": metrics,
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
