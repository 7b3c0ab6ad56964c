"""Measure the benchmark's run-to-run spread and write the noise record.

    python3 perfbench/noise.py --runs 10 [--first-seed 0] [--out FILE]

Runs ``run.py --trace 0`` once per seed on every workload, round-robin,
so a slow host period hits all workloads alike.  For each workload and
end-to-end metric it records every run's value (and the unscaled time
beside it), then the min, quartiles, median, max and spread
(interquartile range over median, as ``statistics.quantiles(n=4)``
gives them) beside the metric's bound.  The default output is the
committed ``results/baseline/BENCH_suite.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRIC_LINE = re.compile(r"^(\S+) \S+ \S+ \(unscaled (\S+)\)$")


def one_run(workload: str, seed: int, seconds: int) -> dict:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    unscaled = {}
    host_ref_s = None
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            unscaled[match.group(1)] = float(match.group(2))
        elif line.startswith("host_ref_s "):
            host_ref_s = float(line.split()[1])
    return {
        "seed": seed,
        "exit": done.returncode,
        "wall_s": time.monotonic() - started,
        "samples": lines[0],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "host_ref_s": host_ref_s,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "unscaled": unscaled,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument(
        "--out", default=str(HERE / "results" / "baseline" / "BENCH_suite.json")
    )
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            run = one_run(workload, seed, spec["run_seconds"])
            runs[workload].append(run)
            print(f"seed {seed} {workload}: exit {run['exit']}, "
                  f"{run['wall_s']:.1f} s", file=sys.stderr)
    record = {
        "schema": "perfbench.noise/v1",
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    for workload, results in runs.items():
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in results]
            q1, mid, q3 = statistics.quantiles(values, n=4)
            summary[metric["name"]] = {
                "unit": metric["unit"], "bound": metric["bound"],
                "min": min(values), "q1": q1, "median": mid, "q3": q3,
                "max": max(values), "spread": (q3 - q1) / mid,
            }
            print(f"{workload:17s} {metric['name']:17s} median {mid:.6g} "
                  f"spread {summary[metric['name']]['spread']:.3f} "
                  f"(bound {metric['bound']})")
        record["workloads"][workload] = {"metrics": summary, "runs": results}
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
