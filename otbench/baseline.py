"""Repeat the benchmark over seeds and summarize its spread.

    python3 otbench/baseline.py --seeds 1-10 --out otbench/baseline/set-1.json

Run from the root of an otlab checkout.  For every workload in
BENCHMARK.json and every seed it runs `run.py --trace 0` for run_seconds,
then one `--trace 1` run on the first seed.  For each end-to-end metric it
prints the median of the per-run values and their spread, (q3 - q1) /
median with Python's statistics.quantiles(values, n=4), which is what each
metric's bound in BENCHMARK.json is held against.  --out writes the per-run
values, the summary, the traced run's per-layer values and an environment
stamp as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: not correct\n{proc.stdout}")
    return result


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                                capture_output=True).stdout.strip() or None
    except OSError:
        commit = None
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit,
            "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="range such as 1-10")
    parser.add_argument("--out", help="write the values and summary here")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    out = {"environment": environment(), "seeds": seeds,
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list] = {}
        for seed in seeds:
            result = run(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for metric in spec["end_to_end"]:
            v = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            summary[metric["name"]] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / med,
                                       "bound": metric["bound"]}
            print(f"{workload:14s} {metric['name']:12s} median {med:9.4f} "
                  f"{metric['unit']:3s} spread {(q3 - q1) / med:.4f} "
                  f"(bound {metric['bound']})", flush=True)
        traced = run(workload, seeds[0], spec["run_seconds"], 1)
        out["workloads"][workload] = {
            "values": values, "summary": summary,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
