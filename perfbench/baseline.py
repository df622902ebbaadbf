#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise it as a baseline.

Run from the repository root:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each seed 1 to 10 this makes one untraced run of every workload in
BENCHMARK.json, the workloads in turn, so that a drift of the host's speed
over the minutes the script takes spreads over every workload rather than
shifting one of them. Then it makes one traced run of each workload on
seed 1. It records, per end-to-end metric,
the median, the quartiles as statistics.quantiles(values, n=4) gives them
and their distance as a share of the median; per-layer metrics come from
the traced run. Each run's record (git SHA, Python, numpy, BLAS threads,
src/ line count) is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


SEEDS = range(1, 11)


def _run(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("# record "))[len("# record "):])
    return record, json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    runs = {name: [] for name in names}
    for seed in SEEDS:
        for name in names:
            record, result = _run(bench, name, seed, 0)
            runs[name].append({"record": record, "result": result})
            print(name, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  file=sys.stderr, flush=True)
    summary = {"seeds": list(SEEDS), "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        end_to_end = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs[name]]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": statistics.median(values),
                "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / statistics.median(values),
                "bound": metric["bound"], "values": values}
        record, traced = _run(bench, name, SEEDS[0], 1)
        summary["workloads"][name] = {
            "end_to_end": end_to_end,
            "failed": sum(r["result"]["failed"] for r in runs[name]) + traced["failed"],
            "attempted": sum(r["result"]["attempted"] for r in runs[name]) + traced["attempted"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "records": [r["record"] for r in runs[name]] + [record]}
        for metric, stats in end_to_end.items():
            print(f"{name} {metric}: median {stats['median']:.5g} "
                  f"iqr/median {stats['iqr_share']:.4f} (bound {stats['bound']})",
                  file=sys.stderr, flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
