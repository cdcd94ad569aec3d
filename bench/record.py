"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/record.py --seeds 1-10 --out bench/results/BENCH_x.json

For every workload it runs ``run.py --trace 0`` once per seed and reports,
per end-to-end metric, the median, the quartiles and the spread (quartile
distance over the median).  It then makes one traced run on the first seed
and reports the per-layer metrics and the tracing overhead: the untraced
``ops_per_s`` of that seed minus the traced one.  Every run gets
``BENCHMARK.json``'s ``run_seconds`` as ``--seconds``.  Run from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    RUN_SECONDS = json.load(_fh)["run_seconds"]
WORKLOADS = ("analysis", "simulation", "cli")


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    detail = json.loads(next(line for line in out if line.startswith("detail "))[len("detail "):])
    return json.loads(out[-1]), detail


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = _seeds(args.seeds)

    git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    record = {"commit": git.stdout.strip() or None, "seconds": RUN_SECONDS, "seeds": seeds,
              "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            result, detail = run_once(workload, seed, 0)
            runs.append({"seed": seed, **result, "manifest_sha256": detail["manifest_sha256"],
                         "wall": detail["wall"], "latency_tail": detail["latency_tail"],
                         "failed_share": detail["failed_share"]})
            record["environment"] = detail["environment"]
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        names = runs[0]["metrics"]
        summary = {name: quartiles([r["metrics"][name]["value"] for r in runs]) for name in names}
        entry = {"runs": runs, "end_to_end": summary,
                 "failed_share": statistics.median(r["failed_share"] for r in runs)}
        traced, _ = run_once(workload, seeds[0], 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced = runs[0]["metrics"]["ops_per_s"]["value"]
        entry["per_layer"] = layers
        entry["tracing_overhead"] = {
            "seed": seeds[0],
            "untraced_ops_per_s": untraced,
            "traced_ops_per_s": layers["trace.ops_per_s"],
            "difference_ops_per_s": untraced - layers["trace.ops_per_s"],
        }
        record["workloads"][workload] = entry
        for name, q in summary.items():
            unit = runs[0]["metrics"][name]["unit"]
            print(f"{workload:<10} {name:<16} median {q['median']:.4f} {unit:<4} "
                  f"spread {q['spread']:.4f}", file=sys.stderr)
        print(f"{workload:<10} {'failed_share':<16} median {entry['failed_share']:.4f} ratio",
              file=sys.stderr)

    text = json.dumps(record, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
