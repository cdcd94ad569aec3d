"""obsv-lab benchmark: one command, three workloads, known answers.

    python3 bench/run.py --workload analysis|simulation|cli --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it print every metric with its unit, its raw wall-clock value, the
environment and the manifest digest.  Timings are in reference seconds,
scaled by a machine-speed probe (pace.py).  A run measures one fixed round
of operations, however long it takes, so ``--seconds`` is recorded but does
not limit it.  See bench/README.md.
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

import workloads
from pace import PROBE_INTERVAL_S, REF_S, pin, read_report, scaled
from tracer import tail

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 3          # set-up samples per run; setup_s is their median
BLAS_THREADS = "1"  # pinned for every workload process
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("ops_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": int(BLAS_THREADS),
    }


def _worker(args, env, setup_only: bool):
    """Start a workload process: (set-up s, READY record, result or None).
    The set-up runs from here to the READY line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not line.startswith("READY "):
        raise RuntimeError(f"workload process exited with {code}")
    ready = json.loads(line[len("READY "):])
    return setup, ready, (json.loads(rest.strip().splitlines()[-1]) if not setup_only else None)


def _import_probe(env):
    """Fresh interpreter that imports obsv_lab, started through pace.py:
    (wall s, its speed report, in-process import s)."""
    code = "import time; t = time.perf_counter(); import obsv_lab; print(time.perf_counter() - t)"
    report = os.path.join(HERE, "_work", f"import-{os.getpid()}.txt")
    os.makedirs(os.path.dirname(report), exist_ok=True)
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, os.path.join(HERE, "pace.py"), report, "-c", code],
                         env=env, capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    pace = read_report(report)
    os.remove(report)
    return wall, pace, float(out.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("analysis", "simulation", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="recorded only: a run measures a fixed round of work (see README)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "obsv_lab", "__init__.py")):
        print("error: run from the repository root (src/obsv_lab not found)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS  # this process imports numpy for the record

    cpu = pin()
    # set-up samples, each scaled by the speed its own process measured
    setups, setups_ref, imports = [], [], []
    for _ in range(SETUPS):
        if args.workload == "cli":
            # the set-up every command pays: a fresh interpreter importing obsv_lab
            wall, pace, imp = _import_probe(env)
        else:
            wall, ready, _ = _worker(args, env, setup_only=True)
            pace, imp = ready["pace"], ready["import_s"]
        wall, ref = scaled(wall, pace)
        setups.append(wall)
        setups_ref.append(ref)
        imports.append(imp)
    _, ready, res = _worker(args, env, setup_only=False)

    lat = res["latencies_ref"]
    lat_wall = res["latencies"]
    attempted = len(lat)
    failed, wrong = workloads.grade(res["outcomes"])
    tail_value, tail_pct = tail(lat)
    e2e = {
        "setup_s": statistics.median(setups_ref),
        "ops_per_s": attempted / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    raw = {  # the same figures in wall-clock seconds
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / sum(lat_wall),
        "latency_p50_ms": statistics.median(lat_wall) * 1e3,
        "latency_tail_ms": tail(lat_wall)[0] * 1e3,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    failed_share = failed / attempted
    run_probes = res["probes"]

    if args.trace:
        metrics = dict(res["layers"])
        metrics["cli.import_s"] = statistics.median(imports)
        for name, _, _ in workloads.CLI_COMMANDS:
            times = [t for t, n in zip(lat, res["names"]) if n == name and args.workload == "cli"]
            metrics[f"cli.{name}.p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
        # on cli the timed commands run untraced; the recorder's cost shows
        # in the span-recording reruns, one per command
        traced = res["traced_cli_s"]
        metrics["trace.ops_per_s"] = len(traced) / sum(traced) if traced else e2e["ops_per_s"]
        out = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"manifest sha256 {ready['manifest']}")
    print(f"  {'':<16} {'reference':>12} {'wall':>12}")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.4f} {raw[name]:12.4f} {END_TO_END_UNITS[name]}"
              + (f"   (p{tail_pct:.1f} of {attempted} samples)" if name == "latency_tail_ms" else ""))
    print(f"  {'failed_share':<16} {failed_share:12.4f} ratio   ({failed} of {attempted}; {wrong} wrong)")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "manifest_sha256": ready["manifest"], "wall": raw,
        "probes": {"ref_s": REF_S, "interval_s": PROBE_INTERVAL_S, "cpu": cpu,
                   "count": len(run_probes),
                   "p50_s": statistics.median(run_probes), "min_s": min(run_probes),
                   "max_s": max(run_probes)},
        "latency_tail": {"percentile": tail_pct, "samples": attempted},
        "failed_share": failed_share, "failures": res["failures"],
        "setup_samples_s": setups, "setup_samples_ref_s": setups_ref,
        "import_samples_s": imports,
        "environment": environment(),
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
