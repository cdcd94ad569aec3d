"""One workload process: set up, signal readiness, run the timed loop, and
print one JSON result line.  Started by ``run.py``; not meant to be run by
hand.

The loop is closed with one client: each operation starts when the previous
one has finished.  It runs exactly the rounds ``workloads.generate`` made,
however long they take, so every run of a workload sees the same mix and
the same number of operations whatever the seed and whatever the code's
speed; the tail percentile and the cache load stay fixed across commits.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true", help="set up, report, exit")
    args = ap.parse_args()

    from pace import Clock, read_report, scaled

    clock = Clock()  # times the set-up and, where this process does the work, the loop
    t0 = time.perf_counter()
    import obsv_lab  # noqa: F401
    import_s = time.perf_counter() - t0

    import workloads
    from tracer import Tracer, summarize

    rounds = workloads.generate(args.workload, args.seed)
    workdir = None
    cli_traced = None
    if args.workload == "cli":
        workdir = os.path.join(HERE, "_work", f"cli-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        if args.trace:
            cli_traced = [sys.executable, os.path.join(HERE, "cli_traced.py"),
                          os.path.join(workdir, "spans.json"), os.path.join(workdir, "pace.txt")]
    executor = workloads.Executor(rounds, workdir=workdir)
    setup_pace = clock.span(0, clock.read())
    print("READY " + json.dumps({"import_s": import_s, "manifest": workloads.digest(rounds),
                                 "pace": [*setup_pace, clock.probe_s]}), flush=True)
    if args.setup_only or args.workload == "cli":
        clock.stop()  # on cli the commands run in child processes that probe themselves
    if args.setup_only:
        return 0

    tracer = Tracer()
    if args.trace and args.workload != "cli":
        tracer.install()

    # per operation, wall and reference seconds (pace.py)
    marks, cli_times, names, outcomes, failures = [], [], [], [], []
    traced_cli_s = []  # the span-recording reruns, kept out of the loop time
    for rnd in rounds:
        for op in rnd:
            start = clock.read()
            t = time.perf_counter()
            outcome, detail = executor.run(op)
            cli_times.append((time.perf_counter() - t, executor.cli_pace))
            marks.append((start, clock.read()))
            names.append(op.get("name", op["op"]))
            outcomes.append(outcome)
            if outcome != workloads.OK and len(failures) < 20:
                failures.append({"op": names[-1], "outcome": outcome, "detail": detail})
            if cli_traced and names[-1] not in names[:-1]:
                t = time.perf_counter()
                _trace_cli_command(cli_traced, op, executor, tracer)
                traced_cli_s.append(scaled(time.perf_counter() - t, read_report(cli_traced[3]))[1])
    clock.stop()
    if args.workload == "cli":
        # a command that left no speed report counts at its wall time
        times = [scaled(w, pace) if pace else (w, w) for w, pace in cli_times]
    else:
        times = [clock.span(a, b) for a, b in marks]
    latencies, latencies_ref = zip(*times)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result = {
        "latencies": latencies,
        "latencies_ref": latencies_ref,
        "probes": clock.probes,
        "names": names,
        "outcomes": outcomes,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "layers": summarize(tracer.spans) if args.trace else None,
        "traced_cli_s": traced_cli_s,
    }
    if workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def _trace_cli_command(prefix, op, executor, tracer) -> None:
    """Run the command once more under the span recorder and merge its spans.
    The timed run stays untraced, so command latencies stay clean; each
    command is traced once per run, which keeps a traced run under three
    minutes."""
    import subprocess

    spans_path = prefix[2]
    subprocess.run(prefix + op["argv"], cwd=executor.workdir, capture_output=True, timeout=170)
    with open(spans_path) as fh:
        spans = json.load(fh)
    offset = len(tracer.spans)
    tracer.spans.extend((s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, s[4])
                        for s in spans)


if __name__ == "__main__":
    sys.exit(main())
