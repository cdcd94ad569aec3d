"""Self-checks of the benchmark itself (not of obsv_lab).

    python3 bench/selftest.py

Run from the repository root.  It shows that:
  1. the same seed gives the same manifest digest and another seed a
     different one, for every workload;
  2. a planted wrong expectation is graded ``wrong`` and counted in the
     failed share, and an honest expectation is not;
  3. ``run.py`` exits non-zero, printing no result, in a directory that holds
     only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_digests() -> None:
    import workloads

    for workload in workloads.ROUND_BUILDERS:
        a = workloads.digest(workloads.generate(workload, 1))
        b = workloads.digest(workloads.generate(workload, 1))
        c = workloads.digest(workloads.generate(workload, 2))
        assert a == b, f"{workload}: seed 1 gave two digests"
        assert a != c, f"{workload}: seeds 1 and 2 gave one digest"
        print(f"ok  digest {workload}: seed 1 {a[:16]} (twice), seed 2 {c[:16]}")


def check_planted_expectation() -> None:
    import workloads

    sys.path.insert(0, os.path.join(ROOT, "src"))
    rounds = workloads.generate("analysis", 1)
    ops = [op for op in rounds[0] if op["op"] == "separate" and op["pair"] == "velocity"][:1]
    planted = copy.deepcopy(ops[0])
    planted["pair"] = "near"  # claims the pair cannot be separated; it can
    executor = workloads.Executor([ops + [planted]])
    outcomes = [executor.run(op)[0] for op in ops + [planted]]
    failed, wrong = workloads.grade(outcomes)
    assert outcomes == [workloads.OK, workloads.WRONG], outcomes
    assert (failed, wrong) == (1, 1), (failed, wrong)
    print(f"ok  planted expectation: outcomes {outcomes}, failed share {failed / len(outcomes)}")


def check_refuses_without_source() -> None:
    checkout = os.path.join(HERE, "_work", f"empty-{os.getpid()}")
    shutil.rmtree(checkout, ignore_errors=True)
    os.makedirs(checkout)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), checkout)
        shutil.copytree(HERE, os.path.join(checkout, "bench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=checkout, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without src/: exit {proc.returncode}, no result printed")


if __name__ == "__main__":
    check_digests()
    check_planted_expectation()
    check_refuses_without_source()
