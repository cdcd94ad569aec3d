"""Machine-speed probes, so that timings do not drift with the host.

The benchmark's reference machine is a 2-core virtual machine on a shared
host.  Its CPU speed moves with the host's other tenants: the same fixed
pure-Python work takes from 1x to 1.8x its fastest time, in phases that
last from under a second to several minutes, and process CPU time moves
with wall time, so it is not descheduling.  Raw wall times of whole runs
move by 10-35% with it.

So every timing is also taken in *reference seconds*.  A probe times one
fixed unit of pure-Python work, about 1 ms, that does not touch
``obsv_lab``: the interpreter loop, integer and float arithmetic, dict and
list traffic.  A stretch of ``t`` wall seconds between two probes that
took ``p0`` and ``p1`` counts as ``t * REF_S / mean(p0, p1)`` reference
seconds: its duration on this machine when it runs at full speed.

The process that does the work probes itself: a ``Clock`` takes a probe
from a timer signal every PROBE_INTERVAL_S, so a long operation is scaled by
the speed the machine had while it ran, and short operations run back to
back with no probe between them.  Each probe is smoothed over its
neighbours, and probe time is left out of every interval.  A command that
runs in an interpreter of its own is started through this file,

    python3 pace.py REPORT -m MODULE ARGS...    (as python3 -m MODULE ARGS...)
    python3 pace.py REPORT -c CODE              (as python3 -c CODE)

which runs it as ``python3`` would, with a Clock running, and writes
"wall reference probe" seconds to REPORT when it exits.  This file imports
only ``gc`` and ``signal`` beyond what the interpreter loads at start,
about 1 ms.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import time

REF_S = 0.0008           # nominal probe duration, about its fastest on the reference machine
PROBE_INTERVAL_S = 0.05  # timer period of a Clock
SMOOTH = 5               # each probe is smoothed over this many centred on it

_TABLE = dict.fromkeys(range(256), 0)
_SLOTS = [0.0] * 64


def _unit() -> int:
    acc = 0
    x = 0.5
    table, slots = _TABLE, _SLOTS
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = acc
        x = 0.5 * x + 0.25 * (x * x) + 1e-3
        slots[i & 63] = x + table[(i * 7) & 255]
    return acc


def probe() -> float:
    """Seconds the fixed unit of work takes now.  The collector is held off
    so that the program's heap does not show."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _unit()
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scale(p0: float, p1: float) -> float:
    """Reference seconds per wall second between probes p0 and p1."""
    return 2.0 * REF_S / (p0 + p1)


def smooth(probes: list[float]) -> list[float]:
    """Each probe replaced by the median of the SMOOTH probes centred on it,
    so that one disturbed probe does not move an interval."""
    half = SMOOTH // 2
    out = []
    for i in range(len(probes)):
        window = sorted(probes[max(0, i - half):i + half + 1])
        n = len(window)
        out.append(window[n // 2] if n % 2 else 0.5 * (window[n // 2 - 1] + window[n // 2]))
    return out


def pin() -> int:
    """Run this process and every process it starts on one CPU, the last
    one it may use, so that a run's work and its probes share a CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Clock:
    """Wall and reference seconds of this process, probe time left out.
    ``read`` returns a mark; ``span(a, b)`` gives the wall and reference
    seconds between two marks.  A timer signal probes every
    PROBE_INTERVAL_S until ``stop``.  Stop it before the process waits for a
    child that does the work, or the probes would take the child's CPU, and
    before the process exits, or a late signal would end it."""

    def __init__(self):
        self.probes = [probe()]
        self.probe_s = 0.0   # wall seconds spent probing
        self._pieces = []    # (wall s, index of the probe before it)
        self._busy = False
        self._running = True
        self._t = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def _cut(self, with_probe: bool) -> None:
        now = time.perf_counter()
        self._pieces.append((now - self._t, len(self.probes) - 1))
        if with_probe:
            self.probes.append(probe())
            self.probe_s += time.perf_counter() - now
            now = time.perf_counter()
        self._t = now

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self._cut(with_probe=True)
            self._busy = False

    def read(self) -> int:
        self._busy = True
        self._cut(with_probe=False)
        self._busy = False
        return len(self._pieces)

    def stop(self) -> int:
        """Stop the timer, close the last stretch with a probe and return a
        final mark."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False
        self._busy = True
        self._cut(with_probe=True)
        self._busy = False
        return len(self._pieces)

    def report(self, path: str) -> None:
        """Stop, and write "wall reference probe" seconds since the start to
        ``path``: the REPORT of a child process, read by ``read_report``."""
        wall, ref = self.span(0, self.stop())
        with open(path, "w") as fh:
            fh.write(f"{wall!r} {ref!r} {self.probe_s!r}\n")

    def span(self, a: int, b: int) -> tuple[float, float]:
        """(wall s, reference s) between marks a and b.  A stretch after the
        last probe counts at that probe's speed until ``stop`` closes it."""
        sp = smooth(self.probes)
        sp.append(sp[-1])
        wall = sum(w for w, _ in self._pieces[a:b])
        ref = sum(w * scale(sp[i], sp[i + 1]) for w, i in self._pieces[a:b])
        return wall, ref


def read_report(path: str) -> tuple[float, float, float]:
    with open(path) as fh:
        covered, ref, probe_s = (float(x) for x in fh.read().split())
    return covered, ref, probe_s


def scaled(wall_s: float, report: tuple[float, float, float]) -> tuple[float, float]:
    """(wall s, reference s) of a child process that ran ``wall_s`` seconds,
    from its REPORT: its probe time is left out, and the rest, interpreter
    start and exit included, counts at the speed it measured."""
    covered, ref, probe_s = report
    wall = wall_s - probe_s
    return wall, wall * ref / covered


def _main(argv: list[str]) -> None:
    report, mode, target, *args = argv
    # the path python3 itself would start with: the working directory
    sys.path[0] = os.getcwd() if mode == "-m" else ""
    clock = Clock()
    code = 0
    try:
        if mode == "-m":
            import runpy

            sys.argv = [target, *args]
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            sys.argv = ["-c", *args]
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    except SystemExit as exc:
        code = exc.code
    finally:
        clock.report(report)
    raise SystemExit(code)


if __name__ == "__main__":
    _main(sys.argv[1:])
