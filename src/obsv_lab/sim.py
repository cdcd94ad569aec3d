"""Trajectory integration and output-comparison experiments.

Everything here runs on a fixed RK4 grid on purpose: the experiments below
compare outputs of two trajectories sample by sample, and adaptive steppers
would put the two runs on different time grids.

The module imports no numpy, and neither does a run, whether it succeeds
or fails: a run stores its samples in one ``array("d")`` row buffer, a
``Trajectory`` reads its member's columns from it, the experiments compare
those columns, and a failure is located in the buffer, all in pure Python,
so the ``simulate`` and ``distinguish`` commands load no numpy.  numpy is
imported only where an array is asked for, by a trajectory's ``states``,
``outputs`` and ``times`` (views built at each access).
"""

from __future__ import annotations

import bisect
from array import array
from collections import Counter
import functools
from itertools import compress, count
import math
from operator import sub
from struct import Struct
from typing import TYPE_CHECKING

from . import expr as ex
from .expr import Expr
from .model import (
    DIST_TOL_DEFAULT,
    DT_DEFAULT,
    T_END_DEFAULT,
    CascadeSystem,
    ControlAffineSystem,
    as_control_affine,
    number,
    shift_of,
    state_of,
)
from .record import Frozen, Record

if TYPE_CHECKING:
    import numpy as np

DIVERGED_TOL = 1e-3          # above: clearly diverged; between: inconclusive
PREMISE_TOL = 1e-12          # field norm at which a nominal point counts as an equilibrium
CSV_BLOCK_ROWS = 1024        # rows Trajectory.to_csv formats per % call


class BlowUpError(RuntimeError):
    """State left the representable range during integration."""

    def __init__(self, t: float, state):
        self.t = t
        self.state = tuple(state)
        super().__init__(f"state became non-finite at t={t:.6g}: {self.state}")


class InputError(ArithmeticError):
    """The input signal has no value at a stage time: the argument of its
    float operations is not finite there, though its parameters are."""

    def __init__(self, u: "InputSignal", t: float):
        self.t = t
        arg = _INPUTS[u.kind][2]
        super().__init__(f"input {u.describe()} has no value at t={t:.6g}: {arg} is not finite")


class EquilibriumPremiseError(RuntimeError):
    """The closed loop is not at rest at the nominal point, so the
    equilibrium-continuum statement does not apply."""


# ---------------------------------------------------------------------------
# input signals


def _finite(what: str, values) -> tuple[float, ...]:
    vals = tuple(float(v) for v in values)
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v!r}")
    return vals


def _spec_float(v: float) -> str:
    """``v`` as its repr, which reads back to the same float, without a
    trailing ``.0``."""
    return repr(v).removesuffix(".0")


class InputSignal(Frozen):
    __slots__ = ("kind", "params")
    _defaults = {"params": ()}
    kind: str
    params: tuple

    @staticmethod
    def zero() -> "InputSignal":
        return InputSignal("zero")

    @staticmethod
    def constant(c: float) -> "InputSignal":
        return InputSignal("constant", _finite("constant", (c,)))

    @staticmethod
    def sinusoid(amplitude: float, omega: float, phase: float = 0.0) -> "InputSignal":
        return InputSignal("sinusoid", _finite("sinusoid parameters", (amplitude, omega, phase)))

    @staticmethod
    def piecewise(breakpoints, values) -> "InputSignal":
        bp = _finite("breakpoints", breakpoints)
        vals = _finite("piecewise values", values)
        if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must be strictly increasing: {bp}")
        if len(vals) != len(bp) + 1:
            raise ValueError(
                f"piecewise needs {len(bp) + 1} values for {len(bp)} breakpoints, got {len(vals)}"
            )
        return InputSignal("piecewise", (bp, vals))

    @staticmethod
    def table(values, dt: float, t0: float = 0.0) -> "InputSignal":
        dt, t0 = _finite("table dt and t0", (dt, t0))
        if dt <= 0:
            raise ValueError(f"table dt must be positive, got {dt}")
        vals = _finite("table values", values)
        if not vals:
            raise ValueError("table needs at least one sample")
        return InputSignal("table", (vals, dt, t0))

    def _source(self) -> tuple[str, tuple]:
        """(kind, params): the ``_INPUTS`` entry that computes the signal and
        the parameters it runs on; zero is the constant 0.0."""
        if self.kind == "zero":
            return "constant", (0.0,)
        if self.kind not in _INPUTS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        return self.kind, self.params

    def __call__(self, t: float) -> float:
        """The signal at time ``t``, in the float operations of the RK4 loop."""
        kind, params = self._source()
        return _input_value(kind)(params, t)

    def describe(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "constant":
            return f"const:{_spec_float(self.params[0])}"
        if self.kind == "sinusoid":
            return "sin:" + ",".join(map(_spec_float, self.params))
        if self.kind == "piecewise":
            return f"piecewise[{len(self.params[0]) + 1} pieces]"
        return f"table[{len(self.params[0])} samples]"


# each input kind's float operations, as the source that both the RK4 loop
# (rk4_source) and InputSignal.__call__ run: the lines that unpack the
# signal's parameters ``_params``, its value at time ``{t}`` (None for a
# constant, the float ``_u0`` bound before the loop), and the argument to
# name when it has no value (None for a kind that always has one)
_INPUTS = {
    "constant": (("_u0, = _params",), None, None),
    "sinusoid": (("_ia, _iw, _iphi = _params",), "_ia * _sin(_iw * {t} + _iphi)", "w*t + phi"),
    "piecewise": (("_ibp, _ivals = _params", "_find = _bisect.bisect_right"),
                  "_ivals[_find(_ibp, {t})]", None),
    "table": (("_ivals, _idt, _it0 = _params", "_ilast = len(_ivals) - 1", "_int = int"),
              "_ivals[0 if (_i := _int(({t} - _it0) / _idt)) < 0 else _ilast if _i > _ilast else _i]",
              "(t - t0)/dt"),
}


@functools.cache
def _input_value(kind: str):
    """``value(params, t)``, the ``_INPUTS`` source of ``kind`` compiled
    once as a function, with the catalog functions the loop binds."""
    setup, value, _ = _INPUTS[kind]
    namespace = {**ex.python_functions(), "_bisect": bisect}
    exec("\n    ".join(["def _value(_params, t):", *setup,
                        "return " + (value or "_u0").format(t="t")]), namespace)
    return namespace["_value"]


def parse_input_spec(spec: str) -> InputSignal:
    """Build a signal from a compact textual form.

    Accepted: ``zero``, ``const:<c>``, ``sin:<amplitude>,<omega>[,<phase>]``,
    each parameter a finite number in ``model.number``'s form.
    """
    spec = spec.strip()
    if spec == "zero":
        return InputSignal.zero()
    head, _, rest = spec.partition(":")
    try:
        if head == "const" and rest:
            return InputSignal.constant(number(rest))
        if head == "sin" and rest:
            parts = [number(p) for p in rest.split(",")]
            if 2 <= len(parts) <= 3:
                return InputSignal.sinusoid(*parts)
    except ValueError as err:
        raise ValueError(f"bad input spec {spec!r}: {err}") from None
    raise ValueError(
        f"bad input spec {spec!r}; expected zero, const:<c>, or sin:<a>,<w>[,<phi>]"
    )


# ---------------------------------------------------------------------------
# trajectories


class Trajectory(Record):
    """One member of an RK4 run, read from the run's row buffer: ``rows``
    holds one row of ``width`` values per sample, sample k at t0 + k*dt, and
    the member's states sit in columns ``state_at`` on of each row, its
    outputs in columns ``output_at`` on, in the order of ``state_names`` and
    ``output_names``.

    ``states``, ``outputs`` and ``times`` are numpy arrays, built at each
    access with numpy imported there; ``states`` and ``outputs`` are views
    of the buffer.  Everything else reads the buffer in pure Python.  Two
    trajectories are equal when their t0, dt and names are, and their
    samples bit for bit, whatever run and columns hold them."""

    __slots__ = ("t0", "dt", "rows", "width", "state_at", "output_at", "state_names",
                 "output_names")
    t0: float
    dt: float
    rows: array
    width: int
    state_at: int
    output_at: int
    state_names: tuple[str, ...]
    output_names: tuple[str, ...]

    def _view(self, at: int, count: int) -> np.ndarray:
        import numpy as np
        return np.frombuffer(self.rows).reshape(-1, self.width)[:, at:at + count]

    @property
    def states(self) -> np.ndarray:
        """(samples, state variables), a view of the buffer."""
        return self._view(self.state_at, len(self.state_names))

    @property
    def outputs(self) -> np.ndarray:
        """(samples, outputs), a view of the buffer."""
        return self._view(self.output_at, len(self.output_names))

    @property
    def times(self) -> np.ndarray:
        import numpy as np
        return self.t0 + self.dt * np.arange(self.samples)

    @property
    def samples(self) -> int:
        return len(self.rows) // self.width

    @property
    def final_state(self) -> tuple[float, ...]:
        at = len(self.rows) - self.width + self.state_at
        return tuple(self.rows[at:at + len(self.state_names)])

    def _offsets(self) -> list[int]:
        """The row offset of each of the member's columns: states, then outputs."""
        return [*range(self.state_at, self.state_at + len(self.state_names)),
                *range(self.output_at, self.output_at + len(self.output_names))]

    def columns(self, first: int = 0) -> list[array]:
        """The member's columns, in the order of ``state_names +
        output_names`` from column ``first`` on, each as an ``array("d")``
        of its samples."""
        return [self.rows[at::self.width] for at in self._offsets()[first:]]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        same = (self.t0, self.dt, self.state_names, self.output_names) == (
            other.t0, other.dt, other.state_names, other.output_names)
        return same and all(a.tobytes() == b.tobytes()
                            for a, b in zip(self.columns(), other.columns()))

    def __reduce__(self):
        # a pickle or a copy holds this member's columns alone, not its whole
        # run: rows laid out as a lone run's, states then outputs
        cols = self.columns()
        rows = array("d", bytes(8 * len(cols) * self.samples))
        for c, col in enumerate(cols):
            rows[c::len(cols)] = col
        return Trajectory, (self.t0, self.dt, rows, len(cols), 0, len(self.state_names),
                            self.state_names, self.output_names)

    def __repr__(self) -> str:
        # the buffer holds the whole run: give its sample count, not its values
        return (f"Trajectory(t0={self.t0!r}, dt={self.dt!r}, samples={self.samples}, "
                f"state_names={self.state_names!r}, output_names={self.output_names!r})")

    def to_csv(self) -> str:
        """The trajectory as CSV text: the header ``t,<states>,<outputs>``,
        then one row per sample, each value printed ``%.17g``, which reads
        back to the same float, and a newline after every line.

        The rows are formatted ``CSV_BLOCK_ROWS`` at a time, one ``%`` of
        the row template repeated per row over the block's values, laid out
        row by row by one slice assignment per column, so only one block of
        values is alive as Python floats at a time; the blocks are joined
        once at the end, so the call peaks at about twice the text.
        """
        header = ",".join(("t",) + self.state_names + self.output_names)
        rows, width, t0, dt, samples = self.rows, self.width, self.t0, self.dt, self.samples
        offsets = self._offsets()
        ncols = 1 + len(offsets)
        row = ",".join(["%.17g"] * ncols) + "\n"
        blocks = [header + "\n"]
        for i in range(0, samples, CSV_BLOCK_ROWS):
            end = min(i + CSV_BLOCK_ROWS, samples)
            values = [0.0] * ((end - i) * ncols)
            values[::ncols] = [t0 + dt * k for k in range(i, end)]  # the times of ``times``
            for c, at in enumerate(offsets, 1):
                values[c::ncols] = rows[i * width + at:end * width:width]
            blocks.append((row * (end - i)) % tuple(values))
        return "".join(blocks)


# states one generated loop steps together; it writes each distinct
# right-hand side once, so its stage code grows with the distinct starts of
# the variables the fields read, not with the members (see rk4_source)
MEMBERS_MAX = 16


def _reads(ca: ControlAffineSystem) -> tuple[bool, ...]:
    """Per state variable, whether some drift or input field reads it: for
    a cascade the velocities, never a position."""
    read = frozenset().union(*(ex.free_vars(e) for e in (*ca.drift, *ca.input_fields[0])))
    return tuple(v in read for v in ca.state_vars)


def _sharing(reads, x0s) -> tuple[tuple[tuple[int, ...], ...], list[float]]:
    """(pattern, seeds) of the flat initial states ``x0s`` of a system whose
    fields read the variables marked in ``reads`` (see ``_reads``): the
    pattern gives each member one slot per state variable, and ``seeds``
    the start of each slot.  Members whose starts have the same bits on
    every read variable form a group, which holds one slot per read
    variable and one per distinct start of each other variable; slots are
    numbered in order of first use."""
    dim = len(reads)
    slots: dict[tuple, int] = {}
    seeds = []
    pattern = []
    for c in range(0, len(x0s), dim):
        x = x0s[c:c + dim]
        group = tuple(v.hex() for v, r in zip(x, reads) if r)
        member = []
        for i, (v, r) in enumerate(zip(x, reads)):
            s = slots.setdefault((group, i) if r else (group, i, v.hex()), len(slots))
            if s == len(seeds):
                seeds.append(v)
            member.append(s)
        pattern.append(tuple(member))
    return tuple(pattern), seeds


def _run(ca: ControlAffineSystem, x0s, u: InputSignal, dt: float, steps: int, rows) -> None:
    """Step the initial states ``x0s``, one after another in one flat
    tuple, in lockstep on the generated RK4 loop of ``ca``, which computes
    each distinct right-hand side of a step once (``rk4_source``), appending to
    ``rows``, an ``array("d")``, one whole row per sample: every member's
    state, then every member's outputs.  A step is arithmetic only: it
    steps on through inf and nan and raises only what a float operation
    raises, from the step where it happened; a run that fails in step k has
    stored exactly the k + 1 rows of t = 0 .. k*dt.  The loop of an input
    kind and a sharing pattern (see ``_sharing``) is generated the first
    time that pair runs on ``ca``, and kept with it, in its ``_loops`` slot
    under the key (kind, pattern), where zero is the kind constant."""
    kind, params = u._source()
    pattern, seeds = _sharing(_reads(ca), x0s)
    loops = getattr(ca, "_loops", None)
    if loops is None:
        loops = {}
        object.__setattr__(ca, "_loops", loops)
    fn = loops.get((kind, pattern))
    if fn is None:
        namespace = {"_fns": tuple(ex.python_functions().values()),
                     "_bisect": bisect, "_Struct": Struct}
        exec(rk4_source(ca, pattern, kind), namespace)
        fn = loops[kind, pattern] = namespace["_rk4"]
    fn(seeds, params, dt, steps, rows)


def _table(lines: list, prefix: str):
    """``emit(rhs) -> name``: the name ``prefix<k>`` bound to the source
    ``rhs`` by the line that its first emit appends to ``lines``."""
    names: dict[str, str] = {}

    def emit(rhs: str) -> str:
        name = names.get(rhs)
        if name is None:
            name = names[rhs] = f"{prefix}{len(names)}"
            lines.append(f"{name} = {rhs}")
        return name

    return emit


def _once(rhss, emit) -> list[str]:
    """Each of ``rhss`` in place if it is its only use, else as ``emit`` names it."""
    uses = Counter(rhss)
    return [rhs if uses[rhs] == 1 else emit(rhs) for rhs in rhss]


def rk4_source(ca: ControlAffineSystem, pattern, kind: str) -> str:
    """Source of ``_rk4(_x0s, _params, _dt, _steps, _rows)``, the RK4 loop
    that runs the whole integration of the members of the sharing pattern
    ``pattern`` (see ``_sharing``; ``_x0s`` holds the seeds) in lockstep,
    under an input of the kind ``kind``, a key of ``_INPUTS``.

    The step body, and the lines before the loop, write each distinct
    right-hand side once (local value numbering, ``_table``): every stage
    field f + u*g, stage state x + step*k and product u * (c) of a constant
    input field, and every increment or output that more than one slot or
    row entry uses; one with a single use is written where it is used.  No
    stage reads a variable that no field reads (a cascade's positions), and
    such a variable gets no stage state, so members whose slots of the read
    variables are the same share their stages.  Every stage is computed
    from the state at the step's start: the slots are updated after the
    last stage.  The arithmetic is the reference one, on the operands a
    lone run has: stage states x + (0.5*dt)*k, fields f + u*g, update
    x + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4), so every member's trajectory is
    bit for bit the one of a lone run.

    The input is computed by its ``_INPUTS`` source, which
    ``InputSignal.__call__`` runs too: a zero or constant input is one float
    bound before the loop, any other kind once per step and distinct stage
    time (k2 and k3 share t + 0.5*dt).  Each expression is rendered once, as a
    template over the state variables.  The catalog functions are locals,
    and each row is one ``struct`` pack appended to ``_rows`` with
    ``frombytes``.  The function runs with ``_fns``, the
    ``expr.python_functions`` values, ``_bisect`` and ``_Struct`` in its
    globals, checks no state for finiteness and raises nothing of its own."""
    reads = _reads(ca)
    setup, value, _ = _INPUTS[kind]
    before, body = [], []
    pre, emit = _table(before, "_c"), _table(body, "_v")
    # a zero or constant input and its products are bound before the loop
    ua, ub, uc = ("_u0",) * 3 if value is None else ("_ua", "_ub", "_uc")
    product = pre if value is None else emit
    if value is not None:
        body += ["_t = _k * _dt", *(f"{u} = {value.format(t=t)}" for u, t in
                                    ((ua, "_t"), (ub, "(_t + _h)"), (uc, "(_t + _dt)")))]
    at = {v: f"{{0[{i}]}}" for i, v in enumerate(ca.state_vars)}
    drift = [ex.python_source(f, at) for f in ca.drift]
    gains = [(ex.python_source(g, at), isinstance(g, ex.Const)) for g in ca.input_fields[0]]
    outputs = [ex.python_source(h, at) for h in ca.outputs]

    def fields(xs, u):
        return [emit(f"{f.format(xs)} + " + (product(f"{u} * {g}") if const
                                              else f"{u} * {g.format(xs)}"))
                for f, (g, const) in zip(drift, gains)]

    def shifted(xs, step, ks):
        return [emit(f"{x} + {step} * {k}") if r else x for x, k, r in zip(xs, ks, reads)]

    members = [[f"_s{s}" for s in m] for m in pattern]
    incs: dict[str, str] = {}
    for xs in members:
        k1 = fields(xs, ua)
        k2 = fields(shifted(xs, "_h", k1), ub)
        k3 = fields(shifted(xs, "_h", k2), ub)
        k4 = fields(shifted(xs, "_dt", k3), uc)
        for x, a, b, c, d in zip(xs, k1, k2, k3, k4):
            incs[x] = f"_w * ((({a} + 2.0 * {b}) + 2.0 * {c}) + {d})"
    updates = _once(list(incs.values()), emit)
    body += [f"{x} = {x} + {inc}" for x, inc in zip(incs, updates)]

    states = [x for xs in members for x in xs]
    row = [h.format(xs) for xs in members for h in outputs]

    def store(table):
        return f"_store(_pack({''.join(f'{v}, ' for v in states + _once(row, table))}))"

    body.append(store(emit))
    first = store(pre)
    return "\n".join([
        "def _rk4(_x0s, _params, _dt, _steps, _rows):",
        f"    {''.join(f'_s{s}, ' for s in range(len(incs)))}= _x0s",
        f"    {', '.join(ex.python_functions())}, = _fns",
        *(f"    {line}" for line in setup),
        "    _h = 0.5 * _dt",
        "    _w = _dt / 6.0",
        f"    _pack = _Struct('{len(pattern) * (ca.dim + ca.p)}d').pack",
        "    _store = _rows.frombytes",
        *(f"    {line}" for line in before),
        f"    {first}",
        "    for _k in range(_steps):",
        *(f"        {line}" for line in body),
        "",
    ])


def _check_outputs(ca: ControlAffineSystem, x) -> None:
    """Evaluate the outputs at the finite state ``x`` through the tree
    walker, which raises DomainError at the culprit subexpression."""
    env = dict(zip(ca.state_vars, x))
    for h in ca.outputs:
        ex.evaluate(h, env)


def _replay_step(ca: ControlAffineSystem, u, dt: float, x, k: int) -> None:
    """Re-run step ``k`` from state ``x`` stage by stage, raising the
    failure of the generated loop with its location: ``InputError`` at the
    stage time where the input has no value, ``BlowUpError`` at the stage
    time and state for an overflow in a stage and at the step end for a
    step that ends non-finite, ``DomainError`` at the culprit subexpression
    for a domain fault or a failing output.  ``k = -1`` is the output at
    t = 0."""
    names = ca.state_vars
    drift_fn = ex.compile_vector(ca.drift, names)
    input_fn = ex.compile_vector(ca.input_fields[0], names)

    def guarded(fn, exprs, state, t):
        try:
            return fn(*state)
        except OverflowError:
            raise BlowUpError(t, state) from None
        except (ValueError, ZeroDivisionError):
            env = dict(zip(names, state))
            for e in exprs:
                ex.evaluate(e, env)  # raises DomainError at the culprit
            raise

    def field(state, t):
        # the loop computes a step's inputs before its stages
        try:
            ut = u(t)
        except (ArithmeticError, ValueError):
            raise InputError(u, t) from None
        f = guarded(drift_fn, ca.drift, state, t)
        g = guarded(input_fn, ca.input_fields[0], state, t)
        return [fi + ut * gi for fi, gi in zip(f, g)]

    def shifted(step, kv):
        return [xi + step * ki for xi, ki in zip(x, kv)]

    if k < 0:
        _check_outputs(ca, x)
        return
    t = k * dt
    k1 = field(x, t)
    k2 = field(shifted(0.5 * dt, k1), t + 0.5 * dt)
    k3 = field(shifted(0.5 * dt, k2), t + 0.5 * dt)
    k4 = field(shifted(dt, k3), t + dt)
    x = [xi + (dt / 6.0) * (((a + 2.0 * b) + 2.0 * c) + d)
         for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, x)):
        raise BlowUpError(t + dt, x)
    _check_outputs(ca, x)


def _raise_failure(ca: ControlAffineSystem, xs, u, dt: float, rows, error) -> None:
    """Raise the failure, if any, of the run from the starts ``xs`` that
    stored ``rows`` (see ``_run``) and raised ``error`` (or None), read from
    the rows in pure Python.  Each member's columns are bit for bit its lone
    run, so the rules of a lone run apply across members, the first in
    order deciding a sample: the first step end whose state is not finite
    (the start is none, and stays non-finite into step 1; a state that is
    not finite stays so under x + (dt/6)*(...), so a bisection finds it),
    else each member's replay of the step that raised (else ``error``
    itself), else the first output that is not finite (a float product
    overflows to inf without raising; an output column is scanned only if
    its sum is not finite, as the sum of a column holding one is)."""
    width = len(xs) * (ca.dim + ca.p)
    split = len(xs) * ca.dim  # states, then outputs, in each row
    samples = len(rows) // width

    def state(k: int, j: int) -> list[float]:
        at = k * width + j * ca.dim
        return rows[at:at + ca.dim].tolist()

    def blown(k: int) -> bool:
        return not all(map(math.isfinite, rows[k * width:k * width + split]))

    k = 1 + bisect.bisect_left(range(1, samples), True, key=blown)
    if k < samples:
        j = next(j for j in range(len(xs)) if not all(map(math.isfinite, state(k, j))))
        raise BlowUpError((k - 1) * dt + dt, state(k, j))
    if error is not None:
        for j, x in enumerate(xs):  # replay step samples - 1 from its stored start
            _replay_step(ca, u, dt, state(samples - 1, j) if samples else x, samples - 1)
        raise error
    bad = [c for c in range(split, width) if not math.isfinite(sum(rows[c::width]))]
    for k, c in ((k, c) for k in range(samples) for c in bad):  # the first member first
        if not math.isfinite(rows[k * width + c]):
            _check_outputs(ca, state(k, (c - split) // ca.p))
            return


def _run_joint(ca: ControlAffineSystem, xs, u, dt: float, steps: int) -> list[Trajectory]:
    """One run of the members ``xs``, its rows shared by their trajectories,
    after a failure read from those rows is raised (``_raise_failure``)."""
    rows, error = array("d"), None
    try:
        _run(ca, tuple(v for x in xs for v in x), u, dt, steps, rows)
    except (ArithmeticError, ValueError) as err:
        error = err
    _raise_failure(ca, xs, u, dt, rows, error)
    width = len(xs) * (ca.dim + ca.p)
    split = len(xs) * ca.dim
    names = tuple(ca.state_vars), tuple(f"y{i}" for i in range(1, ca.p + 1))
    return [Trajectory(0.0, dt, rows, width, j * ca.dim, split + j * ca.p, *names)
            for j in range(len(xs))]


def integrate_many(
    sys,
    states,
    u: InputSignal,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> list[Trajectory]:
    """RK4 runs of every initial state in the sequence ``states`` under one input, in
    lockstep on one generated loop that computes each distinct right-hand
    side of a step once, so members whose starts agree on every variable a
    field reads share their stages (see ``rk4_source``).

    ``sys`` is a cascade or a control-affine system.  The loop of each
    input kind and sharing pattern is kept with the system's control-affine
    form (see ``_run``), so later calls on the same system reuse it.  More
    than ``MEMBERS_MAX`` states are split into the fewest runs of equal
    size, the last one possibly smaller; a run steps only its own states.
    Each trajectory is bit for bit the one ``integrate`` gives for its state
    alone, and reads its samples from the one row buffer of its run.  A run
    does not stop at a non-finite state: a pass over its stored rows finds
    a state or output that is not finite (see ``_run_joint``).  On a
    failure, an exception or such a value, the error raised is the one
    ``integrate`` reports for the member whose failure comes first in the
    first failing run, the first member in order at the same sample (see
    ``_raise_failure``).
    """
    ca = as_control_affine(sys)
    if ca.m != 1:
        raise ValueError(f"integrate handles single-input systems, got m={ca.m}")
    if len(states) == 0:
        raise ValueError("an ensemble needs at least one state")
    for name, v in (("dt", dt), ("t_end", t_end)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < dt:
        raise ValueError(f"t_end={t_end} is shorter than one step dt={dt}")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end/dt must be finite, got {t_end}/{dt}")
    xs = [state_of(ca, x)[1] for x in states]

    steps = int(round(t_end / dt))
    runs = -(-len(xs) // MEMBERS_MAX)
    size = -(-len(xs) // runs)
    return [traj for c in range(0, len(xs), size)
            for traj in _run_joint(ca, xs[c:c + size], u, dt, steps)]


def integrate(
    sys,
    x0,
    u: InputSignal,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> Trajectory:
    """Classical fixed-step RK4 for a single-input control-affine system.

    ``sys`` is a cascade or a control-affine system.  Samples land on
    t = k*dt; a non-finite state or an overflowing stage evaluation fails
    with ``BlowUpError``, and genuine domain violations (log of a negative
    x, division by zero) and outputs that are not finite surface as
    ``DomainError`` with the offending subexpression.
    """
    return integrate_many(sys, (x0,), u, t_end, dt)[0]


# ---------------------------------------------------------------------------
# output-comparison experiments


def _output_gaps(ca: ControlAffineSystem, ta: Trajectory,
                 tb: Trajectory) -> tuple[list[tuple[array, array]], float]:
    """(pairs, sup): each output's column in ``ta`` and in ``tb``, and the
    largest |ya - yb| over outputs and samples.  Finite outputs of opposite
    signs near the float limit overflow here; that raises DomainError naming
    the first sample time at which a gap overflows, and the first output
    that overflows there."""
    pairs = list(zip(ta.columns(ca.dim), tb.columns(ca.dim)))
    sup = max(max(map(abs, map(sub, a, b))) for a, b in pairs)
    if sup == math.inf:  # the outputs are finite, so only an overflow is not
        largest = math.nextafter(math.inf, 0.0)
        k, j = min((_first_gap_above(a, b, largest), j) for j, (a, b) in enumerate(pairs))
        raise ex.DomainError(f"output gap overflows at t={k * ta.dt:.6g}", ca.outputs[j])
    return pairs, sup


def _first_gap_above(a: array, b: array, tol: float) -> int:
    """The first sample at which |a - b| exceeds ``tol``, or the sample
    count if none does."""
    return next(compress(count(), map(tol.__lt__, map(abs, map(sub, a, b)))), len(a))


class ShiftGapResult(Record):
    __slots__ = ("input", "gap")
    input: str
    gap: float


def indistinguishability_experiment(
    sys: CascadeSystem,
    T_shift,
    inputs,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> list[ShiftGapResult]:
    """Compare outputs from rest at the origin and rest at a shifted position.

    The shift must move exactly one position coordinate; if that coordinate's
    gain repeats with the shift as a period, the two output records coincide
    for every input, which is the mechanism that kills global observability.
    """
    T, _ = shift_of(sys, T_shift)
    base = (0.0,) * (2 * sys.n)
    shifted = T + (0.0,) * sys.n
    ca = as_control_affine(sys)
    results = []
    for sig in inputs:
        _, gap = _output_gaps(ca, *integrate_many(ca, (base, shifted), sig, t_end, dt))
        results.append(ShiftGapResult(input=sig.describe(), gap=gap))
    return results


class DistinguishabilityResult(Record):
    __slots__ = ("gap", "first_divergence", "classification", "input")
    gap: float
    first_divergence: float | None
    classification: str
    input: str


def distinguishability_experiment(
    sys: CascadeSystem,
    s0,
    s1,
    u: InputSignal,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> DistinguishabilityResult:
    """Integrate both states under the same input and compare output records.

    Classification: "identical" when the sup gap stays at or below
    ``DIST_TOL_DEFAULT``, "diverged" when it exceeds ``DIVERGED_TOL``,
    "inconclusive" in between (the gap is too large to ignore but too small
    to rule out integrator error).
    """
    ca = as_control_affine(sys)
    pairs, gap = _output_gaps(ca, *integrate_many(ca, (s0, s1), u, t_end, dt))
    if gap <= DIST_TOL_DEFAULT:
        cls, first = "identical", None
    else:
        cls = "diverged" if gap > DIVERGED_TOL else "inconclusive"
        first = min(_first_gap_above(a, b, DIST_TOL_DEFAULT) for a, b in pairs) * dt
    return DistinguishabilityResult(
        gap=gap, first_divergence=first, classification=cls, input=u.describe()
    )


# ---------------------------------------------------------------------------
# output feedback and the resting continuum


class FeedbackLaw(Frozen):
    """Dynamic output feedback: controller state q, u computed from (y, q).

    ``dynamics`` gives dq/dt (one expression per controller state) and
    ``output`` gives u; both may reference y1..yn and q1..q<nq> only.
    """

    __slots__ = ("nq", "dynamics", "output")
    nq: int
    dynamics: tuple[Expr, ...]
    output: Expr

    def __init__(self, nq: int, dynamics: tuple[Expr, ...], output: Expr):
        if nq < 0:
            raise ValueError(f"controller dimension must be >= 0, got {nq}")
        if len(dynamics) != nq:
            raise ValueError(f"expected {nq} controller equations, got {len(dynamics)}")
        super().__init__(nq, dynamics, output)

    @staticmethod
    def parse(nq: int, dynamics_srcs, output_src: str, n_outputs: int) -> "FeedbackLaw":
        allowed = ex.VarNames([f"y{i}" for i in range(1, n_outputs + 1)]
                              + [f"q{l}" for l in range(1, nq + 1)])
        dyn = tuple(ex.parse(src, allowed) for src in dynamics_srcs)
        return FeedbackLaw(nq=nq, dynamics=dyn, output=ex.parse(output_src, allowed))

    @staticmethod
    def static(output_src: str, n_outputs: int = 1) -> "FeedbackLaw":
        return FeedbackLaw.parse(0, (), output_src, n_outputs)


class EquilibriaReport(Record):
    __slots__ = ("q_star", "premise_residual", "residuals")
    q_star: tuple[float, ...]
    premise_residual: float
    residuals: list[tuple[float, float]]  # (position value, field sup norm)

    @property
    def max_residual(self) -> float:
        return max((r for _, r in self.residuals), default=0.0)


def _closed_loop_field(sys: CascadeSystem, law: FeedbackLaw):
    """Symbolic coupled field (dx, dz, dq) with y rewritten in plant states."""
    ca = as_control_affine(sys)
    y_exprs = {f"y{i}": h for i, h in enumerate(ca.outputs, start=1)}
    q_vars = [f"q{l}" for l in range(1, law.nq + 1)]

    def ground(e: Expr) -> Expr:
        bad = ex.free_vars(e) - set(y_exprs) - set(q_vars)
        if bad:
            raise ValueError(f"feedback law uses unknown variables {sorted(bad)}")
        for name, rep in y_exprs.items():
            e = ex.substitute(e, name, rep)
        return e

    u_expr = ground(law.output)
    field = [ex.add(f, ex.mul(g, u_expr)) for f, g in zip(ca.drift, ca.input_fields[0])]
    field += [ground(g) for g in law.dynamics]
    return ca.state_vars + tuple(q_vars), tuple(field)


def output_feedback_equilibria_check(
    sys: CascadeSystem,
    law: FeedbackLaw,
    q_star,
    xi_grid,
) -> EquilibriaReport:
    """Show that resting states form a continuum under output feedback.

    First verifies the nominal point (origin plant state, q_star controller
    state) actually is a closed-loop equilibrium, to ``PREMISE_TOL``; then
    evaluates the coupled field at every (xi, 0, q_star) with all positions
    moved to xi.  Because the outputs vanish whenever the velocities do,
    moving the position does not re-excite the loop, so each residual should
    vanish as well: the closed loop cannot regulate which resting position
    it ends up at.
    """
    q = tuple(float(v) for v in q_star)
    if len(q) != law.nq:
        raise ValueError(f"q_star has {len(q)} entries, expected {law.nq}")
    names, field = _closed_loop_field(sys, law)
    n = sys.n

    def residual(xi: float) -> float:
        env = dict(zip(names, (xi,) * n + (0.0,) * n + q))
        return max(abs(ex.evaluate(e, env)) for e in field)

    premise = residual(0.0)
    if premise > PREMISE_TOL:
        raise EquilibriumPremiseError(
            f"nominal point is not an equilibrium: field norm {premise:.3e} "
            f"exceeds {PREMISE_TOL:.1e}"
        )
    rows = [(float(xi), residual(float(xi))) for xi in xi_grid]
    return EquilibriaReport(q_star=q, premise_residual=premise, residuals=rows)
