"""Trajectory integration and output-comparison experiments.

Everything here runs on a fixed RK4 grid on purpose: the experiments below
compare outputs of two trajectories sample by sample, and adaptive steppers
would put the two runs on different time grids.
"""

from __future__ import annotations

import bisect
from array import array
from collections import Counter
import math
from struct import Struct

import numpy as np

from . import expr as ex
from .expr import Expr
from .model import CascadeSystem, ControlAffineSystem, as_control_affine
from .record import Frozen, Record

DT_DEFAULT = 1e-3
T_END_DEFAULT = 10.0
DIST_TOL_DEFAULT = 1e-6      # below: numerically identical
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
        arg = {"sinusoid": "w*t + phi", "table": "(t - t0)/dt"}[u.kind]  # the kinds that can fail
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

    def __call__(self, t: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "sinusoid":
            a, w, phi = self.params
            return a * math.sin(w * t + phi)
        if self.kind == "piecewise":
            bp, vals = self.params
            return vals[bisect.bisect_right(bp, t)]
        if self.kind == "table":
            vals, dt, t0 = self.params
            idx = int((t - t0) / dt)
            return vals[min(max(idx, 0), len(vals) - 1)]
        raise ValueError(f"unknown input kind {self.kind!r}")

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


def parse_input_spec(spec: str) -> InputSignal:
    """Build a signal from a compact textual form.

    Accepted: ``zero``, ``const:<c>``, ``sin:<amplitude>,<omega>[,<phase>]``,
    each parameter a finite float.
    """
    spec = spec.strip()
    if spec == "zero":
        return InputSignal.zero()
    head, _, rest = spec.partition(":")
    try:
        if head == "const" and rest:
            return InputSignal.constant(float(rest))
        if head == "sin" and rest:
            parts = [float(p) for p in rest.split(",")]
            if len(parts) == 2:
                return InputSignal.sinusoid(parts[0], parts[1])
            if len(parts) == 3:
                return InputSignal.sinusoid(*parts)
    except ValueError as err:
        raise ValueError(f"bad input spec {spec!r}: {err}") from None
    raise ValueError(
        f"bad input spec {spec!r}; expected zero, const:<c>, or sin:<a>,<w>[,<phi>]"
    )


# ---------------------------------------------------------------------------
# trajectories


class Trajectory(Record):
    __slots__ = ("t0", "dt", "states", "outputs", "state_names", "output_names")
    t0: float
    dt: float
    states: np.ndarray   # (samples, 2n)
    outputs: np.ndarray  # (samples, n)
    state_names: tuple[str, ...]
    output_names: tuple[str, ...]

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.states))

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self) -> str:
        """The trajectory as CSV text: the header ``t,<states>,<outputs>``,
        then one row per sample, each value printed ``%.17g``, which reads
        back to the same float, and a newline after every line.

        The rows are formatted ``CSV_BLOCK_ROWS`` at a time, one ``%`` of
        the row template repeated per row over one ``tolist()`` of the
        block, so only one block of values is alive as Python floats at a
        time; the blocks are joined once at the end, so the call peaks at
        about twice the text.
        """
        header = ",".join(("t",) + self.state_names + self.output_names)
        times, states, outputs = self.times, self.states, self.outputs
        row = ",".join(["%.17g"] * (1 + states.shape[1] + outputs.shape[1])) + "\n"
        blocks = [header + "\n"]
        for i in range(0, len(states), CSV_BLOCK_ROWS):
            end = i + CSV_BLOCK_ROWS
            block = np.column_stack((times[i:end], states[i:end], outputs[i:end]))
            blocks.append((row * len(block)) % tuple(block.ravel().tolist()))
        return "".join(blocks)


# states one generated loop steps together; it writes each distinct
# right-hand side once, so its stage code grows with the distinct starts of
# the variables the fields read, not with the members (see rk4_source)
MEMBERS_MAX = 16

# the loop variant that computes each input kind; zero and constant are the
# same one, a bound float
_VARIANTS = {"zero": "constant", "constant": "constant", "sinusoid": "sinusoid",
             "piecewise": "piecewise", "table": "table"}


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
    under the key (loop variant, pattern)."""
    try:
        variant = _VARIANTS[u.kind]
    except KeyError:
        raise ValueError(f"unknown input kind {u.kind!r}") from None
    pattern, seeds = _sharing(_reads(ca), x0s)
    loops = getattr(ca, "_loops", None)
    if loops is None:
        loops = {}
        object.__setattr__(ca, "_loops", loops)
    fn = loops.get((variant, pattern))
    if fn is None:
        namespace = {"_fns": tuple(ex.python_functions().values()),
                     "_bisect": bisect, "_Struct": Struct}
        exec(rk4_source(ca, pattern, variant), namespace)
        fn = loops[variant, pattern] = namespace["_rk4"]
    fn(seeds, (0.0,) if u.kind == "zero" else u.params, dt, steps, rows)


def _input_source(variant: str):
    """The input of a loop variant as source, in the float operations of
    ``InputSignal.__call__``: the lines that unpack the signal's parameters
    ``_params`` before the loop, and ``at(u, t)``, the lines that assign the
    input at time ``t`` to ``u`` in the step (None for a constant input,
    which is the bound float ``_u0``)."""
    if variant == "constant":
        return ["_u0, = _params"], None
    if variant == "sinusoid":
        return ["_ia, _iw, _iphi = _params"], lambda u, t: [f"{u} = _ia * _sin(_iw * {t} + _iphi)"]
    if variant == "piecewise":
        return (["_ibp, _ivals = _params", "_find = _bisect.bisect_right"],
                lambda u, t: [f"{u} = _ivals[_find(_ibp, {t})]"])
    return (["_ivals, _idt, _it0 = _params", "_ilast = len(_ivals) - 1", "_int = int"],
            lambda u, t: [f"_i = _int(({t} - _it0) / _idt)",
                          f"{u} = _ivals[0 if _i < 0 else _ilast if _i > _ilast else _i]"])


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


def rk4_source(ca: ControlAffineSystem, pattern, variant: str) -> str:
    """Source of ``_rk4(_x0s, _params, _dt, _steps, _rows)``, the RK4 loop
    that runs the whole integration of the members of the sharing pattern
    ``pattern`` (see ``_sharing``; ``_x0s`` holds the seeds) in lockstep,
    under an input of the loop variant ``variant``.

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

    The input is computed in the float operations of
    ``InputSignal.__call__``: a zero or constant input is one float bound
    before the loop, any other kind once per step and distinct stage time
    (k2 and k3 share t + 0.5*dt).  Each expression is rendered once, as a
    template over the state variables.  The catalog functions are locals,
    and each row is one ``struct`` pack appended to ``_rows`` with
    ``frombytes``.  The function runs with ``_fns``, the
    ``expr.python_functions`` values, ``_bisect`` and ``_Struct`` in its
    globals, checks no state for finiteness and raises nothing of its own."""
    reads = _reads(ca)
    setup, input_at = _input_source(variant)
    before, body = [], []
    pre, emit = _table(before, "_c"), _table(body, "_v")
    # a zero or constant input and its products are bound before the loop
    ua, ub, uc = ("_u0",) * 3 if input_at is None else ("_ua", "_ub", "_uc")
    product = pre if input_at is None else emit
    if input_at is not None:
        body += ["_t = _k * _dt", *input_at(ua, "_t"), *input_at(ub, "(_t + _h)"),
                 *input_at(uc, "(_t + _dt)")]
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


def _raise_failure(ca: ControlAffineSystem, xs, u, dt: float, states, outputs, error) -> None:
    """Raise the failure of the run from the starts ``xs`` that stored
    ``states`` and ``outputs`` (sample, member, variable) and raised
    ``error`` (or None).  Each member's columns are bit for bit its lone
    run, so the rules of a lone run apply across members, the first in order
    deciding a sample: the first step end whose state is not finite (the
    start is none, and stays non-finite into step 1), else each member's
    replay of the step that raised (else ``error`` itself), else the first
    output that is not finite (a float product overflows to inf without
    raising)."""
    ends = np.isfinite(states[1:]).all(axis=2)
    if not ends.all():
        k, j = divmod(int(ends.argmin()), len(xs))
        raise BlowUpError(k * dt + dt, states[k + 1, j].tolist())
    if error is not None:
        done = len(states)  # samples stored before the failing step
        for j, x in enumerate(xs):
            _replay_step(ca, u, dt, states[-1, j].tolist() if done else x, done - 1)
        raise error
    finite = np.isfinite(outputs).all(axis=2)
    if not finite.all():
        k, j = divmod(int(finite.argmin()), len(xs))
        _check_outputs(ca, states[k, j].tolist())


def _run_joint(ca: ControlAffineSystem, xs, u, dt: float, steps: int) -> list[Trajectory]:
    """One run of the members ``xs``.  A failure is read from the rows this
    run stored (``_raise_failure``)."""
    rows, error = array("d"), None
    try:
        _run(ca, tuple(v for x in xs for v in x), u, dt, steps, rows)
    except (ArithmeticError, ValueError) as err:
        error = err
    table = np.frombuffer(rows).reshape(-1, len(xs) * (ca.dim + ca.p))
    split = len(xs) * ca.dim  # states, then outputs, in each row
    states = table[:, :split].reshape(len(table), len(xs), ca.dim)
    outputs = table[:, split:].reshape(len(table), len(xs), ca.p)
    if error is not None or not np.isfinite(table).all():
        _raise_failure(ca, xs, u, dt, states, outputs, error)
    names = tuple(ca.state_vars), tuple(f"y{i}" for i in range(1, ca.p + 1))
    return [Trajectory(0.0, dt, states[:, j], outputs[:, j], *names) for j in range(len(xs))]


def integrate_many(
    sys,
    states,
    u: InputSignal,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> list[Trajectory]:
    """RK4 runs of every initial state in ``states`` under one input, in
    lockstep on one generated loop that computes each distinct right-hand
    side of a step once, so members whose starts agree on every variable a
    field reads share their stages (see ``rk4_source``).

    ``sys`` is a cascade or a control-affine system.  The loop of each
    input kind and sharing pattern is kept with the system's control-affine
    form (see ``_run``), so later calls on the same system reuse it.  More
    than ``MEMBERS_MAX`` states are split into the fewest runs of equal
    size, the last one possibly smaller; a run steps only its own states.
    Each trajectory is bit for bit the one ``integrate`` gives for its state
    alone; its arrays are views into one buffer shared by its run.  A run
    does not stop at a non-finite state: one numpy pass over its stored rows
    finds a state or output that is not finite.  On a failure, an exception
    or such a value, the error raised is the one ``integrate`` reports for
    the member whose failure comes first in the first failing run, the first
    member in order at the same sample (see ``_raise_failure``).
    """
    xs = [tuple(float(v) for v in x) for x in states]
    ca = as_control_affine(sys)
    if ca.m != 1:
        raise ValueError(f"integrate handles single-input systems, got m={ca.m}")
    if not xs:
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
    for x in xs:
        if len(x) != ca.dim:
            raise ValueError(f"state has {len(x)} entries, expected {ca.dim}")

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


def _output_gap(ca: ControlAffineSystem, ta: Trajectory, tb: Trajectory) -> np.ndarray:
    """|ya - yb| per sample and output.  Finite outputs of opposite signs
    near the float limit overflow here; that raises DomainError naming the
    output and its first such sample time."""
    with np.errstate(over="ignore"):
        gap = np.abs(ta.outputs - tb.outputs)
    bad = np.flatnonzero(~np.isfinite(gap))
    if bad.size:
        k, j = divmod(int(bad[0]), gap.shape[1])
        raise ex.DomainError(f"output gap overflows at t={k * ta.dt:.6g}", ca.outputs[j])
    return gap


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
    T = tuple(float(v) for v in T_shift)
    if len(T) != sys.n:
        raise ValueError(f"shift has {len(T)} entries, expected {sys.n}")
    if sum(1 for v in T if v != 0.0) != 1:
        raise ValueError(f"shift must have exactly one nonzero coordinate: {T}")
    base = (0.0,) * (2 * sys.n)
    shifted = T + (0.0,) * sys.n
    ca = as_control_affine(sys)
    results = []
    for sig in inputs:
        gap = _output_gap(ca, *integrate_many(ca, (base, shifted), sig, t_end, dt))
        results.append(ShiftGapResult(input=sig.describe(), gap=float(gap.max())))
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
    diff = _output_gap(ca, *integrate_many(ca, (s0, s1), u, t_end, dt)).max(axis=1)
    gap = float(diff.max())
    over = np.nonzero(diff > DIST_TOL_DEFAULT)[0]
    first = float(over[0] * dt) if over.size else None
    if gap <= DIST_TOL_DEFAULT:
        cls = "identical"
    elif gap > DIVERGED_TOL:
        cls = "diverged"
    else:
        cls = "inconclusive"
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
