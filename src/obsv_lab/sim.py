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
from .model import GAMMA_VAR, CascadeSystem, ControlAffineSystem, as_control_affine
from .record import Frozen, Record

DT_DEFAULT = 1e-3
T_END_DEFAULT = 10.0
DIST_TOL_DEFAULT = 1e-6      # below: numerically identical
DIVERGED_TOL_DEFAULT = 1e-3  # above: clearly diverged; between: inconclusive


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
            return f"const:{self.params[0]:g}"
        if self.kind == "sinusoid":
            a, w, phi = self.params
            return f"sin:{a:g},{w:g},{phi:g}"
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
        header = ",".join(("t",) + self.state_names + self.output_names)
        table = np.column_stack((self.times, self.states, self.outputs))
        template = ",".join(["%.17g"] * table.shape[1])
        # row by row: one tolist() of the whole table would hold every value
        # as a Python float at once, next to the text
        lines = [header] + [template % tuple(row.tolist()) for row in table]
        return "\n".join(lines) + "\n"


def _as_affine(sys) -> ControlAffineSystem:
    if isinstance(sys, CascadeSystem):
        return as_control_affine(sys)
    return sys


# states one generated loop steps together; its stage code grows with their
# groups, not with the members (see compile_rk4)
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


class RK4Loop:
    """A single-input control-affine system with generated RK4 loops that
    step ``size`` initial states in lockstep.

    ``run(x0s, u, dt, steps, rows)`` takes the initial states one after
    another in one flat tuple and appends to ``rows``, an ``array("d")``,
    one whole row per sample: every member's state, then every member's
    outputs.  It raises ``BlowUpError`` on a non-finite state, with the
    state of the first member of the group that holds it; any other failure
    propagates from the step where it happened.  A run that fails in step k
    has stored exactly the k + 1 rows of t = 0 .. k*dt.  The
    loop of an input kind and a sharing pattern (see ``sharing``) is
    generated the first time that pair runs, and kept in ``variants`` under
    the key (loop variant, pattern).
    """

    __slots__ = ("system", "size", "reads", "variants")
    system: ControlAffineSystem
    size: int
    reads: tuple[bool, ...]
    variants: dict

    def __init__(self, system: ControlAffineSystem, size: int):
        self.system = system
        self.size = size
        self.reads = _reads(system)
        self.variants = {}

    def sharing(self, x0s) -> tuple[tuple[tuple[int, ...], ...], list[float]]:
        """(pattern, seeds) of the flat initial states ``x0s``: the pattern
        gives each member one slot per state variable, and ``seeds`` the
        start of each slot.  Members whose starts have the same bits on
        every variable a field reads form a group, which holds one slot per
        read variable and one per distinct start of each other variable;
        slots are numbered in order of first use."""
        dim = self.system.dim
        slots: dict[tuple, int] = {}
        seeds = []
        pattern = []
        for c in range(0, len(x0s), dim):
            x = x0s[c:c + dim]
            group = tuple(v.hex() for v, r in zip(x, self.reads) if r)
            member = []
            for i, (v, r) in enumerate(zip(x, self.reads)):
                s = slots.setdefault((group, i) if r else (group, i, v.hex()), len(slots))
                if s == len(seeds):
                    seeds.append(v)
                member.append(s)
            pattern.append(tuple(member))
        return tuple(pattern), seeds

    def run(self, x0s, u: InputSignal, dt: float, steps: int, rows) -> None:
        try:
            variant = _VARIANTS[u.kind]
        except KeyError:
            raise ValueError(f"unknown input kind {u.kind!r}") from None
        pattern, seeds = self.sharing(x0s)
        fn = self.variants.get((variant, pattern))
        if fn is None:
            namespace = {"_fns": tuple(ex.python_functions().values()),
                         "_bisect": bisect, "_BlowUpError": BlowUpError, "_Struct": Struct}
            exec(rk4_source(self.system, pattern, variant), namespace)
            fn = self.variants[variant, pattern] = namespace["_rk4"]
        fn(seeds, (0.0,) if u.kind == "zero" else u.params, dt, steps, rows)


CHAIN_MAX = 500  # terms of one + chain; Python's compiler recurses once per term


def _sum_source(terms: list[str]) -> str:
    """Source of the sum of ``terms`` as parenthesized partial sums of at
    most ``CHAIN_MAX`` terms; brackets add no AST node, so one partial sum
    compiles as the flat chain."""
    return " + ".join(f"({' + '.join(terms[c:c + CHAIN_MAX])})"
                      for c in range(0, len(terms), CHAIN_MAX))


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


def rk4_source(ca: ControlAffineSystem, pattern, variant: str) -> str:
    """Source of ``_rk4(_x0s, _params, _dt, _steps, _rows)``, the RK4 loop
    of the members of the sharing pattern ``pattern`` (see
    ``RK4Loop.sharing``; ``_x0s`` holds the seeds) under an input of the
    loop variant ``variant`` (see ``compile_rk4``).  Each sample's row is
    one ``struct`` pack appended to ``_rows`` with ``frombytes``.  An input
    field that is a constant c has its product u * (c) formed once per
    stage input for all groups: once before the loop under a zero or
    constant input, else once per step and stage time.  It runs with
    ``_fns``, the ``expr.python_functions`` values, ``_bisect``,
    ``_BlowUpError`` and ``_Struct`` in its globals."""
    idx = range(ca.dim)
    reads = _reads(ca)
    setup, input_at = _input_source(variant)
    # equal constant sources share one product name per stage input
    consts: dict[str, int] = {}
    for g in ca.input_fields[0]:
        if isinstance(g, ex.Const):
            consts.setdefault(ex.python_source(g), len(consts))

    def products(u, q):
        return [f"{q}{j} = {u} * {src}" for src, j in consts.items()]

    if input_at is None:
        (ua, qa), (ub, qb), (uc, qc) = [("_u0", "_q")] * 3
        setup = [*setup, *products("_u0", "_q")]
        inputs = []
    else:
        (ua, qa), (ub, qb), (uc, qc) = ("_ua", "_qa"), ("_ub", "_qb"), ("_uc", "_qc")
        inputs = ["_t = _k * _dt", *input_at(ua, "_t"), *input_at(ub, "(_t + _h)"),
                  *input_at(uc, "(_t + _dt)"), *products(ua, qa), *products(ub, qb),
                  *products(uc, qc)]

    def product(g, at, u, q):
        if isinstance(g, ex.Const):
            return f"{q}{consts[ex.python_source(g)]}"
        return f"{u} * {ex.python_source(g, at)}"

    def fields(k, at, u, q):
        return [
            f"_{k}{i} = {ex.python_source(f, at)} + {product(g, at, u, q)}"
            for i, f, g in zip(idx, ca.drift, ca.input_fields[0])
        ]

    def names(member):
        return {v: f"_s{s}" for v, s in zip(ca.state_vars, member)}

    def state(member):
        return "".join(f"_s{s}, " for s in member)

    # stages 2-4 read the stage state _p, the same names in every group;
    # a variable no field reads needs no stage state
    stage = {v: f"_p{i}" for i, v, r in zip(idx, ca.state_vars, reads) if r}
    later = {k: fields(k, stage, u, q) for k, u, q in (("b", ub, qb), ("c", ub, qb), ("d", uc, qc))}

    def group(members):
        # the members share their slot of every read variable, so the
        # stages of the first are everyone's; each other variable adds its
        # one increment to every distinct slot it has in the group
        first = members[0]

        def stage_state(step, k):
            return [f"_p{i} = _s{first[i]} + {step} * _{k}{i}" for i in idx if reads[i]]

        update = []
        for i in idx:
            inc = f"_w * (((_a{i} + 2.0 * _b{i}) + 2.0 * _c{i}) + _d{i})"
            slots = list(dict.fromkeys(m[i] for m in members))
            if len(slots) > 1:
                update.append(f"_v = {inc}")
                inc = "_v"
            update += [f"_s{s} = _s{s} + {inc}" for s in slots]
        checked = sorted({s for m in members for s in m})
        return [
            *fields("a", names(first), ua, qa),
            *stage_state("_h", "a"),
            *later["b"],
            *stage_state("_h", "b"),
            *later["c"],
            *stage_state("_dt", "c"),
            *later["d"],
            *update,
            # 0*v is 0 for every finite v and nan for inf or nan; one sum
            # per group, since a sum is compiled recursively (CHAIN_MAX)
            f"if {_sum_source([f'0.0 * _s{s}' for s in checked])} != 0.0:",
            f"    raise _BlowUpError(_k * _dt + _dt, ({state(first)}))",
        ]

    groups: dict[tuple, list] = {}
    for m in pattern:
        groups.setdefault(tuple(s for s, r in zip(m, reads) if r), []).append(m)
    # an output source that recurs in the row is computed once per step
    outputs = [ex.python_source(h, at) for at in map(names, pattern) for h in ca.outputs]
    counts = Counter(outputs)
    shared = {src: f"_y{k}" for k, src in
              enumerate(dict.fromkeys(src for src in outputs if counts[src] > 1))}
    output_lines = [f"{name} = {src}" for src, name in shared.items()]
    row = "".join(state(m) for m in pattern) + "".join(f"{shared.get(o, o)}, " for o in outputs)
    store = f"_store(_pack({row}))"
    seeds = "".join(f"_s{s}, " for s in range(1 + max(s for m in pattern for s in m)))
    body = [*inputs, *(line for members in groups.values() for line in group(members)),
            *output_lines, store]
    return "\n".join([
        "def _rk4(_x0s, _params, _dt, _steps, _rows):",
        f"    {seeds}= _x0s",
        f"    {', '.join(ex.python_functions())}, = _fns",
        *(f"    {line}" for line in setup),
        "    _h = 0.5 * _dt",
        "    _w = _dt / 6.0",
        f"    _pack = _Struct('{len(pattern) * (ca.dim + ca.p)}d').pack",
        "    _store = _rows.frombytes",
        *(f"    {line}" for line in output_lines),
        f"    {store}",
        "    for _k in range(_steps):",
        *(f"        {line}" for line in body),
        "",
    ])


def compile_rk4(sys, ensemble: int = 1) -> RK4Loop:
    """The RK4 loop of an ensemble of ``ensemble`` initial states: one
    generated Python function per input kind and sharing pattern that runs
    the whole RK4 integration of the ensemble in lockstep.

    A variable that no drift or input field reads does not enter the
    stages: a cascade's positions, since the system is invariant under
    their translation.  So members whose starts have the same bits on every
    variable a field reads (for a cascade, the velocities) have the same
    stages at every step under the same input.  The step body holds
    one copy of the one-state stages per such group of members: four
    stages over stage states of the read variables only, then the update,
    where each other variable's increment dt/6*(((k1 + 2*k2) + 2*k3) + k4)
    is formed once and added to every distinct start of that variable in
    the group, and one finiteness check of the group's states.  Bits, not
    values, decide a group (``float.hex``), so 0.0 and -0.0 stay apart.  An
    output whose source recurs in the row is computed once.  The arithmetic
    is the reference one, on the operands a lone run has: stage states
    x + (0.5*dt)*k, fields f + u*g, update
    x + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4), so every member's trajectory is
    bit for bit the one of a lone run.  The input is arithmetic in the step,
    in the float operations of ``InputSignal.__call__``: a zero or constant
    input is one float bound before the loop, any other kind is computed
    once per step and distinct stage time for all members (k2 and k3 share
    t + 0.5*dt).  So is the product u*g of each input field g that is a
    constant (a cascade's b_i and 0.0): once per distinct stage input, for
    all groups, and before the loop under a zero or constant input; a field
    that reads a state forms its product in the stage.  The catalog
    functions are locals of the function, and the step's row is stored by
    one ``struct`` pack appended with ``frombytes``.  An ensemble of more
    than ``MEMBERS_MAX`` states is stepped in the fewest runs of equal size.
    The stage code grows with the groups, not with the members, and the
    update, check and output code with the distinct slots, so the code
    stays within ``MEMBERS_MAX`` times that of the one-state loop.
    """
    ca = _as_affine(sys)
    if ca.m != 1:
        raise ValueError(f"integrate handles single-input systems, got m={ca.m}")
    if ensemble < 1:
        raise ValueError(f"an ensemble needs at least one state, got {ensemble}")
    runs = -(-ensemble // MEMBERS_MAX)
    return RK4Loop(system=ca, size=-(-ensemble // runs))


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
    time and state for an overflow in a stage, ``DomainError`` at the
    culprit subexpression for a domain fault or a failing output.  ``k = -1``
    is the output at t = 0."""
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
    _check_outputs(ca, x)


def _raise_first_failure(loop: RK4Loop, xs, u, dt: float, steps: int) -> None:
    """Run the states ``xs`` of a failed run of ``loop`` one at a time and
    raise the first failure with its location (see ``integrate``)."""
    ca = loop.system
    if loop.size > 1:
        loop = compile_rk4(ca)
    width = ca.dim + ca.p
    for x in xs:
        rows = array("d")
        try:
            loop.run(x, u, dt, steps, rows)
        except (ArithmeticError, ValueError):
            # the generated loop reports no location; the guarded replay of
            # the failing step does, and re-raising covers a replay that passes
            done = len(rows) // width  # samples stored before the failing step
            last = tuple(rows[(done - 1) * width:(done - 1) * width + ca.dim])
            _replay_step(ca, u, dt, last if done else x, done - 1)
            raise
        table = np.frombuffer(rows).reshape(steps + 1, width)
        finite = np.isfinite(table[:, ca.dim:]).all(axis=1)
        if not finite.all():
            # a float product overflows to inf without raising, so the loop
            # stored it; the evaluator names the culprit at its first sample
            k = int(finite.argmin())
            _check_outputs(ca, table[k, :ca.dim].tolist())


def _run_joint(loop: RK4Loop, xs, u, dt: float, steps: int) -> list[Trajectory]:
    """One run of a joint loop; members beyond ``xs`` (the last run of an
    ensemble) step copies of its last state.  On a failure, an exception
    or an output that is not finite, the lone runs of
    ``_raise_first_failure`` raise the error of the first failing state:
    each is bit for bit its member's run, so it fails too."""
    ca = loop.system
    padded = xs + [xs[-1]] * (loop.size - len(xs))
    rows = array("d")
    error = None
    try:
        loop.run(tuple(v for x in padded for v in x), u, dt, steps, rows)
    except (ArithmeticError, ValueError, BlowUpError) as err:
        error = err
    split = loop.size * ca.dim  # states, then outputs, in each row
    if error is None:
        table = np.frombuffer(rows).reshape(steps + 1, loop.size * (ca.dim + ca.p))
    if error is not None or not np.isfinite(table[:, split:]).all():
        _raise_first_failure(loop, xs, u, dt, steps)
    if error is not None:
        raise error
    states = table[:, :split].reshape(steps + 1, loop.size, ca.dim)
    outputs = table[:, split:].reshape(steps + 1, loop.size, ca.p)
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
    lockstep on one generated loop (see ``compile_rk4``).

    ``sys`` is a cascade, a control-affine system, or an ``RK4Loop``
    compiled for ensembles of this size, when many are integrated on one
    system.  Each trajectory is bit for bit the one ``integrate`` gives for
    its state alone; its arrays are views into one buffer shared by the
    ensemble.  On a failure of the joint loop, an exception or an output
    that is not finite, its states are integrated again one at a time, so
    the error raised is the one of the first failing state, as
    ``integrate`` reports it.
    """
    xs = [tuple(float(v) for v in x) for x in states]
    loop = sys if isinstance(sys, RK4Loop) else compile_rk4(sys, len(xs))
    ca = loop.system
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < dt:
        raise ValueError(f"t_end={t_end} is shorter than one step dt={dt}")
    for x in xs:
        if len(x) != ca.dim:
            raise ValueError(f"state has {len(x)} entries, expected {ca.dim}")

    steps = int(round(t_end / dt))
    return [traj for c in range(0, len(xs), loop.size)
            for traj in _run_joint(loop, xs[c:c + loop.size], u, dt, steps)]


def integrate(
    sys,
    x0,
    u: InputSignal,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> Trajectory:
    """Classical fixed-step RK4 for a single-input control-affine system.

    ``sys`` is a cascade or a control-affine system.  Samples land on
    t = k*dt; a non-finite state or an overflowing stage evaluation aborts
    with ``BlowUpError``, and genuine domain violations (log of a negative
    x, division by zero) and outputs that are not finite surface as
    ``DomainError`` with the offending subexpression.
    """
    return integrate_many(sys, (x0,), u, t_end, dt)[0]


# ---------------------------------------------------------------------------
# output-comparison experiments


def _output_gap(loop: RK4Loop, ta: Trajectory, tb: Trajectory) -> np.ndarray:
    """|ya - yb| per sample and output.  Finite outputs of opposite signs
    near the float limit overflow here; that raises DomainError naming the
    output and its first such sample time."""
    with np.errstate(over="ignore"):
        gap = np.abs(ta.outputs - tb.outputs)
    bad = np.flatnonzero(~np.isfinite(gap))
    if bad.size:
        k, j = divmod(int(bad[0]), gap.shape[1])
        raise ex.DomainError(f"output gap overflows at t={k * ta.dt:.6g}", loop.system.outputs[j])
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
    loop = compile_rk4(sys, 2)
    results = []
    for sig in inputs:
        gap = _output_gap(loop, *integrate_many(loop, (base, shifted), sig, t_end, dt))
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
    dist_tol: float = DIST_TOL_DEFAULT,
    diverged_tol: float = DIVERGED_TOL_DEFAULT,
) -> DistinguishabilityResult:
    """Integrate both states under the same input and compare output records.

    Classification: "identical" when the sup gap stays at or below dist_tol,
    "diverged" when it exceeds diverged_tol, "inconclusive" in between (the
    gap is too large to ignore but too small to rule out integrator error).
    """
    loop = compile_rk4(sys, 2)
    diff = _output_gap(loop, *integrate_many(loop, (s0, s1), u, t_end, dt)).max(axis=1)
    gap = float(diff.max())
    over = np.nonzero(diff > dist_tol)[0]
    first = float(over[0] * dt) if over.size else None
    if gap <= dist_tol:
        cls = "identical"
    elif gap > diverged_tol:
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
    n = sys.n
    x_vars = [f"x{i}" for i in range(1, n + 1)]
    z_vars = [f"z{i}" for i in range(1, n + 1)]
    q_vars = [f"q{l}" for l in range(1, law.nq + 1)]

    y_exprs = {
        f"y{i}": ex.mul(
            ex.substitute(sys.gamma[i - 1], GAMMA_VAR, ex.Var(x_vars[i - 1])),
            ex.Var(z_vars[i - 1]),
        )
        for i in range(1, n + 1)
    }

    def ground(e: Expr) -> Expr:
        bad = ex.free_vars(e) - set(y_exprs) - set(q_vars)
        if bad:
            raise ValueError(f"feedback law uses unknown variables {sorted(bad)}")
        for name, rep in y_exprs.items():
            e = ex.substitute(e, name, rep)
        return e

    u_expr = ground(law.output)
    field = [ex.Var(z) for z in z_vars]
    field += [
        ex.add(sys.F[i], ex.mul(ex.const(sys.b[i]), u_expr)) for i in range(n)
    ]
    field += [ground(g) for g in law.dynamics]
    return tuple(x_vars + z_vars + q_vars), tuple(field)


def output_feedback_equilibria_check(
    sys: CascadeSystem,
    law: FeedbackLaw,
    q_star,
    xi_grid,
    premise_tol: float = 1e-12,
) -> EquilibriaReport:
    """Show that resting states form a continuum under output feedback.

    First verifies the nominal point (origin plant state, q_star controller
    state) actually is a closed-loop equilibrium; then evaluates the coupled
    field at every (xi, 0, q_star) with all positions moved to xi.  Because
    the outputs vanish whenever the velocities do, moving the position does
    not re-excite the loop, so each residual should vanish as well: the
    closed loop cannot regulate which resting position it ends up at.
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
    if premise > premise_tol:
        raise EquilibriumPremiseError(
            f"nominal point is not an equilibrium: field norm {premise:.3e} "
            f"exceeds {premise_tol:.1e}"
        )
    rows = [(float(xi), residual(float(xi))) for xi in xi_grid]
    return EquilibriaReport(q_star=q, premise_residual=premise, residuals=rows)
