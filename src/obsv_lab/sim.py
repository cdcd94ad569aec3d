"""Trajectory integration and output-comparison experiments.

Everything here runs on a fixed RK4 grid on purpose: the experiments below
compare outputs of two trajectories sample by sample, and adaptive steppers
would put the two runs on different time grids.
"""

from __future__ import annotations

import bisect
from array import array
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr as ex
from .expr import Expr
from .model import GAMMA_VAR, CascadeSystem, ControlAffineSystem, as_control_affine

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


class EquilibriumPremiseError(RuntimeError):
    """The closed loop is not at rest at the nominal point, so the
    equilibrium-continuum statement does not apply."""


# ---------------------------------------------------------------------------
# input signals


@dataclass(frozen=True)
class InputSignal:
    kind: str
    params: tuple = ()

    @staticmethod
    def zero() -> "InputSignal":
        return InputSignal("zero")

    @staticmethod
    def constant(c: float) -> "InputSignal":
        return InputSignal("constant", (float(c),))

    @staticmethod
    def sinusoid(amplitude: float, omega: float, phase: float = 0.0) -> "InputSignal":
        return InputSignal("sinusoid", (float(amplitude), float(omega), float(phase)))

    @staticmethod
    def piecewise(breakpoints, values) -> "InputSignal":
        bp = tuple(float(b) for b in breakpoints)
        vals = tuple(float(v) for v in values)
        if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must be strictly increasing: {bp}")
        if len(vals) != len(bp) + 1:
            raise ValueError(
                f"piecewise needs {len(bp) + 1} values for {len(bp)} breakpoints, got {len(vals)}"
            )
        return InputSignal("piecewise", (bp, vals))

    @staticmethod
    def table(values, dt: float, t0: float = 0.0) -> "InputSignal":
        if dt <= 0:
            raise ValueError(f"table dt must be positive, got {dt}")
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ValueError("table needs at least one sample")
        return InputSignal("table", (vals, float(dt), float(t0)))

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

    Accepted: ``zero``, ``const:<c>``, ``sin:<amplitude>,<omega>[,<phase>]``.
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


@dataclass
class Trajectory:
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
        # row by row: one tolist() of the whole table would hold every value
        # as a Python float at once, next to the text
        lines = [header] + [",".join(f"{v:.17g}" for v in row.tolist()) for row in table]
        return "\n".join(lines) + "\n"


def _as_affine(sys) -> ControlAffineSystem:
    if isinstance(sys, CascadeSystem):
        return as_control_affine(sys)
    return sys


@dataclass(frozen=True)
class RK4Loop:
    """A single-input control-affine system with its generated RK4 loop.

    ``run(x0, u, dt, steps, states, outputs)`` extends two flat float arrays
    by one state row and one output row per sample and raises
    ``BlowUpError`` on a non-finite state; any other failure propagates
    from the step where it happened, with the rows before that step stored.
    """

    system: ControlAffineSystem
    run: Callable


def compile_rk4(sys) -> RK4Loop:
    """Generate one Python function that runs the whole RK4 integration.

    Four stages, input sampling, the update, the finiteness check and the
    output row are inlined over plain floats.  The arithmetic order is the
    reference one: stage states x + (0.5*dt)*k, fields f + u*g, update
    x + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4), with u sampled once per
    distinct stage time (k2 and k3 share t + 0.5*dt).
    """
    ca = _as_affine(sys)
    if ca.m != 1:
        raise ValueError(f"integrate handles single-input systems, got m={ca.m}")
    idx = range(ca.dim)
    base = {v: f"_x{i}" for i, v in zip(idx, ca.state_vars)}
    stage = {v: f"_p{i}" for i, v in zip(idx, ca.state_vars)}
    x = "".join(f"_x{i}, " for i in idx)

    def fields(k, at, u):
        return [
            f"_{k}{i} = {ex.python_source(f, at)} + {u} * {ex.python_source(g, at)}"
            for i, f, g in zip(idx, ca.drift, ca.input_fields[0])
        ]

    def stage_state(step, k):
        return [f"_p{i} = _x{i} + {step} * _{k}{i}" for i in idx]

    outputs = "".join(f"{ex.python_source(h, base)}, " for h in ca.outputs)
    body = [
        "_t = _k * _dt",
        "_ua = _u(_t)",
        "_ub = _u(_t + _h)",
        "_uc = _u(_t + _dt)",
        *fields("a", base, "_ua"),
        *stage_state("_h", "a"),
        *fields("b", stage, "_ub"),
        *stage_state("_h", "b"),
        *fields("c", stage, "_ub"),
        *stage_state("_dt", "c"),
        *fields("d", stage, "_uc"),
        *(f"_x{i} = _x{i} + _w * (((_a{i} + 2.0 * _b{i}) + 2.0 * _c{i}) + _d{i})" for i in idx),
        # 0*v is 0 for every finite v and nan for inf or nan
        f"if {' + '.join(f'0.0 * _x{i}' for i in idx)} != 0.0:",
        f"    raise _BlowUpError(_t + _dt, ({x}))",
        f"_out(({outputs}))",
        f"_state(({x}))",
    ]
    src = "\n".join([
        "def _rk4(_x0s, _u, _dt, _steps, _states, _outputs):",
        f"    {x}= _x0s",
        "    _h = 0.5 * _dt",
        "    _w = _dt / 6.0",
        "    _state = _states.extend",
        "    _out = _outputs.extend",
        f"    _out(({outputs}))",
        f"    _state(({x}))",
        "    for _k in range(_steps):",
        *(f"        {line}" for line in body),
        "",
    ])
    namespace = {"_m": math, "_BlowUpError": BlowUpError}
    exec(src, namespace)
    return RK4Loop(system=ca, run=namespace["_rk4"])


def _replay_step(ca: ControlAffineSystem, u, dt: float, x, k: int) -> None:
    """Re-run step ``k`` from state ``x`` stage by stage, raising the
    failure of the generated loop with its location: ``BlowUpError`` at the
    stage time and state for an overflow, ``DomainError`` at the culprit
    subexpression for a domain fault.  ``k = -1`` is the output at t = 0."""
    names = ca.state_vars
    drift_fn = ex.compile_vector(ca.drift, names)
    input_fn = ex.compile_vector(ca.input_fields[0], names)
    out_fn = ex.compile_vector(ca.outputs, names)

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
        f = guarded(drift_fn, ca.drift, state, t)
        g = guarded(input_fn, ca.input_fields[0], state, t)
        ut = u(t)
        return [fi + ut * gi for fi, gi in zip(f, g)]

    def shifted(step, kv):
        return [xi + step * ki for xi, ki in zip(x, kv)]

    if k < 0:
        guarded(out_fn, ca.outputs, x, 0.0)
        return
    t = k * dt
    k1 = field(x, t)
    k2 = field(shifted(0.5 * dt, k1), t + 0.5 * dt)
    k3 = field(shifted(0.5 * dt, k2), t + 0.5 * dt)
    k4 = field(shifted(dt, k3), t + dt)
    x = [xi + (dt / 6.0) * (((a + 2.0 * b) + 2.0 * c) + d)
         for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
    guarded(out_fn, ca.outputs, x, t + dt)


def integrate(
    sys,
    x0,
    u: InputSignal,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> Trajectory:
    """Classical fixed-step RK4 for a single-input control-affine system.

    ``sys`` is a cascade, a control-affine system, or an ``RK4Loop`` from
    ``compile_rk4`` when many states are integrated on one system.  Samples
    land on t = k*dt; a non-finite state or an overflowing stage evaluation
    aborts with ``BlowUpError``, and genuine domain violations (log of a
    negative x, division by zero) surface as ``DomainError`` with the
    offending subexpression.
    """
    loop = sys if isinstance(sys, RK4Loop) else compile_rk4(sys)
    ca = loop.system
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < dt:
        raise ValueError(f"t_end={t_end} is shorter than one step dt={dt}")
    x = tuple(float(v) for v in x0)
    if len(x) != ca.dim:
        raise ValueError(f"state has {len(x)} entries, expected {ca.dim}")

    steps = int(round(t_end / dt))
    states = array("d")
    outputs = array("d")
    try:
        loop.run(x, u, dt, steps, states, outputs)
    except (ArithmeticError, ValueError):
        # the generated loop reports no location; the guarded replay of the
        # failing step does, and re-raising covers a replay that passes
        done = len(states) // ca.dim  # samples stored before the failing step
        _replay_step(ca, u, dt, tuple(states[-ca.dim:]) if done else x, done - 1)
        raise
    return Trajectory(
        t0=0.0,
        dt=dt,
        states=np.frombuffer(states).reshape(steps + 1, ca.dim),
        outputs=np.frombuffer(outputs).reshape(steps + 1, ca.p),
        state_names=tuple(ca.state_vars),
        output_names=tuple(f"y{i}" for i in range(1, ca.p + 1)),
    )


# ---------------------------------------------------------------------------
# output-comparison experiments


@dataclass
class ShiftGapResult:
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
    results = []
    for sig in inputs:
        ya = integrate(sys, base, sig, t_end, dt).outputs
        yb = integrate(sys, shifted, sig, t_end, dt).outputs
        gap = float(np.max(np.abs(ya - yb)))
        results.append(ShiftGapResult(input=sig.describe(), gap=gap))
    return results


@dataclass
class DistinguishabilityResult:
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
    ta = integrate(sys, s0, u, t_end, dt)
    tb = integrate(sys, s1, u, t_end, dt)
    diff = np.max(np.abs(ta.outputs - tb.outputs), axis=1)
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


@dataclass(frozen=True)
class FeedbackLaw:
    """Dynamic output feedback: controller state q, u computed from (y, q).

    ``dynamics`` gives dq/dt (one expression per controller state) and
    ``output`` gives u; both may reference y1..yn and q1..q<nq> only.
    """

    nq: int
    dynamics: tuple[Expr, ...]
    output: Expr

    def __post_init__(self):
        if self.nq < 0:
            raise ValueError(f"controller dimension must be >= 0, got {self.nq}")
        if len(self.dynamics) != self.nq:
            raise ValueError(
                f"expected {self.nq} controller equations, got {len(self.dynamics)}"
            )

    @staticmethod
    def parse(nq: int, dynamics_srcs, output_src: str, n_outputs: int) -> "FeedbackLaw":
        allowed = {f"y{i}" for i in range(1, n_outputs + 1)}
        allowed |= {f"q{l}" for l in range(1, nq + 1)}
        dyn = tuple(ex.parse(src, allowed) for src in dynamics_srcs)
        return FeedbackLaw(nq=nq, dynamics=dyn, output=ex.parse(output_src, allowed))

    @staticmethod
    def static(output_src: str, n_outputs: int = 1) -> "FeedbackLaw":
        return FeedbackLaw.parse(0, (), output_src, n_outputs)


@dataclass
class EquilibriaReport:
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
