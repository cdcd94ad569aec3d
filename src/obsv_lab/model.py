"""Cascade system model and its control-affine form.

A cascade system couples n position/velocity pairs:

    dx_i/dt = z_i
    dz_i/dt = F_i(z) + b_i * u
    y_i     = gamma_i(x_i) * z_i

Positions never enter the dynamics and are read out only through the
velocity gain gamma_i.  State order is fixed as (x_1..x_n, z_1..z_n)
throughout the package.

Engines check a state through ``state_of`` and a one-position shift
through ``shift_of``, the one copy of each check and its message; the
closed forms and the separation scan of ``obsv`` check cascade states
themselves.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import expr as ex
from .expr import Expr, ParseError
from .record import Frozen, Record

if TYPE_CHECKING:
    import numpy as np

GAMMA_VAR = "x"

# the defaults every JSON report echoes, kept here so that a command need not
# import the modules that use them
DT_DEFAULT = 1e-3           # RK4 step
T_END_DEFAULT = 10.0        # simulated horizon
DIST_TOL_DEFAULT = 1e-6     # output gap below which two records are numerically identical
EPS_DEFAULT = 1e-4          # Gramian's central-difference perturbation of the initial state
K_MAX_DEFAULT = 12          # default bound on the derivative order of a separation scan
SEP_TOL_DEFAULT = 1e-9      # relative gap required of a separating witness
RANK_TOL_DEFAULT = 1e-10    # singular values below this fraction of the largest (at rest,
                            # of a block scaled to 1) count as zero


class InvalidSystemError(ValueError):
    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))


class SystemFormatError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ObservableWord(Frozen):
    """An iterated Lie derivative of output j: field mu_1 first (innermost),
    then mu_2, and so on; index 0 is the drift, index i >= 1 input field i."""

    __slots__ = ("j", "mu")
    j: int                # output index, 1-based
    mu: tuple[int, ...]   # field indices, innermost first; 0 = drift

    def __init__(self, j: int, mu):
        mu = tuple(map(int, mu))
        if j < 1:
            raise ValueError(f"output index must be >= 1, got {j}")
        if min(mu, default=0) < 0:
            raise ValueError(f"field indices must be >= 0: {mu}")
        super().__init__(j, mu)

    def __len__(self) -> int:
        return len(self.mu)


class _AffineSlot(Frozen):
    # a slot beside the fields of CascadeSystem, which only lists its own
    # __slots__ as fields: as_control_affine keeps the system's form there,
    # out of sight of equality, hash, repr and pickle
    __slots__ = ("_affine",)


class CascadeSystem(_AffineSlot):
    __slots__ = ("n", "gamma", "F", "b")
    n: int
    gamma: tuple[Expr, ...]  # each an expression in the single variable x
    F: tuple[Expr, ...]      # each an expression in z1..zn
    b: tuple[float, ...]

    def state_names(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(1, self.n + 1)) + tuple(
            f"z{i}" for i in range(1, self.n + 1)
        )


class _LoopSlot(Frozen):
    # a slot beside the fields of ControlAffineSystem: sim keeps the RK4
    # loops it generates for the system there, a dict keyed by (input
    # kind, sharing pattern), out of sight of equality, hash, repr and
    # pickle
    __slots__ = ("_loops",)


class ControlAffineSystem(_LoopSlot):
    """dx/dt = drift(x) + sum_i u_i * input_fields[i](x), y = outputs(x)."""

    __slots__ = ("state_vars", "drift", "input_fields", "outputs")
    state_vars: tuple[str, ...]
    drift: tuple[Expr, ...]
    input_fields: tuple[tuple[Expr, ...], ...]
    outputs: tuple[Expr, ...]

    @property
    def dim(self) -> int:
        return len(self.state_vars)

    @property
    def m(self) -> int:
        return len(self.input_fields)

    @property
    def p(self) -> int:
        return len(self.outputs)


class LinearizationResult(Record):
    __slots__ = ("A", "B", "C", "point")
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    point: tuple[float, ...]


def z_names(n: int) -> tuple[str, ...]:
    return tuple(f"z{i}" for i in range(1, n + 1))


def validate(sys: CascadeSystem) -> list[str]:
    """Return a list of violation messages; empty means well formed."""
    out = []
    if sys.n < 1:
        out.append(f"n = {sys.n} must be at least 1")
        return out
    for name, seq in (("gamma", sys.gamma), ("F", sys.F), ("b", sys.b)):
        if len(seq) != sys.n:
            out.append(f"{name} has {len(seq)} entries, expected n = {sys.n}")
    zs = set(z_names(sys.n))
    for i, g in enumerate(sys.gamma, start=1):
        extra = ex.free_vars(g) - {GAMMA_VAR}
        if extra:
            out.append(f"gamma_{i} uses non-x variable {sorted(extra)[0]}")
    for i, f in enumerate(sys.F, start=1):
        extra = ex.free_vars(f) - zs
        if extra:
            out.append(f"F_{i} uses unknown variable {sorted(extra)[0]}")
    for i, bi in enumerate(sys.b, start=1):
        if bi == 0.0:
            out.append(f"b_{i} = 0")
        elif not math.isfinite(bi):
            out.append(f"b_{i} is not finite")
    return out


def as_control_affine(sys: CascadeSystem | ControlAffineSystem) -> ControlAffineSystem:
    """Rewrite the cascade in control-affine form with state (x_1..x_n, z_1..z_n).

    The form is built once per system object and kept on it.  A
    control-affine system is returned unchanged.
    """
    if isinstance(sys, ControlAffineSystem):
        return sys
    ca = getattr(sys, "_affine", None)
    if ca is not None:
        return ca
    violations = validate(sys)
    if violations:
        raise InvalidSystemError(violations)
    n = sys.n
    names = sys.state_names()
    drift = tuple(ex.Var(f"z{i}") for i in range(1, n + 1)) + tuple(sys.F)
    field = tuple(ex.const(0.0) for _ in range(n)) + tuple(ex.const(bi) for bi in sys.b)
    outputs = tuple(
        ex.mul(ex.substitute(g, GAMMA_VAR, ex.Var(f"x{i}")), ex.Var(f"z{i}"))
        for i, g in enumerate(sys.gamma, start=1)
    )
    ca = ControlAffineSystem(
        state_vars=names,
        drift=drift,
        input_fields=(field,),
        outputs=outputs,
    )
    object.__setattr__(sys, "_affine", ca)
    return ca


def state_of(sys: CascadeSystem | ControlAffineSystem, x) -> tuple[ControlAffineSystem, tuple]:
    """(ca, x): the control-affine form of ``sys`` and ``x`` as a tuple of
    floats, which must have one entry per state variable."""
    ca = as_control_affine(sys)
    x = tuple(float(v) for v in x)
    if len(x) != ca.dim:
        raise ValueError(f"state has {len(x)} entries, expected {ca.dim}")
    return ca, x


def shift_of(sys: CascadeSystem, shift) -> tuple[tuple[float, ...], int]:
    """(shift, i): ``shift`` as a tuple of floats, one per block, and the
    index of its one nonzero entry."""
    shift = tuple(float(v) for v in shift)
    if len(shift) != sys.n:
        raise ValueError(f"shift has {len(shift)} entries, expected {sys.n}")
    hot = [i for i, v in enumerate(shift) if v != 0.0]
    if len(hot) != 1:
        raise ValueError(f"shift must have exactly one nonzero coordinate: {shift}")
    return shift, hot[0]


def linearize_at(sys: ControlAffineSystem | CascadeSystem, x0) -> LinearizationResult:
    """Jacobian linearization around x0 with zero input.  A gradient row
    that is not finite raises DomainError naming its drift or output
    expression."""
    import numpy as np

    sys, x0 = state_of(sys, x0)
    d = sys.dim
    with np.errstate(over="ignore", invalid="ignore"):
        A, C = ex.Jet(sys.outputs, sys.state_vars, x0, field=sys.drift, seeds=np.eye(d)).jacobians()
    for rows, exprs in ((A, sys.drift), (C, sys.outputs)):
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ex.DomainError("non-finite gradient", exprs[int(np.argmin(finite))])
    env = dict(zip(sys.state_vars, x0))
    B = np.array([[ex.evaluate(g, env) for g in field] for field in sys.input_fields])
    return LinearizationResult(A=A, B=B.reshape(sys.m, d).T, C=C, point=x0)


# ---------------------------------------------------------------------------
# Presets

# name -> gamma source of a one-block cascade with F = -z1 and b = 1;
# README's "Presets:" paragraph says what each shows
_PRESETS: dict[str, str] = {
    "fish-1d-gauss": "exp(-x^2)",
    "fish-1d-hyperbolic": "1/(x+2)",
    "periodic-sin": "sin(x)",
    "sin-drift": "2 + sin(x) + 0.1*x",
}


def preset(name: str) -> CascadeSystem:
    try:
        gamma_src = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from None
    return CascadeSystem(n=1, gamma=(ex.parse(gamma_src, {GAMMA_VAR}),),
                         F=(ex.parse("-z1", {"z1"}),), b=(1.0,))


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


# ---------------------------------------------------------------------------
# File format: line oriented "key = value" with # comments.
#   n = 2
#   gamma[1] = exp(-x^2)
#   F[1] = -z1
#   b = [1, 0.5]


def load_system(text: str) -> CascadeSystem:
    entries: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SystemFormatError(line_no, f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in entries:
            raise SystemFormatError(line_no, f"duplicate key {key!r}")
        if not value:
            raise SystemFormatError(line_no, f"empty value for {key!r}")
        entries[key] = (line_no, value)

    def take(key: str) -> tuple[int, str]:
        try:
            return entries.pop(key)
        except KeyError:
            raise SystemFormatError(0, f"missing required key {key!r}") from None

    line_no, n_text = take("n")
    try:
        n = int(n_text)
    except ValueError:
        raise SystemFormatError(line_no, f"n must be an integer, got {n_text!r}") from None
    if n < 1:
        raise SystemFormatError(line_no, f"n must be positive, got {n}")

    xs = ex.VarNames({GAMMA_VAR})
    gamma = []
    for i in range(1, n + 1):
        line_no, src = take(f"gamma[{i}]")
        try:
            gamma.append(ex.parse(src, xs))
        except ParseError as err:
            raise SystemFormatError(line_no, f"gamma[{i}]: {err}") from err

    zs = ex.VarNames(z_names(n))
    F = []
    for i in range(1, n + 1):
        line_no, src = take(f"F[{i}]")
        try:
            F.append(ex.parse(src, zs))
        except ParseError as err:
            raise SystemFormatError(line_no, f"F[{i}]: {err}") from err

    line_no, b_text = take("b")
    if not (b_text.startswith("[") and b_text.endswith("]")):
        raise SystemFormatError(line_no, "b must look like [v1, v2, ...]")
    inner = b_text[1:-1]
    try:  # float rejects an empty entry, as in [1,,2] or [1,], but reads 1_0 as 10
        if "_" in inner:
            raise ValueError(inner)
        b = tuple(float(p) for p in inner.split(",")) if inner.strip() else ()
    except ValueError:
        raise SystemFormatError(line_no, f"b entries must be numbers: {b_text}") from None
    if len(b) != n:
        raise SystemFormatError(line_no, f"b has {len(b)} entries, expected {n}")

    if entries:
        stray_key = next(iter(entries))
        raise SystemFormatError(entries[stray_key][0], f"unexpected key {stray_key!r}")

    sys = CascadeSystem(n=n, gamma=tuple(gamma), F=tuple(F), b=b)
    violations = validate(sys)
    if violations:
        raise InvalidSystemError(violations)
    return sys


def load_system_file(path) -> CascadeSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return load_system(fh.read())
