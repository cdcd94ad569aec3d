"""Observability analysis for cascade systems.

The central fact this module exploits: for a cascade system the alternating
input/drift Lie derivative words collapse to closed forms in the gain
derivatives,

    (drift o input)^k applied to y_i  ->  gamma_i^(k)(x_i) * b_i^k * z_i
    input o (drift o input)^k         ->  gamma_i^(k)(x_i) * b_i^(k+1)

so distinguishing two states reduces to comparing derivative jets of the
scalar gains.  Whether any two states can be distinguished at all hinges on
whether every gain is aperiodic: a gain with period T makes states shifted
by T in that coordinate produce identical outputs forever.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr as ex
from .expr import Expr
from .lie import ObservableWord
from .model import GAMMA_VAR, CascadeSystem, ControlAffineSystem, as_control_affine, jacobians
from .record import Record

K_MAX_DEFAULT = 12         # default bound on the derivative order of a separation scan
SEP_TOL_DEFAULT = 1e-9     # relative gap required of a separating witness
RANK_TOL_DEFAULT = 1e-10   # singular values below this fraction of the largest (at rest,
                           # of a block scaled to 1) count as zero

CLASS_PERIODIC = "periodic"
CLASS_APERIODIC = "aperiodic"
CLASS_UNDETERMINED = "undetermined"

VERDICT_SEPARATED = "separated"
VERDICT_SHIFT = "indistinguishable-by-construction"
VERDICT_UNRESOLVED = "not-separated-within-bounds"


class PeriodicityVerdict(Record):
    __slots__ = ("classification", "period", "evidence")
    classification: str
    period: float | None
    evidence: dict


class SystemPeriodicityReport(Record):
    __slots__ = ("gamma_verdicts", "verdict")
    gamma_verdicts: tuple[PeriodicityVerdict, ...]
    verdict: str  # observable | not-observable | undetermined


class SeparationCertificate(Record):
    __slots__ = ("verdict", "witness", "value0", "value1", "bounds")
    verdict: str
    witness: ObservableWord | None
    value0: float | None
    value1: float | None
    bounds: dict  # a new empty dict by default

    def __init__(self, verdict, witness, value0, value1, bounds=None):
        super().__init__(verdict, witness, value0, value1, {} if bounds is None else bounds)


class RankReport(Record):
    __slots__ = ("words", "gradients", "singular_values", "rank", "dim")
    words: list[ObservableWord]
    gradients: np.ndarray
    singular_values: np.ndarray
    rank: int
    dim: int

    @property
    def locally_observable(self) -> bool:
        return self.rank == self.dim


# ---------------------------------------------------------------------------
# Closed forms for the alternating words


def _check_block(sys: CascadeSystem, i: int, state) -> None:
    if not 1 <= i <= sys.n:
        raise ValueError(f"block index {i} out of range for n = {sys.n}")
    if len(state) != 2 * sys.n:
        raise ValueError(f"state has {len(state)} entries, expected {2 * sys.n}")


def _lflg(gk: float, b: float, k: int, z: float) -> float:
    return gk * b ** k * z


def _lglflg(gk: float, b: float, k: int) -> float:
    return gk * b ** (k + 1)


def cascade_lflg(sys: CascadeSystem, i: int, k: int, state) -> float:
    """Value of the k-fold (drift o input) word on output i: gamma^(k)(x_i) b^k z_i."""
    _check_block(sys, i, state)
    x = float(state[i - 1])
    z = float(state[sys.n + i - 1])
    gk = ex.nth_derivative_at(sys.gamma[i - 1], GAMMA_VAR, k, x)
    return _lflg(gk, sys.b[i - 1], k, z)


def cascade_lglflg(sys: CascadeSystem, i: int, k: int, state) -> float:
    """Value of input o (drift o input)^k on output i: gamma^(k)(x_i) b^(k+1)."""
    _check_block(sys, i, state)
    x = float(state[i - 1])
    gk = ex.nth_derivative_at(sys.gamma[i - 1], GAMMA_VAR, k, x)
    return _lglflg(gk, sys.b[i - 1], k)


def word_lflg(i: int, k: int) -> ObservableWord:
    """Word applying input then drift, k times over (innermost first)."""
    return ObservableWord(j=i, mu=(1, 0) * k)


def word_lglflg(i: int, k: int) -> ObservableWord:
    """Word applying input then drift k times, then input once more."""
    return ObservableWord(j=i, mu=(1, 0) * k + (1,))


# ---------------------------------------------------------------------------
# Periodicity detection.  See detect_period for the rules.


_REALS = (-math.inf, math.inf)
_UNKNOWN = (*_REALS, False)
Q_MAX = 64  # largest denominator of a frequency ratio
# six points of the additive golden-ratio (Weyl) sequence in [-10, 10],
# evenly spread; the probe compares them in pairs, in this order
_PROBES = [-10.0 + 20.0 * (k * (math.sqrt(5.0) - 1.0) / 2.0 % 1.0) for k in range(1, 7)]


def _has_x(e: Expr) -> bool:
    return GAMMA_VAR in ex.free_vars(e)


def _period(e: Expr) -> float | None:
    """The period of the catalog function at the root of ``e``, if any."""
    return ex.CATALOG[e.name].period if isinstance(e, ex.Func) else None


def _has_trig_of_x(e: Expr) -> bool:
    if _period(e) is not None and _has_x(e.arg):
        return True
    return any(_has_trig_of_x(c) for c in ex.children(e))


_LIBM_ULPS = 2  # covers glibc's documented error (x86-64) of exp, log, sin, cos, tan, tanh
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's split of a float into two halves
_TINY = 2.0 ** -969  # below this the rounding error of a product may underflow
_EXACT_AT = {"exp": 0.0, "ln": 1.0, "sin": 0.0, "cos": 0.0, "tan": 0.0, "tanh": 0.0}
_SHORT = 1.0  # tan's poles are pi apart: a range this short crosses at most one


def _outward(v: float, exact: bool, up: bool, ulps: int = 1) -> float:
    for _ in range(0 if exact else ulps):
        v = math.nextafter(v, math.inf if up else -math.inf)
    return v


def _exact(a: float, b: float, r: float, product: bool) -> bool:
    """Whether the float sum or product r of a and b is exact: Knuth's TwoSum
    or Dekker's TwoProduct finds no error.  inf from an infinite operand is
    exact; an overflow, also inside TwoProduct (inf or nan, never 0), not."""
    if not math.isfinite(r):
        return not (math.isfinite(a) and math.isfinite(b))
    if not product:
        t = r - a
        return (a - (r - t)) + (b - t) == 0.0
    if abs(r) < _TINY:
        return a == 0.0 or b == 0.0
    ca, cb = _SPLIT * a, _SPLIT * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return ((ah * bh - r) + ah * bl + al * bh) + al * bl == 0.0


def _add_out(a: float, b: float, up: bool) -> float:
    s = a + b
    if math.isnan(s):  # inf - inf: nothing known
        return math.inf if up else -math.inf
    return _outward(s, _exact(a, b, s, False), up)


def _mul_out(a: float, b: float, up: bool) -> float:
    p = a * b
    return _outward(p, _exact(a, b, p, True), up)


def _positive(a) -> bool:
    return a[0] > 0.0 or (a[0] == 0.0 and a[2])


def _positive_bounds(lo: float, hi: float, a, b):
    # a product or power of positive factors is positive
    if _positive(a) and _positive(b):
        return max(lo, 0.0), hi, lo <= 0.0
    return lo, hi, False


def _mul_bounds(a, b):
    pairs = [(u, v) for u in {a[0], a[1]} for v in {b[0], b[1]}]
    if any(math.isnan(u * v) for u, v in pairs):  # 0 * inf: nothing known
        return _UNKNOWN
    lo = min(_mul_out(u, v, False) for u, v in pairs)
    return _positive_bounds(lo, max(_mul_out(u, v, True) for u, v in pairs), a, b)


def _recip(v: float, up: bool) -> float:
    if v == 0.0:  # a bound 0 of a positive value (an underflow, or a tail's 0+)
        return math.inf
    q = 1.0 / v
    return _outward(q, not math.isfinite(v) or q * v == 1.0 and _exact(q, v, 1.0, True), up)


def _recip_bounds(a):
    if not _positive(a) and a[0] <= 0.0 <= a[1]:
        return _UNKNOWN
    return _recip(a[1], False), _recip(a[0], True), _positive(a) and a[1] == math.inf  # 1/a > 0


def _pow_bounds(v: float, n: int) -> tuple[float, float]:
    """(lo, hi) around v^n, from n products rounded outward."""
    lo = hi = 1.0
    for _ in range(n):
        lo, hi = _mul_out(lo, abs(v), False), _mul_out(hi, abs(v), True)
    return (-hi, -lo) if v < 0.0 and n % 2 else (lo, hi)


def _value(name: str, v: float, up: bool) -> float:
    """A bound on catalog function ``name`` at ``v``: its float value, exact
    at an infinite v (a limit), at ``_EXACT_AT`` and for a sqrt that squares
    back, else moved outward."""
    try:
        r = ex.CATALOG[name].value(v)
    except OverflowError:  # exp of a large bound
        return math.inf if up else math.nextafter(math.inf, 0.0)
    except ValueError:  # ln(0): the limit at 0+
        return -math.inf
    if name == "sqrt":
        return _outward(r, r * r == v and _exact(r, r, v, True), up)
    return _outward(r, not math.isfinite(v) or v == _EXACT_AT[name], up, _LIBM_ULPS)


def _in_domain(f: ex.CatalogEntry, a) -> bool:
    return f.domain[0](a[0]) or _positive(a)  # a positive value passes ln's and sqrt's test


# The rounding rule: a bound that a float operation computes exactly stays,
# and any other bound moves outward, one float for + - * / and sqrt
# (correctly rounded in IEEE 754) and _LIBM_ULPS floats for another catalog
# function, so that every enclosure holds the real value.
def _bounds(e: Expr, x: tuple[float, float]) -> tuple[float, float, bool]:
    """Interval bounds (lo, hi, strict) on ``e`` for x in ``x`` where ``e``
    is defined, in the extended reals (Moore, Interval Analysis, 1966),
    rounded outward.

    Over all of R, ``x`` is (-inf, inf): lo <= e <= hi, and e > lo when
    ``strict``, so exp(u) > 0.  At a point p, ``x`` is (p, p).  At a tail,
    ``x`` is (end, end) for x tending to +inf or -inf: lo <= liminf,
    limsup <= hi, and lo == hi is the limit; ``strict`` then says that
    e > lo for x near the end."""
    if isinstance(e, ex.Const):
        return e.value, e.value, False
    if isinstance(e, ex.Var):
        return x[0], x[1], False
    if isinstance(e, ex.Neg):
        lo, hi, _ = _bounds(e.arg, x)
        return -hi, -lo, False
    if isinstance(e, (ex.Add, ex.Sub)):
        a, b = _bounds(e.left, x), _bounds(e.right, x)
        if isinstance(e, ex.Sub):
            b = (-b[1], -b[0], False)
        # over R, a > a.lo and b >= b.lo give a + b > lo; at a tail, b may dip below b.lo
        strict = (a[2] or b[2]) if x[0] < x[1] else (a[2] and b[2])
        return _add_out(a[0], b[0], False), _add_out(a[1], b[1], True), strict
    if isinstance(e, ex.Mul):
        return _mul_bounds(_bounds(e.left, x), _bounds(e.right, x))
    if isinstance(e, ex.Div):
        return _mul_bounds(_bounds(e.left, x), _recip_bounds(_bounds(e.right, x)))
    if isinstance(e, ex.Pow):
        base = _bounds(e.base, x)
        n = abs(e.exponent)
        a, b = _pow_bounds(base[0], n), _pow_bounds(base[1], n)
        lo = 0.0 if n % 2 == 0 and base[0] < 0.0 < base[1] else min(a[0], b[0])
        r = _positive_bounds(lo, max(a[1], b[1]), base, base)
        return _recip_bounds(r) if e.exponent < 0 else r
    u = _bounds(e.arg, x)
    f = ex.CATALOG[e.name]
    if f.domain is not None and not _in_domain(f, u):
        return _UNKNOWN  # possibly outside the domain
    if f.tail is None:  # increasing: f(u) > f(lo) where u > lo, and lo = -inf is never reached
        return _value(e.name, u[0], False), _value(e.name, u[1], True), u[2] or u[0] == -math.inf
    if not (math.isfinite(u[0]) and math.isfinite(u[1])):
        return (*f.tail, False)
    w = _add_out(u[1], -u[0], True)
    if e.name == "tan":  # increasing between poles
        lo, hi = _value("tan", u[0], False), _value("tan", u[1], True)
        return (lo, hi, False) if w <= _SHORT and lo <= hi else _UNKNOWN
    # sin and cos: |f'| <= 1 around f(u.lo)
    lo = _add_out(_value(e.name, u[0], False), -w, False)
    hi = _add_out(_value(e.name, u[0], True), w, True)
    return max(lo, f.tail[0]), min(hi, f.tail[1]), False


def _unproven_domain(e: Expr) -> tuple[Expr, tuple] | None:
    """The first ln or sqrt node of ``e`` whose argument ``_bounds`` over R
    does not prove inside its domain, with those bounds; else None.  Each
    subtree free of x is evaluated instead (a failing one raises)."""
    if not _has_x(e):
        ex.evaluate(e, {})
        return None
    if isinstance(e, ex.Func) and ex.CATALOG[e.name].domain is not None:
        a = _bounds(e.arg, _REALS)
        if not _in_domain(ex.CATALOG[e.name], a):
            return e, a
    return next(filter(None, map(_unproven_domain, ex.children(e))), None)


def _linear(e: Expr) -> float | None:
    """a when the tree of ``e`` is a*x + c, else None: sums and negations
    of x and x-free terms, times or over x-free factors.  Only a tree shows
    an argument affine on all of R: sqrt(x^2) is x near 1, and
    x + exp(-x^8) is x to roundoff away from 0."""
    if not _has_x(e):
        return 0.0
    if isinstance(e, ex.Var):
        return 1.0
    if isinstance(e, ex.Neg):
        a = _linear(e.arg)
        return None if a is None else -a
    if isinstance(e, (ex.Add, ex.Sub)):
        a, b = _linear(e.left), _linear(e.right)
        if a is None or b is None:
            return None
        return a + b if isinstance(e, ex.Add) else a - b
    if isinstance(e, (ex.Mul, ex.Div)) and not _has_x(e.right):
        a, c = _linear(e.left), ex.evaluate(e.right, {})
        if a is None:
            return None
        return a * c if isinstance(e, ex.Mul) else a / c
    if isinstance(e, ex.Mul) and not _has_x(e.left):
        a = _linear(e.right)
        return None if a is None else ex.evaluate(e.left, {}) * a
    return None


def _trig_terms(e: Expr, terms: list) -> bool:
    """Append (node, period, a) for every periodic catalog function of an
    argument a*x + c with a != 0 (see ``_linear``); False when x also
    occurs outside these terms."""
    period = _period(e)
    if period is not None:
        a = _linear(e.arg)
        if a is not None:
            if a != 0.0:
                terms.append((e, period, a))
            return True
    if isinstance(e, ex.Var):
        return False
    return all([_trig_terms(c, terms) for c in ex.children(e)])  # every child's terms


def _small_ratio(r: float) -> tuple[int, int] | None:
    """(p, q) with p/q within 4 ulps of r and q <= Q_MAX, smallest q first.

    Decimal slopes miss their ratio by an ulp or so (0.3/0.1 is
    2.9999999999999996); such a pair of terms joins one class, and a
    gain with two classes is never called periodic.
    """
    for q in range(1, Q_MAX + 1):
        p = round(r * q)
        if p > 0 and abs(p / q - r) <= 4.0 * math.ulp(r):
            return p, q
    return None


def _lcm_period(gamma: Expr) -> tuple[list[float], dict | None]:
    """Candidate periods from the trig terms of ``gamma`` (see
    ``_trig_terms``), and for an exact candidate how often each term's
    period fits into it, by the term's id; None when there is none.

    Terms whose slopes are small rational multiples of the first slope of
    a class join that class; each class gives the lcm of its term periods
    (period/|a| for f(a*x + c): 2 pi/|a| for sin and cos, pi/|a| for tan).
    The candidate is exact when there is one class and x occurs nowhere
    else: the lcm is then a period of the gain on all of R.
    """
    terms: list = []
    only_terms = _trig_terms(gamma, terms)
    classes: list[tuple[float, list]] = []  # (a0, [(term, T_i / (2 pi/a0) as (u, v))])
    for node, period, a in terms:
        for a0, members in classes:
            pq = _small_ratio(abs(a) / a0)
            if pq is not None:
                break
        else:
            a0, members, pq = abs(a), [], (1, 1)
            classes.append((a0, members))
        u, v = pq[1], pq[0] * round(2.0 * math.pi / period)
        g = math.gcd(u, v)
        members.append((node, u // g, v // g))
    periods = []
    for a0, members in classes:
        num = math.lcm(*(u for _, u, _ in members))
        den = math.gcd(*(v for _, _, v in members))
        periods.append(2.0 * math.pi / a0 * num / den)
    if not (only_terms and len(periods) == 1 and math.isfinite(periods[0])):
        return periods, None
    # one class, whose lcm is num/den: P / T_i = (num/den) / (u/v)
    return periods, {id(node): num * v // (den * u) for node, u, v in members}


def _half_shift(e: Expr, fits: dict, m: int) -> int | None:
    """1 when shifting x by P/(2m) leaves ``e`` unchanged, -1 when it
    negates ``e``, None when the tree shows neither; ``fits`` is the
    number of term periods in the exact candidate P (see ``_lcm_period``).
    """
    n = fits.get(id(e))
    if n is not None:  # a term, shifted by n/(2m) of its period
        if n % (2 * m) == 0:
            return 1
        # sin and cos change sign over half a period; tan(u + pi/2) is -1/tan(u)
        return -1 if n % m == 0 and e.name != "tan" else None
    if not _has_x(e):
        return 1
    if isinstance(e, ex.Var):
        return None
    if isinstance(e, (ex.Add, ex.Sub, ex.Mul, ex.Div)):
        a, b = _half_shift(e.left, fits, m), _half_shift(e.right, fits, m)
        if isinstance(e, (ex.Add, ex.Sub)):
            return a if a == b else None
        return None if a is None or b is None else a * b
    s = _half_shift(e.base if isinstance(e, ex.Pow) else e.arg, fits, m)
    if s is None or s == 1 or isinstance(e, ex.Neg):  # -(-u) is -(u)
        return s
    if isinstance(e, ex.Pow):
        return -1 if e.exponent % 2 else 1
    parity = ex.CATALOG[e.name].parity
    return {"odd": -1, "even": 1}.get(parity)


def _probe(gamma: Expr) -> dict | None:
    """A pair of ``_PROBES`` where the gain's enclosures are disjoint, which
    proves it is not constant, with those enclosures; else None."""
    for r, s in zip(_PROBES[::2], _PROBES[1::2]):
        a, b = _bounds(gamma, (r, r)), _bounds(gamma, (s, s))
        if a[1] < b[0] or b[1] < a[0]:
            return {"x": [r, s], "bounds": [[a[0], a[1]], [b[0], b[1]]]}
    return None


def detect_period(gamma: Expr) -> PeriodicityVerdict:
    """Classify a scalar gain on all of R as periodic, aperiodic, or undetermined.

    Every verdict comes from the expression tree and the outward-rounded
    interval bounds of ``_bounds``; no tolerance enters.  Each subtree free
    of x is evaluated once, so a constant that fails raises DomainError; a
    gain free of x is constant (periodic, period None).  Otherwise the
    first rule that applies decides, and ``evidence["rule"]`` names it:

    - ``domain``: interval bounds do not prove a ln argument > 0 or a sqrt
      argument >= 0 on all of R, so the gain may be undefined somewhere:
      undetermined.  ``evidence["domain"]`` gives the node and its
      argument's bounds.  Divisors and tan need no proof: a non-constant
      analytic divisor vanishes only at isolated points.
    - ``log-exp``: no sin/cos/tan has an x-dependent argument.  The gain is
      then a Hardy L-function, eventually monotone (Hardy, Orders of
      Infinity, 1910), so it is aperiodic unless it is constant.
    - ``limit``: interval evaluation of the tree at +inf or -inf finds a
      limit L in [-inf, inf] (the easy fragment of Gruntz, PhD thesis, ETH
      Zurich 1996).  A period T would give f(x) = f(x + nT) -> L, so f == L.
    - ``periodic``: each sin/cos/tan whose argument is a*x + c by its tree
      is a term.  Terms whose slopes are within 4 ulps of p/q times each
      other, q <= Q_MAX, form a class that counts their ratio as exactly
      p/q (the proof is for slopes in that ratio, not for their floats),
      and each class's lcm P of 2 pi/|a| (pi/|a| for tan) is a candidate.
      With one class and x nowhere else, P is a period on all of R.  The
      reported period is P, halved while a parity walk of the tree proves
      that half of it is a period too (see ``_half_shift``): a proven
      period, not always the least (``cos(x)^4 + sin(x)^4`` gives pi).

    Any other gain is undetermined (rule ``none``); ``evidence["candidates"]``
    lists each candidate P.  A ``log-exp`` or ``limit`` verdict is
    undetermined unless ``evidence["probe"]`` proves the gain not constant
    (see ``_probe``).
    """
    unproven = _unproven_domain(gamma)
    if not _has_x(gamma):
        return PeriodicityVerdict(CLASS_PERIODIC, None, {"rule": "constant", "constant": True})
    evidence: dict = {}
    if unproven is not None:
        node, (a, b, _) = unproven
        evidence.update(rule="domain", domain={"node": str(node), "bounds": [a, b]})
        return PeriodicityVerdict(CLASS_UNDETERMINED, None, evidence)

    if not _has_trig_of_x(gamma):
        evidence["rule"] = "log-exp"
    else:
        for end in (math.inf, -math.inf):
            a, b, _ = _bounds(gamma, (end, end))
            if a == b:
                evidence.update(rule="limit", limit={"x": end, "value": a})
                break
    if "rule" in evidence:
        evidence["probe"] = _probe(gamma)
        cls = CLASS_UNDETERMINED if evidence["probe"] is None else CLASS_APERIODIC
        return PeriodicityVerdict(cls, None, evidence)

    periods, fits = _lcm_period(gamma)
    if fits is None:
        evidence.update(rule="none", candidates=periods)
        return PeriodicityVerdict(CLASS_UNDETERMINED, None, evidence)
    m = 1  # past the largest fit every term shows neither, so the walk stops
    while _half_shift(gamma, fits, m) == 1:
        m *= 2
    evidence.update(rule="periodic", lcm_period=periods[0], candidates=periods)
    return PeriodicityVerdict(CLASS_PERIODIC, periods[0] / m, evidence)


def is_aperiodic_system(sys: CascadeSystem, k_max: int = K_MAX_DEFAULT) -> SystemPeriodicityReport:
    """Observability verdict for the whole cascade: every gain must be
    aperiodic.  ``k_max`` is ignored, since no period verdict takes a
    derivative; it stays only for callers that still pass it."""
    verdicts = tuple(detect_period(g) for g in sys.gamma)
    classes = {v.classification for v in verdicts}
    overall = ("not-observable" if CLASS_PERIODIC in classes
               else "observable" if classes == {CLASS_APERIODIC} else "undetermined")
    return SystemPeriodicityReport(gamma_verdicts=verdicts, verdict=overall)


# ---------------------------------------------------------------------------
# Separating observables


def _sep_gap_ok(v0: float, v1: float) -> bool:
    return abs(v0 - v1) > SEP_TOL_DEFAULT * (1.0 + max(abs(v0), abs(v1)))


def _whole_periods(v: PeriodicityVerdict, delta: float) -> bool:
    """Whether ``delta`` is a nonzero whole multiple, up to rounding, of the
    period of a gain with verdict ``v``; every shift is one for a constant."""
    if v.classification != CLASS_PERIODIC:
        return False
    if v.period is None:
        return True
    m = round(delta / v.period)
    return m != 0 and math.isclose(delta, m * v.period, rel_tol=1e-12)


def find_separating_observable(
    sys: CascadeSystem,
    s0,
    s1,
    k_max: int = K_MAX_DEFAULT,
) -> SeparationCertificate:
    """Search for an observable word whose value splits the two states.

    The scan walks the alternating-word families in order of increasing
    derivative order k <= ``k_max``, preferring the shortest witness, whose
    values differ by more than ``SEP_TOL_DEFAULT`` relative.  Before it,
    states that agree in every velocity and gain value are
    indistinguishable by the explicit shift construction when each moved
    position moves by a whole multiple of the period ``detect_period``
    finds for its gain, or its gain is constant: the only pairs no input
    tells apart;
    ``bounds["shifts"]`` then gives each moved block's shift and period.
    A negative ``k_max`` raises ValueError.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be at least 0, got {k_max}")
    n = sys.n
    s0 = tuple(float(v) for v in s0)
    s1 = tuple(float(v) for v in s1)
    if len(s0) != 2 * n or len(s1) != 2 * n:
        raise ValueError(f"states must have {2 * n} entries")
    if s0 == s1:
        raise ValueError("states are identical; nothing to separate")
    bounds = {"k_max": k_max, "sep_tol": SEP_TOL_DEFAULT}

    x0, z0 = s0[:n], s0[n:]
    x1, z1 = s1[:n], s1[n:]
    jets: dict[tuple[int, str], ex.Jet] = {}

    def gain_derivative(i: int, state: int, k: int) -> float:
        # gamma_i^(k) at the position of s0 (state 0) or s1 (state 1); one
        # jet per block and position bits, so the states share it where the
        # positions are equal (-0.0 and 0.0 stay apart), grown only as deep
        # as the scan goes
        x = (x0, x1)[state][i - 1]
        key = (i, x.hex())
        jet = jets.get(key)
        if jet is None:
            jet = jets[key] = ex.Jet((sys.gamma[i - 1],), (GAMMA_VAR,), (x,))
        return jet.derivative(0, k)

    def lflg(i: int, k: int) -> tuple[float, float]:
        b = sys.b[i - 1]
        return (_lflg(gain_derivative(i, 0, k), b, k, z0[i - 1]),
                _lflg(gain_derivative(i, 1, k), b, k, z1[i - 1]))

    def lglflg(i: int, k: int) -> tuple[float, float]:
        b = sys.b[i - 1]
        return _lglflg(gain_derivative(i, 0, k), b, k), _lglflg(gain_derivative(i, 1, k), b, k)

    def first_witness(family, word, blocks) -> SeparationCertificate | None:
        # shortest witness first: derivative order outside, block inside
        for k in range(k_max + 1):
            for i in blocks:
                v0, v1 = family(i, k)
                if _sep_gap_ok(v0, v1):
                    return SeparationCertificate(VERDICT_SEPARATED, word(i, k), v0, v1, bounds)
        return None

    blocks = range(1, n + 1)
    moved = [i for i in blocks if x0[i - 1] != x1[i - 1]]
    if z0 == z1 and not any(_sep_gap_ok(*lglflg(i, 0)) for i in moved):
        # equal velocities and gain values: try the shift construction
        # first, since a scan compares jets at x and at the rounded x + T,
        # whose gap grows with the order and passes SEP_TOL_DEFAULT near zero
        shifts = {}
        for i in moved:
            # the jets above evaluated each moved gain, so a failing
            # constant in it has raised already
            verdict = detect_period(sys.gamma[i - 1])
            delta = x1[i - 1] - x0[i - 1]
            if not _whole_periods(verdict, delta):
                break
            shifts[f"block_{i}"] = {"shift": delta, "period": verdict.period}
        else:
            bounds["shifts"] = shifts
            return SeparationCertificate(VERDICT_SHIFT, None, None, None, bounds)

    if not moved:
        # positions agree: only the velocity-scaled family can split them,
        # and only on blocks whose velocities differ
        cert = first_witness(lflg, word_lflg, [i for i in blocks if z0[i - 1] != z1[i - 1]])
    else:
        # positions differ: compare gain jets through the velocity-free
        # family, then fall back to the velocity-scaled family on all blocks
        cert = first_witness(lglflg, word_lglflg, moved) or first_witness(lflg, word_lflg, blocks)
    return cert or SeparationCertificate(VERDICT_UNRESOLVED, None, None, None, bounds)


# ---------------------------------------------------------------------------
# Local rank test (zero-input observation space)


def local_rank(
    sys: ControlAffineSystem | CascadeSystem,
    x0,
    l_max: int | None = None,
) -> RankReport:
    """Numerical rank of the zero-input observation-space differentials at x0.

    Rows are gradients of repeated drift derivatives of each output,
    enumerated breadth first (derivative order ascending, outputs cycling).
    Full rank means the state is locally distinguishable from its
    neighbours without any input excitation.  A non-finite row raises
    DomainError.

    At an equilibrium, where every drift component is exactly 0 at x0, row
    k of output j is row j of C A^k, with A and C the Jacobians of the drift
    and the outputs (Hermann & Krener, IEEE TAC 1977), and the rank is that
    of an orthogonal block-Krylov (staircase) reduction of (A, C) (Paige,
    IEEE TAC 1981), which forms no power of A.  Its order 0 is the nonzero
    rows of C, each scaled to unit norm (by its largest entry first, so that
    a row near the float ceiling keeps a finite norm); its order k is the
    directions order k - 1 added, times A / ||A||_F, so rounding in such a
    row stays a few ulps of 1 however small the row is and never passes for
    a direction.  The right singular vectors of a block, projected twice
    against the orthonormal basis, join it where their singular value clears
    ``RANK_TOL_DEFAULT``.  The rank is then exact, not a bounded search: the
    reduction stops at full rank or at the first order that adds no
    direction, since the span is then A-invariant, unless ``l_max`` (state
    dimension by default) stops it first; the rows, C then each previous
    block times A, and their singular values cover the orders it reached.

    Elsewhere the rows come from the Taylor series of the outputs along the
    drift flow with one tangent direction per state, with an early stop once
    the stack reaches full rank; a deficient result is a bounded-search
    statement: only jets up to order ``l_max`` were tried, at most
    p*(l_max + 1) rows, allocated one order at a time.  Singular values at
    or below ``RANK_TOL_DEFAULT`` of the largest count as zero.  Order k
    costs one scalar operation for the values and one vector operation for
    the tangents per nonzero value coefficient, O(k) per node.  An SVD runs
    only at an order where full rank is possible (at least ``dim`` rows, no
    all-zero column) and at the last order.
    """
    sys = as_control_affine(sys)
    x0 = tuple(float(v) for v in x0)
    if len(x0) != sys.dim:
        raise ValueError(f"state has {len(x0)} entries, expected {sys.dim}")
    if sys.p < 1:
        raise ValueError("local_rank needs at least one output, got none")
    if l_max is None:
        l_max = sys.dim
    elif l_max < 0:
        raise ValueError(f"l_max must be at least 0, got {l_max}")
    p, dim = sys.p, sys.dim

    def checked(block: np.ndarray, k: int) -> np.ndarray:
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            j = int(np.argmin(finite))
            raise ex.DomainError(f"non-finite gradient at order {k}", sys.outputs[j])
        return block

    with np.errstate(over="ignore", invalid="ignore"):
        flow = ex.Jet(sys.outputs, sys.state_vars, x0, field=sys.drift, seeds=np.eye(dim))
        A = None
        if all(flow.field_at_x0(i)[0] == 0.0 for i in range(dim)):
            A, C = jacobians(flow, dim)
        blocks: list[np.ndarray] = []  # one p x dim block of rows per order
        sigma = None
        # the reduction needs a finite A; where it has none, the tape
        # decides, as at a moving state
        if A is not None and np.isfinite(A).all():
            unit, peak = A, np.abs(A).max()
            if peak > 0.0:
                unit = A / peak
                unit /= np.sqrt(np.sum(unit * unit))
            peak = np.abs(C).max(axis=1)
            block = C[peak > 0.0] / peak[peak > 0.0, None]
            block /= np.sqrt(np.sum(block * block, axis=1))[:, None]
            basis = block[:0]
            for k in range(l_max + 1):
                blocks.append(checked(blocks[-1] @ A if k else C, k))
                if k:
                    block = new @ unit
                    for _ in range(2):  # the second pass removes what the first rounds in
                        block = block - (block @ basis.T) @ basis
                    if np.sum(block * block) <= RANK_TOL_DEFAULT ** 2:
                        break  # no singular value exceeds the Frobenius norm
                _, sv, vt = np.linalg.svd(block, full_matrices=False)
                new = vt[sv > RANK_TOL_DEFAULT]
                if k:  # and this one what the SVD rounds back in
                    new = new - (new @ basis.T) @ basis
                basis = np.vstack((basis, new))
                if not len(new) or len(basis) == dim:
                    break
            rank = len(basis)
        else:
            seen = np.zeros(dim, dtype=bool)  # columns nonzero in some row so far
            for k in range(l_max + 1):
                block = np.empty((p, dim))
                for j in range(p):
                    block[j] = flow.gradient(j, k)
                blocks.append(checked(block, k))
                seen |= (block != 0.0).any(axis=0)
                last = k == l_max
                if last or (p * (k + 1) >= dim and seen.all()):
                    sigma = np.linalg.svd(np.vstack(blocks), compute_uv=False)
                    rank = int(np.sum(sigma > RANK_TOL_DEFAULT * sigma[0])) if sigma[0] > 0.0 else 0
                    if last or rank == dim:
                        break
        stack = np.vstack(blocks)
        if sigma is None:  # at rest the reduction gave the rank
            sigma = np.linalg.svd(stack, compute_uv=False)
    words = [ObservableWord(j=j, mu=(0,) * k) for k in range(len(blocks)) for j in range(1, p + 1)]
    return RankReport(words, stack, sigma, rank, dim)

