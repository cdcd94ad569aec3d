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
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .expr import Expr, K_MAX_DEFAULT
from .lie import ObservableWord
from .model import GAMMA_VAR, CascadeSystem, ControlAffineSystem, as_control_affine

PER_TOL_DEFAULT = 1e-8     # relative residual for accepting a period
K_CHECK_DEFAULT = 6        # derivative orders compared when validating a period
SEP_TOL_DEFAULT = 1e-9     # relative gap required of a separating witness
RANK_TOL_DEFAULT = 1e-10   # singular values below this fraction of the largest count as zero
WINDOW_DEFAULT = (-20.0, 20.0)
GRID_DEFAULT = 4096

CLASS_PERIODIC = "periodic"
CLASS_APERIODIC = "aperiodic"
CLASS_UNDETERMINED = "undetermined"

VERDICT_SEPARATED = "separated"
VERDICT_SHIFT = "indistinguishable-by-construction"
VERDICT_UNRESOLVED = "not-separated-within-bounds"


@dataclass
class PeriodicityVerdict:
    classification: str
    period: float | None
    evidence: dict


@dataclass
class SystemPeriodicityReport:
    gamma_verdicts: tuple[PeriodicityVerdict, ...]
    verdict: str  # observable | not-observable | undetermined


@dataclass
class SeparationCertificate:
    verdict: str
    witness: ObservableWord | None
    value0: float | None
    value1: float | None
    bounds: dict = field(default_factory=dict)


@dataclass
class RankReport:
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


def _check_block(sys: CascadeSystem, i: int) -> None:
    if not 1 <= i <= sys.n:
        raise ValueError(f"block index {i} out of range for n = {sys.n}")


def _lflg(gk: float, b: float, k: int, z: float) -> float:
    return gk * b ** k * z


def _lglflg(gk: float, b: float, k: int) -> float:
    return gk * b ** (k + 1)


def cascade_lflg(sys: CascadeSystem, i: int, k: int, state, k_max: int = K_MAX_DEFAULT) -> float:
    """Value of the k-fold (drift o input) word on output i: gamma^(k)(x_i) b^k z_i."""
    _check_block(sys, i)
    x = float(state[i - 1])
    z = float(state[sys.n + i - 1])
    gk = ex.nth_derivative_at(sys.gamma[i - 1], GAMMA_VAR, k, x, k_max)
    return _lflg(gk, sys.b[i - 1], k, z)


def cascade_lglflg(sys: CascadeSystem, i: int, k: int, state, k_max: int = K_MAX_DEFAULT) -> float:
    """Value of input o (drift o input)^k on output i: gamma^(k)(x_i) b^(k+1)."""
    _check_block(sys, i)
    x = float(state[i - 1])
    gk = ex.nth_derivative_at(sys.gamma[i - 1], GAMMA_VAR, k, x, k_max)
    return _lglflg(gk, sys.b[i - 1], k)


def word_lflg(i: int, k: int) -> ObservableWord:
    """Word applying input then drift, k times over (innermost first)."""
    return ObservableWord(j=i, mu=(1, 0) * k)


def word_lglflg(i: int, k: int) -> ObservableWord:
    """Word applying input then drift k times, then input once more."""
    return ObservableWord(j=i, mu=(1, 0) * k + (1,))


# ---------------------------------------------------------------------------
# Periodicity detection


def _sample_gain(gamma: Expr, xs: np.ndarray):
    """The gain on the grid ``xs`` and its numpy-compiled form.

    A non-finite sample (a pole, a log of a non-positive value, an overflow)
    raises DomainError: the first such point is re-evaluated through the
    tree walker, which names the culprit subexpression.
    """
    fn_np = ex.compile_vector((gamma,), (GAMMA_VAR,), np)
    try:
        with np.errstate(all="ignore"):
            vals = np.broadcast_to(fn_np(xs)[0], xs.shape)  # a constant gain gives one float
    except ArithmeticError:
        # a constant subexpression such as 1/0 fails in plain floats, at every point
        vals = np.full(xs.shape, np.nan)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        x = float(xs[bad[0]])
        ex.evaluate(gamma, {GAMMA_VAR: x})
        raise ex.DomainError(f"non-finite value at {GAMMA_VAR} = {x!r}", gamma)
    return vals, fn_np


def _shift_residual(fn_np, xs: np.ndarray, base: np.ndarray, T: float, scale: float) -> float:
    with np.errstate(all="ignore"):
        shifted = fn_np(xs + T)[0]
    d = np.abs(shifted - base)
    if not np.all(np.isfinite(d)):
        return float("inf")
    return float(d.max()) / scale


def _golden_section(f, lo: float, hi: float, width: float = 1e-12) -> float:
    """Shrink [lo, hi] around the minimum of a unimodal f to the given width.

    The shift residual is V-shaped at a true period, so the section can keep
    going to ~1e-12 (Kiefer, Proc. AMS 4, 1953).
    """
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > width:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = f(d)
    return float(0.5 * (lo + hi))


def _first_jet_mismatch(gamma: Expr, r: float, s: float, k_last: int, tol: float):
    """First order k <= k_last where the derivative jets at r and s differ, or None."""
    jr = ex.Jet((gamma,), (GAMMA_VAR,), (r,), k_max=k_last)
    js = ex.Jet((gamma,), (GAMMA_VAR,), (s,), k_max=k_last)
    for k in range(k_last + 1):
        a = jr.derivative(0, k)
        b = js.derivative(0, k)
        if abs(a - b) > tol * (1.0 + max(abs(a), abs(b))):
            return {"k": k, "lhs": float(a), "rhs": float(b)}
    return None


def _derivative_jets_match(gamma: Expr, T: float, probes, k_check: int, tol: float) -> bool:
    return all(_first_jet_mismatch(gamma, r, r + T, k_check, tol) is None for r in probes)


def _autocorr_candidates(vals: np.ndarray, dx: float, max_lag: int) -> list[float]:
    v = vals - vals.mean()
    n = len(v)
    if not np.any(v):
        return []
    spec = np.fft.rfft(v, 2 * n)
    corr = np.fft.irfft(spec * np.conj(spec))[:n].real
    counts = np.arange(n, 0, -1, dtype=float)
    corr = corr / counts
    if corr[0] <= 0.0:
        return []
    r = corr / corr[0]
    cands: list[tuple[float, float]] = []
    for k in range(2, min(max_lag, n - 1)):
        if r[k] > 0.2 and r[k] >= r[k - 1] and r[k] > r[k + 1]:
            cands.append((r[k], k * dx))
    cands.sort(reverse=True)
    out = [T for _, T in cands[:4]]

    power = np.abs(np.fft.rfft(v)) ** 2
    bins = [
        j
        for j in range(1, len(power) - 1)
        if power[j] > power[j - 1] and power[j] >= power[j + 1]
    ]
    bins.sort(key=lambda j: power[j], reverse=True)
    for j in bins[:3]:
        out.append(n * dx / j)
    return out


def _dedupe(cands: list[float]) -> list[float]:
    kept: list[float] = []
    for T in sorted(cands):
        if T <= 0:
            continue
        if not kept or T > kept[-1] * 1.02:
            kept.append(T)
    return kept


def detect_period(
    gamma: Expr,
    window: tuple[float, float] = WINDOW_DEFAULT,
    grid: int = GRID_DEFAULT,
    per_tol: float = PER_TOL_DEFAULT,
    k_check: int = K_CHECK_DEFAULT,
    k_max: int = K_MAX_DEFAULT,
    seed: int = 0,
) -> PeriodicityVerdict:
    """Classify a scalar gain as periodic, aperiodic, or undetermined.

    Candidate periods come from autocorrelation peaks and dominant spectrum
    bins of the sampled gain; each candidate is refined by minimizing the
    shift residual max|gamma(x+T) - gamma(x)| and then accepted only if the
    residual stays below ``per_tol`` (relative to the gain's scale) and the
    derivative jets up to order ``k_check`` agree at random probe points.
    When every candidate is falsified the verdict is aperiodic, backed by a
    probe pair of points whose derivative jets differ; if no such pair can
    be exhibited the verdict degrades to undetermined.
    """
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError(f"empty sampling window {window}")
    if grid < 64:
        raise ValueError(f"grid must be at least 64, got {grid}")

    xs = np.linspace(lo, hi, grid)
    dx = xs[1] - xs[0]
    vals, fn_np = _sample_gain(gamma, xs)
    vmax = float(np.max(np.abs(vals)))
    scale = max(1.0, vmax)
    rng = np.random.default_rng(seed)
    evidence: dict = {"window": [lo, hi], "samples": grid, "scale": scale}

    span = float(vals.max() - vals.min())
    if span <= per_tol * scale:
        evidence["constant"] = True
        return PeriodicityVerdict(CLASS_PERIODIC, None, evidence)

    sub = xs[:: max(1, grid // 512)]
    sub_vals = vals[:: max(1, grid // 512)]

    raw = _autocorr_candidates(vals, dx, max_lag=grid // 2)
    candidates = _dedupe(raw)

    tried = []
    for T0 in candidates:
        coarse = _golden_section(
            lambda T: _shift_residual(fn_np, sub, sub_vals, T, scale),
            0.75 * T0,
            1.25 * T0,
            width=1e-6,
        )
        half = max(1e-5, 4.0 * math.sqrt(np.finfo(float).eps) * abs(coarse))
        T = _golden_section(
            lambda T: _shift_residual(fn_np, xs, vals, T, scale),
            max(0.75 * T0, coarse - half),
            min(1.25 * T0, coarse + half),
        )
        residual = _shift_residual(fn_np, xs, vals, T, scale)
        tried.append({"period": T, "residual": residual, "seed_candidate": T0})
        if residual <= per_tol:
            probes = rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), size=3)
            if _derivative_jets_match(gamma, T, probes, k_check, per_tol):
                evidence["candidates"] = tried
                evidence["derivative_orders_checked"] = k_check
                return PeriodicityVerdict(CLASS_PERIODIC, T, evidence)

    evidence["candidates"] = tried

    # no validated period: exhibit two points with differing derivative jets
    for _ in range(3):
        r, s = sorted(rng.uniform(lo / 2, hi / 2, size=2))
        if r == s:
            continue
        hit = _first_jet_mismatch(gamma, r, s, k_max, per_tol)
        if hit is not None:
            evidence["probe"] = {"r": float(r), "s": float(s), **hit}
            return PeriodicityVerdict(CLASS_APERIODIC, None, evidence)

    return PeriodicityVerdict(CLASS_UNDETERMINED, None, evidence)


def is_aperiodic_system(
    sys: CascadeSystem,
    window: tuple[float, float] = WINDOW_DEFAULT,
    grid: int = GRID_DEFAULT,
    per_tol: float = PER_TOL_DEFAULT,
    k_check: int = K_CHECK_DEFAULT,
    k_max: int = K_MAX_DEFAULT,
    seed: int = 0,
) -> SystemPeriodicityReport:
    """Observability verdict for the whole cascade: every gain must be aperiodic."""
    verdicts = tuple(
        detect_period(g, window, grid, per_tol, k_check, k_max, seed) for g in sys.gamma
    )
    if any(v.classification == CLASS_PERIODIC for v in verdicts):
        overall = "not-observable"
    elif all(v.classification == CLASS_APERIODIC for v in verdicts):
        overall = "observable"
    else:
        overall = "undetermined"
    return SystemPeriodicityReport(gamma_verdicts=verdicts, verdict=overall)


# ---------------------------------------------------------------------------
# Separating observables


def _sep_gap_ok(v0: float, v1: float, sep_tol: float) -> bool:
    return abs(v0 - v1) > sep_tol * (1.0 + max(abs(v0), abs(v1)))


def _validated_shift(
    gamma: Expr,
    shift: float,
    window: tuple[float, float],
    grid: int,
    per_tol: float,
    k_check: int,
    seed: int,
) -> tuple[bool, float]:
    xs = np.linspace(window[0], window[1], grid)
    try:
        vals, fn_np = _sample_gain(gamma, xs)
    except ex.DomainError:
        return False, float("inf")
    scale = max(1.0, float(np.max(np.abs(vals))))
    residual = _shift_residual(fn_np, xs, vals, shift, scale)
    if residual > per_tol:
        return False, residual
    rng = np.random.default_rng(seed)
    probes = rng.uniform(window[0] / 2, window[1] / 2, size=3)
    ok = _derivative_jets_match(gamma, shift, probes, k_check, per_tol)
    return ok, residual


def find_separating_observable(
    sys: CascadeSystem,
    s0,
    s1,
    k_max: int = K_MAX_DEFAULT,
    sep_tol: float = SEP_TOL_DEFAULT,
    per_tol: float = PER_TOL_DEFAULT,
    window: tuple[float, float] = WINDOW_DEFAULT,
    grid: int = GRID_DEFAULT,
    k_check: int = K_CHECK_DEFAULT,
    seed: int = 0,
) -> SeparationCertificate:
    """Search for an observable word whose value splits the two states.

    The scan walks the alternating-word families in order of increasing
    derivative order k, preferring the shortest witness.  States that agree
    in every velocity and differ only by validated periods of their gains
    are reported as indistinguishable by the explicit shift construction.
    """
    n = sys.n
    s0 = tuple(float(v) for v in s0)
    s1 = tuple(float(v) for v in s1)
    if len(s0) != 2 * n or len(s1) != 2 * n:
        raise ValueError(f"states must have {2 * n} entries")
    if s0 == s1:
        raise ValueError("states are identical; nothing to separate")
    bounds = {"k_max": k_max, "sep_tol": sep_tol}

    x0, z0 = s0[:n], s0[n:]
    x1, z1 = s1[:n], s1[n:]
    jets: dict[tuple[int, int], ex.Jet] = {}

    def gain_derivative(i: int, state: int, k: int) -> float:
        # gamma_i^(k) at the position of s0 (state 0) or s1 (state 1); one
        # jet per block and state, grown only as deep as the scan goes
        jet = jets.get((i, state))
        if jet is None:
            x = (x0, x1)[state][i - 1]
            jet = jets[(i, state)] = ex.Jet((sys.gamma[i - 1],), (GAMMA_VAR,), (x,), k_max=k_max)
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
                if _sep_gap_ok(v0, v1, sep_tol):
                    return SeparationCertificate(VERDICT_SEPARATED, word(i, k), v0, v1, bounds)
        return None

    blocks = range(1, n + 1)
    if x0 == x1:
        # positions agree: only the velocity-scaled family can split them,
        # and only on blocks whose velocities differ
        cert = first_witness(lflg, word_lflg, [i for i in blocks if z0[i - 1] != z1[i - 1]])
    else:
        # positions differ: compare gain jets through the velocity-free
        # family, then fall back to the velocity-scaled family on all blocks
        cert = (first_witness(lglflg, word_lglflg, [i for i in blocks if x0[i - 1] != x1[i - 1]])
                or first_witness(lflg, word_lflg, blocks))
    if cert is not None:
        return cert

    # shift construction: equal velocities and every differing position
    # offset by a validated period of its own gain
    if z0 == z1:
        shifts = {}
        all_valid = True
        for i in range(1, n + 1):
            delta = x1[i - 1] - x0[i - 1]
            if delta == 0.0:
                continue
            ok, residual = _validated_shift(
                sys.gamma[i - 1], delta, window, grid, per_tol, k_check, seed
            )
            shifts[f"block_{i}"] = {"shift": delta, "residual": residual}
            if not ok:
                all_valid = False
                break
        if all_valid and shifts:
            return SeparationCertificate(
                VERDICT_SHIFT, None, None, None, {**bounds, "shifts": shifts}
            )

    return SeparationCertificate(VERDICT_UNRESOLVED, None, None, None, bounds)


# ---------------------------------------------------------------------------
# Local rank test (zero-input observation space)


def local_rank(
    sys: ControlAffineSystem | CascadeSystem,
    x0,
    max_words: int = 32,
    l_max: int | None = None,
    rank_tol: float = RANK_TOL_DEFAULT,
) -> RankReport:
    """Numerical rank of the zero-input observation-space differentials at x0.

    Rows are gradients of repeated drift derivatives of each output,
    enumerated breadth first (derivative order ascending, outputs cycling),
    with an early stop once the stack reaches full rank.  Full rank means
    the state is locally distinguishable from its neighbours without any
    input excitation; a deficient result is a bounded-search statement,
    only jets up to order ``l_max`` (state dimension by default) were tried.
    The rows come from the Taylor series of the outputs along the drift
    flow with one tangent direction per state, O(l_max^2) per expression.
    """
    if isinstance(sys, CascadeSystem):
        sys = as_control_affine(sys)
    x0 = tuple(float(v) for v in x0)
    if len(x0) != sys.dim:
        raise ValueError(f"state has {len(x0)} entries, expected {sys.dim}")
    if l_max is None:
        l_max = sys.dim
    flow = ex.Jet(sys.outputs, sys.state_vars, x0, field=sys.drift, seeds=np.eye(sys.dim),
                  k_max=l_max)

    words: list[ObservableWord] = []
    rows: list[np.ndarray] = []
    sigma = np.zeros(0)
    rank = 0
    for k in range(l_max + 1):
        if len(rows) >= max_words:
            break
        for j in range(1, sys.p + 1):
            if len(rows) >= max_words:
                break
            rows.append(np.broadcast_to(flow.gradient(j - 1, k), (sys.dim,)))
            words.append(ObservableWord(j=j, mu=(0,) * k))
        mat = np.array(rows)
        sigma = np.linalg.svd(mat, compute_uv=False)
        if sigma.size and sigma[0] > 0.0:
            rank = int(np.sum(sigma > rank_tol * sigma[0]))
        else:
            rank = 0
        if rank == sys.dim:
            break
    return RankReport(
        words=words,
        gradients=np.array(rows),
        singular_values=sigma,
        rank=rank,
        dim=sys.dim,
    )


def rank_condition_value(gamma: Expr, x: float, z: float, k_max: int = K_MAX_DEFAULT) -> float:
    """Analytic 2-D cross-check: z^2 (2 gamma'(x)^2 - gamma(x) gamma''(x)).

    Nonzero exactly when the first two observation-space differentials of
    the single-block damped cascade are independent at (x, z).
    """
    jet = ex.Jet((gamma,), (GAMMA_VAR,), (x,), k_max=k_max)
    g0, g1, g2 = (jet.derivative(0, k) for k in range(3))
    return z * z * (2.0 * g1 * g1 - g0 * g2)
