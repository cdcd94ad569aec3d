"""Empirical observability Gramians: how strongly does the output record
react to small changes of the initial state, under a given input?

This is a quantitative companion to the yes/no rank tests: the smallest
singular value measures the least visible state direction over a finite
horizon.  A resting high-pass sensor produces sigma_min = 0 because position
perturbations leave the (identically zero) output record untouched; an
exciting input lifts it.  The measure itself is a numerical convention, not
a guarantee; thresholds are reported alongside every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CascadeSystem, ControlAffineSystem
from .sim import DT_DEFAULT, T_END_DEFAULT, InputSignal, compile_rk4, integrate

EPS_DEFAULT = 1e-4          # central-difference perturbation of the initial state
WEAK_SIGNAL_FLOOR = 1e-13   # below this, sensitivities are round-off noise
SIGMA_OBSERVABLE = 1e-6     # sigma_min above this: practically observable
SIGMA_SINGULAR = 1e-12      # sigma_min below this: numerically singular


@dataclass
class GramianReport:
    base_state: tuple[float, ...]
    input: str
    eps: float
    t_end: float
    dt: float
    matrix: np.ndarray
    singular_values: np.ndarray  # sorted descending
    weak_signal: bool

    @property
    def sigma_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def sigma_max(self) -> float:
        return float(self.singular_values[0])

    @property
    def condition_number(self) -> float | None:
        if self.sigma_min <= 0.0:
            return None
        return self.sigma_max / self.sigma_min

    def classification(self) -> str:
        if self.sigma_min > SIGMA_OBSERVABLE:
            return "observable"
        if self.sigma_min <= SIGMA_SINGULAR:
            return "singular"
        return "marginal"


def _gramian(sys, x0, u, eps, t_end, dt, secant=None) -> GramianReport:
    """Output-sensitivity Gramian from one integration per perturbed state,
    all on one generated RK4 loop.

    Row i is the central difference [y(x0 + eps*e_i) - y(x0 - eps*e_i)] / (2 eps);
    ``secant = (i, d)`` replaces row i by the unscaled y(x0 + d*e_i) - y(x0).
    """
    loop = compile_rk4(sys)
    x0 = tuple(float(v) for v in x0)
    if len(x0) != loop.system.dim:
        raise ValueError(f"state has {len(x0)} entries, expected {loop.system.dim}")

    def record(i, step):
        moved = list(x0)
        moved[i] += step
        return integrate(loop, moved, u, t_end, dt).outputs

    deltas = []
    for i in range(loop.system.dim):
        if secant is not None and secant[0] == i:
            deltas.append(record(i, secant[1]) - integrate(loop, x0, u, t_end, dt).outputs)
        else:
            deltas.append((record(i, eps) - record(i, -eps)) / (2.0 * eps))

    weak = all(np.max(np.abs(d)) < WEAK_SIGNAL_FLOOR for d in deltas)
    # rows of D: flattened output sensitivity per state direction
    D = np.stack([d.ravel() for d in deltas])
    W = (D @ D.T) * dt
    W = 0.5 * (W + W.T)  # kill last-bit asymmetry from the matmul
    sigma = np.linalg.svd(W, compute_uv=False)
    return GramianReport(
        base_state=x0,
        input=u.describe(),
        eps=eps,
        t_end=t_end,
        dt=dt,
        matrix=W,
        singular_values=sigma,
        weak_signal=weak,
    )


def empirical_gramian(
    sys: ControlAffineSystem | CascadeSystem,
    x0,
    u: InputSignal,
    eps: float = EPS_DEFAULT,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> GramianReport:
    """Central-difference output-sensitivity Gramian at x0 under input u.

    For each state direction i the output record is re-simulated from
    x0 +/- eps*e_i and the scaled difference enters row i of the
    sensitivity matrix; W = D D^T dt.  W is symmetric PSD by construction.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return _gramian(sys, x0, u, eps, t_end, dt)


def input_sweep(
    sys,
    x0,
    inputs,
    eps: float = EPS_DEFAULT,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> list[tuple[int, GramianReport]]:
    """Rank candidate inputs by the visibility they give the state.

    Returns (original index, report) pairs sorted by sigma_min descending;
    ties keep the original input order, so the result is deterministic.
    """
    if not inputs:
        raise ValueError("need at least one input signal")
    reports = [(idx, empirical_gramian(sys, x0, u, eps, t_end, dt)) for idx, u in enumerate(inputs)]
    reports.sort(key=lambda pair: (-pair[1].sigma_min, pair[0]))
    return reports


def shift_comparison_gramian(
    sys: CascadeSystem,
    x0,
    shift,
    u: InputSignal,
    eps: float = EPS_DEFAULT,
    t_end: float = T_END_DEFAULT,
    dt: float = DT_DEFAULT,
) -> GramianReport:
    """Gramian with one direction replaced by a finite shift secant.

    ``shift`` moves exactly one position coordinate; that coordinate's
    central-difference row is replaced by [y(x0+shift) - y(x0)] (no scaling,
    the shift is a finite displacement, not a linearization).  When the
    shifted gain repeats with that period the row vanishes and sigma_min
    collapses, exhibiting the unobservable direction as a whole-Gramian
    statement rather than a single trajectory pair.
    """
    n = sys.n
    shift = tuple(float(v) for v in shift)
    if len(shift) != n:
        raise ValueError(f"shift has {len(shift)} entries, expected {n}")
    hot = [i for i, v in enumerate(shift) if v != 0.0]
    if len(hot) != 1:
        raise ValueError(f"shift must have exactly one nonzero coordinate: {shift}")
    return _gramian(sys, x0, u, eps, t_end, dt, secant=(hot[0], shift[hot[0]]))
