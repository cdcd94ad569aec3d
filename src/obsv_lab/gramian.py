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

import math

import numpy as np

from . import expr as ex
from .model import (
    DT_DEFAULT,
    EPS_DEFAULT,
    T_END_DEFAULT,
    CascadeSystem,
    ControlAffineSystem,
    shift_of,
    state_of,
)
from .record import Record
from .sim import InputSignal, integrate_many

WEAK_SIGNAL_FLOOR = 1e-13   # below this, sensitivities are round-off noise
SIGMA_OBSERVABLE = 1e-6     # sigma_min above this: practically observable
SIGMA_SINGULAR = 1e-12      # sigma_min below this: numerically singular


class GramianReport(Record):
    __slots__ = ("base_state", "input", "eps", "t_end", "dt", "matrix", "singular_values",
                 "weak_signal")
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
    """Output-sensitivity Gramian from one ensemble integration of all the
    perturbed states.

    Row i is the central difference [y(x0 + eps*e_i) - y(x0 - eps*e_i)] / (2 eps);
    ``secant = (i, d)`` replaces row i by the unscaled y(x0 + d*e_i) - y(x0).
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    ca, x0 = state_of(sys, x0)
    dim = ca.dim

    def moved(i, step):
        x = list(x0)
        x[i] += step
        return x

    # two states per row: the plus and minus perturbations, or the secant pair
    sec = secant[0] if secant is not None else None
    starts = []
    for i in range(dim):
        starts += [moved(i, secant[1]), x0] if i == sec else [moved(i, eps), moved(i, -eps)]
    trajs = integrate_many(ca, starts, u, t_end, dt)
    with np.errstate(over="ignore", invalid="ignore"):
        deltas = [trajs[2 * i].outputs - trajs[2 * i + 1].outputs for i in range(dim)]
        deltas = [d if i == sec else d / (2.0 * eps) for i, d in enumerate(deltas)]
        # rows of D: flattened output sensitivity per state direction
        D = np.stack([d.ravel() for d in deltas])
        W = (D @ D.T) * dt
        W = 0.5 * (W + W.T)  # kill last-bit asymmetry from the matmul
    if not np.isfinite(W).all():  # W[i, i] is not finite where row i of D is not
        i, c = np.unravel_index(np.where(np.isfinite(D), np.abs(D), np.inf).argmax(), D.shape)
        k, j = divmod(int(c), ca.p)  # name D's largest entry, a non-finite one first
        raise ex.DomainError(f"Gramian overflows from the sensitivity {D[i, c]:.6g} of row "
                             f"{ca.state_vars[i]} at t={k * dt:.6g}", ca.outputs[j])

    weak = all(np.max(np.abs(d)) < WEAK_SIGNAL_FLOOR for d in deltas)
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
    shift, i = shift_of(sys, shift)
    return _gramian(sys, x0, u, eps, t_end, dt, secant=(i, shift[i]))
