import functools
import math
import random

import numpy as np
import pytest
import sympy

import obsv_lab.expr as ex
from obsv_lab.gramian import (
    SIGMA_OBSERVABLE,
    SIGMA_SINGULAR,
    GramianReport,
    empirical_gramian,
    input_sweep,
    shift_comparison_gramian,
)
from obsv_lab.model import CascadeSystem, ControlAffineSystem, as_control_affine, preset
from obsv_lab.obsv import local_rank
from obsv_lab.sim import InputSignal, integrate

TWO_PI = 2.0 * math.pi
SIN_1HZ = InputSignal.sinusoid(1.0, TWO_PI)


def test_gramian_symmetric_psd():
    rep = empirical_gramian(preset("fish-1d-gauss"), (0.3, 0.5), SIN_1HZ, t_end=5.0)
    W = rep.matrix
    assert np.max(np.abs(W - W.T)) <= 1e-12
    eig = np.linalg.eigvalsh(W)
    assert eig.min() >= -1e-12 * rep.sigma_max
    assert np.all(np.diff(rep.singular_values) <= 0)


def test_rest_state_is_singular():
    rep = empirical_gramian(preset("fish-1d-gauss"), (0.0, 0.0), InputSignal.zero())
    assert rep.sigma_min <= 1e-12
    assert rep.classification() == "singular"
    assert rep.condition_number is None
    # position perturbations at rest change nothing: that row is exactly zero
    assert np.all(rep.matrix[0] == 0.0)


def test_active_input_restores_visibility():
    rep = empirical_gramian(preset("fish-1d-gauss"), (0.0, 0.0), SIN_1HZ)
    assert rep.sigma_min > 1e-6
    assert rep.classification() == "observable"
    assert rep.condition_number is not None


def test_weak_signal_flag():
    mute = CascadeSystem(
        n=1,
        gamma=(ex.parse("0", ()),),
        F=(ex.parse("-z1", {"z1"}),),
        b=(1.0,),
    )
    rep = empirical_gramian(mute, (0.0, 0.0), SIN_1HZ, t_end=2.0)
    assert rep.weak_signal
    assert rep.sigma_max <= 1e-12
    moving = empirical_gramian(preset("fish-1d-gauss"), (0.0, 0.0), SIN_1HZ, t_end=2.0)
    assert not moving.weak_signal


def test_gramian_validations():
    sys = preset("fish-1d-gauss")
    with pytest.raises(ValueError):
        empirical_gramian(sys, (0.0, 0.0), SIN_1HZ, eps=0.0)
    with pytest.raises(ValueError):
        empirical_gramian(sys, (0.0, 0.0, 0.0), SIN_1HZ)


@pytest.mark.parametrize("eps", [0.0, -0.0, -1e-4, math.inf, -math.inf, math.nan])
def test_both_gramian_entry_points_reject_an_eps_that_is_not_positive_and_finite(eps):
    for build in (lambda: empirical_gramian(preset("fish-1d-gauss"), (0.0, 0.0), SIN_1HZ, eps=eps),
                  lambda: shift_comparison_gramian(preset("periodic-sin"), (0.0, 0.0), (TWO_PI,),
                                                   SIN_1HZ, eps=eps)):
        with pytest.raises(ValueError, match=r"^eps must be positive and finite"):
            build()


def test_input_sweep_puts_zero_input_last():
    inputs = [InputSignal.zero(), InputSignal.sinusoid(0.1, TWO_PI), SIN_1HZ]
    ranked = input_sweep(preset("fish-1d-gauss"), (0.0, 0.0), inputs, t_end=5.0)
    assert ranked[-1][0] == 0
    sigmas = [rep.sigma_min for _, rep in ranked]
    assert sigmas == sorted(sigmas, reverse=True)


def test_input_sweep_singleton_and_ties():
    ranked = input_sweep(preset("fish-1d-gauss"), (0.0, 0.0), [SIN_1HZ], t_end=2.0)
    assert [idx for idx, _ in ranked] == [0]
    ranked = input_sweep(preset("fish-1d-gauss"), (0.0, 0.0), [SIN_1HZ, SIN_1HZ], t_end=2.0)
    assert [idx for idx, _ in ranked] == [0, 1]
    assert abs(ranked[0][1].sigma_min - ranked[1][1].sigma_min) <= 1e-12
    with pytest.raises(ValueError):
        input_sweep(preset("fish-1d-gauss"), (0.0, 0.0), [], t_end=2.0)


def test_input_sweep_on_one_loop_matches_fresh_gramians_bytewise():
    # the system keeps one loop per input kind that runs (zero and constant
    # share one), under the one sharing pattern of the Gramian's starts,
    # and a second sweep generates none; every report is the one of a
    # Gramian of its input on a fresh system
    sys, x0 = preset("sin-drift"), (0.3, -0.4)
    inputs = [InputSignal.zero(), SIN_1HZ, InputSignal.constant(0.7), InputSignal.zero(),
              InputSignal.piecewise((0.5,), (1.0, -2.0))]
    ranked = dict(input_sweep(sys, x0, inputs, t_end=1.0))
    loops = dict(as_control_affine(sys)._loops)
    assert sorted(kind for kind, _ in loops) == ["constant", "piecewise", "sinusoid"]
    assert len({pattern for _, pattern in loops}) == 1
    again = dict(input_sweep(sys, x0, inputs, t_end=1.0))
    assert as_control_affine(sys)._loops == loops
    for idx, u in enumerate(inputs):
        fresh = empirical_gramian(preset("sin-drift"), x0, u, t_end=1.0)
        for rep in (ranked[idx], again[idx]):
            assert rep.matrix.tobytes() == fresh.matrix.tobytes()
            assert rep.singular_values.tobytes() == fresh.singular_values.tobytes()


def test_period_shift_direction_is_invisible():
    rep = shift_comparison_gramian(preset("periodic-sin"), (0.0, 0.0), (TWO_PI,), SIN_1HZ)
    assert rep.sigma_min <= 1e-8 * rep.sigma_max


def test_aperiodic_shift_direction_stays_visible():
    rep = shift_comparison_gramian(preset("fish-1d-gauss"), (0.0, 0.0), (TWO_PI,), SIN_1HZ)
    assert rep.sigma_min > 1e-8 * rep.sigma_max


def test_shift_comparison_validations():
    sys = preset("periodic-sin")
    with pytest.raises(ValueError):
        shift_comparison_gramian(sys, (0.0, 0.0), (0.0,), SIN_1HZ)
    with pytest.raises(ValueError):
        shift_comparison_gramian(sys, (0.0, 0.0), (1.0, 1.0), SIN_1HZ)


def test_a_non_finite_sensitivity_row_is_a_domain_error():
    # y = x*z: the secant row y(x0 + d) - y(x0) = 1.2e308 - (-1.35e308)
    # overflows at t = 0, while every state and output stays finite
    sys = CascadeSystem(n=1, gamma=(ex.parse("x", {"x"}),), F=(ex.parse("-z1", {"z1"}),), b=(1.0,))
    with pytest.raises(ex.DomainError) as err:
        shift_comparison_gramian(sys, (-0.9e308, 1.5), (1.7e308,), InputSignal.zero(), t_end=0.01)
    assert str(err.value) == "Gramian overflows from the sensitivity inf of row x1 at t=0 in x1*z1"


def _rank_comparison_cases():
    """(gain, state, input) of the Gramian-vs-rank comparison, run for 5 s at dt 2e-3."""
    rng = random.Random(9)
    gains = ["exp(-x^2)", "2 + sin(x) + 0.1*x", "tanh(x)", "1/(x + 3)"]
    cases = []
    for _ in range(20):
        gain = rng.choice(gains)
        x0 = (rng.uniform(-1.0, 1.0), rng.choice([-1, 1]) * rng.uniform(0.2, 1.5))
        cases.append((gain, x0, InputSignal.sinusoid(rng.uniform(0.5, 1.5), rng.uniform(2.0, 8.0))))
    return cases


def _damped_1d(gain: str) -> CascadeSystem:
    return CascadeSystem(n=1, gamma=(ex.parse(gain, {"x"}),), F=(ex.parse("-z1", {"z1"}),), b=(1.0,))


def test_sigma_min_usually_implies_full_local_rank():
    # trajectory-level visibility vs pointwise rank: related but distinct
    # notions.  They disagree exactly on the gain 1/(x + 3): its zero-input
    # rank condition 2*gamma'^2 - gamma*gamma'' = 2/(x+3)^4 - 2/(x+3)^4 is
    # identically 0, so local_rank is deficient at every state, while the
    # sinusoidal input still makes the position visible over the horizon.
    # A disagreement on any other gain is a failure.
    degenerate_gain = "1/(x + 3)"
    degenerate_cases = set()
    disagreements = set()
    for case, (gain, x0, u) in enumerate(_rank_comparison_cases()):
        if gain == degenerate_gain:
            degenerate_cases.add(case)
        sys = _damped_1d(gain)
        rep = empirical_gramian(sys, x0, u, t_end=5.0, dt=2e-3)
        if rep.sigma_min > 1e-6 and not local_rank(sys, x0).locally_observable:
            disagreements.add(case)
    assert degenerate_cases  # the seed draws the degenerate gain
    assert disagreements == degenerate_cases


# A cascade with constant gains and F linear in z is linear, and one RK4
# step of ds/dt = A s + B u(t) maps s to R s plus an input term, with
# R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24.  The output sensitivity at
# sample k is then C R^k whatever the input, and the Gramian is
# dt * sum_k (C R^k)^T (C R^k) (Lall, Marsden & Glavaski, Int. J. Robust
# Nonlinear Control 12, 2002: for linear systems the empirical Gramian is
# the classical one).
# n: (gains, F, b, the matrix of F, a base state)
LINEAR_CASCADES = {
    1: (("1.5",), ("-0.8*z1",), (1.0,), [[-0.8]], (0.3, 0.5)),
    2: (("2", "-0.5"), ("-z1 + 0.5*z2", "-0.3*z1 - 2*z2"), (1.0, -0.5),
        [[-1.0, 0.5], [-0.3, -2.0]], (0.3, -0.2, 0.5, 1.0)),
}


@pytest.mark.parametrize("u", [InputSignal.zero(), InputSignal.sinusoid(0.7, 3.0, 0.2)],
                         ids=["zero", "sinusoid"])
@pytest.mark.parametrize("n", sorted(LINEAR_CASCADES))
def test_linear_cascade_gramian_matches_the_closed_form(n, u):
    gains, fields, b, M, x0 = LINEAR_CASCADES[n]
    zs = {f"z{i}" for i in range(1, n + 1)}
    sys = CascadeSystem(n=n, gamma=tuple(ex.parse(g, ()) for g in gains),
                        F=tuple(ex.parse(f, zs) for f in fields), b=b)
    dt, t_end = 0.01, 2.0
    A = np.zeros((2 * n, 2 * n))
    A[:n, n:] = np.eye(n)
    A[n:, n:] = M
    C = np.zeros((n, 2 * n))
    C[:, n:] = np.diag([float(g) for g in gains])
    hA = dt * A
    R = sum(np.linalg.matrix_power(hA, j) / math.factorial(j) for j in range(5))
    W = np.zeros((2 * n, 2 * n))
    CR = C
    for _ in range(round(t_end / dt) + 1):
        W += CR.T @ CR
        CR = CR @ R
    W *= dt

    rep = empirical_gramian(sys, x0, u, t_end=t_end, dt=dt)
    assert np.max(np.abs(rep.matrix - W)) <= 1e-9 * np.max(np.abs(W))


# ---------------------------------------------------------------------------
# nonlinear oracle: the variational equations


def _from_sympy(e) -> ex.Expr:
    """The package expression of the sympy expression ``e``: sums,
    products, integer powers and catalog functions of symbols and numbers."""
    if e.is_Symbol:
        return ex.Var(e.name)
    if e.is_Number:
        return ex.const(float(e))
    if e.is_Pow:
        base, n = _from_sympy(e.base), int(e.exp)
        return ex.power(base, n) if n >= 0 else ex.div(ex.const(1.0), ex.power(base, -n))
    args = [_from_sympy(a) for a in e.args]
    if e.is_Add:
        return functools.reduce(ex.add, args)
    if e.is_Mul:
        return functools.reduce(ex.mul, args)
    name = {"log": "ln"}.get(e.func.__name__, e.func.__name__)
    return ex.func(name, *args)


def _variational_gramian(sys, x0, u, t_end, dt) -> np.ndarray:
    """dt * sum_k S_k^T S_k with S_k = C(s_k) Phi_k = dy_k/ds_0, the Gramian
    of the exact derivative of the RK4 flow.

    Phi follows the variational equations dPhi/dt = J(s, u) Phi, with
    J = d(f + u*g)/ds and C = dh/ds taken by sympy, independently of the
    package's own derivative code; (s, Phi) is one augmented control-affine
    system, so ``integrate`` steps Phi on the same RK4 tableau as s.  RK4
    commutes with linearization (Krener & Ide, IEEE CDC 2009), so Phi_k is
    the derivative of the discrete flow and W(eps) - W_var is the central
    difference's O(eps^2) error alone.
    """
    ca = as_control_affine(sys)
    names, dim = ca.state_vars, ca.dim
    phi = [[ex.Var(f"phi{i}_{j}") for j in range(dim)] for i in range(dim)]
    symbols = {v: sympy.Symbol(v) for v in names}

    def times_phi(e):  # the row d e/ds @ Phi
        source = ex.format_expr(e).replace("^", "**").replace("ln(", "log(")
        e = sympy.sympify(source, locals=symbols)
        grad = [_from_sympy(sympy.diff(e, symbols[v])) for v in names]
        row = []
        for j in range(dim):
            total = ex.const(0.0)
            for l in range(dim):
                total = ex.add(total, ex.mul(grad[l], phi[l][j]))
            row.append(total)
        return row

    def augmented(exprs):
        return tuple(exprs) + tuple(entry for e in exprs for entry in times_phi(e))

    aug = ControlAffineSystem(
        state_vars=tuple(names) + tuple(v.name for row in phi for v in row),
        drift=augmented(ca.drift),
        input_fields=(augmented(ca.input_fields[0]),),
        outputs=tuple(entry for h in ca.outputs for entry in times_phi(h)),
    )
    start = list(x0) + [float(i == j) for i in range(dim) for j in range(dim)]
    sens = integrate(aug, start, u, t_end, dt).outputs.reshape(-1, ca.p, dim)
    return np.einsum("kji,kjl->il", sens, sens) * dt


@pytest.mark.parametrize("name, x0, u", [
    ("fish-1d-gauss", (0.3, 0.8), InputSignal.sinusoid(1.0, 2.0, 0.3)),
    ("fish-1d-hyperbolic", (0.5, -0.6), InputSignal.sinusoid(0.7, 3.0)),
    ("sin-drift", (0.4, 0.7), InputSignal.constant(0.5)),
])
def test_gramian_error_against_the_variational_gramian_is_second_order(name, x0, u):
    # W(eps) - W_var is O(eps^2) (Richardson): halving eps divides it by 4;
    # at these eps the truncation error is far above the roundoff
    sys = preset(name)
    w_var = _variational_gramian(sys, x0, u, 2.0, 1e-2)
    errs = [np.max(np.abs(empirical_gramian(sys, x0, u, eps, 2.0, 1e-2).matrix - w_var))
            for eps in (0.04, 0.02, 0.01)]
    assert errs[-1] > 0.0
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.9 < coarse / fine < 4.1


# Every Gramian classification that the tests and the README make:
# (system, state, input, t_end, dt)
GAUSS = preset("fish-1d-gauss")
CLASSIFIED = [
    (GAUSS, (0.0, 0.0), InputSignal.zero(), 10.0, 1e-3),
    (GAUSS, (0.0, 0.0), SIN_1HZ, 10.0, 1e-3),
    (GAUSS, (0.0, 0.0), InputSignal.sinusoid(1.0, 6.2832), 10.0, 1e-3),
    (GAUSS, (0.0, 0.0), InputSignal.zero(), 5.0, 1e-3),
    (GAUSS, (0.0, 0.0), SIN_1HZ, 5.0, 1e-3),
    (GAUSS, (0.0, 0.0), InputSignal.zero(), 2.0, 1e-3),
    (GAUSS, (0.0, 0.0), InputSignal.sinusoid(1.0, 6.28), 2.0, 1e-3),
] + [(_damped_1d(gain), x0, u, 5.0, 2e-3) for gain, x0, u in _rank_comparison_cases()]


def test_no_classification_sits_within_its_truncation_error_of_a_threshold():
    # |sigma_min(W(eps)) - sigma_min(W_var)| bounds what the central
    # difference moves sigma_min; each classification must stand clear of
    # both thresholds by more than that
    for case, (sys, x0, u, t_end, dt) in enumerate(CLASSIFIED):
        sigma = empirical_gramian(sys, x0, u, t_end=t_end, dt=dt).sigma_min
        sigma_var = np.linalg.svd(_variational_gramian(sys, x0, u, t_end, dt), compute_uv=False)[-1]
        for threshold in (SIGMA_OBSERVABLE, SIGMA_SINGULAR):
            assert abs(sigma - threshold) > abs(sigma - sigma_var), (case, threshold)
