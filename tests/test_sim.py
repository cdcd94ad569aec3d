import math
import random

import numpy as np
import pytest

import obsv_lab.expr as ex
from obsv_lab.model import CascadeSystem, ControlAffineSystem, as_control_affine, preset
from obsv_lab.sim import (
    BlowUpError,
    EquilibriumPremiseError,
    FeedbackLaw,
    InputSignal,
    distinguishability_experiment,
    indistinguishability_experiment,
    integrate,
    output_feedback_equilibria_check,
    parse_input_spec,
)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# input signals


def test_parse_input_specs():
    assert parse_input_spec("zero")(3.7) == 0.0
    assert parse_input_spec("const:2.5")(0.0) == 2.5
    sig = parse_input_spec("sin:2,3,0.5")
    assert sig(1.1) == pytest.approx(2 * math.sin(3 * 1.1 + 0.5))
    assert parse_input_spec("sin:1,6.2832")(0.0) == 0.0


@pytest.mark.parametrize("bad", ["", "ramp", "const:", "sin:1", "sin:a,b", "sin:1,2,3,4"])
def test_parse_input_spec_rejects(bad):
    with pytest.raises(ValueError):
        parse_input_spec(bad)


def test_piecewise_signal():
    sig = InputSignal.piecewise((1.0, 2.0), (0.5, -1.0, 3.0))
    assert sig(0.0) == 0.5
    assert sig(1.0) == -1.0
    assert sig(1.99) == -1.0
    assert sig(2.0) == 3.0
    with pytest.raises(ValueError):
        InputSignal.piecewise((2.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        InputSignal.piecewise((1.0,), (0.0,))


def test_table_signal_holds_samples():
    sig = InputSignal.table((1.0, 2.0, 3.0), dt=0.5)
    assert sig(0.0) == 1.0
    assert sig(0.74) == 2.0
    assert sig(9.0) == 3.0  # held past the end
    with pytest.raises(ValueError):
        InputSignal.table((), dt=0.5)


def test_describe_round_trips_through_parse():
    for spec in ("zero", "const:1.5", "sin:1,2,0"):
        sig = parse_input_spec(spec)
        assert parse_input_spec(sig.describe()) == sig


# ---------------------------------------------------------------------------
# integration


def test_rest_state_is_invariant():
    traj = integrate(preset("fish-1d-gauss"), (0.7, 0.0), InputSignal.zero(), 1.0, 1e-3)
    assert np.all(traj.states[:, 0] == 0.7)
    assert np.all(traj.states[:, 1] == 0.0)
    assert np.all(traj.outputs == 0.0)


def test_constant_input_matches_closed_form():
    # dz/dt = -z + 1 from 0 gives z(t) = 1 - e^-t, x(t) = x0 + t - 1 + e^-t
    traj = integrate(preset("fish-1d-gauss"), (0.0, 0.0), InputSignal.constant(1.0), 10.0, 1e-3)
    t = traj.times
    z_true = 1.0 - np.exp(-t)
    x_true = t - 1.0 + np.exp(-t)
    assert np.max(np.abs(traj.states[:, 1] - z_true)) <= 1e-9
    assert np.max(np.abs(traj.states[:, 0] - x_true)) <= 1e-8
    # the state settles toward 1 but is still ~5e-5 away at t=10
    assert abs(traj.states[-1, 1] - 1.0) <= 1e-4
    assert abs(traj.states[-1, 1] - 1.0) > 1e-6


def test_rk4_convergence_order():
    target = 1.0 - math.exp(-1.0)

    def err(dt):
        traj = integrate(preset("fish-1d-gauss"), (0.0, 0.0), InputSignal.constant(1.0), 1.0, dt)
        return abs(traj.states[-1, 1] - target)

    e1, e2 = err(0.05), err(0.025)
    order = math.log2(e1 / e2)
    assert order >= 3.8, (e1, e2, order)


def test_integrate_validations():
    sys = preset("fish-1d-gauss")
    with pytest.raises(ValueError):
        integrate(sys, (0.0, 0.0), InputSignal.zero(), 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(sys, (0.0, 0.0), InputSignal.zero(), 1e-4, 1e-3)
    with pytest.raises(ValueError):
        integrate(sys, (0.0, 0.0, 0.0), InputSignal.zero(), 1.0, 1e-3)
    ca = as_control_affine(sys)
    two_input = ControlAffineSystem(
        state_vars=ca.state_vars,
        drift=ca.drift,
        input_fields=ca.input_fields + ca.input_fields,
        outputs=ca.outputs,
    )
    with pytest.raises(ValueError):
        integrate(two_input, (0.0, 0.0), InputSignal.zero(), 1.0, 1e-3)


def test_quadratic_growth_blows_up():
    sys = CascadeSystem(
        n=1,
        gamma=(ex.parse("1", ()),),
        F=(ex.parse("z1^2", {"z1"}),),
        b=(1.0,),
    )
    with pytest.raises(BlowUpError) as err:
        integrate(sys, (0.0, 2.0), InputSignal.zero(), 2.0, 1e-3)
    assert err.value.t < 1.0  # the pole of 2/(1-2t) sits at t=0.5


def test_exp_overflow_in_F_is_blowup_before_the_pole():
    # z2 = 1/(1 - t) has its pole at t = 1; exp(10*z2) in F1 overflows once
    # z2 > 70.98, at t ~ 0.9859, while the state is still finite
    zs = {"z1", "z2"}
    sys = CascadeSystem(
        n=2,
        gamma=(ex.parse("1", ()), ex.parse("1", ())),
        F=(ex.parse("exp(10*z2)", zs), ex.parse("z2^2", zs)),
        b=(1.0, 1.0),
    )
    with pytest.raises(BlowUpError) as err:
        integrate(sys, (0.0, 0.0, 0.0, 1.0), InputSignal.zero(), 2.0, 1e-3)
    assert 0.98 < err.value.t < 1.0
    assert all(type(v) is float and math.isfinite(v) for v in err.value.state)
    assert "np.float64" not in str(err.value)


@pytest.mark.parametrize("z0", [1.0, 0.0])
def test_division_by_zero_at_gain_pole_is_domain_error(z0):
    # y1 = z1/(x1 + 2) divides by zero at x1 = -2, whatever the velocity
    with pytest.raises(ex.DomainError, match="division by zero") as err:
        integrate(preset("fish-1d-hyperbolic"), (-2.0, z0), InputSignal.zero(), 0.003)
    assert isinstance(err.value.subexpr, ex.Div)


def test_ln_gain_domain_fault_mid_run_names_the_subexpression():
    # x1 runs from 1 toward -1 and ln(x1) in the output leaves its domain
    sys = CascadeSystem(n=1, gamma=(ex.parse("ln(x)", {"x"}),), F=(ex.parse("-z1", {"z1"}),), b=(1.0,))
    with pytest.raises(ex.DomainError, match="ln of a non-positive value"):
        integrate(sys, (1.0, -2.0), InputSignal.zero(), 2.0, 1e-3)


def _reference_rk4(ca, x0, u, t_end, dt):
    """Classical RK4 over the tree-walking evaluator, in integrate's
    arithmetic order: stage states x + (0.5*dt)*k, fields f + u*g, update
    x + (dt/6)*(((k1 + 2*k2) + 2*k3) + k4)."""

    def values(exprs, x):
        env = dict(zip(ca.state_vars, x))
        return [ex.evaluate(e, env) for e in exprs]

    def field(x, t):
        ut = u(t)
        return [f + ut * g for f, g in zip(values(ca.drift, x), values(ca.input_fields[0], x))]

    def moved(x, step, k):
        return [xi + step * ki for xi, ki in zip(x, k)]

    x = [float(v) for v in x0]
    states, outputs = [x], [values(ca.outputs, x)]
    for step in range(int(round(t_end / dt))):
        t = step * dt
        k1 = field(x, t)
        k2 = field(moved(x, 0.5 * dt, k1), t + 0.5 * dt)
        k3 = field(moved(x, 0.5 * dt, k2), t + 0.5 * dt)
        k4 = field(moved(x, dt, k3), t + dt)
        x = [xi + (dt / 6.0) * (((a + 2.0 * b) + 2.0 * c) + d)
             for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
        states.append(x)
        outputs.append(values(ca.outputs, x))
    return np.array(states), np.array(outputs)


ORACLE_GAINS = ("sin(x)", "cos(x)", "exp(-x^2)", "tanh(x)", "1/(x + 3)", "x^2 + 1")
ORACLE_TERMS = ("sin(z{j})", "cos(z{j})^2", "exp(-z{j}^2)", "tanh(z{j})", "1/(z{j} + {c})", "-z{j}^3")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integrate_matches_tree_evaluated_rk4_bitwise(n):
    rng = random.Random(n)
    zs = {f"z{i}" for i in range(1, n + 1)}
    F = []
    for i in range(1, n + 1):
        terms = [f"-{rng.uniform(0.5, 1.5):.3f}*z{i}"]
        for term in ORACLE_TERMS:  # every block couples through every term kind
            coeff = rng.uniform(0.05, 0.3)
            terms.append(f"{coeff:.3f}*" + term.format(j=rng.randint(1, n), c=rng.randint(3, 5)))
        F.append(ex.parse(" + ".join(terms), zs))
    sys = CascadeSystem(
        n=n,
        gamma=tuple(ex.parse(rng.choice(ORACLE_GAINS), {"x"}) for _ in range(n)),
        F=tuple(F),
        b=tuple(rng.uniform(0.5, 1.5) for _ in range(n)),
    )
    x0 = [rng.uniform(-1.0, 1.0) for _ in range(2 * n)]
    u = InputSignal.sinusoid(rng.uniform(0.5, 1.5), rng.uniform(1.0, 6.0), rng.uniform(0.0, 1.0))
    traj = integrate(sys, x0, u, 0.5, 1e-3)
    states, outputs = _reference_rk4(as_control_affine(sys), x0, u, 0.5, 1e-3)
    assert traj.states.shape == (501, 2 * n)
    assert np.array_equal(traj.states, states)
    assert np.array_equal(traj.outputs, outputs)


def test_z_component_ignores_positions():
    # the velocity subsystem never reads x, so z records agree bitwise
    sys = preset("sin-drift")
    u = InputSignal.sinusoid(1.0, 1.0)
    ta = integrate(sys, (0.3, 0.5), u, 5.0, 1e-3)
    tb = integrate(sys, (-1.2, 0.5), u, 5.0, 1e-3)
    assert np.array_equal(ta.states[:, 1], tb.states[:, 1])


def test_position_shift_covariance():
    sys = preset("fish-1d-gauss")
    u = InputSignal.sinusoid(1.0, 1.0)
    ta = integrate(sys, (0.4, 0.2), u, 10.0, 1e-3)
    tb = integrate(sys, (0.4 + TWO_PI, 0.2), u, 10.0, 1e-3)
    assert np.max(np.abs(tb.states[:, 0] - ta.states[:, 0] - TWO_PI)) <= 1e-9


def test_csv_export():
    traj = integrate(preset("fish-1d-gauss"), (0.1, 0.2), InputSignal.zero(), 2e-3, 1e-3)
    text = traj.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,x1,z1,y1"
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == 0.1
    assert first[3] == pytest.approx(math.exp(-0.01) * 0.2)


# ---------------------------------------------------------------------------
# indistinguishability under a period shift


def test_period_shift_outputs_coincide():
    sys = preset("periodic-sin")
    inputs = [InputSignal.zero(), InputSignal.constant(1.0), InputSignal.sinusoid(1.0, 1.0)]
    results = indistinguishability_experiment(sys, (TWO_PI,), inputs)
    assert [r.input for r in results] == ["zero", "const:1", "sin:1,1,0"]
    assert results[0].gap == 0.0  # both runs rest at z=0, outputs identically zero
    assert all(r.gap <= 1e-6 for r in results)


def test_half_period_shift_is_visible():
    sys = preset("periodic-sin")
    results = indistinguishability_experiment(sys, (math.pi,), [InputSignal.sinusoid(1.0, 1.0)])
    assert results[0].gap > 1e-3


def test_shift_must_touch_exactly_one_coordinate():
    sys = CascadeSystem(
        n=2,
        gamma=(ex.parse("sin(x)", {"x"}), ex.parse("sin(x)", {"x"})),
        F=(ex.parse("-z1", {"z1", "z2"}), ex.parse("-z2", {"z1", "z2"})),
        b=(1.0, 1.0),
    )
    with pytest.raises(ValueError):
        indistinguishability_experiment(sys, (1.0, 1.0), [InputSignal.zero()])
    with pytest.raises(ValueError):
        indistinguishability_experiment(sys, (0.0, 0.0), [InputSignal.zero()])
    with pytest.raises(ValueError):
        indistinguishability_experiment(sys, (1.0,), [InputSignal.zero()])


# ---------------------------------------------------------------------------
# distinguishability of concrete state pairs


def test_aperiodic_pair_diverges():
    res = distinguishability_experiment(
        preset("sin-drift"), (0.0, 0.0), (TWO_PI, 0.0), InputSignal.sinusoid(1.0, 1.0)
    )
    assert res.classification == "diverged"
    assert res.gap > 1e-3
    assert res.first_divergence is not None and 0.0 <= res.first_divergence <= 10.0


def test_equal_states_never_diverge():
    res = distinguishability_experiment(
        preset("sin-drift"), (0.2, 0.1), (0.2, 0.1), InputSignal.sinusoid(1.0, 1.0)
    )
    assert res.gap == 0.0
    assert res.classification == "identical"
    assert res.first_divergence is None


def test_periodic_pair_stays_identical():
    res = distinguishability_experiment(
        preset("periodic-sin"), (0.0, 0.3), (TWO_PI, 0.3), InputSignal.sinusoid(1.0, 1.0)
    )
    assert res.classification == "identical"
    assert res.gap <= 1e-6


# ---------------------------------------------------------------------------
# resting continuum under output feedback


def test_static_damping_law_leaves_position_free():
    report = output_feedback_equilibria_check(
        preset("fish-1d-gauss"), FeedbackLaw.static("-y1"), (), (-1.0, 0.0, 1.0, 5.0)
    )
    assert report.premise_residual <= 1e-12
    assert report.max_residual <= 1e-12
    assert [xi for xi, _ in report.residuals] == [-1.0, 0.0, 1.0, 5.0]


def test_dynamic_integral_law_leaves_position_free():
    law = FeedbackLaw.parse(1, ("y1",), "-y1 - q1", n_outputs=1)
    report = output_feedback_equilibria_check(
        preset("fish-1d-gauss"), law, (0.0,), (-5.0, -1.0, 0.0, 1.0, 5.0)
    )
    assert report.premise_residual <= 1e-12
    assert report.max_residual <= 1e-12


def test_biased_law_fails_the_premise():
    with pytest.raises(EquilibriumPremiseError):
        output_feedback_equilibria_check(
            preset("fish-1d-gauss"), FeedbackLaw.static("-y1 + 1"), (), (0.0,)
        )


def test_feedback_law_validation():
    with pytest.raises(ex.ParseError):
        FeedbackLaw.parse(0, (), "-y1 + x1", n_outputs=1)
    with pytest.raises(ValueError):
        FeedbackLaw(nq=2, dynamics=(ex.parse("y1", {"y1"}),), output=ex.parse("0", ()))
    law = FeedbackLaw.parse(1, ("y1",), "-y1 - q1", n_outputs=1)
    with pytest.raises(ValueError):
        output_feedback_equilibria_check(preset("fish-1d-gauss"), law, (0.0, 1.0), (0.0,))
