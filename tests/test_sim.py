import ast
from array import array
from collections import Counter
import copy
import math
import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest

import obsv_lab.expr as ex
import obsv_lab.sim as sim
from obsv_lab.model import CascadeSystem, ControlAffineSystem, as_control_affine, preset, preset_names
from obsv_lab.sim import (
    CSV_BLOCK_ROWS,
    MEMBERS_MAX,
    BlowUpError,
    EquilibriumPremiseError,
    FeedbackLaw,
    InputError,
    InputSignal,
    Trajectory,
    distinguishability_experiment,
    indistinguishability_experiment,
    integrate,
    integrate_many,
    output_feedback_equilibria_check,
    parse_input_spec,
    rk4_source,
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


@pytest.mark.parametrize("bad", ["", "ramp", "const:", "sin:1", "sin:a,b", "sin:1,2,3,4",
                                 "const:nan", "const:1e400", "const:-inf", "sin:1,1,nan",
                                 "sin:1,inf", "sin:inf,1", "const:1_0", "sin:1,6_2"])
def test_parse_input_spec_rejects(bad):
    with pytest.raises(ValueError, match=rf"^bad input spec '{re.escape(bad)}'"):
        parse_input_spec(bad)


@pytest.mark.parametrize("build", [
    lambda: InputSignal.constant(math.nan),
    lambda: InputSignal.sinusoid(1.0, math.inf),
    lambda: InputSignal.sinusoid(1.0, 1.0, -math.inf),
    lambda: InputSignal.piecewise((1.0, math.nan), (0.0, 1.0, 2.0)),
    lambda: InputSignal.piecewise((1.0,), (0.0, math.inf)),
    lambda: InputSignal.table((0.0, math.nan), 0.1),
    lambda: InputSignal.table((0.0, 1.0), math.inf),
    lambda: InputSignal.table((0.0, 1.0), 0.1, math.nan),
], ids=["constant", "omega", "phase", "breakpoint", "piece", "sample", "table-dt", "table-t0"])
def test_input_signals_reject_non_finite_parameters(build):
    with pytest.raises(ValueError, match="must be finite"):
        build()


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
    # each parameter prints as its repr without a trailing ".0", so these
    # specs keep their bytes and every finite parameter reads back the same
    for spec in ("zero", "const:1", "const:1.5", "const:-0", "const:0.1234567", "sin:1,2,0",
                 "sin:1,6.2832,0", "sin:1,1e+308,0", "sin:0.5,1.234,1.5707963267948966"):
        sig = parse_input_spec(spec)
        assert sig.describe() == spec
        assert parse_input_spec(sig.describe()) == sig
    for sig in (InputSignal.constant(1234567.0), InputSignal.constant(5e-324),
                InputSignal.sinusoid(-1.7976931348623157e308, 0.1 + 0.2, -0.0)):
        assert parse_input_spec(sig.describe()) == sig
        assert repr(parse_input_spec(sig.describe()).params) == repr(sig.params)


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


@pytest.mark.parametrize("name, t_end, dt", [
    ("t_end", math.inf, 1e-3), ("t_end", math.nan, 1e-3), ("t_end", -math.inf, 1e-3),
    ("dt", 1.0, math.inf), ("dt", 1.0, math.nan), ("dt", 1.0, -math.inf),
    # both finite and t_end >= dt, but the step count overflows to inf
    ("t_end/dt", 10.0, 1e-320),
])
def test_integrate_many_rejects_a_time_that_is_not_finite(name, t_end, dt):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        integrate_many(preset("fish-1d-gauss"), [(0.0, 0.0), (0.0, 1.0)], InputSignal.zero(),
                       t_end, dt)


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


@pytest.mark.parametrize("u, t, argument", [
    # w*t overflows once t > 1.797..., first at t + dt of step 1797
    (InputSignal.sinusoid(1.0, 1e308), 1797 * 1e-3 + 1e-3, "w*t + phi"),
    # (t - t0)/dt overflows at the first stage time after t = 0, t = dt/2
    (InputSignal.table((1.0, 2.0), 5e-324), 0.0005, "(t - t0)/dt"),
], ids=["sinusoid", "table"])
def test_input_without_a_value_names_the_input_and_the_stage_time(u, t, argument):
    with pytest.raises(InputError) as err:
        integrate(preset("fish-1d-gauss"), (0.0, 0.0), u, 2.0, 1e-3)
    assert err.value.t == t
    assert str(err.value) == f"input {u.describe()} has no value at t={t:.6g}: {argument} is not finite"


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


def _random_cascade(rng: random.Random, n: int, gain) -> CascadeSystem:
    """Couplings, then gains ``gain(i)`` for blocks i = 0..n-1, then b."""
    zs = {f"z{i}" for i in range(1, n + 1)}
    F = []
    for i in range(1, n + 1):
        terms = [f"-{rng.uniform(0.5, 1.5):.3f}*z{i}"]
        for term in ORACLE_TERMS:  # every block couples through every term kind
            coeff = rng.uniform(0.05, 0.3)
            terms.append(f"{coeff:.3f}*" + term.format(j=rng.randint(1, n), c=rng.randint(3, 5)))
        F.append(ex.parse(" + ".join(terms), zs))
    return CascadeSystem(
        n=n,
        gamma=tuple(ex.parse(gain(i), {"x"}) for i in range(n)),
        F=tuple(F),
        b=tuple(rng.uniform(0.5, 1.5) for _ in range(n)),
    )


def _same_bits(a, b) -> bool:
    """Equal shapes and bytes: unlike ``np.array_equal``, -0.0 is not 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integrate_matches_tree_evaluated_rk4_bitwise(n):
    rng = random.Random(n)
    sys = _random_cascade(rng, n, lambda i: rng.choice(ORACLE_GAINS))
    x0 = [rng.uniform(-1.0, 1.0) for _ in range(2 * n)]
    inputs = {
        "sinusoid": InputSignal.sinusoid(rng.uniform(0.5, 1.5), rng.uniform(1.0, 6.0),
                                         rng.uniform(0.0, 1.0)),
        "zero": InputSignal.zero(),
        "constant": InputSignal.constant(rng.uniform(-1.5, 1.5)),
        "piecewise": InputSignal.piecewise((0.1, 0.25, 0.4),
                                           [rng.uniform(-1.5, 1.5) for _ in range(4)]),
        # starts after t = 0 and ends before t_end: both clamps of the index run
        "table": InputSignal.table([rng.uniform(-1.5, 1.5) for _ in range(40)], 0.01, 0.05),
    }
    ca = as_control_affine(sys)
    for kind, u in inputs.items():
        traj = integrate(sys, x0, u, 0.5, 1e-3)
        states, outputs = _reference_rk4(ca, x0, u, 0.5, 1e-3)
        assert traj.states.shape == (501, 2 * n)
        assert _same_bits(traj.states, states), kind
        assert _same_bits(traj.outputs, outputs), kind


def test_signed_zero_start_under_zero_input_bitwise():
    # from -0.0 each field f + 0.0*g is +0.0 where f is -0.0, so the state
    # turns +0.0 after one step; a loop that dropped u*g under zero input
    # would keep -0.0 where F(-0.0) is -0.0, as for F = 0.5*z1, and the CSV
    # would print -0
    u = InputSignal.zero()
    systems = {name: preset(name) for name in preset_names()}
    systems["growing"] = CascadeSystem(n=1, gamma=(ex.parse("sin(x)", {"x"}),),
                                       F=(ex.parse("0.5*z1", {"z1"}),), b=(1.0,))
    for name, sys in systems.items():
        traj = integrate(sys, (-0.0, -0.0), u, 0.01, 1e-3)
        states, outputs = _reference_rk4(as_control_affine(sys), (-0.0, -0.0), u, 0.01, 1e-3)
        assert _same_bits(traj.states, states), name
        assert _same_bits(traj.outputs, outputs), name
        lines = traj.to_csv().splitlines()
        assert lines[1].startswith("0,-0,-0,"), name
        assert lines[2] == "0.001,0,0,0", name


@pytest.mark.parametrize("variant", ["constant", "sinusoid", "piecewise", "table"])
def test_step_body_calls_only_bound_math(variant):
    # inside the for body, the only calls are catalog functions and input
    # helpers bound as locals before the loop and the one row store: no
    # Python function is called per step, and the step raises nothing of
    # its own
    ca = as_control_affine(_random_cascade(random.Random(7), 2, ORACLE_GAINS.__getitem__))

    def step_body(members):
        # members that share nothing: one slot per member and variable
        pattern = tuple(tuple(range(j * ca.dim, (j + 1) * ca.dim)) for j in range(members))
        source = rk4_source(ca, pattern, variant)
        assert "raise" not in source and "_BlowUpError" not in source
        fn, = ast.parse(source).body
        assert not any(isinstance(node, ast.Raise) for node in ast.walk(fn))
        loop, = [node for node in fn.body if isinstance(node, ast.For)]
        before = fn.body[:fn.body.index(loop)]
        bound = {target.id for node in before
                 for target in ast.walk(node) if isinstance(target, ast.Name)
                 and isinstance(target.ctx, ast.Store)}
        return bound, loop.body, before

    bound, body, _ = step_body(3)
    allowed = bound & (set(ex.python_functions()) | {"_store", "_pack", "_find", "_int"})
    called = [node for stmt in body for node in ast.walk(stmt) if isinstance(node, ast.Call)]
    assert all(isinstance(c.func, ast.Name) and c.func.id in allowed for c in called)
    names = [c.func.id for c in called]
    assert {"_exp", "_sin", "_cos", "_tanh"} <= set(names)
    # one row store per step: the whole row packed once, appended once
    store, = [c for c in called if c.func.id == "_store"]
    pack, = [c for c in called if c.func.id == "_pack"]
    assert store.args == [pack]
    assert len(pack.args) == 3 * (ca.dim + ca.p)

    # a cascade's input fields are constants: b_i and 0.0.  Their products
    # u * (c) are formed once per stage input, whatever the members share,
    # and under a zero or constant input before the loop
    consts = {ast.unparse(ast.parse(ex.python_source(g), mode="eval").body)
              for g in ca.input_fields[0]}
    assert all(isinstance(g, ex.Const) for g in ca.input_fields[0]) and len(consts) == 3

    def products(stmts):
        return Counter((node.left.id, ast.unparse(node.right)) for stmt in stmts
                       for node in ast.walk(stmt) if isinstance(node, ast.BinOp)
                       and isinstance(node.op, ast.Mult) and isinstance(node.left, ast.Name)
                       and node.left.id in {"_u0", "_ua", "_ub", "_uc"})

    for members in (1, 3):
        _, body, before = step_body(members)
        if variant == "constant":
            assert not products(body)
            assert products(before) == {("_u0", c): 1 for c in consts}
        else:
            assert products(body) == {(u, c): 1 for u in ("_ua", "_ub", "_uc") for c in consts}


def _mixed_fields_system() -> ControlAffineSystem:
    """Input fields that read a state (a velocity, a position) beside
    constant ones: 0.0, -0.0 and a repeated 1.25."""
    state_vars = ("x", "y", "z1", "z2", "z3", "z4")
    names = set(state_vars)

    def parsed(*sources):
        return tuple(ex.parse(src, names) for src in sources)

    return ControlAffineSystem(
        state_vars=state_vars,
        drift=parsed("z1", "-z2", "-z1 + 0.3*tanh(z3)", "-0.5*z2 + 0.1*sin(x)", "-z3", "-0.0*z4"),
        input_fields=((ex.const(0.0), ex.const(-0.0), *parsed("cos(z1)"), ex.const(1.25),
                       *parsed("0.2*sin(y)"), ex.const(1.25)),),
        outputs=parsed("sin(x)*z1", "y*z2 + z4"),
    )


def test_mixed_input_fields_match_tree_evaluated_rk4_bitwise():
    # the constant fields' products are formed once per stage input and the
    # state-reading ones in the stage; both give the oracle's bits under
    # every input kind, in a lone run and in an ensemble.  From y = -0.0 at
    # z2 = 0.0, y's field is -0.0 + u*(-0.0): a product u*(0.0) in its place
    # would turn y to +0.0
    ca = _mixed_fields_system()
    assert [isinstance(g, ex.Const) for g in ca.input_fields[0]] == [True, True, False, True, False, True]
    inputs = {
        "zero": InputSignal.zero(),
        "constant": InputSignal.constant(-0.75),
        "sinusoid": InputSignal.sinusoid(1.1, 4.0, 0.2),
        "piecewise": InputSignal.piecewise((0.02, 0.05), (0.5, -1.5, 0.0)),
        "table": InputSignal.table((0.3, -0.6, 1.2, -0.0), 0.01, 0.01),
    }
    starts = [(-0.0, -0.0, -0.0, -0.0, -0.0, -0.0), (0.4, -0.3, 0.2, -0.1, 0.6, -0.5),
              (1.4, -0.3, 0.2, -0.1, 0.6, -0.5), (0.0, -0.0, 5e-324, 0.0, -5e-324, 1e300)]
    for kind, u in inputs.items():
        lone = integrate(ca, starts[1], u, 0.06, 1e-3)
        joint = integrate_many(ca, starts, u, 0.06, 1e-3)
        for x0, traj in [(starts[1], lone), *zip(starts, joint)]:
            states, outputs = _reference_rk4(ca, x0, u, 0.06, 1e-3)
            assert _same_bits(traj.states, states), kind
            assert _same_bits(traj.outputs, outputs), kind


def test_ensemble_of_extreme_starts_matches_tree_evaluated_rk4_bitwise():
    # one run of MEMBERS_MAX starts: signed zeros, the least subnormal and
    # positions near the float limit, some of them sharing velocity bits
    sys = _random_cascade(random.Random(5), 2, ("sin(x)", "tanh(x)").__getitem__)
    ca = as_control_affine(sys)
    positions = (-0.0, 0.0, 5e-324, 1.7e308, -1.7e308, 1e300)
    velocities = (-0.0, 0.0, 5e-324, -5e-324, 0.7)
    starts = [(positions[j % 6], positions[(5 * j + 1) % 6], velocities[j % 5],
               velocities[(3 * j + 2) % 5]) for j in range(MEMBERS_MAX)]
    pattern, _ = sim._sharing(sim._reads(ca), tuple(v for x in starts for v in x))
    assert len({m[2:] for m in pattern}) < len(starts)
    for u in (InputSignal.zero(), InputSignal.constant(0.3), InputSignal.sinusoid(0.8, 2.5, 0.3)):
        trajs = integrate_many(ca, starts, u, 0.02, 1e-3)
        for x0, traj in zip(starts, trajs):
            states, outputs = _reference_rk4(ca, x0, u, 0.02, 1e-3)
            assert _same_bits(traj.states, states), (u, x0)
            assert _same_bits(traj.outputs, outputs), (u, x0)


def test_generated_loops_are_kept_with_the_system_and_are_no_field():
    # a second run of the same kind and sharing pattern reuses the loop the
    # first generated; equality, hash, repr and pickle ignore the loops
    ca = as_control_affine(preset("fish-1d-gauss"))
    before = (repr(ca), hash(ca), pickle.dumps(ca))
    integrate(ca, (0.3, 0.5), InputSignal.constant(0.2), 0.01, 1e-3)
    loops = dict(ca._loops)
    assert list(loops) == [("constant", ((0, 1),))]
    integrate(ca, (-0.3, 0.9), InputSignal.zero(), 0.01, 1e-3)
    assert ca._loops == loops
    assert (repr(ca), hash(ca), pickle.dumps(ca)) == before
    for clone in (copy.copy(ca), pickle.loads(pickle.dumps(ca))):
        assert clone == ca
        assert not hasattr(clone, "_loops")


def test_a_run_that_fails_at_step_k_stores_k_plus_1_rows():
    # the rows of t = 0 .. k*dt are stored whole, and the failing step's
    # row is not: _raise_failure replays step k from the last row
    dt = 1e-3
    zs = {"z1"}

    def rows_of(sys, x0, u, steps):
        ca = as_control_affine(sys)
        rows = array("d")
        with pytest.raises(ValueError) as err:
            sim._run(ca, x0, u, dt, steps, rows)
        width = ca.dim + ca.p
        assert len(rows) % width == 0
        return err.value, np.frombuffer(rows).reshape(-1, width)

    # a state that blows up: the loop steps on through inf and nan, and
    # the first stored row that is not finite is the end of the step that
    # integrate names
    blowing = CascadeSystem(n=1, gamma=(ex.parse("1", ()),), F=(ex.parse("z1*z1", zs),), b=(1.0,))
    rows = array("d")
    sim._run(as_control_affine(blowing), (0.0, 2.0), InputSignal.zero(), dt, 2000, rows)
    table = np.frombuffer(rows).reshape(-1, 3)
    assert len(table) == 2001
    with pytest.raises(BlowUpError) as err:
        integrate(blowing, (0.0, 2.0), InputSignal.zero(), 2.0, dt)
    first = int(np.argmin(np.isfinite(table[:, :2]).all(axis=1)))
    assert 0 < first == round(err.value.t / dt)
    assert table[first, :2].tolist() == list(err.value.state)
    # an input without a value: step k computes w*t + phi at k*dt, k*dt +
    # dt/2 and k*dt + dt
    w = 1e308
    k = next(k for k in range(3000)
             if not all(math.isfinite(w * t) for t in (k * dt, k * dt + 0.5 * dt, k * dt + dt)))
    sin_sys = CascadeSystem(n=1, gamma=(ex.parse("1", ()),), F=(ex.parse("-z1", zs),), b=(1.0,))
    u = InputSignal.sinusoid(1.0, w)
    err, table = rows_of(sin_sys, (0.0, 0.0), u, 3000)
    assert len(table) == k + 1
    states, _ = _reference_rk4(as_control_affine(sin_sys), (0.0, 0.0), u, k * dt, dt)
    assert _same_bits(table[:, :2], states)
    # an output that leaves its domain: x reaches 0 where ln(x) fails
    ln_sys = CascadeSystem(n=1, gamma=(ex.parse("ln(x)", {"x"}),), F=(ex.parse("-z1", zs),), b=(1.0,))
    states, _ = _reference_rk4(as_control_affine(sin_sys), (1.0, -2.0), InputSignal.zero(), 1.0, dt)
    first = int(np.argmax(states[:, 0] <= 0.0))
    assert first > 0
    err, table = rows_of(ln_sys, (1.0, -2.0), InputSignal.zero(), 1000)
    assert len(table) == first
    assert _same_bits(table[:, :2], states[:first])


# ---------------------------------------------------------------------------
# ensembles: integrate_many against lone runs


ENSEMBLE_GAINS = ("sin(x)", "tanh(x)", "1/(x + 4)")
ENSEMBLE_SYSTEMS = {
    **{name: preset(name) for name in preset_names()},
    **{f"cascade-{n}": _random_cascade(random.Random(10 + n), n, ENSEMBLE_GAINS.__getitem__)
       for n in (1, 2, 3)},
}
ENSEMBLE_INPUTS = {
    "zero": InputSignal.zero(),
    "const": InputSignal.constant(0.7),
    "sin": InputSignal.sinusoid(0.8, 2.5, 0.3),
    "piecewise": InputSignal.piecewise((0.04, 0.07), (1.0, -0.5, 0.2)),
    "table": InputSignal.table((0.5, -1.0, 0.25, 2.0), 0.02, 0.01),
}


def test_a_lone_run_equals_its_ensemble_member():
    # a trajectory compares its samples, not the run buffer or the columns
    # that hold them: 17 states run as 9 and 8, and each member equals the
    # lone run of its state
    sys = preset("sin-drift")
    u = InputSignal.sinusoid(0.8, 2.5, 0.3)
    states = [(0.1 * j, 0.5 - 0.05 * j) for j in range(MEMBERS_MAX + 1)]
    trajs = integrate_many(sys, states, u, 0.01, 1e-3)
    assert {traj.width for traj in trajs} == {9 * 3, 8 * 3}
    assert integrate(sys, states[0], u, 0.01, 1e-3) == integrate(sys, states[0], u, 0.01, 1e-3)
    for j in (0, 8, 9, MEMBERS_MAX):
        lone = integrate(sys, states[j], u, 0.01, 1e-3)
        assert trajs[j] == lone and lone == trajs[j]
        # a pickle or a copy of a member holds its own rows, as a lone run does
        for twin in (pickle.loads(pickle.dumps(trajs[j])), copy.copy(trajs[j])):
            assert twin == lone and twin.rows.tobytes() == lone.rows.tobytes()
    assert trajs[1] != trajs[0]
    assert integrate(sys, states[0], u, 0.011, 1e-3) != trajs[0]  # one more sample


def test_ensemble_of_wide_states_matches_lone_runs_bitwise():
    # 16 states of dimension 252 in one joint loop: 4032 stored states per
    # row, and the step stays within what Python's compiler takes
    n = 126
    zs = {f"z{i}" for i in range(1, n + 1)}
    sys = CascadeSystem(n=n, gamma=(ex.parse("1", ()),) * n,
                        F=tuple(ex.parse(f"-z{i}", zs) for i in range(1, n + 1)), b=(1.0,) * n)
    states = [[0.01 * j] * n + [1.0 - 0.05 * j] * n for j in range(MEMBERS_MAX)]
    assert MEMBERS_MAX * 2 * n > 4000
    trajs = integrate_many(sys, states, InputSignal.sinusoid(1.0, 2.0), 0.005, 1e-3)
    for j in (0, MEMBERS_MAX - 1):
        lone = integrate(sys, states[j], InputSignal.sinusoid(1.0, 2.0), 0.005, 1e-3)
        assert _same_bits(trajs[j].states, lone.states)
        assert _same_bits(trajs[j].outputs, lone.outputs)


def test_wide_state_matches_lone_blocks_bitwise():
    # one state of dimension 3200 in one loop, bit for bit the runs of its
    # 1600 decoupled blocks
    n = 1600
    sys = CascadeSystem(n=n, gamma=(ex.parse("1", ()),) * n,
                        F=tuple(ex.parse(f"-z{i}", {f"z{i}"}) for i in range(1, n + 1)),
                        b=(1.0,) * n)
    u = InputSignal.sinusoid(1.0, 2.0)
    x0 = [0.0] * n + [0.001 * i for i in range(n)]
    traj, = integrate_many(sys, [x0], u, 0.01, 1e-3)
    block = CascadeSystem(n=1, gamma=(ex.parse("1", ()),), F=(ex.parse("-z1", {"z1"}),), b=(1.0,))
    for i in (0, n - 1):
        lone = integrate(block, (0.0, x0[n + i]), u, 0.01, 1e-3)
        assert _same_bits(traj.states[:, [i, n + i]], lone.states)
    # an overflow in the last state variable is found after the run
    with pytest.raises(BlowUpError) as err:
        integrate_many(sys, [[0.0] * (2 * n - 1) + [1e308]], InputSignal.constant(-1e308),
                       0.01, 1e-3)
    assert err.value.t == 1e-3


def _raised(run) -> Exception:
    with pytest.raises(Exception) as err:
        run()
    return err.value


def test_ensemble_failure_is_the_first_failing_state_in_order():
    # z' = z^2 from z = 1 blows up at t = 1, from z = 2 already at t = 0.5;
    # the pair reports the failure that comes first in time, the second
    # state's, as a lone run of it reports it
    sys = CascadeSystem(n=1, gamma=(ex.parse("1", ()),), F=(ex.parse("z1^2", {"z1"}),), b=(1.0,))
    u = InputSignal.zero()
    assert 0.99 < _raised(lambda: integrate(sys, (0.0, 1.0), u)).t < 1.01
    lone = _raised(lambda: integrate(sys, (0.0, 2.0), u))
    pair = _raised(lambda: distinguishability_experiment(sys, (0.0, 1.0), (0.0, 2.0), u))
    assert type(pair) is type(lone) is BlowUpError
    assert (str(pair), pair.t, pair.state) == (str(lone), lone.t, lone.state)
    assert 0.49 < pair.t < 0.51


def _count_runs(monkeypatch) -> list:
    """The flat starts of every run of a generated loop from now on."""
    calls = []
    run = sim._run
    monkeypatch.setattr(sim, "_run", lambda ca, x0s, *args: calls.append(x0s) or run(ca, x0s, *args))
    return calls


def test_a_failing_lone_run_integrates_once(monkeypatch):
    # a loop of one member runs the lone run that locates the failure, so
    # the failure is read from that run instead of a second one
    calls = _count_runs(monkeypatch)
    sys = CascadeSystem(n=1, gamma=(ex.parse("1", ()),), F=(ex.parse("z1^2", {"z1"}),), b=(1.0,))
    err = _raised(lambda: integrate(sys, (0.0, 2.0), InputSignal.zero()))
    assert type(err) is BlowUpError
    assert 0.49 < err.t < 0.51
    assert len(calls) == 1


def test_ensemble_domain_error_at_a_pole_keeps_the_order():
    # from x = -1.6053188106462255 at velocity -1 the position lands exactly
    # on the pole x = -2 of 1/(x + 2) at step 502; the second state overflows
    # in its first step, so the pair reports that overflow, not the pole
    sys = preset("fish-1d-hyperbolic")
    u = InputSignal.zero()
    at_pole, overflowing = (-1.6053188106462255, -1.0), (0.0, 1.7e308)
    integrate(sys, at_pole, u, 0.501)  # still clear of the pole
    assert type(_raised(lambda: integrate(sys, at_pole, u))) is ex.DomainError
    lone = _raised(lambda: integrate(sys, overflowing, u))
    pair = _raised(lambda: distinguishability_experiment(sys, at_pole, overflowing, u))
    assert type(pair) is type(lone) is BlowUpError
    assert (str(pair), pair.t, pair.state) == (str(lone), lone.t, lone.state)
    assert pair.t == 1e-3


def _fields(err: Exception):
    return type(err), str(err), repr(vars(err))


def test_ensemble_raises_the_lone_error_of_the_member_that_fails_first(monkeypatch):
    # the error of an ensemble is, field for field, what integrate raises
    # for the member whose failure comes first, located in the rows of the
    # one run of its states: a generated loop runs once per run of states
    calls = _count_runs(monkeypatch)
    u = InputSignal.zero()

    def check(sys, starts, j, runs=1):
        lone = _raised(lambda: integrate(sys, starts[j], u, 2.0, 1e-3))
        calls.clear()
        joint = _raised(lambda: integrate_many(sys, starts, u, 2.0, 1e-3))
        assert len(calls) == runs
        assert _fields(joint) == _fields(lone)
        return joint

    def cascade(gain, source):
        return CascadeSystem(n=1, gamma=(ex.parse(gain, {"x"}),), F=(ex.parse(source, {"z1"}),),
                             b=(1.0,))

    # a Gramian-shaped ensemble: z' = z^2 blows up at t = 1/z, so the third
    # start (z = 1.1) fails first, by a stage overflow (z1^2 raises) or at a
    # step end (z1*z1 turns inf), before the first start (z = 1) does
    starts = _gramian_starts([0.3, 1.0], eps=0.1)
    for gain, source in (("1", "z1^2"), ("1", "z1*z1"), ("sin(x)", "z1*z1")):
        sys = cascade(gain, source)
        joint = check(sys, starts, 2)
        assert _fields(joint) != _fields(_raised(lambda: integrate(sys, starts[0], u, 2.0, 1e-3)))
        assert 0.90 < joint.t < 0.92
    # 17 states in runs of 9 and 8: the first run fails (z = 1 at t = 1)
    # although the second fails earlier (z = 4 at t = 0.25), and the second
    # is never run; alone, the second run raises its own first failure
    sys = cascade("1", "z1^2")
    velocities = [-1.0] * (MEMBERS_MAX + 1)
    velocities[3], velocities[12], velocities[15] = 1.0, 2.0, 4.0
    starts = [(0.1 * j, v) for j, v in enumerate(velocities)]
    check(sys, starts, 3)
    assert calls == [tuple(v for x in starts[:9] for v in x)]
    starts[3] = (0.3, -1.0)
    check(sys, starts, 15, runs=2)
    # the second run steps the last 8 states and nothing else
    assert [len(x0s) // 2 for x0s in calls] == [9, 8]
    assert calls[1] == tuple(v for x in starts[9:] for v in x)
    # a pair that shares its velocity start: x' = z from z = 1e307 under
    # z' = -z overflows from x = 1.79e308 at t = 0.080, from 1.75e308 at 0.65
    sys = cascade("1", "-z1")
    starts = [(1.75e308, 1e307), (1.79e308, 1e307)]
    pattern, seeds = sim._sharing(sim._reads(as_control_affine(sys)),
                                  tuple(v for x in starts for v in x))
    assert pattern[0][1] == pattern[1][1] and len(seeds) == 3
    joint = check(sys, starts, 1)
    assert type(joint) is BlowUpError and 0.07 < joint.t < 0.09
    assert _raised(lambda: integrate(sys, starts[0], u, 2.0, 1e-3)).t > 0.6


def test_an_output_that_overflows_between_finite_ones_fails_at_its_first_sample():
    # F = 0 keeps z at its start and x = z*t; with z = 2 the output
    # (1e308*sin(x))*2 overflows from the first sample where |sin(x)| passes
    # max/2e308, about x = 1.117, while every state stays finite, and is
    # finite again past x = pi - 1.117, well before the run ends at x = 4;
    # with z = 1 it never overflows
    sys = CascadeSystem(n=1, gamma=(ex.parse("1e308*sin(x)", {"x"}),),
                        F=(ex.parse("0", {"z1"}),), b=(1.0,))
    dt, u = 1e-3, InputSignal.zero()
    x_over = math.asin(1.7976931348623157e308 / 2 / 1e308)
    k = math.floor(x_over / (2 * dt)) + 1  # the first sample past it, on x = 2*k*dt
    assert 2 * (k - 1) * dt < x_over - 1e-6 and 2 * k * dt > x_over + 1e-6
    assert math.isfinite(1e308 * math.sin(2 * 2.0) * 2)  # the last output is finite
    output = as_control_affine(sys).outputs[0]
    for starts in ([(0.0, 2.0)], [(0.0, 1.0), (0.0, 2.0)], [(0.0, 2.0), (0.0, 1.0)]):
        trajs = integrate_many(sys, starts, u, (k - 1) * dt, dt)
        assert [traj.samples for traj in trajs] == [k] * len(starts)
        for t_end in (k * dt, 2.0):
            err = _raised(lambda: integrate_many(sys, starts, u, t_end, dt))
            assert type(err) is ex.DomainError, (starts, t_end)
            assert str(err) == "non-finite result in 1e+308*sin(x1)*z1"
            assert err.subexpr == output


def test_a_domain_fault_in_a_stage_names_its_subexpression():
    # z falls at about 2 per unit time, and ln(z1) leaves its domain in a
    # stage of the step that crosses z = 0: the loop raises math's bare
    # ValueError, and the replay names the culprit through the evaluator
    sys = CascadeSystem(n=1, gamma=(ex.parse("1", ()),), F=(ex.parse("-2 + 1e-9*ln(z1)", {"z1"}),),
                        b=(1.0,))
    err = _raised(lambda: integrate(sys, (0.0, 1.0), InputSignal.zero()))
    assert type(err) is ex.DomainError
    assert err.subexpr == ex.parse("ln(z1)", {"z1"})
    assert str(err) == "ln of a non-positive value in ln(z1)"


def _plain_rk4_failure(F, x0, dt):
    """(t, state) a ``BlowUpError`` of x' = z, z' = F(z) under zero input
    carries, from RK4 over plain floats: the stage time and stage state of
    the first stage whose field overflows (``OverflowError``), else the step
    end and state of the first step that ends non-finite."""
    x = tuple(x0)
    for k in range(10 ** 6):
        t = k * dt
        ks = []
        for step, ts in ((None, t), (0.5 * dt, t + 0.5 * dt), (0.5 * dt, t + 0.5 * dt), (dt, t + dt)):
            stage = x if step is None else tuple(xi + step * ki for xi, ki in zip(x, ks[-1]))
            try:
                ks.append((stage[1] + 0.0 * 0.0, F(stage[1]) + 0.0 * 1.0))
            except OverflowError:
                return ts, stage
        x = tuple(xi + (dt / 6.0) * (((a + 2.0 * b) + 2.0 * c) + d) for xi, a, b, c, d in zip(x, *ks))
        if not all(map(math.isfinite, x)):
            return t + dt, x
    raise AssertionError("no failure")


@pytest.mark.parametrize("gain, source, F", [("1", "z1^2", lambda z: z ** 2),
                                             ("1", "z1*z1", lambda z: z * z),
                                             ("sin(x)", "z1*z1", lambda z: z * z)],
                         ids=["stage-overflow", "step-end-inf", "step-end-inf-output-raises"])
def test_blowup_state_is_the_failing_state(gain, source, F):
    # z1^2 overflows in a stage (float ** raises), z1*z1 turns inf at a step
    # end (float * does not); either way the error carries the whole state
    # of that moment, as plain-float RK4 computes it.  Under the gain sin(x)
    # x and z turn inf in the same step, and sin(inf) raises in the outputs
    # before that step's row is stored
    sys = CascadeSystem(n=1, gamma=(ex.parse(gain, {"x"}),), F=(ex.parse(source, {"z1"}),),
                        b=(1.0,))
    u = InputSignal.zero()
    t, state = _plain_rk4_failure(F, (0.3, 2.0), 1e-3)
    lone = _raised(lambda: integrate(sys, (0.3, 2.0), u, 2.0, 1e-3))
    assert type(lone) is BlowUpError
    assert (lone.t, lone.state) == (t, state)
    assert len(lone.state) == 2
    # a stage state is finite; a step end is not
    assert all(map(math.isfinite, lone.state)) == (source == "z1^2")
    # a Gramian-shaped ensemble: its position rows share the velocity part
    # that blows up; the error is the lone run's of the first start
    eps = 1e-4
    starts = [(0.3 + eps, 2.0), (0.3 - eps, 2.0), (0.3, 2.0 + eps), (0.3, 2.0 - eps)]
    first = _raised(lambda: integrate(sys, starts[0], u, 2.0, 1e-3))
    joint = _raised(lambda: integrate_many(sys, starts, u, 2.0, 1e-3))
    assert type(joint) is type(first) is BlowUpError
    assert (str(joint), joint.t, joint.state) == (str(first), first.t, first.state)
    assert (first.t, first.state) == _plain_rk4_failure(F, starts[0], 1e-3)


@pytest.mark.parametrize("x0", [(math.inf, 1.0), (0.0, math.nan)], ids=["inf-position", "nan-velocity"])
def test_non_finite_start_fails_at_the_end_of_step_1(x0):
    # the start is not a step end: a state that is not finite from the
    # start fails at t = dt with the state after step 1, lone and in a pair
    sys = CascadeSystem(n=1, gamma=(ex.parse("1", ()),), F=(ex.parse("-z1", {"z1"}),), b=(1.0,))
    u = InputSignal.zero()
    t, state = _plain_rk4_failure(lambda z: -z, x0, 1e-3)
    assert t == 1e-3
    lone = _raised(lambda: integrate(sys, x0, u, 2.0, 1e-3))
    pair = _raised(lambda: integrate_many(sys, [(0.5, 0.5), x0], u, 2.0, 1e-3))
    for err in (lone, pair):
        assert type(err) is BlowUpError
        assert err.t == 1e-3
        assert repr(err.state) == repr(state)


def _moved(x, i, d):
    y = list(x)
    y[i] += d
    return y


def _gramian_starts(x0, eps=1e-4, secant=None):
    """The starts of a Gramian at ``x0`` in ``gramian._gramian``'s order:
    the +-eps pair per state, or for ``secant = (i, d)`` the pair x0 + d*e_i,
    x0 at row i."""
    starts = []
    for i in range(len(x0)):
        if secant is not None and i == secant[0]:
            starts += [_moved(x0, i, secant[1]), list(x0)]
        else:
            starts += [_moved(x0, i, eps), _moved(x0, i, -eps)]
    return starts


def _sharing_cases(n, rng):
    """Start lists of a cascade of n blocks (positions first, then
    velocities) whose members share velocity parts in every way an
    experiment produces, and some it does not."""
    dim = 2 * n
    rest = [0.0] * dim
    moving = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
    signed_zero = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
    signed_zero[0] = signed_zero[n] = 0.0
    return {
        "gramian-rest": _gramian_starts(rest),
        "gramian-moving": _gramian_starts(moving),
        "secant": _gramian_starts(moving, secant=(0, TWO_PI)),
        "shift-pair": [rest, _moved(rest, n - 1, TWO_PI)],
        "duplicate": [moving, _moved(moving, 0, 0.5), moving],
        # 17 states: a run of 9, then a run of the last 8 alone
        "padded": [_moved(moving, j % n, 0.1 * j) for j in range(MEMBERS_MAX + 1)],
        "velocity-signed-zero": [signed_zero, [*signed_zero[:n], -0.0, *signed_zero[n + 1:]]],
        "position-signed-zero": [signed_zero, [-0.0, *signed_zero[1:]]],
    }


def _full_reading(ca: ControlAffineSystem) -> ControlAffineSystem:
    """``ca`` with a drift that reads every state: x_i' = z_i - 0.01*x_i."""
    n = ca.dim // 2
    drift = tuple(ex.sub(f, ex.mul(ex.const(0.01), ex.Var(v))) if i < n else f
                  for i, (f, v) in enumerate(zip(ca.drift, ca.state_vars)))
    return ControlAffineSystem(state_vars=ca.state_vars, drift=drift,
                               input_fields=ca.input_fields, outputs=ca.outputs)


@pytest.mark.parametrize("u", ENSEMBLE_INPUTS.values(), ids=ENSEMBLE_INPUTS.keys())
@pytest.mark.parametrize("name", ENSEMBLE_SYSTEMS)
def test_ensemble_trajectories_equal_lone_runs_bitwise(name, u):
    # random ensembles of one state, a pair, a Gramian's 2*dim, and two runs
    # of a joint loop, the second one state shorter than the first; then
    # starts whose members share velocity parts (_sharing_cases).  The
    # same on a system whose fields read every state, which shares only
    # between equal starts
    sys = ENSEMBLE_SYSTEMS[name]
    dim = 2 * sys.n
    rng = random.Random(name)
    cases = {size: [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(size)]
             for size in (1, 2, 2 * dim, MEMBERS_MAX + 1)}
    cases.update(_sharing_cases(sys.n, rng))
    ca = as_control_affine(sys)
    full = _full_reading(ca)
    for system in (ca, full):
        for case, starts in cases.items():
            trajs = integrate_many(system, starts, u, 0.1, 1e-3)
            assert len(trajs) == len(starts)
            for x0, traj in zip(starts, trajs):
                lone, = integrate_many(system, [x0], u, 0.1, 1e-3)
                assert _same_bits(traj.states, lone.states), case
                assert _same_bits(traj.outputs, lone.outputs), case
    # the full-reading system has one slot per start and variable
    starts = cases["gramian-moving"]
    _, seeds = sim._sharing(sim._reads(full), tuple(v for x in starts for v in x))
    assert len(seeds) == len(starts) * dim


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gramian_loop_holds_one_stage_block_per_velocity_start(n):
    # a Gramian of 2*dim = 4n starts on an n-block cascade has 2n + 1
    # distinct velocity parts: the 2n position rows share the base one; the
    # step body evaluates the stages once per distinct velocity part and
    # forms no stage state x + step*k of a position.  Only the couplings F
    # call cos and exp, each once per F
    sys = _random_cascade(random.Random(n), n, ENSEMBLE_GAINS.__getitem__)
    ca = as_control_affine(sys)
    x0 = [0.1 * (i + 1) for i in range(2 * n)]
    for starts in (_gramian_starts(x0), _gramian_starts(x0, secant=(n - 1, TWO_PI))):
        groups = {tuple(v.hex() for v in x[n:]) for x in starts}
        assert len(groups) == 2 * n + 1 < 4 * n
        pattern, _ = sim._sharing(sim._reads(ca), tuple(float(v) for x in starts for v in x))
        fn, = ast.parse(rk4_source(ca, pattern, "sinusoid")).body
        body, = [node for node in fn.body if isinstance(node, ast.For)]
        calls = Counter(node.func.id for stmt in body.body for node in ast.walk(stmt)
                        if isinstance(node, ast.Call))
        assert calls["_cos"] == calls["_exp"] == 4 * len(groups) * n
        stage_states = [stmt.value.left.id for stmt in body.body if isinstance(stmt, ast.Assign)
                        and re.fullmatch(r"_s\d+ \+ (_h|_dt) \* \w+", ast.unparse(stmt.value))]
        velocities = {f"_s{m[i]}" for m in pattern for i in range(n, 2 * n)}
        assert len(stage_states) == 3 * len(groups) * n
        assert set(stage_states) == velocities


def _reused_sources(stmts) -> list[str]:
    """The right-hand sides assigned again, in order, while no name they
    read was assigned in between."""
    live: dict[str, frozenset] = {}
    again = []
    for stmt in stmts:
        if not isinstance(stmt, ast.Assign):
            continue
        rhs = ast.unparse(stmt.value)
        if rhs in live:
            again.append(rhs)
        stored = {node.id for target in stmt.targets for node in ast.walk(target)
                  if isinstance(node, ast.Name)}
        live = {src: reads for src, reads in live.items() if not reads & stored}
        reads = frozenset(node.id for node in ast.walk(stmt.value) if isinstance(node, ast.Name))
        if not reads & stored:
            live[rhs] = reads
    return again


@pytest.mark.parametrize("variant", ["constant", "sinusoid", "piecewise", "table"])
def test_step_writes_each_right_hand_side_once(variant):
    # local value numbering: in the step body and before the loop, no value
    # is computed twice from the same operands, however the members share
    # their starts
    sys = ENSEMBLE_SYSTEMS["cascade-2"]
    ca = as_control_affine(sys)
    cases = _sharing_cases(sys.n, random.Random(variant))
    for case in ("gramian-rest", "gramian-moving", "secant", "shift-pair", "duplicate"):
        flat = tuple(float(v) for x in cases[case] for v in x)
        pattern, _ = sim._sharing(sim._reads(ca), flat)
        fn, = ast.parse(rk4_source(ca, pattern, variant)).body
        loop, = [node for node in fn.body if isinstance(node, ast.For)]
        assert _reused_sources(loop.body) == [], case
        assert _reused_sources(fn.body[:fn.body.index(loop)]) == [], case


def test_z_component_ignores_positions():
    # the velocity subsystem never reads x, so z records agree bitwise
    sys = preset("sin-drift")
    u = InputSignal.sinusoid(1.0, 1.0)
    ta = integrate(sys, (0.3, 0.5), u, 5.0, 1e-3)
    tb = integrate(sys, (-1.2, 0.5), u, 5.0, 1e-3)
    assert _same_bits(ta.states[:, 1], tb.states[:, 1])


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


CSV_SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 3.0, 0.1)


@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                  2 * CSV_BLOCK_ROWS + 1])
def test_csv_bytes_match_per_value_formatting(rows):
    # the specials cycle through the columns of every block, and the row
    # count puts the end of the last block before, on and after its edge;
    # the buffer is laid out as a run of two members, and the trajectory is
    # the second one's: states in columns 2-3, its output in column 5
    rng = random.Random(rows)
    values = [CSV_SPECIALS[k % len(CSV_SPECIALS)] if k % 3 else rng.uniform(-1e3, 1e3)
              for k in range(3 * rows)]
    table = np.array(values).reshape(rows, 3)
    run = np.column_stack((-table[:, :2], table[:, :2], -table[:, 2], table[:, 2]))
    traj = Trajectory(0.0, 0.1, array("d", run.ravel()), 6, 2, 5, ("x1", "z1"), ("y1",))
    assert _same_bits(traj.states, table[:, :2]) and _same_bits(traj.outputs, table[:, 2:])
    expected = "t,x1,z1,y1\n" + "".join(
        ",".join(f"{v:.17g}" for v in (t, *row)) + "\n"
        for t, row in zip(traj.times.tolist(), table.tolist()))
    assert traj.to_csv() == expected
    if rows > len(CSV_SPECIALS):
        for text in ("nan", "inf", "-inf", "-0,", "4.9406564584124654e-324", "e+300"):
            assert text in expected


def test_csv_peaks_at_about_twice_its_text():
    # one block of Python floats at a time: the transient heap stays near
    # the text plus its blocks, not a whole table of floats and rows
    sys = CascadeSystem(n=2, gamma=(ex.parse("exp(-x^2)", {"x"}), ex.parse("sin(x)", {"x"})),
                        F=(ex.parse("-z1", {"z1", "z2"}), ex.parse("-z2 + 0.5*z1", {"z1", "z2"})),
                        b=(1.0, 0.5))
    traj = integrate(sys, (0.1, 0.2, 0.3, -0.4), InputSignal.sinusoid(1.0, 2.0), 10.0, 1e-3)
    assert len(traj.states) == 10001
    tracemalloc.start()
    try:
        text = traj.to_csv()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), peak / len(text)


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


def test_gaps_match_the_numpy_reduction_of_the_output_arrays():
    # the reference reduction of the two (samples, outputs) arrays: the
    # largest gap per sample, its maximum, and the first sample above the
    # tolerance; the pairs differ in a velocity (from t = 0), in block 2's
    # position (later, through output 2), in a hair of that position, and
    # not at all
    sys = _random_cascade(random.Random(5), 2, ("sin(x)", "exp(-x^2)").__getitem__)
    u, s0 = InputSignal.sinusoid(0.8, 2.5, 0.3), (0.3, -0.2, 0.1, 0.0)
    kinds = set()
    for s1 in ((0.3, -0.2, 0.5, 0.0), (0.3, 0.4, 0.1, 0.0), (0.3, -0.1999, 0.1, 0.0), s0):
        ta, tb = integrate_many(sys, (s0, s1), u, 2.0, 1e-3)
        diff = np.abs(ta.outputs - tb.outputs).max(axis=1)
        over = np.flatnonzero(diff > sim.DIST_TOL_DEFAULT)
        res = distinguishability_experiment(sys, s0, s1, u, 2.0, 1e-3)
        assert res.gap == diff.max()
        assert res.first_divergence == (over[0] * 1e-3 if over.size else None)
        kinds.add((res.classification, over[0] > 0 if over.size else None))
    assert kinds == {("diverged", False), ("diverged", True), ("inconclusive", True),
                     ("identical", None)}
    # a shift experiment compares rest at the origin with rest at the shift
    rest, shifted = integrate_many(sys, [(0.0,) * 4, (0.0, 0.6, 0.0, 0.0)], u, 2.0, 1e-3)
    shift, = indistinguishability_experiment(sys, (0.0, 0.6), [u], 2.0, 1e-3)
    assert shift.gap == np.abs(shifted.outputs - rest.outputs).max() > 0.0


def test_a_gap_overflow_names_the_first_sample_then_the_first_output():
    # F = z: each velocity, and with gain 10 each output, grows as e^t; the
    # gaps 1e308*e^t of output 1 and 1.2e308*e^t of output 2 overflow when
    # e^t passes max/1e308 and max/1.2e308, at t = 0.586 and 0.404, so
    # output 2 overflows first; the outputs themselves stay finite to t = 1
    zs = {"z1", "z2"}
    sys = CascadeSystem(n=2, gamma=(ex.parse("10", ()),) * 2,
                        F=(ex.parse("z1", zs), ex.parse("z2", zs)), b=(1.0, 1.0))
    dt, big = 1e-3, 1.7976931348623157e308
    t_over = math.log(big / 1.2e308)
    k = math.ceil(t_over / dt)
    assert (k - 1) * dt < t_over - 1e-6 and k * dt > t_over + 1e-6
    outputs = as_control_affine(sys).outputs
    for s0, s1, t, j in (((0.0, 0.0, 0.5e307, 0.6e307), (0.0, 0.0, -0.5e307, -0.6e307), k * dt, 1),
                         ((0.0, 0.0, 0.6e307, 0.6e307), (0.0, 0.0, -0.6e307, -0.6e307), k * dt, 0),
                         ((0.0, 0.0, 1e307, 0.0), (0.0, 0.0, -1e307, 0.0), 0.0, 0)):
        t_end = 1.0 if t else 0.5  # 1e307*e^t leaves the floats past t = 0.586
        err = _raised(lambda: distinguishability_experiment(sys, s0, s1, InputSignal.zero(),
                                                            t_end, dt))
        assert type(err) is ex.DomainError
        assert str(err) == f"output gap overflows at t={t:.6g} in {outputs[j]}"
        assert err.subexpr == outputs[j]


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
