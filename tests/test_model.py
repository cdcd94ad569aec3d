import copy
import math
import pickle
import random

import numpy as np
import pytest
import sympy

import obsv_lab.expr as ex
from obsv_lab import gramian, lie, obsv, sim
from obsv_lab.model import (
    CascadeSystem,
    ControlAffineSystem,
    InvalidSystemError,
    ObservableWord,
    SystemFormatError,
    as_control_affine,
    linearize_at,
    load_system,
    preset,
    preset_names,
    validate,
)


def gauss_preset():
    return preset("fish-1d-gauss")


# ---------------------------------------------------------------------------
# validation


def test_validate_clean_presets():
    for name in preset_names():
        assert validate(preset(name)) == []


def test_validate_zero_b_entry():
    sys = CascadeSystem(
        n=1,
        gamma=(ex.parse("sin(x)", {"x"}),),
        F=(ex.parse("-z1", {"z1"}),),
        b=(0.0,),
    )
    msgs = validate(sys)
    assert any("b_1" in m for m in msgs)


def test_validate_gamma_wrong_variable():
    sys = CascadeSystem(
        n=1,
        gamma=(ex.parse("sin(z1)", {"z1"}),),
        F=(ex.parse("-z1", {"z1"}),),
        b=(1.0,),
    )
    msgs = validate(sys)
    assert any("gamma_1" in m and "z1" in m for m in msgs)


def test_validate_length_mismatch():
    sys = CascadeSystem(
        n=2,
        gamma=(ex.parse("sin(x)", {"x"}),),
        F=(ex.parse("-z1", {"z1"}), ex.parse("-z2", {"z2"})),
        b=(1.0, 1.0),
    )
    assert any("gamma" in m for m in validate(sys))


def test_as_control_affine_rejects_invalid():
    sys = CascadeSystem(
        n=1,
        gamma=(ex.parse("sin(x)", {"x"}),),
        F=(ex.parse("-z1", {"z1"}),),
        b=(0.0,),
    )
    with pytest.raises(InvalidSystemError):
        as_control_affine(sys)


# ---------------------------------------------------------------------------
# control-affine form


def test_control_affine_shapes():
    sys = CascadeSystem(
        n=2,
        gamma=(ex.parse("sin(x)", {"x"}), ex.parse("exp(-x^2)", {"x"})),
        F=(ex.parse("-z1 + 0.5*z2", {"z1", "z2"}), ex.parse("-z2", {"z1", "z2"})),
        b=(1.0, -2.0),
    )
    ca = as_control_affine(sys)
    assert ca.dim == 4
    assert ca.m == 1
    assert ca.p == 2
    assert ca.state_vars == ("x1", "x2", "z1", "z2")
    # drift starts with the velocities
    assert ca.drift[0] == ex.Var("z1")
    assert ca.drift[1] == ex.Var("z2")
    # input field is (0, 0, b1, b2)
    env = {v: 0.0 for v in ca.state_vars}
    assert [ex.evaluate(g, env) for g in ca.input_fields[0]] == [0.0, 0.0, 1.0, -2.0]


def test_control_affine_form_is_built_once_per_system():
    sys = gauss_preset()
    before = (repr(sys), hash(sys), pickle.dumps(sys))
    ca = as_control_affine(sys)
    assert as_control_affine(sys) is ca
    assert as_control_affine(ca) is ca  # a control-affine system is its own form
    # the kept form is no field: equality, hash, repr and pickle ignore it
    assert (repr(sys), hash(sys), pickle.dumps(sys)) == before
    assert sys == gauss_preset()
    for clone in (copy.copy(sys), pickle.loads(pickle.dumps(sys))):
        assert clone == sys
        assert as_control_affine(clone) == ca


def test_outputs_are_gain_times_velocity():
    ca = as_control_affine(gauss_preset())
    env = {"x1": 0.5, "z1": 2.0}
    assert ex.evaluate(ca.outputs[0], env) == pytest.approx(
        math.exp(-0.25) * 2.0, rel=1e-14
    )
    assert ex.free_vars(ca.outputs[0]) == {"x1", "z1"}


def test_second_block_gain_uses_its_own_position():
    sys = CascadeSystem(
        n=2,
        gamma=(ex.parse("sin(x)", {"x"}), ex.parse("cos(x)", {"x"})),
        F=(ex.parse("-z1", {"z1", "z2"}), ex.parse("-z2", {"z1", "z2"})),
        b=(1.0, 1.0),
    )
    ca = as_control_affine(sys)
    env = {"x1": 0.3, "x2": 1.1, "z1": 1.0, "z2": 2.0}
    assert ex.evaluate(ca.outputs[1], env) == pytest.approx(math.cos(1.1) * 2.0)


# ---------------------------------------------------------------------------
# linearization


def test_linearize_gauss_at_rest():
    ca = as_control_affine(gauss_preset())
    lin = linearize_at(ca, (0.0, 0.0))
    np.testing.assert_allclose(lin.A, [[0.0, 1.0], [0.0, -1.0]], atol=1e-14)
    np.testing.assert_allclose(lin.B, [[0.0], [1.0]], atol=1e-14)
    np.testing.assert_allclose(lin.C, [[0.0, 1.0]], atol=1e-14)


def test_linearize_rest_output_row_is_gain_value():
    # at (x*, 0) the output row reduces to (0, gamma(x*))
    ca = as_control_affine(preset("periodic-sin"))
    for xstar in (-1.0, 0.4, 2.0):
        lin = linearize_at(ca, (xstar, 0.0))
        np.testing.assert_allclose(lin.C, [[0.0, math.sin(xstar)]], atol=1e-14)


def test_linearize_matches_finite_differences():
    sys = CascadeSystem(
        n=2,
        gamma=(ex.parse("sin(x)", {"x"}), ex.parse("tanh(x)", {"x"})),
        F=(
            ex.parse("-z1 + 0.3*sin(z2)", {"z1", "z2"}),
            ex.parse("-2*z2 + 0.1*z1", {"z1", "z2"}),
        ),
        b=(1.0, 0.5),
    )
    ca = as_control_affine(sys)
    x0 = np.array([0.3, -0.7, 0.9, 0.4])
    lin = linearize_at(ca, x0)
    h = 1e-6

    def drift_vec(x):
        env = dict(zip(ca.state_vars, x))
        return np.array([ex.evaluate(f, env) for f in ca.drift])

    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        fd = (drift_vec(x0 + step) - drift_vec(x0 - step)) / (2 * h)
        np.testing.assert_allclose(lin.A[:, j], fd, rtol=1e-6, atol=1e-8)


def test_linearize_matches_sympy_jacobians_on_a_coupled_cascade():
    rng = random.Random(7)
    gains = ("sin(1.3*x)", "exp(-0.7*x^2)", "1/(x + 3)")
    couplings = ("0.1*sin(z{j})", "0.2*tanh(z{j})*z{k}", "0.1*z{j}^2")
    fs = [f"-{round(rng.uniform(0.5, 2.0), 3)}*z{i} + "
          + couplings[i - 1].format(j=rng.randrange(1, 4), k=rng.randrange(1, 4))
          for i in range(1, 4)]
    sys = CascadeSystem(n=3, gamma=tuple(ex.parse(g, {"x"}) for g in gains),
                        F=tuple(ex.parse(f, {"z1", "z2", "z3"}) for f in fs), b=(1.0, -0.5, 2.0))
    xs, zs = sympy.symbols("x1:4"), sympy.symbols("z1:4")

    def sym(src, names):
        return sympy.sympify(src.replace("^", "**"), locals=names, rational=True)

    znames = {f"z{i + 1}": zs[i] for i in range(3)}
    drift = sympy.Matrix(list(zs) + [sym(f, znames) for f in fs])
    outputs = sympy.Matrix([sym(g, {"x": xs[i]}) * zs[i] for i, g in enumerate(gains)])
    state = xs + zs
    for _ in range(5):
        x0 = [rng.uniform(-1.5, 1.5) for _ in range(6)]
        lin = linearize_at(sys, x0)
        subs = {v: sympy.Float(p, 30) for v, p in zip(state, x0)}
        for got, field in ((lin.A, drift), (lin.C, outputs)):
            want = np.array(field.jacobian(state).xreplace(subs), dtype=float)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_linearize_overflowing_slope_names_its_drift_expression():
    # the drift value is finite at (0.3, 0), but its slope 1e308 + 1e308
    # overflows: a DomainError at that drift component, not a numpy warning
    drift = ex.parse("-z1 + 1e308*z1 + 1e308*z1", {"z1", "z2"})
    ca = ControlAffineSystem(("z1", "z2"), (drift, ex.parse("-z2", {"z2"})),
                             ((ex.Const(0.0), ex.Const(1.0)),), (ex.parse("z1", {"z1"}),))
    with pytest.raises(ex.DomainError) as info:
        linearize_at(ca, (0.3, 0.0))
    assert info.value.subexpr == drift
    assert "non-finite gradient" in str(info.value)


def test_linearize_wrong_dimension():
    ca = as_control_affine(gauss_preset())
    with pytest.raises(ValueError):
        linearize_at(ca, (0.0, 0.0, 0.0))


def _entry_point_cases():
    # a call on the gauss preset and a state or shift, and the message it
    # raises: every engine checks a state through state_of and a shift
    # through shift_of
    u = sim.InputSignal.zero()
    word = ObservableWord(1, (1, 0))
    rest = (0.0, 0.0)
    states = {
        "evaluate_word": lambda s, x: lie.evaluate_word(as_control_affine(s), word, x),
        "nested_lie_along_affine": lambda s, x: lie.nested_lie_along_affine(
            as_control_affine(s), [1.0, 0.5], 1, x),
        "linearize_at": linearize_at,
        "local_rank": obsv.local_rank,
        "empirical_gramian": lambda s, x: gramian.empirical_gramian(s, x, u),
        "input_sweep": lambda s, x: gramian.input_sweep(s, x, [u]),
        "shift_comparison_gramian": lambda s, x: gramian.shift_comparison_gramian(s, x, (1.0,), u),
        "integrate": lambda s, x: sim.integrate(s, x, u),
        "integrate_many": lambda s, x: sim.integrate_many(s, [rest, x], u),
        "distinguishability_experiment": lambda s, x: sim.distinguishability_experiment(
            s, rest, x, u),
    }
    for name, call in states.items():
        for x in ((0.0,), (0.0, 1.0, 2.0)):
            yield pytest.param(call, x, rf"^state has {len(x)} entries, expected 2$",
                               id=f"{name}-{len(x)}")
    shifts = {
        "indistinguishability_experiment": lambda s, t: sim.indistinguishability_experiment(
            s, t, [u]),
        "shift_comparison_gramian": lambda s, t: gramian.shift_comparison_gramian(s, rest, t, u),
    }
    for name, call in shifts.items():
        yield pytest.param(call, (1.0, 0.0), r"^shift has 2 entries, expected 1$",
                           id=f"{name}-shift-length")
        yield pytest.param(call, (0.0,),
                           r"^shift must have exactly one nonzero coordinate: \(0\.0,\)$",
                           id=f"{name}-shift-zero")


@pytest.mark.parametrize("call, arg, message", _entry_point_cases())
def test_each_engine_raises_the_one_state_and_shift_message(call, arg, message):
    with pytest.raises(ValueError, match=message):
        call(gauss_preset(), arg)


# ---------------------------------------------------------------------------
# file format


GOOD_FILE = """
# two-block cascade
n = 2
gamma[1] = exp(-x^2)
gamma[2] = sin(x)   # trailing comment
F[1] = -z1 + 0.5*z2
F[2] = -z2
b = [1, -0.5]
"""


def test_load_system_round_trip():
    sys = load_system(GOOD_FILE)
    assert sys.n == 2
    assert sys.b == (1.0, -0.5)
    assert validate(sys) == []
    assert ex.evaluate(sys.gamma[1], {"x": 0.0}) == 0.0


def test_load_system_missing_entry():
    text = "n = 2\ngamma[1] = sin(x)\ngamma[2] = sin(x)\nF[1] = -z1\nb = [1, 1]\n"
    with pytest.raises(SystemFormatError) as exc:
        load_system(text)
    assert "F[2]" in str(exc.value)


def test_load_system_duplicate_key():
    text = "n = 1\ngamma[1] = sin(x)\ngamma[1] = cos(x)\nF[1] = -z1\nb = [1]\n"
    with pytest.raises(SystemFormatError):
        load_system(text)


def test_load_system_bad_expression_reports_line():
    text = "n = 1\ngamma[1] = sin(q)\nF[1] = -z1\nb = [1]\n"
    with pytest.raises(SystemFormatError) as exc:
        load_system(text)
    assert exc.value.line_no == 2


def test_load_system_rejects_non_finite_literal():
    text = "n = 1\ngamma[1] = sin(x)\nF[1] = 1e400*z1\nb = [1]\n"
    with pytest.raises(SystemFormatError) as exc:
        load_system(text)
    assert exc.value.line_no == 3
    assert "a finite number" in str(exc.value)


def test_load_system_wrong_b_arity():
    text = "n = 2\ngamma[1] = sin(x)\ngamma[2] = sin(x)\nF[1] = -z1\nF[2] = -z2\nb = [1]\n"
    with pytest.raises(SystemFormatError):
        load_system(text)


def test_load_system_zero_b_is_validation_error():
    text = "n = 1\ngamma[1] = sin(x)\nF[1] = -z1\nb = [0]\n"
    with pytest.raises(InvalidSystemError) as exc:
        load_system(text)
    assert any("b_1" in v for v in exc.value.violations)


def test_load_system_stray_key():
    text = "n = 1\ngamma[1] = sin(x)\nF[1] = -z1\nb = [1]\nq = 3\n"
    with pytest.raises(SystemFormatError):
        load_system(text)


_BODY = "gamma[1] = sin(x)\nF[1] = -z1\n"


@pytest.mark.parametrize("text, line_no, message", [
    ("n = 1\ngamma[1] sin(x)\n", 2, "expected 'key = value', got 'gamma[1] sin(x)'"),
    ("n = 1\ngamma[1] =   # no value\n", 2, "empty value for 'gamma[1]'"),
    ("n = 1.0\n" + _BODY + "b = [1]\n", 1, "n must be an integer, got '1.0'"),
    ("\nn = 0\n", 2, "n must be positive, got 0"),
    ("n = 1\n" + _BODY + "b = 1\n", 4, "b must look like [v1, v2, ...]"),
    ("n = 1\n" + _BODY + "b = [one]\n", 4, "b entries must be numbers: [one]"),
    ("n = 2\n" + _BODY + "gamma[2] = x\nF[2] = -z2\nb = [1,,2]\n", 6,
     "b entries must be numbers: [1,,2]"),
    ("n = 1\n" + _BODY + "b = [,1,]\n", 4, "b entries must be numbers: [,1,]"),
    ("n = 1\n" + _BODY + "b = [1, ]\n", 4, "b entries must be numbers: [1, ]"),
    ("n = 1\n" + _BODY + "b = []\n", 4, "b has 0 entries, expected 1"),
    ("n = 1\n" + _BODY + "b = [1_0]\n", 4, "b entries must be numbers: [1_0]"),
    ("n = 0_1\n" + _BODY + "b = [1]\n", 1, "n must be an integer, got '0_1'"),
    ("n = 2\ngamma[1] = sin(x)\ngamma[2] = x\nF[1] = -z1\nF[2] = -z2 +\nb = [1, 1]\n", 5,
     "F[2]: at offset 5: expected a number, variable, or '(', found 'end of input'"),
], ids=["no-equals", "empty-value", "n-not-integer", "n-below-1", "b-not-bracketed",
        "b-not-a-number", "b-empty-between", "b-empty-around", "b-empty-last", "b-no-entries",
        "b-underscore", "n-underscore", "F-parse-error"])
def test_load_system_format_errors_name_their_line(text, line_no, message):
    with pytest.raises(SystemFormatError) as exc:
        load_system(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize("fields, violations", [
    ({"n": 0, "gamma": (), "F": (), "b": ()}, ["n = 0 must be at least 1"]),
    ({"F": (ex.parse("-z1 + q", {"z1", "q"}),)}, ["F_1 uses unknown variable q"]),
    ({"b": (math.inf,)}, ["b_1 is not finite"]),
], ids=["n-below-1", "F-unknown-variable", "b-not-finite"])
def test_validate_names_each_violation(fields, violations):
    base = {"n": 1, "gamma": (ex.parse("sin(x)", {"x"}),), "F": (ex.parse("-z1", {"z1"}),),
            "b": (1.0,)}
    sys = CascadeSystem(**{**base, **fields})
    assert validate(sys) == violations
    with pytest.raises(InvalidSystemError) as exc:
        as_control_affine(sys)
    assert exc.value.violations == violations
