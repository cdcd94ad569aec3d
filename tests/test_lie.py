import math
import random

import pytest

import obsv_lab.expr as ex
from obsv_lab.lie import (
    L_MAX_DEFAULT,
    ObservableWord,
    WordLengthError,
    enumerate_words,
    evaluate_word,
    iterated_observable,
    lie_derivative,
    nested_lie_along_affine,
)
from obsv_lab.model import CascadeSystem, ControlAffineSystem, as_control_affine


def sin_cascade(b=2.0):
    return as_control_affine(
        CascadeSystem(
            n=1,
            gamma=(ex.parse("sin(x)", {"x"}),),
            F=(ex.parse("-z1", {"z1"}),),
            b=(float(b),),
        )
    )


# ---------------------------------------------------------------------------
# lie_derivative


def test_lie_derivative_hand_expansion():
    # alpha = sin(x) z along (z, -z): cos(x) z^2 - sin(x) z, equal to 1 at (0, 1)
    alpha = ex.parse("sin(x)*z", {"x", "z"})
    field = (ex.Var("z"), ex.parse("-z", {"z"}))
    got = lie_derivative(alpha, field, ("x", "z"))
    assert ex.evaluate(got, {"x": 0.0, "z": 1.0}) == pytest.approx(1.0, rel=1e-14)
    for x, z in [(0.3, 2.0), (-1.2, 0.5)]:
        expect = math.cos(x) * z * z - math.sin(x) * z
        assert ex.evaluate(got, {"x": x, "z": z}) == pytest.approx(expect, rel=1e-13)


def test_lie_derivative_orthogonal_direction_is_zero():
    alpha = ex.Var("x1")
    field = (ex.const(0.0), ex.const(1.0))
    assert lie_derivative(alpha, field, ("x1", "x2")) == ex.Const(0.0)


def test_lie_derivative_dimension_mismatch():
    with pytest.raises(ValueError):
        lie_derivative(ex.Var("x"), (ex.const(1.0),), ("x", "z"))


def test_lie_derivative_linearity_in_field():
    rng = random.Random(11)
    alpha = ex.parse("tanh(x)*z^2", {"x", "z"})
    f1 = (ex.parse("z", {"z"}), ex.parse("-z", {"z"}))
    f2 = (ex.parse("sin(x)", {"x"}), ex.parse("x*z", {"x", "z"}))
    a, b = 0.7, -1.3
    combo = tuple(
        ex.add(ex.mul(ex.const(a), c1), ex.mul(ex.const(b), c2))
        for c1, c2 in zip(f1, f2)
    )
    lhs = lie_derivative(alpha, combo, ("x", "z"))
    r1 = lie_derivative(alpha, f1, ("x", "z"))
    r2 = lie_derivative(alpha, f2, ("x", "z"))
    for _ in range(10):
        env = {"x": rng.uniform(-2, 2), "z": rng.uniform(-2, 2)}
        expect = a * ex.evaluate(r1, env) + b * ex.evaluate(r2, env)
        assert ex.evaluate(lhs, env) == pytest.approx(expect, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# iterated_observable


def test_empty_word_is_the_output():
    ca = sin_cascade()
    w = ObservableWord(j=1, mu=())
    assert iterated_observable(ca, w) == ca.outputs[0]


def test_input_then_drift_word_matches_closed_form():
    # apply input field first, then drift: value is cos(x1) * b * z1 with b = 2
    ca = sin_cascade(b=2.0)
    w = ObservableWord(j=1, mu=(1, 0))
    rng = random.Random(5)
    for _ in range(10):
        x, z = rng.uniform(-3, 3), rng.uniform(-3, 3)
        got = evaluate_word(ca, w, (x, z))
        assert got == pytest.approx(math.cos(x) * 2.0 * z, rel=1e-12, abs=1e-12)


def test_word_on_zero_drift_system():
    ca = ControlAffineSystem(
        state_vars=("x1",),
        drift=(ex.const(0.0),),
        input_fields=((ex.const(1.0),),),
        outputs=(ex.Var("x1"),),
    )
    w = ObservableWord(j=1, mu=(0,))
    assert iterated_observable(ca, w) == ex.Const(0.0)


def test_word_length_cap():
    ca = sin_cascade()
    w = ObservableWord(j=1, mu=(1, 0) * 5)
    with pytest.raises(WordLengthError):
        iterated_observable(ca, w)  # length 10 > default 8
    iterated_observable(ca, w, l_max=10)


def test_word_index_validation():
    ca = sin_cascade()
    with pytest.raises(ValueError):
        iterated_observable(ca, ObservableWord(j=2, mu=()))
    with pytest.raises(ValueError):
        iterated_observable(ca, ObservableWord(j=1, mu=(2,)))
    with pytest.raises(ValueError):
        ObservableWord(j=0, mu=())


# ---------------------------------------------------------------------------
# nested composition along affine fields


def two_block_system():
    return as_control_affine(
        CascadeSystem(
            n=2,
            gamma=(ex.parse("sin(x)", {"x"}), ex.parse("exp(-x^2)", {"x"})),
            F=(
                ex.parse("-z1 + 0.4*tanh(z2)", {"z1", "z2"}),
                ex.parse("-0.5*z2 + 0.2*z1", {"z1", "z2"}),
            ),
            b=(1.0, -1.5),
        )
    )


def test_nested_depth_zero_is_output_value():
    ca = two_block_system()
    x0 = (0.3, -0.2, 1.0, 0.7)
    env = dict(zip(ca.state_vars, x0))
    got = nested_lie_along_affine(ca, [], j=2, x0=x0)
    assert got == pytest.approx(ex.evaluate(ca.outputs[1], env), rel=1e-14)


def test_nested_zero_inputs_match_drift_words():
    ca = two_block_system()
    x0 = (0.1, 0.5, -0.8, 0.9)
    for k in (1, 2, 3):
        got = nested_lie_along_affine(ca, [0.0] * k, j=1, x0=x0)
        want = evaluate_word(ca, ObservableWord(j=1, mu=(0,) * k), x0)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


def test_nested_single_level_is_affine_in_u():
    ca = two_block_system()
    x0 = (0.4, -0.3, 0.6, -1.1)
    base = evaluate_word(ca, ObservableWord(j=1, mu=(0,)), x0)
    slope = evaluate_word(ca, ObservableWord(j=1, mu=(1,)), x0)
    for u in (-2.0, -0.5, 0.0, 1.25, 3.0):
        got = nested_lie_along_affine(ca, [u], j=1, x0=x0)
        assert got == pytest.approx(base + u * slope, rel=1e-11, abs=1e-11)


def test_nested_two_levels_expand_into_word_polynomial():
    # L_{X1} L_{X2} h with X_l = drift + u_l * input expands into the four
    # words with coefficients 1, u1, u2, u1*u2; innermost word slot carries u2.
    ca = two_block_system()
    x0 = (-0.2, 0.8, 1.3, 0.5)
    u1, u2 = 0.9, -1.7
    got = nested_lie_along_affine(ca, [u1, u2], j=2, x0=x0)
    v00 = evaluate_word(ca, ObservableWord(j=2, mu=(0, 0)), x0)
    v01 = evaluate_word(ca, ObservableWord(j=2, mu=(0, 1)), x0)  # drift inner, u1 outer
    v10 = evaluate_word(ca, ObservableWord(j=2, mu=(1, 0)), x0)  # input inner, u2
    v11 = evaluate_word(ca, ObservableWord(j=2, mu=(1, 1)), x0)
    want = v00 + u1 * v01 + u2 * v10 + u1 * u2 * v11
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_nested_depth_cap_and_index_checks():
    ca = two_block_system()
    with pytest.raises(WordLengthError):
        nested_lie_along_affine(ca, [0.0] * (L_MAX_DEFAULT + 1), j=1, x0=(0,) * 4)
    with pytest.raises(ValueError):
        nested_lie_along_affine(ca, [0.0], j=3, x0=(0,) * 4)
    with pytest.raises(ValueError):
        nested_lie_along_affine(ca, [(0.0, 1.0)], j=1, x0=(0,) * 4)


# ---------------------------------------------------------------------------
# enumeration order


def test_enumerate_words_breadth_first_lexicographic():
    words = list(enumerate_words(p=1, m=1, max_len=2))
    mus = [w.mu for w in words]
    assert mus == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_words_outputs_cycle_before_length_grows():
    words = list(enumerate_words(p=2, m=1, max_len=1))
    assert [(w.j, w.mu) for w in words] == [
        (1, ()),
        (2, ()),
        (1, (0,)),
        (1, (1,)),
        (2, (0,)),
        (2, (1,)),
    ]
