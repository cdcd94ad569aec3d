import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import obsv_lab.expr as ex
from obsv_lab.expr import (
    Add,
    Const,
    DerivativeOrderError,
    Div,
    DomainError,
    Func,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
    compile_vector,
    diff,
    evaluate,
    format_expr,
    free_vars,
    jet,
    nth_derivative_at,
    parse,
    substitute,
)


def central_diff(f, x, h=1e-5):
    # independent derivative oracle, O(h^2)
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# parsing


def test_parse_structure_mul():
    e = parse("sin(x)*2", {"x"})
    assert e == Mul(Func("sin", Var("x")), Const(2.0))


def test_parse_structure_div():
    e = parse("1/(x+2)", {"x"})
    assert e == Div(Const(1.0), Add(Var("x"), Const(2.0)))


def test_parse_reserved_constants():
    e = parse("pi*x", {"x"})
    assert e == Mul(Const(math.pi), Var("x"))
    assert evaluate(parse("e", ()), {}) == math.e


@pytest.mark.parametrize("names, message", [
    (("x", "1x"), "invalid variable name '1x'"),
    (("z1", "z-2"), "invalid variable name 'z-2'"),
    (("x", "sin"), "variable name 'sin' collides with a reserved symbol"),
    (("pi",), "variable name 'pi' collides with a reserved symbol"),
    (("abs",), "variable name 'abs' collides with a reserved symbol"),
])
def test_invalid_or_reserved_variable_names(names, message):
    # the same error from parse and from a VarNames, which parse then takes
    # without checking its names again
    for make in (lambda: parse("1", names), lambda: ex.VarNames(names)):
        with pytest.raises(ValueError) as err:
            make()
        assert str(err.value) == message
    checked = ex.VarNames(("x", "z1"))
    assert parse("x*z1", checked) == Mul(Var("x"), Var("z1"))
    with pytest.raises(ParseError):
        parse("y", checked)


def test_parse_power_integer_only():
    assert parse("x^3", {"x"}) == Pow(Var("x"), 3)
    assert parse("x^-2", {"x"}) == Pow(Var("x"), -2)
    with pytest.raises(ParseError):
        parse("x^2.5", {"x"})
    with pytest.raises(ParseError):
        parse("x^y", {"x", "y"})


def test_parse_unary_minus_binds_after_power():
    assert parse("-x^2", {"x"}) == Neg(Pow(Var("x"), 2))
    assert parse("(-x)^2", {"x"}) == Pow(Neg(Var("x")), 2)


def test_parse_unknown_identifier_offset():
    with pytest.raises(ParseError) as exc:
        parse("z3 + q", {"z3"})
    assert exc.value.found == "q"
    assert exc.value.offset == 5
    assert 0 <= exc.value.offset <= len("z3 + q")


def test_parse_rejects_non_smooth_functions():
    for src in ("abs(x)", "floor(x)"):
        with pytest.raises(ParseError):
            parse(src, {"x"})


def test_parse_incomplete_input():
    with pytest.raises(ParseError) as exc:
        parse("x + ", {"x"})
    assert exc.value.offset == len("x + ")


def test_parse_stray_character():
    with pytest.raises(ParseError) as exc:
        parse("x $ 2", {"x"})
    assert exc.value.offset == 2


def test_parse_rejects_non_finite_literal():
    with pytest.raises(ParseError) as exc:
        parse("2 + 1e400*z1", {"z1"})
    assert exc.value.offset == 4
    assert exc.value.expected == "a finite number"
    assert exc.value.found == "1e400"
    # finite literals near the range limit still parse
    assert parse("1e300", ()) == Const(1e300)


def test_parse_rejects_an_overflowing_constant_power():
    with pytest.raises(ParseError) as exc:
        parse("x + 10^400", {"x"})
    assert (exc.value.offset, exc.value.expected, exc.value.found) == (4, "a finite number", "10^400")
    with pytest.raises(ParseError, match="a finite number"):
        parse("(10^200)^2*x", {"x"})
    # powers that stay finite still fold; 0^-1 fails its fold like 10^400
    assert parse("10^300", ()) == Const(1e300)
    assert parse("10^-400", ()) == Const(0.0)
    with pytest.raises(ParseError) as exc:
        parse("x + 0^-1", {"x"})
    assert str(exc.value.__cause__) == "zero raised to a negative power in 0^-1"
    with pytest.raises(DomainError, match="zero raised to a negative power"):
        evaluate(parse("x^-1", {"x"}), {"x": 0.0})


@pytest.mark.parametrize("src, found, cause", [
    ("x + 1/0", "1/0", "division by zero in 1/0"),
    ("x + ln(0)", "ln(0)", "ln of a non-positive value in ln(0)"),
    ("x + exp(1000)", "exp(1000)", "overflow in exp(1000)"),
    ("x + 1e300*1e300", "1e300*1e300", "non-finite result in 1e+300*1e+300"),
    ("2*(1e308 + 1e308) - x", "1e308 + 1e308", "non-finite result in 1e+308 + 1e+308"),
])
def test_parse_rejects_a_constant_that_fails_to_fold(src, found, cause):
    with pytest.raises(ParseError) as exc:
        parse(src, {"x"})
    assert (exc.value.offset, exc.value.expected, exc.value.found) == (src.index(found), "a finite number", found)
    assert str(exc.value.__cause__) == cause


def test_parse_rejects_bad_variable_names():
    with pytest.raises(ValueError):
        parse("sin(x)", {"sin", "x"})
    with pytest.raises(ValueError):
        parse("x", {"not an ident"})


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_basic():
    e = parse("2 + 3*x^2", {"x"})
    assert evaluate(e, {"x": 2.0}) == 14.0


def test_evaluate_gaussian():
    e = parse("exp(-x^2)", {"x"})
    assert evaluate(e, {"x": 1.0}) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_evaluate_division_by_zero_points_at_subexpr():
    e = parse("1/(x+2)", {"x"})
    with pytest.raises(DomainError) as exc:
        evaluate(e, {"x": -2.0})
    assert "division by zero" in str(exc.value)
    assert "x + 2" in str(exc.value)


def test_evaluate_log_domain():
    e = parse("ln(x)", {"x"})
    with pytest.raises(DomainError):
        evaluate(e, {"x": -1.0})
    with pytest.raises(DomainError):
        evaluate(e, {"x": 0.0})


def test_evaluate_sqrt_domain():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)", {"x"}), {"x": -4.0})


def test_evaluate_overflow():
    with pytest.raises(DomainError):
        evaluate(parse("exp(x)", {"x"}), {"x": 1e4})


def test_evaluate_unbound_variable():
    with pytest.raises(DomainError):
        evaluate(Var("x"), {})


@pytest.mark.parametrize("source", ["z", "y + tanh(z)", "exp(-z*z)"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_evaluate_refuses_a_non_finite_variable(source, value):
    # tanh(inf) = 1 and exp(-inf) = 0 are finite, so the binding itself is
    # the error, named at the variable
    e = parse(source, {"y", "z"})
    with pytest.raises(DomainError, match=r"variable 'z' bound to (-?inf|nan) in z$") as info:
        evaluate(e, {"y": 1.0, "z": value})
    assert info.value.subexpr == Var("z")
    assert math.isfinite(evaluate(e, {"y": 1.0, "z": 1e300 if source == "z" else 20.0}))


# ---------------------------------------------------------------------------
# differentiation


def test_diff_gaussian_at_one_matches_finite_difference():
    e = parse("exp(-x^2)", {"x"})
    d = diff(e, "x")
    got = evaluate(d, {"x": 1.0})
    oracle = central_diff(lambda x: math.exp(-x * x), 1.0)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-12)


def test_second_derivative_gaussian_at_zero():
    # by hand: d2/dx2 exp(-x^2) = (4x^2 - 2) exp(-x^2), so -2 at x = 0
    e = parse("exp(-x^2)", {"x"})
    assert nth_derivative_at(e, "x", 2, 0.0) == pytest.approx(-2.0, rel=1e-12)


def test_nth_derivative_has_no_order_cap():
    e = parse("sin(2*x)", {"x"})
    # past the separation scan's default bound of 12; sin cycles with period 4
    assert nth_derivative_at(e, "x", 13, 0.0) == pytest.approx(2.0 ** 13, rel=1e-12)
    with pytest.raises(DerivativeOrderError):
        nth_derivative_at(e, "x", -1, 0.0)


def test_diff_wrt_other_variable_is_zero():
    e = parse("sin(x)", {"x"})
    assert diff(e, "y") == Const(0.0)


CATALOG_SAMPLES = [
    ("sin(2*x + 1)", (-3.0, 3.0)),
    ("cos(x)*x", (-3.0, 3.0)),
    ("tan(x)", (-1.2, 1.2)),
    ("exp(-x^2)", (-2.0, 2.0)),
    ("ln(x + 3)", (-2.0, 5.0)),
    ("tanh(3*x)", (-2.0, 2.0)),
    ("sqrt(x + 4)", (-3.0, 5.0)),
    ("1/(x + 2)", (-1.5, 4.0)),
    ("x^3 - 2*x + 0.5", (-3.0, 3.0)),
    ("x^-2", (0.5, 3.0)),
    ("(2 + sin(x) + 0.1*x)^2", (-3.0, 3.0)),
    ("exp(-x^2)*sin(3*x)", (-2.0, 2.0)),
    ("x^4", (-3.0, 3.0)),
    ("(x + 0.5)^-3", (0.0, 3.0)),
    ("(2 + sin(x))^5", (-3.0, 3.0)),
]


def _func_names(e):
    names = {e.name} if isinstance(e, Func) else set()
    return names.union(*map(_func_names, ex.children(e)))


def test_every_catalog_function_is_sampled_and_named_in_math_and_numpy():
    # the sympy-jet, finite-difference and compiled-vs-tree tests walk the samples
    sampled = set().union(*(_func_names(parse(src, {"x"})) for src, _ in CATALOG_SAMPLES))
    assert sampled >= set(ex.CATALOG)
    for name, f in ex.CATALOG.items():
        assert callable(getattr(math, f.source)) and callable(getattr(np, f.source)), name


@pytest.mark.parametrize("name", [n for n, f in ex.CATALOG.items() if f.domain is not None])
def test_domain_faults_agree_across_evaluate_jet_and_parse(name):
    inside, message = ex.CATALOG[name].domain
    c = next(v for v in (-1.0, 0.0, 1.0) if not inside(v))
    e = Func(name, Const(c))
    with pytest.raises(DomainError) as by_evaluate:
        evaluate(e, {})
    with pytest.raises(DomainError) as by_jet:
        jet(e, "x", 0.0, 0)
    with pytest.raises(ParseError) as by_parse:
        parse(f"x + {name}({c!r})", {"x"})
    assert ex.func(name, Const(c)) == e  # the fold stays symbolic
    assert str(by_evaluate.value) == f"{message} in {format_expr(e)}"
    assert str(by_jet.value) == str(by_parse.value.__cause__) == str(by_evaluate.value)


def test_diff_matches_finite_difference_across_catalog():
    rng = random.Random(7)
    for src, (lo, hi) in CATALOG_SAMPLES:
        e = parse(src, {"x"})
        d = diff(e, "x")
        f = lambda x: evaluate(e, {"x": x})
        for _ in range(8):
            x = rng.uniform(lo + 0.05, hi - 0.05)
            got = evaluate(d, {"x": x})
            oracle = central_diff(f, x, h=1e-6)
            assert got == pytest.approx(oracle, rel=1e-6, abs=1e-7), (src, x)


def test_derivative_chain_is_memoized_and_consistent():
    e = parse("sin(2*x)", {"x"})
    a = nth_derivative_at(e, "x", 4, 0.7)
    b = nth_derivative_at(e, "x", 4, 0.7)
    assert a == b
    assert a == pytest.approx(16.0 * math.sin(1.4), rel=1e-12)


# ---------------------------------------------------------------------------
# printing round-trip


def random_expr(rng, vars_, depth):
    # built through the smart constructors, i.e. the same trees parse() emits
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5 and vars_:
            return Var(rng.choice(vars_))
        return ex.const(round(rng.uniform(-4, 4), 3))
    pick = rng.randrange(8)
    a = random_expr(rng, vars_, depth - 1)
    if pick == 0:
        return ex.add(a, random_expr(rng, vars_, depth - 1))
    if pick == 1:
        return ex.sub(a, random_expr(rng, vars_, depth - 1))
    if pick == 2:
        return ex.mul(a, random_expr(rng, vars_, depth - 1))
    if pick == 3:
        return ex.div(a, random_expr(rng, vars_, depth - 1))
    if pick == 4:
        return ex.neg(a)
    if pick == 5:
        return ex.power(a, rng.choice([-2, 2, 3, 4]))
    name = rng.choice(list(ex.CATALOG))
    return ex.func(name, a)


def _failed_fold(e):
    """True when ``e`` holds a node whose operands are all constants: a fold
    that failed, such as ln(-1.2)."""
    args = ex.children(e)
    return (bool(args) and all(isinstance(a, Const) for a in args)) or any(map(_failed_fold, args))


def test_format_parse_round_trip_random_trees():
    rng = random.Random(20240811)
    rejected = 0
    for _ in range(300):
        tree = random_expr(rng, ["x", "z1", "z2"], 4)
        text = format_expr(tree)
        if _failed_fold(tree):
            # a constant that fails, such as ln(-1.2), is an input error
            with pytest.raises(ParseError, match="a finite number"):
                parse(text, {"x", "z1", "z2"})
            rejected += 1
            continue
        back = parse(text, {"x", "z1", "z2"})
        assert back == tree, text
    assert 0 < rejected < 30


def test_format_parse_round_trip_sources():
    for src, _ in CATALOG_SAMPLES:
        e = parse(src, {"x"})
        assert parse(format_expr(e), {"x"}) == e


def test_negative_constant_round_trip():
    e = parse("-2", ())
    assert e == Const(-2.0)
    assert parse(format_expr(e), ()) == e


def test_power_of_negative_base_prints_parenthesized():
    e = Pow(Const(-2.0), 2)
    assert evaluate(parse(format_expr(e), ()), {}) == 4.0


# ---------------------------------------------------------------------------
# substitution, free variables, compilation


def test_free_vars():
    e = parse("sin(x)*z1 + z2", {"x", "z1", "z2"})
    assert free_vars(e) == {"x", "z1", "z2"}


def test_substitute_renames_gamma_variable():
    g = parse("exp(-x^2)", {"x"})
    h = substitute(g, "x", Var("x2"))
    assert free_vars(h) == {"x2"}
    assert evaluate(h, {"x2": 1.0}) == evaluate(g, {"x": 1.0})


def test_compiled_matches_tree_evaluation():
    rng = random.Random(3)
    for src, (lo, hi) in CATALOG_SAMPLES:
        e = parse(src, {"x"})
        fn = compile_vector((e,), ("x",))
        xs = [rng.uniform(lo + 0.05, hi - 0.05) for _ in range(5)]
        want = [evaluate(e, {"x": x}) for x in xs]
        assert [fn(x)[0] for x in xs] == pytest.approx(want, rel=1e-14), src


def test_compiled_random_trees_match_evaluation_bit_for_bit():
    # the Python source carries only the parentheses the grammar needs, so
    # it must run the tree's operations in the tree's order
    rng = random.Random(11)
    env = {"x": 0.7, "z1": -1.3, "z2": 2.1}
    trees = [random_expr(rng, list(env), 4) for _ in range(300)]
    trees += [Pow(Const(-0.0), 2), Neg(Const(-0.0)), Mul(Var("x"), Pow(Const(-0.0), 2))]
    checked = 0
    for tree in trees:
        try:
            want = evaluate(tree, env)
        except DomainError:
            continue
        got = compile_vector((tree,), tuple(env))(*env.values())[0]
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), format_expr(tree)
        checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# Taylor jets, against oracles that share no code with the engine


def _sympy_of(src):
    return sympy.sympify(src.replace("^", "**").replace("ln", "log"))


def test_jet_matches_sympy_across_catalog():
    x = sympy.Symbol("x")
    rng = random.Random(11)
    for src, (lo, hi) in CATALOG_SAMPLES:
        e = parse(src, {"x"})
        derivs = [_sympy_of(src)]
        for _ in range(8):
            derivs.append(sympy.diff(derivs[-1], x))
        for _ in range(3):
            x0 = rng.uniform(lo + 0.05, hi - 0.05)
            coeffs = jet(e, "x", x0, 8)
            for k, d in enumerate(derivs):
                want = float(d.subs(x, sympy.Float(x0, 40)).evalf(40)) / math.factorial(k)
                tol = pytest.approx(want, rel=1e-10, abs=1e-10 * abs(coeffs[0]))
                assert coeffs[k] == tol, (src, x0, k)


def test_jet_gradients_along_a_drift_match_sympy():
    # the tangent rules of -, ln and sqrt: the gradient of L_f^k h at a
    # state, h = ln(2 + x^2) - sqrt(1 + z^2) along the drift (z, -z + sin(x))
    x, z = sympy.symbols("x z")
    h, field = "ln(2 + x^2) - sqrt(1 + z^2)", ("z", "-z + sin(x)")
    lie = [_sympy_of(h)]
    for _ in range(4):
        lie.append(sum(sympy.diff(lie[-1], v) * _sympy_of(f) for v, f in zip((x, z), field)))
    names = {"x", "z"}
    for x0 in ((0.3, -0.8), (-1.2, 0.5)):
        jet_ = ex.Jet((parse(h, names),), ("x", "z"), x0, field=tuple(parse(f, names) for f in field),
                      seeds=np.eye(2))
        at = {x: sympy.Float(x0[0], 40), z: sympy.Float(x0[1], 40)}
        for k, l in enumerate(lie):
            want = [float(sympy.diff(l, v).subs(at).evalf(40)) for v in (x, z)]
            got = jet_.gradient(0, k)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-13), (x0, k)


def test_hyperbolic_derivatives_are_exact():
    # d^k/dx^k 1/(x+2) at 0 is (-1)^k k!/2^(k+1), exactly representable
    e = parse("1/(x + 2)", {"x"})
    for k in range(13):
        assert nth_derivative_at(e, "x", k, 0.0) == (-1) ** k * math.factorial(k) / 2 ** (k + 1)


def test_deep_gaussian_derivative_does_not_overflow():
    # d^(2m)/dx^(2m) exp(-x^2) at 0 is (-1)^m (2m)!/m!; 200! itself exceeds a float
    e = parse("exp(-x^2)", {"x"})
    got = nth_derivative_at(e, "x", 200, 0.0)
    want = math.factorial(200) // math.factorial(100)
    assert abs(got - want) <= 1e-12 * want
    assert nth_derivative_at(e, "x", 199, 0.0) == 0.0


def test_jet_extends_lazily_to_the_same_coefficients():
    e = parse("tan(x)*sqrt(x + 4) - ln(x + 3)^3", {"x"})
    lazy = ex.Jet((e,), ("x",), (0.4,))
    # asked out of order: a low order, then order 30, then the ones between
    got = {k: lazy.coefficient(0, k) for k in (3, 30, *range(31))}
    assert [got[k] for k in range(31)] == jet(e, "x", 0.4, 30)


def test_jet_of_power_with_vanishing_base():
    # (x^2 - 1)^3 at x = 1: base series starts at order 1
    e = parse("(x^2 - 1)^3", {"x"})
    assert jet(e, "x", 1.0, 6) == [0.0, 0.0, 0.0, 8.0, 12.0, 6.0, 1.0]


def test_a_zero_coefficient_times_an_infinite_one_is_skipped():
    # exp(1e5*x) at 0 has the coefficients 1e5^k/k!, infinite from k = 89
    # on; coefficient k of the product reads only coefficient k - 2 of them,
    # so it stays finite: the zero coefficients of x^2 are skipped, not
    # multiplied by inf into nan
    c = ex.jet(ex.parse("x^2*exp(100000*x)", {"x"}), "x", 0.0, 90)
    for k in (89, 90):
        want = math.exp((k - 2) * math.log(1e5) - math.lgamma(k - 1))
        assert c[k] == pytest.approx(want, rel=1e-10)


def test_order_zero_jet_of_a_power_is_evaluate_bit_for_bit():
    # a^n is a chain of products, but its value at order 0 is evaluate's
    # base**n, which can differ from the chain's own product by an ulp
    for c in (0.3, 1.7, -2.9, 1e-3):
        for n in range(-5, 9):
            e = parse(f"(x + {c})^{n}", {"x"})
            for x0 in (0.0, 0.37, -1.2, 2.21, 1e-200):
                assert repr(jet(e, "x", x0, 0)[0]) == repr(evaluate(e, {"x": x0})), (c, n, x0)


def test_jet_domain_errors_name_the_subexpression():
    with pytest.raises(DomainError, match=r"division by zero in 1/\(x \+ 2\)"):
        nth_derivative_at(parse("1/(x + 2)", {"x"}), "x", 3, -2.0)
    with pytest.raises(DomainError, match="sqrt"):
        nth_derivative_at(parse("sqrt(x)", {"x"}), "x", 1, 0.0)
    assert nth_derivative_at(parse("sqrt(x)", {"x"}), "x", 0, 0.0) == 0.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), x0=st.floats(-3.0, 3.0))
def test_order_zero_jet_is_evaluate_bit_for_bit(seed, x0):
    tree = random_expr(random.Random(seed), ["x"], 4)
    try:
        want = evaluate(tree, {"x": x0})
    except DomainError as err:
        with pytest.raises(DomainError) as exc:
            jet(tree, "x", x0, 0)
        assert str(exc.value) == str(err)
        return
    got = jet(tree, "x", x0, 0)[0]
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
