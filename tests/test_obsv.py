import inspect
import math
import os
import pathlib
import random
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

import obsv_lab.expr as ex
from obsv_lab.lie import ObservableWord, evaluate_word
from obsv_lab.model import CascadeSystem, ControlAffineSystem, as_control_affine, preset, preset_names
from obsv_lab.obsv import (
    CLASS_APERIODIC,
    CLASS_PERIODIC,
    CLASS_UNDETERMINED,
    SEP_TOL_DEFAULT,
    VERDICT_SEPARATED,
    VERDICT_SHIFT,
    VERDICT_UNRESOLVED,
    cascade_lflg,
    cascade_lglflg,
    detect_period,
    find_separating_observable,
    is_aperiodic_system,
    local_rank,
    word_lflg,
    word_lglflg,
)

TWO_PI = 2.0 * math.pi


def cascade_1d(gamma_src, b=1.0):
    return CascadeSystem(
        n=1,
        gamma=(ex.parse(gamma_src, {"x"}),),
        F=(ex.parse("-z1", {"z1"}),),
        b=(float(b),),
    )


GAMMA_CHOICES = [
    "sin(x)",
    "cos(2*x)",
    "exp(-x^2)",
    "2 + sin(x) + 0.1*x",
    "tanh(x)",
    "1/(x + 3)",
]
F_TEMPLATES = [
    "-{d}*z{i}",
    "-{d}*z{i} + 0.4*sin(z{j})",
    "-{d}*z{i} + 0.2*tanh(z{j})",
    "-{d}*z{i} + 0.1*z{j}^2",
]


def random_cascade(rng: random.Random, n: int) -> CascadeSystem:
    gamma = tuple(ex.parse(rng.choice(GAMMA_CHOICES), {"x"}) for _ in range(n))
    zs = {f"z{i}" for i in range(1, n + 1)}
    F = []
    for i in range(1, n + 1):
        j = rng.randrange(1, n + 1)
        tpl = rng.choice(F_TEMPLATES)
        F.append(ex.parse(tpl.format(d=round(rng.uniform(0.5, 2.0), 3), i=i, j=j), zs))
    b = tuple(
        rng.choice([-1, 1]) * rng.uniform(0.2, 3.0) for _ in range(n)
    )
    return CascadeSystem(n=n, gamma=gamma, F=tuple(F), b=b)


def random_state(rng: random.Random, n: int):
    return tuple(rng.uniform(-1.5, 1.5) for _ in range(2 * n))


# ---------------------------------------------------------------------------
# closed forms vs generic composition


def test_lflg_hand_value():
    sys = cascade_1d("sin(x)", b=2.0)
    assert cascade_lflg(sys, 1, 1, (0.0, 3.0)) == pytest.approx(6.0, rel=1e-14)


def test_lglflg_hand_value():
    sys = cascade_1d("sin(x)", b=2.0)
    assert cascade_lglflg(sys, 1, 1, (0.0, 0.0)) == pytest.approx(4.0, rel=1e-14)


def test_lflg_k_zero_is_the_output():
    sys = cascade_1d("exp(-x^2)")
    x, z = 0.7, -1.3
    assert cascade_lflg(sys, 1, 0, (x, z)) == pytest.approx(math.exp(-0.49) * z)


def test_closed_forms_match_generic_words():
    rng = random.Random(101)
    for _ in range(6):
        n = rng.randrange(1, 4)
        sys = random_cascade(rng, n)
        ca = as_control_affine(sys)
        for _ in range(4):
            state = random_state(rng, n)
            i = rng.randrange(1, n + 1)
            for k in range(0, 4):
                closed = cascade_lflg(sys, i, k, state)
                generic = evaluate_word(ca, word_lflg(i, k), state)
                assert closed == pytest.approx(generic, rel=1e-10, abs=1e-10)
                closed_g = cascade_lglflg(sys, i, k, state)
                generic_g = evaluate_word(ca, word_lglflg(i, k), state)
                assert closed_g == pytest.approx(generic_g, rel=1e-10, abs=1e-10)


def test_block_index_validation():
    sys = cascade_1d("sin(x)")
    with pytest.raises(ValueError):
        cascade_lflg(sys, 2, 0, (0.0, 0.0))


@pytest.mark.parametrize("word", [cascade_lflg, cascade_lglflg])
def test_block_words_need_a_state_of_2n_entries(word):
    # one entry is a position without its velocity, though lglflg reads no velocity
    with pytest.raises(ValueError, match=r"^state has 1 entries, expected 2$"):
        word(preset("fish-1d-gauss"), 1, 0, (0.0,))


# ---------------------------------------------------------------------------
# periodicity detection


def test_detect_period_sine():
    v = detect_period(ex.parse("sin(x)", {"x"}))
    assert v.classification == CLASS_PERIODIC
    assert abs(v.period - TWO_PI) <= 1e-6


def test_detect_period_faster_sine():
    v = detect_period(ex.parse("sin(2*x)", {"x"}))
    assert v.classification == CLASS_PERIODIC
    assert abs(v.period - math.pi) <= 1e-6


def test_detect_period_reports_its_candidate():
    v = detect_period(ex.parse("sin(x)", {"x"}))
    assert v.evidence["candidates"] == [v.evidence["lcm_period"]] == [v.period]


def test_detect_period_constant_gain():
    v = detect_period(ex.parse("2", ()))
    assert v.classification == CLASS_PERIODIC
    assert v.period is None
    assert v.evidence.get("constant") is True


def test_detect_period_gaussian_is_aperiodic():
    v = detect_period(ex.parse("exp(-x^2)", {"x"}))
    assert v.classification == CLASS_APERIODIC
    # the probe gives two points and the gain's enclosures there, disjoint
    # and each holding the gain's value
    (r, s), (a, b) = v.evidence["probe"]["x"], v.evidence["probe"]["bounds"]
    assert a[1] < b[0] or b[1] < a[0]
    assert a[0] <= math.exp(-r * r) <= a[1]
    assert b[0] <= math.exp(-s * s) <= b[1]


def test_detect_period_drifting_sine_is_aperiodic():
    v = detect_period(ex.parse("sin(x) + 0.1*x", {"x"}))
    assert v.classification == CLASS_APERIODIC
    # the drift tends to +inf, so the limit rule decides without a search
    assert v.evidence["rule"] == "limit"
    assert v.evidence["probe"] is not None


def test_detect_period_linear_gain_is_aperiodic():
    v = detect_period(ex.parse("0.3*x", {"x"}))
    assert v.classification == CLASS_APERIODIC


def test_detect_period_takes_only_the_gain():
    assert list(inspect.signature(detect_period).parameters) == ["gamma"]


@pytest.mark.parametrize("src", ["(x + 1)^2 - x^2 - 2*x", "(x + 1e9)^2 - x^2 - 2e9*x - 1e18",
                                 "x*(3.72309899569584/-x)", "-1.353016/(x/3.168)*x"])
def test_rounding_noise_does_not_prove_a_gain_is_not_constant(src):
    # each is constant where it is defined; at the probe points their float
    # values differ by roundoff (128 for the second), but every enclosure
    # holds the exact value, so no pair of them is disjoint
    v = detect_period(ex.parse(src, {"x"}))
    assert (v.classification, v.evidence["rule"], v.evidence["probe"]) == (
        CLASS_UNDETERMINED, "log-exp", None)


def test_a_sum_too_wide_for_one_float_has_no_limit():
    # 1e10 + 1e-7*sin(x) rounds to 1e10 at every x; outward rounding keeps
    # the range of the sine, so no limit is claimed and the period is found
    from obsv_lab.obsv import _bounds

    gamma = ex.parse("1e10 + 1e-7*sin(x)", {"x"})
    for end in (math.inf, -math.inf):
        lo, hi, _ = _bounds(gamma, (end, end))
        assert lo < 1e10 < hi
    v = detect_period(gamma)
    assert (v.classification, v.period, v.evidence["rule"]) == (CLASS_PERIODIC, TWO_PI, "periodic")


@pytest.mark.parametrize("src", ["cos(1/(x^2 + 1))", "sin(exp(x))", "tan(1/x) + 2"])
def test_trig_of_a_short_argument_range_keeps_its_limit_verdict(src):
    # at a probe point the argument's enclosure is a few floats wide; sin
    # and cos bound it by their slope, tan by its values at the two ends
    v = detect_period(ex.parse(src, {"x"}))
    assert (v.classification, v.evidence["rule"]) == (CLASS_APERIODIC, "limit")


def test_a_negative_k_max_is_rejected():
    sys = preset("periodic-sin")
    with pytest.raises(ValueError, match="k_max must be at least 0"):
        find_separating_observable(sys, (0.0, 1.0), (TWO_PI, 1.0), k_max=-1)


def test_detect_period_domain_error_propagates():
    # parse rejects a constant that fails; a tree built in code keeps it
    # symbolic.  Each subtree free of x is evaluated once, also beside x
    with pytest.raises(ex.DomainError, match=r"^division by zero in 1/0$"):
        detect_period(ex.div(ex.const(1.0), ex.const(0.0)))
    with pytest.raises(ex.DomainError, match=r"^division by zero in 1/0$"):
        detect_period(ex.add(ex.Var("x"), ex.div(ex.const(1.0), ex.const(0.0))))
    # so is a failing ln inside such a subtree, before any domain proof
    with pytest.raises(ex.DomainError, match=r"^ln of a non-positive value in ln\(-1\)$"):
        detect_period(ex.add(ex.Var("x"), ex.mul(ex.const(2.0), ex.func("ln", ex.const(-1.0)))))
    # the argument's bounds over R are positive, so the domain is proven;
    # at the probe points exp(-x^2 - 1000) underflows and its enclosure
    # holds 0, so 1/exp(...) is unbounded there: no proof either way
    v = detect_period(ex.parse("ln(1/exp(-x^2 - 1000))", {"x"}))
    assert (v.classification, v.evidence["rule"], v.evidence["probe"]) == (
        CLASS_UNDETERMINED, "log-exp", None)


def test_a_pole_is_no_domain_fault():
    # a non-constant analytic divisor vanishes only at isolated points, so
    # where its pole lies decides nothing; nor does an overflow, which the
    # bounds carry as a range up to inf
    for src in ("1/(x + 20)", "1/(x + 2.5)", "1/(x - 0.0013)", "exp(exp(x))"):
        v = detect_period(ex.parse(src, {"x"}))
        assert (v.classification, v.evidence["rule"]) == (CLASS_APERIODIC, "log-exp"), src
    # equal gain values to roundoff reach the shift step; no shift is a
    # period of an aperiodic gain, so the scan runs
    cert = find_separating_observable(cascade_1d("1/(x + 20)"), (0.0, 1.0), (1e-12, 1.0))
    assert cert.verdict != VERDICT_SHIFT
    assert "shifts" not in cert.bounds


def _domain_args(e):
    # (name, argument) of every ln and sqrt node of the tree
    own = [(e.name, e.arg)] if isinstance(e, ex.Func) and e.name in ("ln", "sqrt") else []
    return own + [a for c in ex.children(e) for a in _domain_args(c)]


def _sympy_violations(name, arg):
    # the real x where the argument leaves the domain, by sympy's solveset
    x = sympy.Symbol("x", real=True)
    a = sympy.sympify(str(arg).replace("^", "**").replace("ln(", "log("), locals={"x": x})
    return sympy.solveset(a <= 0 if name == "ln" else a < 0, x, sympy.S.Reals)


# gains whose every ln and sqrt argument the interval bounds prove inside
# the domain on all of R, strict bounds included (exp(u) > 0)
DOMAIN_PROVEN = [
    "ln(x^2 + 1)", "ln(2 + cos(x))", "sin(x) + ln(exp(x))", "sqrt(exp(-x^2))", "sqrt(x^2)",
    "ln(1 + exp(x))", "ln(1 + tanh(x))", "ln(exp(x) + x^2)", "ln(1/(1 + x^2))", "ln(2*exp(x))",
    "ln(exp(x)^2)", "sqrt(x^4 + x^2)", "ln(1 + sin(x)^2)", "sin(ln(exp(x)))",
]
# gains undefined somewhere on R: a true fault, whatever the window
DOMAIN_FAULTS = ["ln(x)", "sqrt(x)", "ln(x^2 - 1)", "ln(x^2 - 1e-6)", "ln(-1 - x^2)",
                 "sin(exp(ln(x^2)/2))"]


@pytest.mark.parametrize("src", DOMAIN_PROVEN)
def test_proven_domains_match_sympy(src):
    gamma = ex.parse(src, {"x"})
    assert detect_period(gamma).evidence["rule"] != "domain"
    args = _domain_args(gamma)
    assert args
    for name, arg in args:
        assert _sympy_violations(name, arg) == sympy.S.EmptySet, (src, str(arg))


@pytest.mark.parametrize("src", DOMAIN_FAULTS)
def test_an_unproven_domain_is_undetermined(src):
    v = detect_period(ex.parse(src, {"x"}))
    assert (v.classification, v.period, v.evidence["rule"]) == (CLASS_UNDETERMINED, None, "domain")
    node = ex.parse(v.evidence["domain"]["node"], {"x"})
    assert _sympy_violations(node.name, node.arg) != sympy.S.EmptySet, src


def test_a_domain_the_bounds_cannot_prove_is_undetermined():
    # 1.1 + sin(x)*cos(x) + 0.5*sin(x) stays above 0.2, but the interval
    # bounds treat its three trig factors as independent: no claim is made
    v = detect_period(ex.parse("ln(1.1 + sin(x)*cos(x) + 0.5*sin(x))", {"x"}))
    assert (v.classification, v.evidence["rule"]) == (CLASS_UNDETERMINED, "domain")
    lo, hi = v.evidence["domain"]["bounds"]
    assert lo == pytest.approx(-0.4, abs=1e-12)
    assert hi == pytest.approx(2.6, abs=1e-12)


# closed-form periods: each form in sin, cos, exp(sin) and 1/(2 + cos) of
# a*x has least period 2*pi/a; sin(x)^2 has period pi
PERIOD_ORACLES = [
    (form.format(a=a), TWO_PI / a)
    for form in ("sin({a}*x)", "cos({a}*x)", "exp(sin({a}*x))", "1/(2 + cos({a}*x))")
    for a in (0.5, 1.0, 1.7, 3.0)
] + [("sin(x)^2", math.pi)]


@pytest.mark.parametrize("src, period", PERIOD_ORACLES)
def test_detect_period_matches_closed_form(src, period):
    v = detect_period(ex.parse(src, {"x"}))
    assert v.classification == CLASS_PERIODIC
    assert type(v.period) is float
    assert abs(v.period - period) <= 1e-11


@pytest.mark.parametrize("src", ["exp(-x^2)", "tanh(x)", "2 + sin(x) + 0.1*x", "1/(x + 3)", "0.3*x"])
def test_detect_period_aperiodic_pool(src):
    v = detect_period(ex.parse(src, {"x"}))
    assert v.classification == CLASS_APERIODIC
    assert v.period is None


@pytest.mark.parametrize("src, classification, period", [
    ("sin(-x)", CLASS_PERIODIC, TWO_PI),
    ("sin(-(x/3)) + sin(x)", CLASS_PERIODIC, 3.0 * TWO_PI),
    ("sin(-x^2 + x)", CLASS_UNDETERMINED, None),
])
def test_a_negated_argument_keeps_its_slope(src, classification, period):
    # -(a*x + c) is affine with slope -a, and the period depends on |a|
    # alone; -x^2 + x is not affine, so no rule proves a period
    g = _math_gain(src)
    v = detect_period(ex.parse(src, {"x"}))
    assert v.classification == classification
    if period is None:
        assert v.period is None and v.evidence["rule"] == "none"
        return
    assert abs(v.period - period) <= 1e-12 * period
    for x in (-7.1, 0.3, 12.9):
        assert g(x + period) == pytest.approx(g(x), abs=1e-12)
        assert g(x + period / 2) != pytest.approx(g(x), abs=1e-3)


def test_a_probe_enclosure_past_the_float_range():
    # exp(exp(x^2)) overflows a float where x^2 > ln(709.78...): its
    # enclosure there runs from the largest float to inf, and still lies
    # apart from the finite one at the other probe point
    v = detect_period(ex.parse("exp(exp(x^2))", {"x"}))
    assert v.classification == CLASS_APERIODIC
    probe = v.evidence["probe"]
    assert [sys.float_info.max, math.inf] in probe["bounds"]
    with mpmath.workdps(30):
        for x, (lo, hi) in zip(probe["x"], probe["bounds"]):
            assert lo <= mpmath.exp(mpmath.exp(mpmath.mpf(x) ** 2)) <= hi


# periods far longer than the probe window, and a gain with poles: the
# tree decides them, where a window search cannot (20*pi > 40)
LONG_PERIODS = [
    ("sin(x/10)", 20.0 * math.pi),
    ("cos(0.1*x) + 0.5", 20.0 * math.pi),
    ("tan(x/4)", 4.0 * math.pi),
]


@pytest.mark.parametrize("src, period", LONG_PERIODS)
def test_detect_period_beyond_the_window(src, period):
    v = detect_period(ex.parse(src, {"x"}))
    assert v.classification == CLASS_PERIODIC
    assert v.evidence["rule"] == "periodic"
    assert abs(v.period - period) <= 1e-11


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["sin", "cos", "tan"]),
    a=st.floats(0.2, 5.0) | st.floats(-5.0, -0.2),
    c=st.floats(-3.0, 3.0),
)
def test_trig_of_an_affine_argument_has_its_closed_form_period(name, a, c):
    expected = (math.pi if name == "tan" else 2.0 * math.pi) / abs(a)
    v = detect_period(ex.parse(f"{name}(({a!r})*x + ({c!r}))", {"x"}))
    assert v.classification == CLASS_PERIODIC
    assert abs(v.period - expected) <= 1e-12 * expected


# periodic, but the period shows only after a cancellation that the tree
# does not make (x - x, x*x/x, ln(exp(x)), sqrt(x^2) = |x| under cos) or
# through a term nested in another function: no rule proves a period, so
# the verdict is undetermined and never a claim
CANCELLATION_POOL = [
    ("sin(x) + x - x", TWO_PI),
    ("sin((x + 1)^2 - x^2)", math.pi),
    ("cos(x*x/x)", TWO_PI),
    ("sin(ln(exp(x)))", TWO_PI),
    ("exp(sin(2*x))*x/x", math.pi),
    ("cos(sqrt(x^2))", TWO_PI),
    ("sin(x + sin(x))", TWO_PI),
    ("sin(x) + sin(sqrt(2)*x) - sin(sqrt(2)*x)", TWO_PI),
    ("cos(x) + sin(x/65) - sin(x/65)", TWO_PI),
    ("sin(x/10) + x - x", 20.0 * math.pi),
    ("tan(x)*x/x", math.pi),
]


def _math_gain(src: str):
    # the gain in plain ``math``, apart from the package's trees
    names = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
             "ln": math.log, "sqrt": math.sqrt, "tanh": math.tanh}
    code = compile(src.replace("^", "**"), src, "eval")
    return lambda x: eval(code, names, {"x": x})


@pytest.mark.parametrize("src, period", CANCELLATION_POOL)
def test_arguments_affine_after_cancellation_have_their_period(src, period):
    g = _math_gain(src)
    for x in (-251.3, -37.0, -1.5, 0.7, 4.0, 99.9, 300.2):
        assert g(x + period) == pytest.approx(g(x), abs=1e-9), (src, x)
    v = detect_period(ex.parse(src, {"x"}))
    assert v.classification == CLASS_UNDETERMINED
    assert v.evidence["rule"] == "none"


@pytest.mark.parametrize("src", [
    "sin(x^2)", "x*sin(x)", "sin(x) + sin(sqrt(2)*x)", "sin(x)*tanh(x)", "exp(x^2)*sin(x)",
    # affine around the probe points, but not on all of R: sqrt(x^2) is |x|
    "sin(sqrt(x^2))", "sin(x + sqrt(x^2))", "tan(x + sqrt(x^2))",
    # affine to roundoff away from a flat bump
    "sin(x + exp(-x^8))", "sin(x/10 + exp(-(x - 50)^8))",
    # x outside the terms: a period of 20*pi holds on the window, which
    # does not reach the bump at 30, and decides nothing
    "sin(x/10) + exp(-(x - 30)^2)",
])
def test_gains_no_rule_decides_are_undetermined(src):
    # aperiodic, but no rule proves it; the candidates are listed
    v = detect_period(ex.parse(src, {"x"}))
    assert v.classification == CLASS_UNDETERMINED
    assert v.evidence["rule"] == "none"
    assert all(type(c) is float for c in v.evidence["candidates"])


def _bench_kind_gains(rng: random.Random):
    # the six gain kinds the analysis benchmark draws, with the period each
    # closed form implies (None: aperiodic)
    a = round(rng.uniform(0.5, 2.0), 3)
    c = round(rng.uniform(1.5, 3.0), 3)
    w = round(rng.uniform(0.3, 1.5), 3)
    return [
        (f"sin({a}*x)", TWO_PI / a),
        (f"cos({a}*x)", TWO_PI / a),
        (f"exp(-{w}*x^2)", None),
        (f"{c} + sin(x) + 0.1*x", None),
        (f"tanh({a}*x)", None),
        (f"1/(x + {round(2.5 + rng.uniform(0.0, 1.4), 3)})", None),
    ]


PRESET_PERIODS = {"fish-1d-gauss": None, "fish-1d-hyperbolic": None, "periodic-sin": TWO_PI,
                  "sin-drift": None}
_rng = random.Random(6)
RULE_POOL = (
    [(str(preset(name).gamma[0]), period) for name, period in PRESET_PERIODS.items()]
    + PERIOD_ORACLES
    + LONG_PERIODS
    + [(src, None) for src in ("exp(-x^2)", "tanh(x)", "2 + sin(x) + 0.1*x", "1/(x + 3)", "0.3*x",
                               "sin(x)*exp(-x^2)")]
    + [g for _ in range(20) for g in _bench_kind_gains(_rng)]
)


def test_rule_decided_gains_keep_their_classification():
    assert set(PRESET_PERIODS) == set(preset_names())
    for src, period in RULE_POOL:
        v = detect_period(ex.parse(src, {"x"}))
        if period is None:
            assert v.classification == CLASS_APERIODIC, src
            assert v.evidence["rule"] in ("log-exp", "limit"), src
            assert "probe" in v.evidence, src
        else:
            assert v.classification == CLASS_PERIODIC, src
            assert v.evidence["rule"] == "periodic", src
            assert abs(v.period - period) <= 1e-11 * max(1.0, period), src


# the candidate lists of gains whose lcm is no period on all of R
INEXACT_CANDIDATES = {
    "sin(x) + sin(x/65)": [2 * math.pi, 130 * math.pi],  # denominator above 64
    "sin(x) + sin(sqrt(2)*x)": [2 * math.pi, math.sqrt(2) * math.pi],
    "x*sin(x)": [2 * math.pi],
    "cos(sqrt(x^2))": [],  # sqrt(x^2) is no a*x + c by its tree
    "sin(ln(exp(x)))": [],  # affine only after cancellation
    "sin(x/10 + exp(-(x - 50)^8))": [],  # affine to roundoff only
    "sin(x^2)": [],
}


# gains with an exact candidate, and that candidate
LCM_PERIODS = [
    ("sin(x/3) + cos(x)", 6 * math.pi),
    ("tan(x/4)", 4 * math.pi),
    ("tan(x) + sin(2*x)", math.pi),
    ("exp(sin(0.5*x))*tan(x)", 4 * math.pi),
    ("sin(x)^2", 2 * math.pi),  # the lcm, not the least period
    ("sin(x) + sin(x/64)", 128 * math.pi),
    ("sin(0.1*x) + sin(0.3*x)", 20 * math.pi),  # 0.3/0.1 is 3 less an ulp
    ("sin(x/10) + sin(3*x/10)", 20 * math.pi),
]


@pytest.mark.parametrize("src, period", [
    *LCM_PERIODS,
    *((src, None) for src in INEXACT_CANDIDATES),
])
def test_lcm_of_the_term_periods(src, period):
    from obsv_lab.obsv import _lcm_period

    periods, fits = _lcm_period(ex.parse(src, {"x"}))
    want = INEXACT_CANDIDATES[src] if period is None else [period]
    assert (fits is not None) is (period is not None)
    assert len(periods) == len(want)
    assert all(abs(P - T) <= 1e-12 * T for P, T in zip(periods, want))
    # an exact candidate holds each term's period a whole number of times
    assert fits is None or all(type(n) is int and n >= 1 for n in fits.values())


def test_poles_leave_the_period_to_the_tree():
    # poles decide nothing: the tree gives the period, halved by the parity
    # walk for the square
    c = "1.5659123219108917"  # a pole at x = 0.0048840048840048
    for src, period in ((f"tan(x + {c})", math.pi), (f"1/cos(x + {c})", TWO_PI),
                        (f"1/cos(x + {c})^2", math.pi)):
        v = detect_period(ex.parse(src, {"x"}))
        assert v.classification == CLASS_PERIODIC
        assert abs(v.period - period) <= 1e-12


# the parity walk halves the lcm while a shift by half of it leaves the tree
# unchanged: the reported period is a proven one, not always the least
PARITY_CASES = [
    ("sin(x)^2 + cos(x)^2", math.pi),  # constant, but no fold shows it
    ("cos(x)^4 + sin(x)^4", math.pi),  # least period pi/2
    ("sin(x)*cos(x)", math.pi),
    ("sin(x)*sin(x/3)", 3 * math.pi),
    ("sin(x)^2 - cos(2*x)", math.pi),
    ("cos(sin(x))", math.pi),  # cos is even
    ("sin(sin(x))", TWO_PI),  # sin is odd
    ("tanh(sin(x))^2", math.pi),
    ("exp(sin(x)^3)", TWO_PI),
    ("tan(x)^2", math.pi),  # tan(u + pi/2) is -1/tan(u): no further half
    ("1/(2 + sin(x)*cos(x))", math.pi),
    ("sin(x) + 1e-9*sin(x/64)", 128 * math.pi),  # one term changes sign
    ("-sin(x)", TWO_PI),  # a negated term stays negated
    ("exp(-sin(x))", TWO_PI),
    ("tanh(-cos(x))", TWO_PI),
    ("2 + -sin(x)", TWO_PI),
    ("-sin(x)^2", math.pi),
]


@pytest.mark.parametrize("src, period", PARITY_CASES)
def test_parity_walk_halves_the_lcm_where_it_proves_a_period(src, period):
    v = detect_period(ex.parse(src, {"x"}))
    assert v.classification == CLASS_PERIODIC
    assert v.evidence["rule"] == "periodic"
    assert v.period == period


def test_periodic_verdicts_are_periods_by_sympy():
    # for each periodic verdict, sympy shows g(x + T) = g(x) on the exact
    # gain: literals made rational by nsimplify (1.234 is 617/500), and T
    # an exact multiple of pi (2/1.234 is 1000/617 to 1e-12)
    x = sympy.Symbol("x", real=True)
    checked = 0
    for src in dict(RULE_POOL + LCM_PERIODS + PARITY_CASES):
        v = detect_period(ex.parse(src, {"x"}))
        if v.classification != CLASS_PERIODIC:
            continue
        g = sympy.nsimplify(sympy.sympify(src.replace("^", "**").replace("ln(", "log("),
                                          locals={"x": x}))
        T = sympy.nsimplify(v.period / math.pi, tolerance=1e-12, rational=True) * sympy.pi
        assert sympy.simplify(g.subs(x, x + T) - g) == 0, (src, T)
        checked += 1
    assert checked >= 60


# the limit rule's interval evaluation against sympy's limits (Gruntz's
# algorithm, a separate engine): every limit it claims must be sympy's
TAIL_CASES = [
    "exp(-x^2)*sin(x)", "2 + sin(x) + 0.1*x", "1/(x + 3)", "tanh(x)", "sin(x)/x",
    "sin(exp(x))", "exp(x)*sin(x)", "ln(1 + exp(x))", "cos(1/(x^2 + 1))",
    "exp(-x)*cos(3*x) + 1/x", "(x + 1)^3 + cos(x)", "(x^2 + 1)/(3*x^2 - x)", "x*sin(x)",
    "sin(x)^2 + 1/x", "x - x/2", "sqrt(x^2 + 1) - x", "tan(1/x) + 2", "1/(1 + 2*sin(x))",
    "sin(x) + 1/exp(-x^2)",  # the reciprocal of a bound (0, 0) that is strictly positive
]


def test_tail_limits_match_sympy():
    from obsv_lab.obsv import _bounds

    x = sympy.Symbol("x", real=True)
    claimed = 0
    for src in TAIL_CASES:
        f = sympy.sympify(src.replace("^", "**").replace("ln(", "log("), locals={"x": x})
        for end, s_end in ((math.inf, sympy.oo), (-math.inf, -sympy.oo)):
            lo, hi, _ = _bounds(ex.parse(src, {"x"}), (end, end))
            assert lo <= hi, (src, end)
            if lo == hi:
                limit = sympy.limit(f, x, s_end)
                assert limit.is_extended_real, (src, end, limit)
                assert float(limit) == pytest.approx(lo, rel=1e-12, abs=1e-15), (src, end)
                claimed += 1
    assert claimed >= 24


def test_tail_cases_cover_the_catalog():
    def names(e):
        own = {e.name} if isinstance(e, ex.Func) else set()
        return own.union(*map(names, ex.children(e)))

    assert set().union(*(names(ex.parse(src, {"x"})) for src in TAIL_CASES)) >= set(ex.CATALOG)


@pytest.mark.parametrize("src", [
    "exp(-x^2)/(1 + 2*sin(x))",  # a pole at every zero of 1 + 2*sin(x)
    "exp(-x)*tan(x)",
    "ln(1.1 + sin(x)*cos(x) + 0.5*sin(x))",  # periodic, > 0.2, interval bound below 0
    "x*sin(x)",
    "sin(x^2)",
    # at -inf the divisor e^x*(1 + 2*sin(x)) tends to 0 from both sides
    "1/(exp(x) + 2*sin(x)*exp(x))",
])
def test_tail_bounds_claim_no_limit_that_does_not_exist(src):
    # sympy's limit says 0 for the first two, so these are checked by hand
    from obsv_lab.obsv import _bounds

    for end in (math.inf, -math.inf):
        lo, hi, _ = _bounds(ex.parse(src, {"x"}), (end, end))
        assert lo < hi, (src, end)


_MP_FUNCS = {"sin": mpmath.sin, "cos": mpmath.cos, "tan": mpmath.tan, "exp": mpmath.exp,
             "ln": mpmath.log, "sqrt": mpmath.sqrt, "tanh": mpmath.tanh}


def _mp_value(e, x):
    # the gain at x in mpmath, the float constants taken exactly; None
    # where the gain is undefined (a pole, or a complex ln or sqrt)
    if isinstance(e, ex.Const):
        return mpmath.mpf(e.value)
    if isinstance(e, ex.Var):
        return x
    args = [_mp_value(c, x) for c in ex.children(e)]
    if None in args:
        return None
    try:
        if isinstance(e, ex.Func):
            v = _MP_FUNCS[e.name](args[0])
        elif isinstance(e, ex.Pow):
            v = args[0] ** e.exponent
        else:
            v = {ex.Neg: lambda a: -a, ex.Add: lambda a, b: a + b, ex.Sub: lambda a, b: a - b,
                 ex.Mul: lambda a, b: a * b, ex.Div: lambda a, b: a / b}[type(e)](*args)
    except ZeroDivisionError:
        return None
    return v if isinstance(v, mpmath.mpf) else None


ENCLOSED_GAINS = sorted({src for src, _ in RULE_POOL} | set(TAIL_CASES) | set(DOMAIN_PROVEN))


@settings(max_examples=300, deadline=None)
@given(src=st.sampled_from(ENCLOSED_GAINS), p=st.floats(-10.0, 10.0),
       w=st.floats(1e-12, 0.5))
def test_bounds_enclose_the_value_mpmath_gives(src, p, w):
    # an independent oracle: each gain at 50 digits lies inside its
    # outward-rounded enclosure at p, and inside the one over [p, p + w]
    # at five points of that range
    from obsv_lab.obsv import _bounds

    gamma = ex.parse(src, {"x"})
    hi_x = p + w
    with mpmath.workdps(50):
        v = _mp_value(gamma, mpmath.mpf(p))
        if v is not None:
            lo, hi, _ = _bounds(gamma, (p, p))
            assert lo <= v <= hi, (src, p, lo, hi, v)
        lo, hi, _ = _bounds(gamma, (p, hi_x))
        for t in (0, 0.25, 0.5, 0.75, 1):
            x = mpmath.mpf(p) + (mpmath.mpf(hi_x) - mpmath.mpf(p)) * t
            v = _mp_value(gamma, x)
            if v is not None:
                assert lo <= v <= hi, (src, p, hi_x, t, lo, hi, v)


def test_bounds_know_every_catalog_function():
    # _bounds and _value single functions out by name (_EXACT_AT, tan,
    # sqrt), so a catalog entry alone does not teach them a new function:
    # each one bounds f(x) at points inside every function's domain
    from obsv_lab.obsv import _bounds

    for name in ex.CATALOG:
        f = ex.Func(name, ex.Var("x"))
        for p in (0.5, 1.0, 2.5):
            lo, hi, _ = _bounds(f, (p, p))
            with mpmath.workdps(50):
                assert lo <= _mp_value(f, mpmath.mpf(p)) <= hi, (name, p)


def test_aperiodic_verdicts_back_random_pair_scans():
    # whenever the verdict is aperiodic, random point pairs must expose a
    # differing derivative jet within the order cap
    rng = random.Random(23)
    for src in ("exp(-x^2)", "2 + sin(x) + 0.1*x", "tanh(x)", "0.3*x"):
        g = ex.parse(src, {"x"})
        v = detect_period(g)
        assert v.classification == CLASS_APERIODIC
        for _ in range(10):
            r, s = rng.uniform(-8, 8), rng.uniform(-8, 8)
            if r == s:
                continue
            found = any(
                abs(
                    ex.nth_derivative_at(g, "x", k, r)
                    - ex.nth_derivative_at(g, "x", k, s)
                )
                > 1e-8 * (1 + abs(ex.nth_derivative_at(g, "x", k, r)))
                for k in range(13)
            )
            assert found, (src, r, s)


def test_is_aperiodic_system_presets():
    assert is_aperiodic_system(preset("fish-1d-gauss")).verdict == "observable"
    assert is_aperiodic_system(preset("sin-drift")).verdict == "observable"
    report = is_aperiodic_system(preset("periodic-sin"))
    assert report.verdict == "not-observable"
    assert report.gamma_verdicts[0].classification == CLASS_PERIODIC


def test_is_aperiodic_system_mixed_blocks():
    sys = CascadeSystem(
        n=2,
        gamma=(ex.parse("exp(-x^2)", {"x"}), ex.parse("sin(x)", {"x"})),
        F=(ex.parse("-z1", {"z1", "z2"}), ex.parse("-z2", {"z1", "z2"})),
        b=(1.0, 1.0),
    )
    report = is_aperiodic_system(sys)
    assert report.verdict == "not-observable"
    kinds = [v.classification for v in report.gamma_verdicts]
    assert kinds == [CLASS_APERIODIC, CLASS_PERIODIC]


# ---------------------------------------------------------------------------
# separating observables


def test_separation_equal_positions_different_velocities():
    sys = cascade_1d("exp(-x^2)")
    cert = find_separating_observable(sys, (0.0, 1.0), (0.0, 2.0))
    assert cert.verdict == VERDICT_SEPARATED
    assert cert.witness == word_lflg(1, 0)
    assert cert.value0 == pytest.approx(1.0)
    assert cert.value1 == pytest.approx(2.0)


def test_separation_positions_differ_needs_first_derivative():
    # gain 2 + sin(x) agrees at 0 and pi; its slope (1 vs -1) splits them
    sys = cascade_1d("2 + sin(x)")
    cert = find_separating_observable(sys, (0.0, 1.0), (math.pi, 1.0))
    assert cert.verdict == VERDICT_SEPARATED
    assert cert.witness == word_lglflg(1, 1)
    assert cert.value0 == pytest.approx(1.0, abs=1e-12)
    assert cert.value1 == pytest.approx(-1.0, abs=1e-12)


def test_separation_mirrored_positions_need_the_slope():
    # the bump gain is even, so x and -x agree at order 0; its odd slope splits them
    sys = cascade_1d("exp(-x^2)")
    cert = find_separating_observable(sys, (0.9, 0.4), (-0.9, 0.4))
    assert cert.verdict == VERDICT_SEPARATED
    assert cert.witness == word_lglflg(1, 1)
    assert cert.value0 == pytest.approx(-cert.value1, rel=1e-12)


def test_separation_witness_reevaluates_under_generic_words():
    rng = random.Random(77)
    sys = cascade_1d("2 + sin(x) + 0.1*x")
    ca = as_control_affine(sys)
    for _ in range(20):
        s0 = (rng.uniform(-3, 3), rng.uniform(-2, 2))
        s1 = (rng.uniform(-3, 3), rng.uniform(-2, 2))
        if s0 == s1:
            continue
        cert = find_separating_observable(sys, s0, s1)
        assert cert.verdict == VERDICT_SEPARATED
        w = cert.witness
        g0 = evaluate_word(ca, w, s0)
        g1 = evaluate_word(ca, w, s1)
        assert abs(g0 - g1) > SEP_TOL_DEFAULT
        assert g0 == pytest.approx(cert.value0, rel=1e-9, abs=1e-12)
        assert g1 == pytest.approx(cert.value1, rel=1e-9, abs=1e-12)


def test_separation_periodic_shift_is_certified_indistinguishable():
    sys = cascade_1d("sin(x)")
    cert = find_separating_observable(sys, (0.0, 0.5), (TWO_PI, 0.5))
    assert cert.verdict == VERDICT_SHIFT
    assert cert.witness is None
    # each moved block gives its shift and the gain's proven period
    assert cert.bounds["shifts"] == {"block_1": {"shift": TWO_PI, "period": TWO_PI}}


def test_separation_shifted_position_with_different_velocity_still_splits():
    sys = cascade_1d("sin(x)")
    cert = find_separating_observable(sys, (0.0, 1.0), (TWO_PI, 5.0))
    assert cert.verdict == VERDICT_SEPARATED
    assert cert.witness == word_lflg(1, 1)


def test_separation_constant_gain_shift_is_indistinguishable():
    # every shift is a period of a constant gain, which has no period
    cert = find_separating_observable(cascade_1d("2"), (0.0, 1.0), (1.0, 1.0))
    assert cert.verdict == VERDICT_SHIFT
    assert cert.bounds["shifts"] == {"block_1": {"shift": 1.0, "period": None}}


def test_separation_flat_jet_reports_bounds_exhausted():
    # all derivatives of x^13 up to order 12 vanish at the origin
    sys = cascade_1d("x^13")
    cert = find_separating_observable(sys, (0.0, 1.0), (0.0, 2.0))
    assert cert.verdict == VERDICT_UNRESOLVED
    assert cert.bounds["k_max"] == 12


def test_separation_builds_one_gain_jet_per_block_and_position_bits(monkeypatch):
    # a velocity pair shares its positions, so both states read one jet;
    # -0.0 and 0.0 are equal positions with different bits, so two jets
    built = []
    jet = ex.Jet

    def counting(outputs, names, x0, **kw):
        built.append(x0[0].hex())
        return jet(outputs, names, x0, **kw)

    monkeypatch.setattr(ex, "Jet", counting)
    sys = cascade_1d("x^13")
    assert find_separating_observable(sys, (0.0, 1.0), (0.0, 2.0)).verdict == VERDICT_UNRESOLVED
    assert built == [(0.0).hex()]
    built.clear()
    assert find_separating_observable(sys, (-0.0, 1.0), (0.0, 2.0)).verdict == VERDICT_UNRESOLVED
    assert built == [(-0.0).hex(), (0.0).hex()]


def test_separation_identical_states_rejected():
    sys = cascade_1d("sin(x)")
    with pytest.raises(ValueError):
        find_separating_observable(sys, (0.0, 1.0), (0.0, 1.0))


def test_separation_two_blocks_uses_the_differing_block():
    sys = CascadeSystem(
        n=2,
        gamma=(ex.parse("exp(-x^2)", {"x"}), ex.parse("2 + sin(x)", {"x"})),
        F=(ex.parse("-z1", {"z1", "z2"}), ex.parse("-z2", {"z1", "z2"})),
        b=(1.0, 2.0),
    )
    s0 = (0.5, 0.0, 1.0, 1.0)
    s1 = (0.5, math.pi, 1.0, 1.0)
    cert = find_separating_observable(sys, s0, s1)
    assert cert.verdict == VERDICT_SEPARATED
    assert cert.witness.j == 2


@pytest.mark.parametrize("name", ["fish-1d-gauss", "fish-1d-hyperbolic"])
def test_near_identical_pair_scans_full_depth_quickly(name):
    # every gain derivative up to the default order 12 is compared; the
    # hyperbolic jet (-1)^k k!/2^(k+1) stays finite all the way
    t0 = time.perf_counter()
    cert = find_separating_observable(preset(name), (0.0, 1.0), (0.0, 1.0000000000001))
    elapsed = time.perf_counter() - t0
    assert cert.verdict == VERDICT_UNRESOLVED
    assert cert.bounds["k_max"] == 12
    assert elapsed < 0.05


@settings(max_examples=40, deadline=None)
@given(
    gains=st.lists(st.sampled_from(GAMMA_CHOICES), min_size=1, max_size=2),
    data=st.data(),
)
def test_separating_witness_replays_through_generic_words(gains, data):
    n = len(gains)
    sys = CascadeSystem(
        n=n,
        gamma=tuple(ex.parse(g, {"x"}) for g in gains),
        F=tuple(ex.parse(f"-z{i}", {f"z{i}"}) for i in range(1, n + 1)),
        b=tuple(data.draw(st.sampled_from([-2.0, -0.5, 1.0, 1.5])) for _ in range(n)),
    )
    coord = st.floats(-2.5, 2.5, allow_nan=False)
    s0 = tuple(data.draw(coord) for _ in range(2 * n))
    s1 = tuple(data.draw(coord) for _ in range(2 * n))
    if s0 == s1:
        return
    cert = find_separating_observable(sys, s0, s1, k_max=3)
    if cert.verdict != VERDICT_SEPARATED:
        return
    ca = as_control_affine(sys)
    w = cert.witness
    for state, value in ((s0, cert.value0), (s1, cert.value1)):
        replayed = evaluate_word(ca, w, state)
        assert replayed == pytest.approx(value, rel=1e-9, abs=1e-12)


# gain forms in a*x with their least period times a; at x + T the jets
# differ from those at x by roundoff that grows with the order, which must
# not pass for a witness
SHIFT_KINDS = {"sin({a}*x)": TWO_PI, "cos({a}*x)": TWO_PI, "tan({a}*x)": math.pi,
               "tanh(5*sin({a}*x))": TWO_PI}


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(sorted(SHIFT_KINDS)),
    a=st.floats(0.5, 3.0),
    periods=st.sampled_from([-2, -1, 1, 2]),
    x=st.just(0.0) | st.floats(-3.0, 3.0),
    z=st.floats(-2.0, 2.0),
)
def test_whole_period_shift_is_indistinguishable_by_construction(kind, a, periods, x, z):
    sys = cascade_1d(kind.format(a=repr(a)))
    cert = find_separating_observable(sys, (x, z), (x + periods * SHIFT_KINDS[kind] / a, z))
    assert cert.verdict == VERDICT_SHIFT


# tiny equal-velocity shifts: the gain values and the jets stay within
# sep_tol, but no shift is a whole period of the gain (the first three
# presets are aperiodic)
TINY_SHIFTS = [
    ("fish-1d-gauss", (0.0, 0.0), (1e-12, 0.0)),
    ("fish-1d-gauss", (0.5, 1.0), (0.5000000001, 1.0)),
    ("sin-drift", (0.0, 0.0), (1e-10, 0.0)),
    ("fish-1d-hyperbolic", (0.0, 0.0), (1e-11, 0.0)),
    ("periodic-sin", (0.0, 0.0), (1e-12, 0.0)),
]


@pytest.mark.parametrize("name, s0, s1", TINY_SHIFTS)
def test_tiny_shift_is_no_construction(name, s0, s1):
    cert = find_separating_observable(preset(name), s0, s1)
    assert cert.verdict != VERDICT_SHIFT
    assert "shifts" not in cert.bounds


@settings(max_examples=60, deadline=None)
@given(
    gain=st.sampled_from(RULE_POOL),
    tiny=st.floats(1e-12, 1e-9),
    periods=st.sampled_from([-2, -1, 1, 2]),
    x=st.just(0.0) | st.floats(-3.0, 3.0),
    z=st.floats(-2.0, 2.0),
)
def test_shift_construction_follows_the_period_verdict(gain, tiny, periods, x, z):
    src, period = gain
    sys = cascade_1d(src)
    if period is None:
        cert = find_separating_observable(sys, (x, z), (x + math.copysign(tiny, periods), z))
        assert cert.verdict != VERDICT_SHIFT, src
    else:
        cert = find_separating_observable(sys, (x, z), (x + periods * period, z))
        assert cert.verdict == VERDICT_SHIFT, src


# ---------------------------------------------------------------------------
# local rank


def test_local_rank_gauss_moving_state():
    report = local_rank(preset("fish-1d-gauss"), (0.0, 1.0))
    assert report.dim == 2
    assert report.rank == 2
    assert report.locally_observable


def test_local_rank_gauss_at_rest_is_deficient():
    report = local_rank(preset("fish-1d-gauss"), (0.0, 0.0))
    assert report.rank < 2
    assert not report.locally_observable


def test_local_rank_words_are_drift_powers():
    report = local_rank(preset("fish-1d-gauss"), (0.3, 0.7))
    for w in report.words:
        assert all(ix == 0 for ix in w.mu)
    assert report.gradients.shape[1] == 2


def _rank_condition(gamma: ex.Expr, x: float, z: float) -> float:
    """z^2 (2 gamma'(x)^2 - gamma(x) gamma''(x)), the derivatives taken by
    sympy from the gain's source: nonzero exactly when the first two
    observation-space differentials of the single-block damped cascade are
    independent at (x, z)."""
    s = sympy.Symbol("x")
    g = sympy.sympify(ex.format_expr(gamma).replace("^", "**").replace("ln(", "log("),
                      locals={"x": s})
    g0, g1, g2 = (float(sympy.diff(g, s, k).evalf(30, subs={s: sympy.Float(x, 30)}))
                  for k in range(3))
    return z * z * (2.0 * g1 * g1 - g0 * g2)


def test_local_rank_hyperbolic_deficient_everywhere():
    rng = random.Random(5)
    sys = preset("fish-1d-hyperbolic")
    for _ in range(20):
        x0 = (rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0))
        report = local_rank(sys, x0)
        assert report.rank <= 1, x0
        assert abs(_rank_condition(sys.gamma[0], *x0)) < 1e-10


def test_local_rank_agrees_with_analytic_condition():
    rng = random.Random(31)
    for name in ("fish-1d-gauss", "periodic-sin", "fish-1d-hyperbolic"):
        sys = preset(name)
        for _ in range(25):
            x = rng.uniform(-1.5, 1.5)
            z = rng.choice([-1, 1]) * rng.uniform(0.2, 2.0)
            cond = _rank_condition(sys.gamma[0], x, z)
            report = local_rank(sys, (x, z))
            assert (abs(cond) > 1e-10) == report.locally_observable, (name, x, z)


def test_local_rank_needs_an_output():
    ca = ControlAffineSystem(("x",), (ex.Var("x"),), ((ex.const(0.0),),), ())
    with pytest.raises(ValueError, match="at least one output"):
        local_rank(ca, (0.0,))


def test_local_rank_zero_velocity_matches_condition():
    for name in ("fish-1d-gauss", "periodic-sin", "fish-1d-hyperbolic"):
        sys = preset(name)
        report = local_rank(sys, (0.4, 0.0))
        assert not report.locally_observable
        assert _rank_condition(sys.gamma[0], 0.4, 0.0) == 0.0


@pytest.mark.parametrize("moving", [False, True], ids=["rest", "moving"])
def test_local_rank_of_decoupled_cascade_is_the_sum_of_block_ranks(moving):
    # with F[i] = -z_i the blocks do not couple, so the observation space is
    # the direct sum of the blocks' spaces: rank 1 per block at rest (every
    # row is gamma(x)*c*dz), rank 2 per block moving for these gains, where
    # 2*gamma'^2 - gamma*gamma'' > 0.  At 50 blocks the state has 100
    # entries, past any cap of 32 rows
    n = 50
    rng = random.Random(50 + moving)
    gains = [rng.choice(("sin(x) + 2", "exp(-x^2)")) for _ in range(n)]
    x = [rng.uniform(-1.5, 1.5) for _ in range(n)]
    z = [rng.uniform(0.5, 1.5) if moving else 0.0 for _ in range(n)]
    b = [rng.uniform(0.5, 1.5) for _ in range(n)]
    zs = ex.VarNames(f"z{i}" for i in range(1, n + 1))
    sys = CascadeSystem(n=n, gamma=tuple(ex.parse(g, {"x"}) for g in gains),
                        F=tuple(ex.parse(f"-z{i}", zs) for i in range(1, n + 1)), b=tuple(b))
    t0 = time.perf_counter()
    report = local_rank(sys, x + z)
    elapsed = time.perf_counter() - t0

    def block_rank(i):
        block = CascadeSystem(n=1, gamma=(sys.gamma[i],), F=(ex.parse("-z1", {"z1"}),), b=(b[i],))
        return local_rank(block, (x[i], z[i])).rank

    assert report.rank == sum(block_rank(i) for i in range(n)) == (2 * n if moving else n)
    # moving, order 1 reaches full rank; at rest order 1 adds no direction
    # to order 0, and the reduction stops there
    assert len(report.words) == 2 * n
    assert elapsed < 3.0


def _coupled_cascade(n, seed):
    rng = random.Random(seed)
    gains = ("sin(x)", "exp(-x^2)", "tanh(x)", "2 + sin(x) + 0.1*x")
    zs = ex.VarNames(f"z{i}" for i in range(1, n + 1))
    return CascadeSystem(
        n=n,
        gamma=tuple(ex.parse(gains[i % 4], {"x"}) for i in range(n)),
        F=tuple(ex.parse(f"-z{i} + 0.1*sin(z{i % n + 1})", zs) for i in range(1, n + 1)),
        b=tuple(rng.uniform(0.5, 1.5) for _ in range(n)),
    )


def test_local_rank_of_a_coupled_cascade_at_rest():
    # at z = 0 with F(0) = 0 every x-derivative of L_f^k h_i carries a
    # factor z, so the position columns vanish exactly, and the velocity
    # columns are the linearization's rows gamma_i(x_i) e_i^T A^k with
    # A = dF/dz(0) = -I + 0.1*(shift to the next block).  The positions
    # keep every gain away from 0, so order 0 alone has rank n, and order 1
    # adds nothing to it
    n = 50
    sys = _coupled_cascade(n, 7)
    rng = random.Random(8)
    x = [rng.uniform(0.2, 1.5) for _ in range(n)]
    t0 = time.perf_counter()
    report = local_rank(sys, x + [0.0] * n)
    elapsed = time.perf_counter() - t0
    assert (report.rank, report.dim, len(report.words)) == (n, 2 * n, 2 * n)
    assert np.all(report.gradients[:, :n] == 0.0)
    A = -np.eye(n) + 0.1 * np.roll(np.eye(n), 1, axis=1)
    gains = [math.sin, lambda v: math.exp(-v * v), math.tanh, lambda v: 2 + math.sin(v) + 0.1 * v]
    power = np.eye(n)
    for k in range(len(report.words) // n):
        rows = report.gradients[k * n:(k + 1) * n, n:]
        want = np.array([gains[i % 4](x[i]) for i in range(n)])[:, None] * power
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.max(np.abs(rows - want), axis=1) <= 1e-9 * scale), k
        power = power @ A
    assert elapsed < 3.0


def _exact_kalman_rank(A: sympy.Matrix, C: sympy.Matrix) -> int:
    # rank of [C; CA; ...; CA^(d-1)] over the rationals
    rows = [C]
    for _ in range(A.shape[0] - 1):
        rows.append(rows[-1] * A)
    return DomainMatrix.from_Matrix(sympy.Matrix.vstack(*rows)).to_field().rank()


def _affine_system(names, drift, outputs) -> ControlAffineSystem:
    vs = ex.VarNames(names)
    return ControlAffineSystem(
        tuple(names), tuple(ex.parse(f, vs) for f in drift),
        (tuple(ex.const(0.0) for _ in names),), tuple(ex.parse(h, vs) for h in outputs))


@pytest.mark.parametrize("n", [16, 20, 30, 60])
@pytest.mark.parametrize("c", ["0.5", "1", "2"])
def test_local_rank_of_an_observable_chain_at_rest_is_full(n, c):
    # z_i' = -z_i + c*z_{i+1}, z_n' = -z_n, y = z_1: the rows C A^k grow
    # like binomials, so a cut at a fraction of the largest singular value
    # of their stack loses the last directions; the reduction must not
    names = [f"z{i}" for i in range(1, n + 1)]
    drift = [f"-z{i} + {c}*z{i + 1}" for i in range(1, n)] + [f"-z{n}"]
    report = local_rank(_affine_system(names, drift, ["z1"]), (0.0,) * n)
    A = -sympy.eye(n)
    for i in range(n - 1):
        A[i, i + 1] = sympy.Rational(c)
    C = sympy.Matrix([[1] + [0] * (n - 1)])
    assert report.rank == _exact_kalman_rank(A, C) == n
    assert report.locally_observable


def test_rounding_in_the_reduction_adds_no_direction():
    # f(z) = w (v . z) and y = w2*z1 - w1*z2: y' = 0 exactly, so the rank is
    # 1, but the unit row of C times A is rounding of about 1e-17, which
    # would look like a new direction if it were scaled up to a unit row
    rng = random.Random(11)
    for _ in range(20):
        w, v = ([round(rng.uniform(0.1, 1.0), 3) for _ in range(2)] for _ in range(2))
        lin = f"({v[0]}*z1 + {v[1]}*z2)"
        report = local_rank(_affine_system(["z1", "z2"], [f"{w[0]}*{lin}", f"{w[1]}*{lin}"],
                                           [f"{w[1]}*z1 - {w[0]}*z2"]), (0.0, 0.0))
        q = [sympy.Rational(str(t)) for t in w + v]
        A = sympy.Matrix([[q[0] * q[2], q[0] * q[3]], [q[1] * q[2], q[1] * q[3]]])
        C = sympy.Matrix([[q[1], -q[0]]])
        assert report.rank == _exact_kalman_rank(A, C) == 1, (w, v)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), p=st.integers(1, 2))
def test_local_rank_at_an_equilibrium_is_the_exact_kalman_rank(data, d, p):
    # polynomials in the offsets x_j - s_j vanish at s, so s is an
    # equilibrium; sympy differentiates the same sources at s exactly
    names = [f"x{j}" for j in range(1, d + 1)]
    s = data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    coef = st.integers(-2, 2)
    off = [f"(x{j + 1} - ({s[j]}))" for j in range(d)]

    def poly(terms):
        return " + ".join(f"({a})*{t}" for a, t in terms) or "0"

    drift = []
    for _ in range(d):
        terms = [(data.draw(coef), off[j]) for j in range(d)]
        j, k = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        terms.append((data.draw(coef), f"{off[j]}*{off[k]}"))
        drift.append(poly(terms))
    outputs = []
    for _ in range(p):
        terms = [(data.draw(coef), names[j]) for j in range(d)]
        j, k = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        terms.append((data.draw(coef), f"{names[j]}*{names[k]}"))
        outputs.append(poly(terms))
    report = local_rank(_affine_system(names, drift, outputs), [float(v) for v in s])
    xs = sympy.symbols(names)
    at = dict(zip(xs, s))

    def jacobian(sources):
        return sympy.Matrix([sympy.sympify(e, locals=dict(zip(names, xs))) for e in sources]
                            ).jacobian(xs).subs(at)

    want = _exact_kalman_rank(jacobian(drift), jacobian(outputs))
    assert report.rank == want, (drift, outputs, s)


def test_a_resting_state_whose_jacobian_overflows_takes_the_tape():
    # 1e308*z1 + 1e308*z1 is 0 at rest, but its slope overflows to inf, so
    # the reduction has no A to work with; the tape decides as it does
    # while moving: an inf reaches row 1 through gamma(0.3) != 0, and it
    # meets only zero coefficients where gamma(0) = sin(0) = 0
    def block(gain):
        return CascadeSystem(n=1, gamma=(ex.parse(gain, {"x"}),),
                             F=(ex.parse("-z1 + 1e308*z1 + 1e308*z1", {"z1"}),), b=(1.0,))

    with pytest.raises(ex.DomainError, match="non-finite gradient at order 1"):
        local_rank(block("exp(-x^2)"), (0.3, 0.0))
    report = local_rank(block("sin(x)"), (0.0, 0.0))
    assert (report.rank, len(report.words)) == (0, 3)


def test_a_resting_row_that_overflows_names_its_order():
    # A is finite, so the reduction runs, but the row C A^3 = 1e450 e4
    # overflows; the reduction needs order 3 for the fourth direction, so
    # that row is reported, and a search stopped at order 2 never forms it
    names = ["a1", "a2", "a3", "a4"]
    sys = _affine_system(names, ["1e150*a2", "1e150*a3", "1e150*a4", "-a4"], ["a1"])
    with pytest.raises(ex.DomainError, match=r"^non-finite gradient at order 3 in a1$"):
        local_rank(sys, (0.0,) * 4)
    report = local_rank(sys, (0.0,) * 4, 2)
    assert (report.rank, len(report.words)) == (3, 3)


def test_rest_rank_of_200_blocks_is_quick_and_small():
    # in a fresh interpreter, so the peak resident size is this call's
    n = 200
    probe = "\n".join([
        "import random, resource, time",
        "import obsv_lab.expr as ex",
        "from obsv_lab.model import CascadeSystem",
        "from obsv_lab.obsv import local_rank",
        inspect.getsource(_coupled_cascade),
        f"n = {n}",
        "rng = random.Random(8)",
        "x = [rng.uniform(0.2, 1.5) for _ in range(n)]",
        "sys_ = _coupled_cascade(n, 7)",
        "t0 = time.perf_counter()",
        "report = local_rank(sys_, x + [0.0] * n)",
        "elapsed = time.perf_counter() - t0",
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss",
        "print(report.rank, report.dim, elapsed, peak)",
    ])
    src = str(pathlib.Path(ex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    rank, dim, elapsed, peak_kb = done.stdout.split()
    assert (int(rank), int(dim)) == (n, 2 * n)
    assert float(elapsed) < 1.0
    assert int(peak_kb) < 512 * 1024  # ru_maxrss is in KiB on Linux


def _full_conv(p, nz, q, lo, k):
    # every term of the convolution, zeros included; a rule that reads its
    # own series p sees its orders below k only
    s = 0.0
    for j in range(lo, min(k, len(p) - 1) + 1):
        s += p[j] * q[k - j]
    return s


def _full_wconv(a, nz, w, k):
    # (1/k) sum j a[j] w[k-j] over every j >= 1, as _full_conv
    s = 0.0
    for j in range(1, min(k, len(a) - 1) + 1):
        s += j * a[j] * w[k - j]
    return s / k


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("moving", [False, True], ids=["rest", "moving"])
def test_local_rank_skipping_zero_terms_keeps_every_bit(monkeypatch, n, moving):
    # a term p[j]*q[k-j] with p[j] == 0.0 adds a signed zero to a sum that
    # started at +0.0, so dropping it must leave every row and singular
    # value bit for bit as the full convolution gives them
    sys = _coupled_cascade(n, n)
    rng = random.Random(n + 100 * moving)
    state = [rng.uniform(-1.5, 1.5) for _ in range(n)]
    state += [rng.uniform(0.5, 1.5) if moving else 0.0 for _ in range(n)]
    fast = local_rank(sys, state)
    monkeypatch.setattr(ex, "_conv", _full_conv)
    monkeypatch.setattr(ex, "_wconv", _full_wconv)
    full = local_rank(sys, state)
    assert fast.words == full.words
    assert fast.rank == full.rank
    assert fast.gradients.tobytes() == full.gradients.tobytes()
    assert fast.singular_values.tobytes() == full.singular_values.tobytes()


def _jet_or_error(e, x0):
    try:
        return repr(ex.jet(e, "x", x0, 40))
    except ex.DomainError as err:
        return f"DomainError: {err}"


def test_jet_skipping_zero_terms_keeps_every_bit(monkeypatch):
    # every value rule sums over the nonzero orders only; the jets, and
    # the errors of those that fail, must be the full sums' bits
    args = ("x", "x^2 - 0.5*x", "2*x^3 + x + 1")
    gains = [f"{name}({arg})" for name in ex.CATALOG for arg in args]
    gains += ["x/(1 + x^2)", "1/(x^2 - x)", "(x + 1)^5", "(x - 0.3)^-3", "x^5", "x^-3",
              "sin(x)^5/(2 + cos(x))", "sqrt(x^2)*exp(-x^2)"]
    exprs = [ex.parse(g, {"x"}) for g in gains]
    rng = random.Random(40)
    points = [0.0, -0.0, 1e-8] + [rng.uniform(-2.0, 2.0) for _ in range(5)]
    fast = [_jet_or_error(e, x0) for e in exprs for x0 in points]
    monkeypatch.setattr(ex, "_conv", _full_conv)
    monkeypatch.setattr(ex, "_wconv", _full_wconv)
    full = [_jet_or_error(e, x0) for e in exprs for x0 in points]
    assert fast == full
    assert sum(r.startswith("DomainError") for r in full) >= 10


@pytest.mark.parametrize("bounds", [{"l_max": -1}])
def test_local_rank_rejects_meaningless_bounds(bounds):
    with pytest.raises(ValueError):
        local_rank(preset("fish-1d-gauss"), (0.0, 1.0), **bounds)


def test_local_rank_degenerate_three_blocks_is_quick():
    zs = {"z1", "z2", "z3"}
    sys = CascadeSystem(
        n=3,
        gamma=tuple(ex.parse("1/(x + 3)", {"x"}) for _ in range(3)),
        F=tuple(ex.parse(f"-z{i}", zs) for i in (1, 2, 3)),
        b=(1.0, 1.0, 1.0),
    )
    t0 = time.perf_counter()
    report = local_rank(sys, (0.1, 0.2, 0.3, 0.5, -0.7, 1.1))
    elapsed = time.perf_counter() - t0
    assert (report.rank, report.dim) == (3, 6)
    assert len(report.words) == 21  # every order up to l_max = 6 was tried
    assert elapsed < 0.05


def test_local_rank_gradients_match_sympy_lie_derivatives():
    # two coupled blocks; rows checked against gradients of L_f^k h taken
    # symbolically by sympy, at rest (deficient, so every order is tried)
    # and moving
    sys = CascadeSystem(
        n=2,
        gamma=(ex.parse("exp(-x^2)", {"x"}), ex.parse("1/(x + 3)", {"x"})),
        F=(
            ex.parse("-z1 + 0.4*sin(z2)", {"z1", "z2"}),
            ex.parse("-0.5*z2 + 0.1*z1^2", {"z1", "z2"}),
        ),
        b=(1.0, -1.5),
    )
    x1, x2, z1, z2 = sympy.symbols("x1 x2 z1 z2")
    state = (x1, x2, z1, z2)
    c = sympy.Float
    drift = (z1, z2, -z1 + c("0.4") * sympy.sin(z2), -c("0.5") * z2 + c("0.1") * z1**2)
    outputs = (sympy.exp(-x1**2) * z1, z2 / (x2 + 3))

    def lie(h, k):
        for _ in range(k):
            h = sum(sympy.diff(h, v) * f for v, f in zip(state, drift))
        return h

    for point in ((0.3, -0.4, 0.0, 0.0), (0.3, -0.4, 0.8, -1.1)):
        report = local_rank(sys, point)
        subs = {v: sympy.Float(p, 30) for v, p in zip(state, point)}
        for row, word in zip(report.gradients, report.words):
            h = lie(outputs[word.j - 1], len(word.mu))
            want = np.array([float(sympy.diff(h, v).evalf(30, subs=subs)) for v in state])
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(row - want)) <= 1e-10 * scale, (point, word)


def test_rank_condition_sine_value():
    # the sympy oracle of the rank condition, against its closed form for
    # sin: 2 cos^2 + sin^2 = 1 + cos^2, scaled by z^2
    g = ex.parse("sin(x)", {"x"})
    x, z = 0.8, 1.5
    expect = z * z * (1.0 + math.cos(x) ** 2)
    assert _rank_condition(g, x, z) == pytest.approx(expect, rel=1e-12)
