import math
import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import obsv_lab.expr as ex
from obsv_lab.lie import ObservableWord, evaluate_word
from obsv_lab.model import CascadeSystem, as_control_affine, preset
from obsv_lab.obsv import (
    CLASS_APERIODIC,
    CLASS_PERIODIC,
    CLASS_UNDETERMINED,
    PER_TOL_DEFAULT,
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
    rank_condition_value,
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
                generic = evaluate_word(ca, word_lflg(i, k), state, l_max=2 * k + 1)
                assert closed == pytest.approx(generic, rel=1e-10, abs=1e-10)
                closed_g = cascade_lglflg(sys, i, k, state)
                generic_g = evaluate_word(ca, word_lglflg(i, k), state, l_max=2 * k + 1)
                assert closed_g == pytest.approx(generic_g, rel=1e-10, abs=1e-10)


def test_block_index_validation():
    sys = cascade_1d("sin(x)")
    with pytest.raises(ValueError):
        cascade_lflg(sys, 2, 0, (0.0, 0.0))


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


def test_detect_period_reports_residual_below_tol():
    v = detect_period(ex.parse("sin(x)", {"x"}))
    accepted = [c for c in v.evidence["candidates"] if c["period"] == v.period]
    assert accepted and accepted[-1]["residual"] <= PER_TOL_DEFAULT


def test_detect_period_constant_gain():
    v = detect_period(ex.parse("2", ()))
    assert v.classification == CLASS_PERIODIC
    assert v.period is None
    assert v.evidence.get("constant") is True


def test_detect_period_gaussian_is_aperiodic():
    v = detect_period(ex.parse("exp(-x^2)", {"x"}))
    assert v.classification == CLASS_APERIODIC
    assert "probe" in v.evidence
    assert v.evidence["probe"]["k"] <= 12


def test_detect_period_drifting_sine_is_aperiodic():
    v = detect_period(ex.parse("sin(x) + 0.1*x", {"x"}))
    assert v.classification == CLASS_APERIODIC
    # the sinusoidal part seeds candidates near 2*pi that the drift falsifies
    assert v.evidence["candidates"], "expected falsified candidates in evidence"
    assert v.evidence["probe"]["k"] <= 1


def test_detect_period_linear_gain_is_aperiodic():
    v = detect_period(ex.parse("0.3*x", {"x"}))
    assert v.classification == CLASS_APERIODIC


def test_detect_period_rejects_bad_window():
    with pytest.raises(ValueError):
        detect_period(ex.parse("sin(x)", {"x"}), window=(2.0, 2.0))
    with pytest.raises(ValueError):
        detect_period(ex.parse("sin(x)", {"x"}), grid=10)


def test_detect_period_domain_error_propagates():
    with pytest.raises(ex.DomainError):
        detect_period(ex.parse("ln(x)", {"x"}), window=(-1.0, 1.0), grid=64)


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
        g0 = evaluate_word(ca, w, s0, l_max=len(w.mu))
        g1 = evaluate_word(ca, w, s1, l_max=len(w.mu))
        assert abs(g0 - g1) > SEP_TOL_DEFAULT
        assert g0 == pytest.approx(cert.value0, rel=1e-9, abs=1e-12)
        assert g1 == pytest.approx(cert.value1, rel=1e-9, abs=1e-12)


def test_separation_periodic_shift_is_certified_indistinguishable():
    sys = cascade_1d("sin(x)")
    cert = find_separating_observable(sys, (0.0, 0.5), (TWO_PI, 0.5))
    assert cert.verdict == VERDICT_SHIFT
    assert cert.witness is None
    assert "shifts" in cert.bounds


def test_separation_shifted_position_with_different_velocity_still_splits():
    sys = cascade_1d("sin(x)")
    cert = find_separating_observable(sys, (0.0, 1.0), (TWO_PI, 5.0))
    assert cert.verdict == VERDICT_SEPARATED
    assert cert.witness == word_lflg(1, 1)


def test_separation_flat_jet_reports_bounds_exhausted():
    # all derivatives of x^13 up to order 12 vanish at the origin
    sys = cascade_1d("x^13")
    cert = find_separating_observable(sys, (0.0, 1.0), (0.0, 2.0))
    assert cert.verdict == VERDICT_UNRESOLVED
    assert cert.bounds["k_max"] == 12


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
    cert = find_separating_observable(sys, s0, s1, k_max=3, k_check=3)
    if cert.verdict != VERDICT_SEPARATED:
        return
    ca = as_control_affine(sys)
    w = cert.witness
    for state, value in ((s0, cert.value0), (s1, cert.value1)):
        replayed = evaluate_word(ca, w, state, l_max=len(w.mu))
        assert replayed == pytest.approx(value, rel=1e-9, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["sin", "cos"]),
    a=st.floats(0.5, 3.0),
    periods=st.sampled_from([-2, -1, 1, 2]),
    x=st.floats(-3.0, 3.0),
    z=st.floats(-2.0, 2.0),
)
def test_whole_period_shift_is_indistinguishable_by_construction(kind, a, periods, x, z):
    sys = cascade_1d(f"{kind}({a!r}*x)")
    cert = find_separating_observable(sys, (x, z), (x + periods * TWO_PI / a, z))
    assert cert.verdict == VERDICT_SHIFT


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


def test_local_rank_hyperbolic_deficient_everywhere():
    rng = random.Random(5)
    sys = preset("fish-1d-hyperbolic")
    for _ in range(20):
        x0 = (rng.uniform(-1.5, 1.5), rng.uniform(-2.0, 2.0))
        report = local_rank(sys, x0)
        assert report.rank <= 1, x0
        assert abs(rank_condition_value(sys.gamma[0], *x0)) < 1e-10


def test_local_rank_agrees_with_analytic_condition():
    rng = random.Random(31)
    for name in ("fish-1d-gauss", "periodic-sin", "fish-1d-hyperbolic"):
        sys = preset(name)
        for _ in range(25):
            x = rng.uniform(-1.5, 1.5)
            z = rng.choice([-1, 1]) * rng.uniform(0.2, 2.0)
            cond = rank_condition_value(sys.gamma[0], x, z)
            report = local_rank(sys, (x, z))
            assert (abs(cond) > 1e-10) == report.locally_observable, (name, x, z)


def test_local_rank_zero_velocity_matches_condition():
    for name in ("fish-1d-gauss", "periodic-sin", "fish-1d-hyperbolic"):
        sys = preset(name)
        report = local_rank(sys, (0.4, 0.0))
        assert not report.locally_observable
        assert rank_condition_value(sys.gamma[0], 0.4, 0.0) == 0.0


def test_local_rank_row_budget():
    report = local_rank(preset("fish-1d-hyperbolic"), (0.0, 1.0), max_words=3)
    assert len(report.words) <= 3


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
    # for sin: 2 cos^2 + sin^2 = 1 + cos^2, scaled by z^2
    g = ex.parse("sin(x)", {"x"})
    x, z = 0.8, 1.5
    expect = z * z * (1.0 + math.cos(x) ** 2)
    assert rank_condition_value(g, x, z) == pytest.approx(expect, rel=1e-12)
