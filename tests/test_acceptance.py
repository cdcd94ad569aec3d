"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in failure reports).  Tolerances here are
the contract; do not loosen them to make a run green.
"""

import json
import math
import random

import pytest
import sympy

import obsv_lab.expr as ex
from obsv_lab.cli import main as cli_main
from obsv_lab.gramian import empirical_gramian
from obsv_lab.lie import ObservableWord, evaluate_word, nested_lie_along_affine
from obsv_lab.model import (
    CascadeSystem,
    as_control_affine,
    linearize_at,
    preset,
)
from obsv_lab.obsv import (
    SEP_TOL_DEFAULT,
    cascade_lflg,
    cascade_lglflg,
    find_separating_observable,
    local_rank,
    word_lflg,
    word_lglflg,
)
from obsv_lab.sim import (
    FeedbackLaw,
    InputSignal,
    indistinguishability_experiment,
    output_feedback_equilibria_check,
)

TWO_PI = 2.0 * math.pi

GAINS = ["sin(x)", "cos(2*x)", "exp(-x^2)", "2 + sin(x) + 0.1*x", "tanh(x)", "1/(x + 3)"]
F_TEMPLATES = [
    "-{d}*z{i}",
    "-{d}*z{i} + 0.4*sin(z{j})",
    "-{d}*z{i} + 0.2*tanh(z{j})",
    "-{d}*z{i} + 0.1*z{j}^2",
]


def random_cascade(rng: random.Random, n: int) -> CascadeSystem:
    gamma = tuple(ex.parse(rng.choice(GAINS), {"x"}) for _ in range(n))
    zs = {f"z{i}" for i in range(1, n + 1)}
    F = tuple(
        ex.parse(
            rng.choice(F_TEMPLATES).format(
                d=round(rng.uniform(0.5, 2.0), 3), i=i, j=rng.randrange(1, n + 1)
            ),
            zs,
        )
        for i in range(1, n + 1)
    )
    b = tuple(rng.choice([-1, 1]) * rng.uniform(0.2, 3.0) for _ in range(n))
    return CascadeSystem(n=n, gamma=gamma, F=F, b=b)


def report(num: int, label: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} {label}{tail}"


def test_criterion_1_closed_form_identities():
    rng = random.Random(1)
    worst = 0.0
    for _ in range(20):
        n = rng.randrange(1, 4)
        sys = random_cascade(rng, n)
        ca = as_control_affine(sys)
        for _ in range(10):
            state = tuple(rng.uniform(-1.5, 1.5) for _ in range(2 * n))
            i = rng.randrange(1, n + 1)
            k = rng.randrange(0, 6)
            for closed, word in (
                (cascade_lflg(sys, i, k, state), word_lflg(i, k)),
                (cascade_lglflg(sys, i, k, state), word_lglflg(i, k)),
            ):
                generic = evaluate_word(ca, word, state)
                worst = max(worst, abs(closed - generic) / (1.0 + abs(generic)))
    report(1, "closed-form-identities", worst <= 1e-8, f"worst rel gap {worst:.2e}")


def test_criterion_2_input_polynomial_expansion():
    rng = random.Random(2)
    worst = 0.0
    for _ in range(20):
        n = rng.randrange(1, 4)
        sys = random_cascade(rng, n)
        ca = as_control_affine(sys)
        state = tuple(rng.uniform(-1.2, 1.2) for _ in range(2 * n))
        j = rng.randrange(1, n + 1)
        depth = rng.randrange(1, 4)
        u_rows = [rng.uniform(-1.0, 1.0) for _ in range(depth)]
        lhs = nested_lie_along_affine(ca, u_rows, j, state)
        rhs = 0.0
        for mu_bits in range(2 ** depth):
            mu = tuple((mu_bits >> p) & 1 for p in range(depth))
            coeff = 1.0
            for pos, pick in enumerate(mu):
                if pick:
                    coeff *= u_rows[depth - 1 - pos]
            rhs += coeff * evaluate_word(ca, ObservableWord(j, mu), state)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    report(2, "input-polynomial-expansion", worst <= 1e-8, f"worst rel gap {worst:.2e}")


def test_criterion_3_period_shift_indistinguishability():
    sys = preset("periodic-sin")
    inputs = [InputSignal.zero(), InputSignal.constant(1.0), InputSignal.sinusoid(1.0, 1.0)]
    full = indistinguishability_experiment(sys, (TWO_PI,), inputs, t_end=10.0, dt=1e-3)
    gap_full = max(r.gap for r in full)
    half = indistinguishability_experiment(
        sys, (math.pi,), [InputSignal.sinusoid(1.0, 1.0)], t_end=10.0, dt=1e-3
    )
    ok = gap_full <= 1e-6 and half[0].gap > 1e-3
    report(
        3,
        "period-shift-indistinguishability",
        ok,
        f"period shift gap {gap_full:.2e}, half shift gap {half[0].gap:.2e}",
    )


def test_criterion_4_separation_certificates():
    rng = random.Random(4)
    checked = 0
    max_order = 0
    for name in ("fish-1d-gauss", "sin-drift"):
        sys = preset(name)
        ca = as_control_affine(sys)
        pairs = []
        while len(pairs) < 40:  # fully random pairs
            s0 = (rng.uniform(-3, 3), rng.uniform(-2, 2))
            s1 = (rng.uniform(-3, 3), rng.uniform(-2, 2))
            if s0 != s1:
                pairs.append((s0, s1))
        while len(pairs) < 50:  # equal positions, velocities differ
            x = rng.uniform(-3, 3)
            za, zb = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if za != zb:
                pairs.append(((x, za), (x, zb)))
        for s0, s1 in pairs:
            cert = find_separating_observable(sys, s0, s1)
            if cert.verdict != "separated":
                report(4, "separation-certificates", False, f"{name} {s0} vs {s1}: {cert.verdict}")
            order = cert.witness.mu.count(0)
            max_order = max(max_order, order)
            if order > 8:
                report(4, "separation-certificates", False, f"witness order {order} > 8")
            v0 = evaluate_word(ca, cert.witness, s0)
            v1 = evaluate_word(ca, cert.witness, s1)
            if abs(v0 - v1) <= SEP_TOL_DEFAULT:
                report(4, "separation-certificates", False, f"witness gap {abs(v0 - v1):.2e} too small")
            checked += 1
    report(4, "separation-certificates", checked == 100, f"{checked} pairs, max witness order {max_order}")


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


def test_criterion_5_rank_vs_analytic_condition():
    rng = random.Random(5)
    disagreements = 0
    deficient_everywhere = True
    for gain_name, always_deficient in (
        ("fish-1d-gauss", False),
        ("periodic-sin", False),
        ("fish-1d-hyperbolic", True),
    ):
        sys = preset(gain_name)
        for trial in range(100):
            x = rng.uniform(-1.5, 1.5)
            # keep |z| off the threshold boundary: either clearly moving or at rest
            z = 0.0 if trial % 5 == 0 else rng.choice([-1, 1]) * rng.uniform(0.2, 2.0)
            cond = _rank_condition(sys.gamma[0], x, z)
            rep = local_rank(sys, (x, z))
            if (abs(cond) > 1e-10) != rep.locally_observable:
                disagreements += 1
            if always_deficient and rep.locally_observable:
                deficient_everywhere = False
    ok = disagreements == 0 and deficient_everywhere
    report(5, "rank-vs-analytic-condition", ok, f"{disagreements} disagreements over 300 states")


def test_criterion_6_linearization_never_observable():
    rng = random.Random(6)
    worst_rank = 0
    for name in ("fish-1d-gauss", "fish-1d-hyperbolic", "periodic-sin", "sin-drift"):
        sys = preset(name)
        gamma = sys.gamma[0]
        count = 0
        while count < 10:
            x_star = rng.uniform(-1.5, 1.5)
            # generic resting points: stay clear of output-blind zeros of the gain
            if abs(ex.evaluate(gamma, {"x": x_star})) < 1e-3:
                continue
            lin = linearize_at(sys, (x_star, 0.0))
            # exact rank of [C; CA] over the rationals the float entries name
            A, C = (sympy.Matrix(M.tolist()).applyfunc(sympy.Rational) for M in (lin.A, lin.C))
            rank = sympy.Matrix.vstack(C, C * A).rank()
            worst_rank = max(worst_rank, rank)
            if rank != 1:
                report(6, "linearization-never-observable", False, f"{name} at {x_star:.3f}: rank {rank}")
            count += 1
    report(6, "linearization-never-observable", worst_rank == 1, "rank 1 at all 40 equilibria")


def test_criterion_7_resting_continuum():
    grid = (-5.0, -1.0, 0.0, 1.0, 5.0)
    worst = 0.0
    for law, q0 in (
        (FeedbackLaw.static("-y1"), ()),
        (FeedbackLaw.parse(1, ("y1",), "-y1 - q1", n_outputs=1), (0.0,)),
    ):
        rep = output_feedback_equilibria_check(preset("fish-1d-gauss"), law, q0, grid)
        worst = max(worst, rep.premise_residual, rep.max_residual)
    report(7, "resting-continuum", worst <= 1e-12, f"max residual {worst:.2e}")


def test_criterion_8_gramian_contrast():
    sys = preset("fish-1d-gauss")
    rest = empirical_gramian(sys, (0.0, 0.0), InputSignal.zero(), t_end=10.0, dt=1e-3)
    active = empirical_gramian(
        sys, (0.0, 0.0), InputSignal.sinusoid(1.0, TWO_PI), t_end=10.0, dt=1e-3
    )
    ok = rest.sigma_min <= 1e-12 and active.sigma_min > 1e-6
    report(
        8,
        "gramian-contrast",
        ok,
        f"rest sigma_min {rest.sigma_min:.2e}, active sigma_min {active.sigma_min:.2e}",
    )


def test_criterion_9_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(["verify", "--seed", "0", "--out", str(a)])
    code_b = cli_main(["verify", "--seed", "0", "--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    passed = json.loads(a.read_text())["report"]["all_passed"]
    ok = code_a == 0 and code_b == 0 and identical and passed
    report(9, "deterministic-reports", ok, "byte-identical verify reports")
