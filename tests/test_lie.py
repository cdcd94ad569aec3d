import itertools
import math
import random
import time

import numpy as np
import pytest
import sympy

import obsv_lab.expr as ex
import obsv_lab.lie as lie
from obsv_lab.cli import _random_system
from obsv_lab.lie import (
    EPS_LETTERS_MAX,
    ObservableWord,
    WordLengthError,
    evaluate_word,
    nested_lie_along_affine,
)
from obsv_lab.model import (
    CascadeSystem,
    ControlAffineSystem,
    as_control_affine,
    load_system,
    preset,
    preset_names,
)
from obsv_lab.obsv import cascade_lflg, word_lflg, word_lglflg


def sin_cascade(b=2.0):
    return as_control_affine(
        CascadeSystem(
            n=1,
            gamma=(ex.parse("sin(x)", {"x"}),),
            F=(ex.parse("-z1", {"z1"}),),
            b=(float(b),),
        )
    )


def system_xz(drift, inputs, output):
    """A control-affine system in the state (x, z), from source text."""
    names = {"x", "z"}
    return ControlAffineSystem(
        state_vars=("x", "z"),
        drift=tuple(ex.parse(s, names) for s in drift),
        input_fields=tuple(tuple(ex.parse(s, names) for s in f) for f in inputs),
        outputs=(ex.parse(output, names),),
    )


# ---------------------------------------------------------------------------
# one-letter words: Lie derivatives


def test_lie_derivative_hand_expansion():
    # sin(x) z along (z, -z): cos(x) z^2 - sin(x) z, equal to 1 at (0, 1)
    ca = system_xz(("z", "-z"), (), "sin(x)*z")
    w = ObservableWord(j=1, mu=(0,))
    assert evaluate_word(ca, w, (0.0, 1.0)) == pytest.approx(1.0, rel=1e-14)
    for x, z in [(0.3, 2.0), (-1.2, 0.5)]:
        expect = math.cos(x) * z * z - math.sin(x) * z
        assert evaluate_word(ca, w, (x, z)) == pytest.approx(expect, rel=1e-13)


def test_lie_derivative_orthogonal_direction_is_zero():
    ca = system_xz(("0", "1"), (("1", "0"),), "x")
    assert evaluate_word(ca, ObservableWord(j=1, mu=(0,)), (0.4, -0.3)) == 0.0
    assert evaluate_word(ca, ObservableWord(j=1, mu=(1, 0)), (0.4, -0.3)) == 0.0


def test_lie_derivative_dimension_mismatch():
    ca = ControlAffineSystem(state_vars=("x", "z"), drift=(ex.const(1.0),), input_fields=(),
                             outputs=(ex.Var("x"),))
    with pytest.raises(ValueError):
        evaluate_word(ca, ObservableWord(j=1, mu=(0,)), (0.0, 0.0))


def test_lie_derivative_linearity_in_field():
    rng = random.Random(11)
    f1, f2 = ("z", "-z"), ("sin(x)", "x*z")
    a, b = 0.7, -1.3
    combo = tuple(f"{a}*({c1}) + {b}*({c2})" for c1, c2 in zip(f1, f2))
    ca = system_xz(combo, (f1, f2), "tanh(x)*z^2")
    for _ in range(10):
        s = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        expect = (a * evaluate_word(ca, ObservableWord(1, (1,)), s)
                  + b * evaluate_word(ca, ObservableWord(1, (2,)), s))
        got = evaluate_word(ca, ObservableWord(1, (0,)), s)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_empty_word_is_the_output():
    ca = sin_cascade()
    state = (0.7, -1.9)
    got = evaluate_word(ca, ObservableWord(j=1, mu=()), state)
    assert got == ex.evaluate(ca.outputs[0], dict(zip(ca.state_vars, state)))


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
    for mu in ((0,), (0, 0), (1, 0), (0, 1)):
        assert evaluate_word(ca, ObservableWord(j=1, mu=mu), (0.8,)) == 0.0
    assert evaluate_word(ca, ObservableWord(j=1, mu=(1,)), (0.8,)) == 1.0


def test_word_length_cap():
    sys_ = CascadeSystem(n=1, gamma=(ex.parse("sin(x)", {"x"}),),
                         F=(ex.parse("-z1", {"z1"}),), b=(2.0,))
    ca = as_control_affine(sys_)
    state = (0.1, 0.2)
    # a word that changes field is bounded by EPS_LETTERS_MAX alone: 10 letters run, 13 do not
    got = evaluate_word(ca, word_lflg(1, 5), state)
    assert got == pytest.approx(cascade_lflg(sys_, 1, 5, state), rel=1e-12)
    with pytest.raises(WordLengthError, match=rf"word length 13 exceeds {EPS_LETTERS_MAX}\b"):
        evaluate_word(ca, word_lglflg(1, 6), state)


def test_word_index_validation():
    ca = sin_cascade()
    with pytest.raises(ValueError):
        evaluate_word(ca, ObservableWord(j=2, mu=()), (0.0, 0.0))
    with pytest.raises(ValueError):
        evaluate_word(ca, ObservableWord(j=1, mu=(2,)), (0.0, 0.0))
    with pytest.raises(ValueError):
        ObservableWord(j=0, mu=())
    # a state of the wrong length, on each path: value, one field, eps table
    for mu in ((), (0,), (1, 0)):
        for state in ((0.0,), (0.0, 0.0, 9.0)):
            with pytest.raises(ValueError, match="state has"):
                evaluate_word(ca, ObservableWord(j=1, mu=mu), state)


# ---------------------------------------------------------------------------
# the bound on words that change field


def test_a_long_word_that_changes_field_is_refused_at_once():
    ca = ControlAffineSystem(
        state_vars=("x1",),
        drift=(ex.parse("-x1", {"x1"}),),
        input_fields=((ex.const(1.0),),),
        outputs=(ex.Var("x1"),),
    )
    t0 = time.perf_counter()
    with pytest.raises(WordLengthError, match=rf"word length 40 exceeds {EPS_LETTERS_MAX}\b"):
        evaluate_word(ca, ObservableWord(1, (1, 0) * 20), (0.5,))
    with pytest.raises(WordLengthError, match=r"word length 40 exceeds"):
        nested_lie_along_affine(ca, [0.0, 1.0] * 20, 1, (0.5,))
    assert time.perf_counter() - t0 < 0.1
    # a one-field word of the same length runs on the flow's jet: (-1)^40 x1
    assert evaluate_word(ca, ObservableWord(1, (0,) * 40), (0.5,)) == pytest.approx(0.5, rel=1e-13)
    assert nested_lie_along_affine(ca, [0.0] * 40, 1, (0.5,)) == pytest.approx(0.5, rel=1e-13)
    # the longest words of the closed-form acceptance test stay within the bound
    assert len(word_lglflg(1, 5)) <= EPS_LETTERS_MAX


# ---------------------------------------------------------------------------
# oracle: Lie derivatives taken by sympy on the source text


def _sym(src, names):
    # decimals become exact rationals, so that every operation of the
    # evaluation below runs at the precision of the state's 30-digit floats
    return sympy.sympify(src.replace("^", "**").replace("ln(", "log("), locals=names,
                         rational=True)


class SymSystem:
    """The cascade with gains ``gains``, couplings ``fs`` and input gains
    ``b``, built by sympy from source text in the state order of
    ``as_control_affine``."""

    def __init__(self, gains, fs, b):
        n = len(gains)
        xs = sympy.symbols(f"x1:{n + 1}")
        zs = sympy.symbols(f"z1:{n + 1}")
        znames = {f"z{i + 1}": zs[i] for i in range(n)}
        self.state = xs + zs
        self.outputs = [_sym(g, {"x": xs[i]}) * zs[i] for i, g in enumerate(gains)]
        self.fields = [list(zs) + [_sym(f, znames) for f in fs],
                       [0] * n + [sympy.Rational(v) for v in b]]
        self.case = as_control_affine(CascadeSystem(
            n=n, gamma=tuple(ex.parse(g, {"x"}) for g in gains),
            F=tuple(ex.parse(f, set(znames)) for f in fs), b=tuple(b)))
        self._words = {}

    def lie(self, h, field):
        return sum(sympy.diff(h, v) * f for v, f in zip(self.state, field))

    def word(self, j, mu):
        """The Lie derivative of output j named by mu, innermost first."""
        key = (j, tuple(mu))
        if key not in self._words:
            h = self.outputs[j - 1] if not mu else self.lie(self.word(j, mu[:-1]), self.fields[mu[-1]])
            self._words[key] = h
        return self._words[key]

    def value(self, h, point):
        return float(h.xreplace({v: sympy.Float(p, 30) for v, p in zip(self.state, point)}))


def _gap(got, want):
    return abs(got - want) / max(1.0, abs(want))


def preset_sources():
    texts = {"fish-1d-gauss": "exp(-x^2)", "fish-1d-hyperbolic": "1/(x+2)",
             "periodic-sin": "sin(x)", "sin-drift": "2 + sin(x) + 0.1*x"}
    assert set(texts) == set(preset_names())
    for name, g in texts.items():
        ss = SymSystem([g], ["-z1"], [1.0])
        assert ss.case == as_control_affine(preset(name))
        yield ss


# with the presets' gains, every catalog function and a negative power
GAINS = ["cos(2*x)", "tan(0.3*x)", "ln(x + 3)", "sqrt(x + 4)", "tanh(x)*x^2", "(x - 4)^-2"]
COUPLINGS = ["0.1*sin(z{j})", "0.2*tanh(z{j})", "0.1*sin(z{j})*tanh(z{k})"]


def random_sym_cascade(rng, gains):
    n = len(gains)
    fs = [f"-{round(rng.uniform(0.5, 2.0), 3)}*z{i} + "
          + rng.choice(COUPLINGS).format(j=rng.randrange(1, n + 1), k=rng.randrange(1, n + 1))
          for i in range(1, n + 1)]
    b = [rng.choice([-1, 1]) * round(rng.uniform(0.3, 2.0), 3) for _ in range(n)]
    return SymSystem(gains, fs, b)


def test_every_short_word_matches_sympy():
    rng = random.Random(16)
    gains = rng.sample(GAINS, len(GAINS))
    systems = list(preset_sources()) + [random_sym_cascade(rng, gains[a:b])
                                        for a, b in ((0, 1), (1, 3), (3, 6))]
    worst = 0.0
    for ss in systems:
        point = tuple(rng.uniform(-1.2, 1.2) for _ in ss.state)
        for j in range(1, len(ss.outputs) + 1):
            for length in range(5):
                for mu in itertools.product((0, 1), repeat=length):
                    got = evaluate_word(ss.case, ObservableWord(j, mu), point)
                    worst = max(worst, _gap(got, ss.value(ss.word(j, mu), point)))
    assert worst <= 1e-12


def test_words_through_constant_right_factors_match_sympy():
    # F reads z1 through a quotient and a product whose right operand is a
    # constant, so the eps tables of F scale by that constant, in the words
    # that change field
    ss = SymSystem(["sin(x)"], ["z1/2 + sin(z1)*0.3"], [1.0])
    f = ss.case.drift[1]
    assert (type(f.left), type(f.left.right)) == (ex.Div, ex.Const)
    assert (type(f.right), type(f.right.right)) == (ex.Mul, ex.Const)
    worst = 0.0
    for point in ((0.4, -0.7), (-1.1, 0.9)):
        for mu in ((1, 0), (1, 0, 0), (0, 1, 0), (1, 0, 1, 0)):
            got = evaluate_word(ss.case, ObservableWord(1, mu), point)
            worst = max(worst, _gap(got, ss.value(ss.word(1, mu), point)))
    assert worst <= 1e-12


def test_verify_words_and_nested_compositions_match_sympy():
    # systems drawn as `obsv-lab verify` draws them, with its words and compositions
    rng = random.Random(0)
    worst = 0.0
    for _ in range(3):
        n = rng.randrange(1, 3)
        sys_ = _random_system(rng, n)
        ss = SymSystem([ex.format_expr(g) for g in sys_.gamma],
                       [ex.format_expr(f) for f in sys_.F], sys_.b)
        point = tuple(rng.uniform(-1.5, 1.5) for _ in ss.state)
        i = rng.randrange(1, n + 1)
        for k in range(4):
            for w in (word_lflg(i, k), word_lglflg(i, k)):
                got = evaluate_word(ss.case, w, point)
                worst = max(worst, _gap(got, ss.value(ss.word(w.j, w.mu), point)))
        for depth in range(4):
            u = [rng.uniform(-1.0, 1.0) for _ in range(depth)]
            # innermost first: the last entry of u is applied first
            h = ss.outputs[i - 1]
            for ul in reversed(u):
                h = ss.lie(h, [f + ul * g for f, g in zip(*ss.fields)])
            got = nested_lie_along_affine(ss.case, u, i, point)
            worst = max(worst, _gap(got, ss.value(h, point)))
    assert worst <= 1e-12


def test_words_leave_a_domain_where_evaluate_does():
    sys_ = load_system("n = 1\ngamma[1] = ln(x)\nF[1] = -z1 + 0.5*ln(z1 + 1)\nb = [1]\n")
    ca = as_control_affine(sys_)
    # the output leaves the domain at the first state, the drift at the second;
    # the input field is constant, so (1,) alone never evaluates the drift
    for state, node, words in (((-0.5, 0.3), ca.outputs[0], ((0,), (0, 0), (1,), (1, 0))),
                               ((0.5, -2.0), ca.drift[1], ((0,), (0, 0), (1, 0), (0, 1, 0)))):
        with pytest.raises(ex.DomainError) as want:
            ex.evaluate(node, dict(zip(ca.state_vars, state)))
        for mu in words:
            with pytest.raises(ex.DomainError) as got:
                evaluate_word(ca, ObservableWord(1, mu), state)
            assert str(got.value) == str(want.value)
            assert got.value.subexpr == want.value.subexpr


# ---------------------------------------------------------------------------
# the eps tables, bit for bit: their products add in the order of the numpy
# code they replaced, np.add.reduceat over the pairs (T, S \\ T) of each S


def _reduceat_product(a, b, n):
    """The replaced product: numpy multiplies every pair and adds each S's
    pairs, T in increasing order, with ``np.add.reduceat``; ``a`` may hold
    rows, as ``_series`` once passed them."""
    t, union = [], []
    for s in range(1 << n):
        sub = 0
        while True:  # the subsets of s in increasing order
            t.append(sub)
            union.append(s)
            if sub == s:
                break
            sub = (sub - s) & s
    t, union = np.array(t), np.array(union)
    starts = np.searchsorted(union, np.arange(1 << n))
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.reduceat(np.asarray(a)[..., t] * np.asarray(b)[union ^ t], starts, axis=-1)


def _bits(v):
    return "nan" if math.isnan(v) else v.hex()  # hex tells -0.0 from 0.0


@pytest.mark.parametrize("n", range(1, 13))
def test_products_add_in_the_order_of_np_add_reduceat(n):
    rng = random.Random(n)
    special = (0.0, -0.0, math.inf, -math.inf, math.nan)

    def table(share):
        # finite entries over six decades, so that another order of addition rounds differently
        return [rng.choice(special) if rng.random() < share else rng.uniform(-2.0, 2.0)
                * 10.0 ** rng.randint(-3, 3) for _ in range(1 << n)]

    # finite tables show the order; the second pair, with special entries, how they propagate
    for share in (0.0, 0.2):
        rows, b = [table(share), table(share)], table(share)
        want = _reduceat_product(rows, b, n)
        for row, row_want in zip(rows, want):
            assert list(map(_bits, lie._mul(row, b, n))) == list(map(_bits, row_want.tolist()))
    # signed zeros alone: numpy starts a short sum at -0.0, so -0.0 + -0.0 stays -0.0
    zeros = [-0.0] * (1 << n)
    assert list(map(_bits, lie._mul(zeros, [1.0] * (1 << n), n))) == \
        list(map(_bits, _reduceat_product(zeros, [1.0] * (1 << n), n).tolist()))


# Two systems in (x, z) that use every catalog function, a quotient, a
# quotient by a constant and negative and positive powers, and the bits of
# their mixed words at (0.3, -0.7), recorded from the numpy eps tables.
BITS_SYSTEMS = (
    (("z", "-z/2 + 0.3*sin(z)*cos(x) + 0.1*tan(0.2*x)"), [("0.1*exp(-x^2)", "1/(2 + tanh(z))")],
     "sqrt(x^2 + 4)*ln(x + 3) + (x - 4)^-2*z/(z^2 + 2) + 0.5*x^3"),
    (("z", "-0.5*z + 0.2*x"), [("0", "1"), ("0.3*sin(x)", "cos(z)^2")],
     "exp(-x^2)*z + tanh(x*z)"),
)
BITS_STATE = (0.3, -0.7)
WORD_BITS = [
    (0, (1, 0), "-0x1.b9adc637325c6p-5"),
    (0, (0, 1), "0x1.206db5fca6243p-1"),
    (1, (2, 0), "0x1.690c02b652194p-2"),
    (1, (0, 2), "-0x1.6001e6beb19e4p-1"),
    (0, (0, 1, 0), "-0x1.34d80ce7c95efp-1"),
    (0, (1, 0, 0), "0x1.6710acf904174p-6"),
    (1, (2, 1, 2), "-0x1.457ee522203f8p-3"),
    (1, (1, 0, 0), "-0x1.35a599b4676d0p+0"),
    (0, (1, 0, 0, 1), "-0x1.28471791c8acap-4"),
    (0, (1, 1, 0, 1), "0x1.ed67352e701c1p-8"),
    (1, (0, 0, 1, 1), "0x1.4edf7f0d9d97fp+3"),
    (1, (0, 1, 2, 0), "0x1.2d7c74a422818p+1"),
    (0, (1, 1, 0, 0, 0), "-0x1.9a02c2bbe06a4p-7"),
    (0, (1, 1, 1, 0, 0), "0x1.35166f9830c6cp-6"),
    (1, (2, 2, 1, 2, 2), "-0x1.16c3c435206b3p+3"),
    (1, (0, 0, 1, 0, 2), "-0x1.0c2c9ac406b97p+4"),
    (0, (1, 1, 0, 0, 1, 1), "-0x1.783c9fbc18f76p-3"),
    (0, (0, 0, 1, 1, 1, 0), "0x1.81bd9fdd5e9c3p+1"),
    (1, (2, 1, 0, 2, 1, 1), "0x1.42eb2cd42ead3p+4"),
    (1, (0, 1, 2, 2, 1, 1), "0x1.c6e13314e8d68p+0"),
    (0, (1, 0, 1, 0, 1, 1, 1), "0x1.d4d2383bd20aap-3"),
    (0, (1, 0, 1, 1, 0, 1, 1), "0x1.b5573a248d062p-4"),
    (1, (2, 1, 1, 2, 0, 0, 1), "-0x1.159aadc244a22p+5"),
    (1, (1, 0, 2, 1, 2, 1, 2), "-0x1.82ab7ff1a343cp+3"),
    (0, (0, 0, 0, 1, 1, 0, 1, 1), "0x1.c1b3f63160fe2p+3"),
    (0, (1, 1, 0, 1, 1, 1, 1, 1), "0x1.8a6efc040360cp-1"),
    (1, (0, 2, 1, 0, 1, 2, 0, 0), "0x1.3414a2fbf6a2ep+8"),
    (1, (1, 0, 2, 1, 2, 1, 2, 2), "-0x1.4980896a6e075p+5"),
    (0, (0, 1, 1, 0, 0, 0, 1, 1, 1), "-0x1.14286677a90cbp+4"),
    (1, (1, 0, 2, 1, 0, 2, 1, 1, 2), "0x1.2cf1f20b8c150p+7"),
    (0, (1, 1, 0, 0, 0, 1, 1, 0, 0, 0), "-0x1.2439adecb5fdep+6"),
    (1, (2, 2, 2, 0, 1, 2, 0, 2, 0, 2), "0x1.0b9c1586a94cfp+11"),
    (1, (0, 0, 1, 2, 1, 2, 1, 0, 1, 1, 2), "0x1.31a23784a96c0p+15"),
    (1, (1, 2, 1, 1, 1, 2, 1, 1, 2, 1, 1, 2), "0x1.56466fbfa1ac0p+11"),
]
NESTED_BITS = [
    (0, [0.911, -0.318], "0x1.59913a0eb81d6p+0"),
    (1, [(-0.827, -0.878), (-0.49, 0.104)], "0x1.69cc932299dacp+0"),
    (0, [-0.094, -0.642, -0.738], "-0x1.3dfb5152c1d45p+0"),
    (1, [(0.368, -0.776), (0.343, -0.85), (-0.111, -0.17)], "-0x1.32b6df1ed2f56p-2"),
    (0, [-0.16, -0.076, -0.738, -0.449], "-0x1.d9e252242acacp-4"),
    (1, [(0.169, -0.406), (0.867, -0.184), (0.693, 0.524), (0.836, 0.448)],
     "0x1.2ddfa06706af3p+4"),
    (0, [0.483, -0.316, -0.273, -0.443, 0.868], "-0x1.ca325b68a83d1p+0"),
    (1, [(-0.474, -0.83), (0.331, -0.082), (-0.713, 0.29), (0.789, 0.551), (-0.064, -0.64)],
     "0x1.231d0989954f7p+4"),
    (0, [-0.186, -0.075, -0.013, -0.216, -0.71, -0.205], "0x1.44e26cf5d9667p+2"),
    (1, [(0.338, 0.507), (0.242, -0.759), (-0.528, 0.443), (0.27, 0.343), (-0.438, 0.759),
     (0.553, -0.03)], "-0x1.8b8c744430b14p+3"),
    (0, [-0.927, -0.875, -0.801, 0.73, 0.203, 0.733, 0.887], "-0x1.6623c33fa0bdcp-1"),
    (1, [(-0.628, -0.521), (0.836, 0.706), (0.381, -0.305), (-0.567, 0.628), (0.552, -0.248),
     (0.835, 0.42), (-0.855, 0.117)], "-0x1.67fd62948f6e0p+6"),
    (0, [-0.064, -0.842, 0.384, -0.691, -0.288, -0.046, -0.159, 0.352], "-0x1.0b60b5d0428b6p-1"),
    (1, [(-0.718, -0.496), (-0.753, -0.024), (-0.11, -0.451), (-0.813, -0.752), (0.511, 0.162),
     (0.605, -0.775), (0.905, 0.378), (0.154, 0.655)], "-0x1.88f85f7d0aa0ep+9"),
    (0, [-0.881, -0.038, 0.96, 0.067, 0.242, 0.034, 0.183, -0.203, -0.472],
     "0x1.11da6a799347dp+8"),
    (1, [(0.797, 0.297), (0.079, -0.789), (-0.853, -0.4), (-0.032, -0.02), (-0.973, 0.167),
     (-0.292, -0.213), (-0.824, 0.555), (0.604, 0.494), (-0.774, -0.959)],
     "0x1.41cdac2cf174bp+10"),
    (0, [-0.071, -0.461, 0.922, -0.628, 0.061, -0.556, -0.152, -0.598, -0.551, 0.486],
     "-0x1.53571b138e092p+7"),
    (1, [(-0.503, 0.868), (0.387, -0.756), (-0.998, -0.269), (0.308, -0.339), (-0.247, 0.507),
     (-0.501, -0.921), (-0.149, -0.296), (0.302, -0.793), (0.703, 0.968), (0.495, 0.03)],
     "0x1.27b79e5743c8dp+16"),
    (1, [(-0.303, 0.125), (0.359, 0.519), (0.953, -0.192), (-0.678, 0.471), (0.657, -0.687),
     (0.817, 0.377), (-0.555, -0.642), (-0.725, -0.652), (0.229, 0.17), (0.985, -0.231),
     (0.821, 0.36)], "0x1.7fa77e30e2465p+20"),
    (1, [(0.14, -0.637), (0.671, -0.556), (0.384, 0.056), (-0.465, -0.222), (-0.472, 0.362),
     (0.303, -0.684), (-0.839, 0.462), (0.649, 0.506), (0.622, 0.432), (0.964, 0.195),
     (0.027, -0.14), (0.812, 0.468)], "0x1.71ef718c93fa4p+23"),
]


def test_mixed_words_keep_the_bits_of_the_numpy_tables():
    systems = [system_xz(*spec) for spec in BITS_SYSTEMS]
    assert sorted({len(mu) for _, mu, _ in WORD_BITS}) == list(range(2, 13))
    assert sorted({len(u) for _, u, _ in NESTED_BITS}) == list(range(2, 13))
    for s, mu, bits in WORD_BITS:
        assert evaluate_word(systems[s], ObservableWord(1, mu), BITS_STATE).hex() == bits, mu
    for s, u, bits in NESTED_BITS:
        assert nested_lie_along_affine(systems[s], u, 1, BITS_STATE).hex() == bits, u


# ---------------------------------------------------------------------------
# scale: words cost time polynomial in the tree


def test_words_up_to_length_8_are_fast():
    ca = as_control_affine(preset("fish-1d-gauss"))
    t0 = time.perf_counter()
    count = 0
    for length in range(9):
        for mu in itertools.product((0, 1), repeat=length):
            assert math.isfinite(evaluate_word(ca, ObservableWord(1, mu), (0.3, -0.7)))
            count += 1
    assert count == 511 and time.perf_counter() - t0 < 10.0
    ca3 = as_control_affine(load_system(
        "n = 3\ngamma[1] = sin(1.3*x)\ngamma[2] = exp(-0.7*x^2)\ngamma[3] = tanh(0.5*x)\n"
        "F[1] = -z1 + 0.1*sin(z2)\nF[2] = -z2 + 0.1*sin(z3)\nF[3] = -z3 + 0.1*sin(z1)\n"
        "b = [1, 1, 1]\n"))
    t0 = time.perf_counter()
    evaluate_word(ca3, ObservableWord(2, (0,) * 8), (0.3, -0.2, 0.5, 0.7, -0.4, 0.9))
    assert time.perf_counter() - t0 < 1.0


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
    x0 = (-0.2, 0.8, 1.3, 0.5)
    # 9 equal rows are one field: a one-field word, however long
    got = nested_lie_along_affine(ca, [0.0] * 9, j=1, x0=x0)
    assert got == pytest.approx(evaluate_word(ca, ObservableWord(1, (0,) * 9), x0), rel=1e-12)
    # distinct rows change field, so past EPS_LETTERS_MAX of them is refused
    with pytest.raises(WordLengthError, match="word length 13 exceeds"):
        nested_lie_along_affine(ca, [0.1 * r for r in range(13)], j=1, x0=x0)
    with pytest.raises(ValueError):
        nested_lie_along_affine(ca, [0.0], j=3, x0=(0,) * 4)
    with pytest.raises(ValueError):
        nested_lie_along_affine(ca, [(0.0, 1.0)], j=1, x0=(0,) * 4)
