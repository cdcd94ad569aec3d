"""Lie derivatives of output maps along system vector fields.

An observable word (``model.ObservableWord``) names an iterated Lie
derivative of one output: the word (j, mu) with mu = (mu_1, ..., mu_k)
applies field mu_1 first (innermost), then mu_2, and so on; index 0 is the
drift field, index i >= 1 the i-th input field.  Words evaluated at a
state are exactly the quantities an observer can reconstruct from output
derivatives under piecewise-constant inputs, which is why they drive the
separation and rank machinery in :mod:`obsv_lab.obsv`.

A word is a number at a state, from Taylor arithmetic, never a
differentiated tree (README, "Derivatives").  A word whose k letters are
all one field is k! times order k of an ``expr.Jet`` along that field.  Any
other word is the eps_1...eps_k coefficient of h(x), where x starts at the
state and each letter, outermost first, moves it by eps_i * X_i(x), with
every eps_i^2 = 0.  Its tables are plain lists of floats, whose products
add their terms in the order numpy's ``reduceat`` added them when the tables
were arrays, so a word's bits did not change when numpy left this module; it
imports none.  A one-field word of k letters costs O(k^2) and needs no bound;
one that changes field costs 3^k per product, so ``EPS_LETTERS_MAX`` is the
one bound on a word's length.
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import repeat
from operator import add, itemgetter, mul, xor

from . import expr as ex
from .model import ControlAffineSystem, ObservableWord, state_of

EPS_LETTERS_MAX = 12  # a word that changes field: 2^k coefficients, 3^k pairs per product


class WordLengthError(ValueError):
    pass


def evaluate_word(sys: ControlAffineSystem, word: ObservableWord, state) -> float:
    """The value of ``word`` at ``state``.  A word that changes field and
    has more than ``EPS_LETTERS_MAX`` letters raises WordLengthError."""
    if word.j > sys.p:
        raise ValueError(f"output index {word.j} out of range for p = {sys.p}")
    if any(v > sys.m for v in word.mu):
        raise ValueError(f"field index out of range for m = {sys.m}: {word.mu}")
    fields = [sys.drift if v == 0 else sys.input_fields[v - 1] for v in word.mu]
    return _word_value(sys, sys.outputs[word.j - 1], fields, state)


def nested_lie_along_affine(sys: ControlAffineSystem, u_seq, j: int, x0) -> float:
    """Iterated Lie derivative of output j along k affine fields, at x0.

    Entry l of ``u_seq`` fixes the input values of the l-th field
    X_l = drift + sum_i u[i] * input_i; the last field is applied first
    (innermost), matching the time order of a piecewise-constant input.
    For m = 1 the entries may be bare floats.
    """
    u_rows = []
    for u in u_seq:
        row = (float(u),) if not hasattr(u, "__len__") else tuple(float(v) for v in u)
        if len(row) != sys.m:
            raise ValueError(f"input value {row} has wrong arity for m = {sys.m}")
        u_rows.append(row)
    if not 1 <= j <= sys.p:
        raise ValueError(f"output index {j} out of range for p = {sys.p}")

    affine = {}  # one field per distinct row, so that equal rows are one field
    for row in u_rows:
        field = sys.drift
        for ui, g in zip(row, sys.input_fields):
            field = tuple(ex.add(c, ex.mul(ex.const(ui), gi)) for c, gi in zip(field, g))
        affine.setdefault(row, field)
    return _word_value(sys, sys.outputs[j - 1], [affine[row] for row in reversed(u_rows)], x0)


def _word_value(sys: ControlAffineSystem, h, fields, x0) -> float:
    """h differentiated along ``fields[0]``, then ``fields[1]``, ..., at x0."""
    sys, x0 = state_of(sys, x0)
    if not fields:
        return ex.evaluate(h, dict(zip(sys.state_vars, x0)))
    k = len(fields)
    if all(f is fields[0] for f in fields):
        return ex.Jet((h,), sys.state_vars, x0, field=fields[0]).derivative(0, k)
    if k > EPS_LETTERS_MAX:
        raise WordLengthError(f"word length {k} exceeds {EPS_LETTERS_MAX}, the bound on "
                              f"a word that changes field")
    xs = {name: [v] for name, v in zip(sys.state_vars, x0)}
    for n, field in enumerate(reversed(fields)):
        moves = [_eps(c, xs, n) for c in field]
        xs = {name: xs[name] + d for name, d in zip(sys.state_vars, moves)}
    v = _eps(h, xs, k)[-1]
    if not math.isfinite(v):
        raise ex.DomainError("non-finite word value", h)
    return v


# ---------------------------------------------------------------------------
# The eps tables.  A value over n letters is a list of 2^n floats, bit i of
# an index marking eps_(i+1).  Order 0 of every node passes expr's checks,
# so a domain fault names the subexpression that ``expr.evaluate`` names.
# Coefficient S of a product is a sum over the pairs (T, S \ T); it adds
# them in the order numpy's ``np.add.reduceat`` added them when the tables
# were arrays, so that every word keeps the bits it had then: the first
# product plus numpy's pairwise sum of the rest (``_pairwise``).  Nothing
# here imports numpy.


@functools.cache  # one plan per letter count: 6.8 MB with every plan up to 12 letters
def _pairs(n: int) -> list:
    """The pairs (T, S \\ T) of disjoint subsets of n bits, for each size
    c >= 1 of their union S: the sets S of c bits in increasing order, the
    number 2^c of pairs per set, and two flat index arrays, T and S \\ T,
    that list the sets' i-th pairs together for i = 0, 1, ..., with T in
    increasing order within each set."""
    plan = []
    for c in range(1, n + 1):
        sets = [s for s in range(1 << n) if s.bit_count() == c]
        subsets = [array("i", [0]) * len(sets)]
        for bit in zip(*([1 << i for i in range(n) if s >> i & 1] for s in sets)):
            # column i + 2^k is column i plus each set's k-th lowest bit
            subsets += [array("i", map(add, t, bit)) for t in subsets]
        t, r = array("i"), array("i")
        for column in subsets:
            t += column
            r += array("i", map(xor, sets, column))
        plan.append((sets, len(subsets), t, r))
    return plan


def _pairwise(terms: list, g: int, lo: int, n: int) -> list:
    """Columns lo to lo + n - 1 of ``terms``, column i being
    ``terms[i*g:(i+1)*g]``, added entry by entry in the order of numpy's
    pairwise sum: one after another below 8 columns (numpy starts from -0.0,
    and -0.0 + x is x), in 8 accumulators up to 128, and split in two at a
    multiple of 8 above that.  The 8 accumulators are 8 adjacent columns, so
    one ``map`` adds the next 8 to all of them."""
    if n < 8:
        total = terms[lo * g:(lo + 1) * g]
        for k in range((lo + 1) * g, (lo + n) * g, g):
            total = map(add, total, terms[k:k + g])
        return list(total)
    if n <= 128:
        w, start, stop = 8 * g, lo * g, (lo + n - n % 8) * g
        acc = terms[start:start + w]
        for k in range(start + w, stop, w):
            acc = list(map(add, acc, terms[k:k + w]))
        r0, r1, r2, r3, r4, r5, r6, r7 = (acc[j:j + g] for j in range(0, w, g))
        total = map(add, map(add, map(add, r0, r1), map(add, r2, r3)),
                    map(add, map(add, r4, r5), map(add, r6, r7)))
        for k in range(stop, (lo + n) * g, g):
            total = map(add, total, terms[k:k + g])
        return list(total)
    half = n // 2 - n // 2 % 8
    return list(map(add, _pairwise(terms, g, lo, half), _pairwise(terms, g, lo + half, n - half)))


def _mul(a: list, b: list, n: int) -> list:
    """The product of the tables ``a`` and ``b`` over n letters."""
    out = [a[0] * b[0]] * (1 << n)  # S = {} has this one pair; the loop sets every other S
    for sets, width, t, r in _pairs(n):
        g = len(sets)
        terms = list(map(mul, itemgetter(*t)(a), itemgetter(*r)(b)))
        for s, v in zip(sets, map(add, terms[:g], _pairwise(terms, g, 1, width - 1))):
            out[s] = v
    return out


def _series(e, one_var, a: list, n: int) -> list:
    """f(a) at the node ``e``, for f = ``one_var`` in u, from its Taylor
    coefficients at a_0.  Row j of ``g`` is f^(j)/j! at a cut to m letters;
    letter m + 1 adds eps * v, and f^(j)(w + eps*v) = f^(j)(w) + eps*f^(j+1)(w)*v."""
    try:
        c = ex.jet(one_var, "u", a[0], n)
    except ex.DomainError as err:
        raise ex.DomainError(err.reason, e) from None
    g = [[x] for x in c]
    for m in range(n):
        v = a[1 << m:2 << m]
        g = [g[j] + _mul([(j + 1) * w for w in g[j + 1]], v, m) for j in range(n - m)]
    return g[0]


def _eps(e, xs: dict, n: int) -> list:
    """The table of ``e`` at the state ``xs``, n letters in."""
    t = type(e)
    if t is ex.Const:
        return [float(e.value)] + [0.0] * ((1 << n) - 1)
    if t is ex.Var:
        if e.name not in xs:
            raise ex.DomainError(f"unbound variable '{e.name}'", e)
        return xs[e.name]
    args = [_eps(a, xs, n) for a in ex.children(e)]
    ex._checked(e, *(a[0] for a in args))
    if t is ex.Mul or t is ex.Div:
        if type(e.right) is ex.Const:
            return list(map(ex._ARITH[t], args[0], repeat(e.right.value)))
        if t is ex.Div:
            return _mul(args[0], _series(e, ex.Pow(ex.Var("u"), -1), args[1], n), n)
        if type(e.left) is ex.Const:
            return list(map(mul, repeat(e.left.value), args[1]))
        return _mul(*args, n)
    if t in ex._ARITH:
        return list(map(ex._ARITH[t], *args))
    u = ex.Var("u")
    return _series(e, ex.Pow(u, e.exponent) if t is ex.Pow else ex.Func(e.name, u), args[0], n)
