"""Lie derivatives of output maps along system vector fields.

An observable word names an iterated Lie derivative of one output: the word
(j, mu) with mu = (mu_1, ..., mu_k) applies field mu_1 first (innermost),
then mu_2, and so on; index 0 is the drift field, index i >= 1 the i-th
input field.  Words evaluated at a state are exactly the quantities an
observer can reconstruct from output derivatives under piecewise-constant
inputs, which is why they drive the separation and rank machinery in
:mod:`obsv_lab.obsv`.

A word is a number at a state, from Taylor arithmetic, never a
differentiated tree (README, "Derivatives").  A word whose k letters are
all one field is k! times order k of an ``expr.Jet`` along that field.  Any
other word is the eps_1...eps_k coefficient of h(x), where x starts at the
state and each letter, outermost first, moves it by eps_i * X_i(x), with
every eps_i^2 = 0.  A one-field word of k letters costs O(k^2) and needs no
bound; one that changes field costs 3^k per product, so ``EPS_LETTERS_MAX``
is the one bound on a word's length.
"""

from __future__ import annotations

import functools

from . import expr as ex
from .model import ControlAffineSystem
from .record import Frozen

EPS_LETTERS_MAX = 12  # a word that changes field: 2^k coefficients, 3^k pairs per product


class WordLengthError(ValueError):
    pass


class ObservableWord(Frozen):
    __slots__ = ("j", "mu")
    j: int                # output index, 1-based
    mu: tuple[int, ...]   # field indices, innermost first; 0 = drift

    def __init__(self, j: int, mu):
        mu = tuple(map(int, mu))
        if j < 1:
            raise ValueError(f"output index must be >= 1, got {j}")
        if min(mu, default=0) < 0:
            raise ValueError(f"field indices must be >= 0: {mu}")
        super().__init__(j, mu)

    def __len__(self) -> int:
        return len(self.mu)


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
    if len(x0) != sys.dim:
        raise ValueError(f"state has {len(x0)} entries, expected {sys.dim}")
    if not fields:
        return ex.evaluate(h, dict(zip(sys.state_vars, x0)))
    k = len(fields)
    if all(f is fields[0] for f in fields):
        return ex.Jet((h,), sys.state_vars, x0, field=fields[0]).derivative(0, k)
    if k > EPS_LETTERS_MAX:
        raise WordLengthError(f"word length {k} exceeds {EPS_LETTERS_MAX}, the bound on "
                              f"a word that changes field")
    import numpy as np

    xs = {name: np.array([v]) for name, v in zip(sys.state_vars, x0)}
    with np.errstate(over="ignore", invalid="ignore"):
        for n, field in enumerate(reversed(fields)):
            moves = [_eps(c, xs, n) for c in field]
            xs = {name: np.concatenate((xs[name], d)) for name, d in zip(sys.state_vars, moves)}
        v = float(_eps(h, xs, k)[-1])
    if not np.isfinite(v):
        raise ex.DomainError("non-finite word value", h)
    return v


# ---------------------------------------------------------------------------
# The eps tables.  A value over n letters holds 2^n coefficients, bit i of
# an index marking eps_(i+1).  Order 0 of every node passes expr's checks,
# so a domain fault names the subexpression that ``expr.evaluate`` names.
# These helpers import numpy where they first need it, so that a command that
# evaluates no word changing field never loads it.


@functools.cache  # one table per letter count: 13 MB with every table up to 12 letters
def _pairs(n: int):
    """The pairs (T, S \\ T) of disjoint subsets of n bits, grouped by their
    union S in increasing order, and the index at which each group starts."""
    import numpy as np

    s = t = np.zeros(1, dtype=np.intp)
    for bit in (1 << i for i in range(n)):
        s, t = np.concatenate((s, s | bit, s | bit)), np.concatenate((t, t, t | bit))
    order = np.argsort(s, kind="stable")
    return t[order], (s ^ t)[order], np.searchsorted(s[order], np.arange(1 << n))


def _mul(a, b, n: int):
    """The product of ``b`` with the table ``a``, or with each row of ``a``."""
    import numpy as np

    t, r, starts = _pairs(n)
    return np.add.reduceat(a[..., t] * b[r], starts, axis=-1)


def _series(e, one_var, a, n: int):
    """f(a) at the node ``e``, for f = ``one_var`` in u, from its Taylor
    coefficients at a_0.  Row j of ``g`` is f^(j)/j! at a cut to m letters;
    letter m + 1 adds eps * v, and f^(j)(w + eps*v) = f^(j)(w) + eps*f^(j+1)(w)*v."""
    import numpy as np

    try:
        c = ex.jet(one_var, "u", float(a[0]), n)
    except ex.DomainError as err:
        raise ex.DomainError(err.reason, e) from None
    g = np.array(c)[:, None]
    for m in range(n):
        hi = _mul(np.arange(1, n - m + 1)[:, None] * g[1:], a[1 << m:2 << m], m)
        g = np.concatenate((g[:-1], hi), axis=1)
    return g[0]


def _eps(e, xs: dict, n: int):
    """The table of ``e`` at the state ``xs``, n letters in."""
    t = type(e)
    if t is ex.Const:
        import numpy as np

        return np.concatenate(([e.value], np.zeros((1 << n) - 1)))
    if t is ex.Var:
        if e.name not in xs:
            raise ex.DomainError(f"unbound variable '{e.name}'", e)
        return xs[e.name]
    args = [_eps(a, xs, n) for a in ex.children(e)]
    ex._checked(e, *(float(a[0]) for a in args))
    if t is ex.Mul or t is ex.Div:
        if type(e.right) is ex.Const:
            return ex._ARITH[t](args[0], e.right.value)
        if t is ex.Div:
            return _mul(args[0], _series(e, ex.Pow(ex.Var("u"), -1), args[1], n), n)
        return e.left.value * args[1] if type(e.left) is ex.Const else _mul(*args, n)
    if t in ex._ARITH:
        return ex._ARITH[t](*args)
    u = ex.Var("u")
    return _series(e, ex.Pow(u, e.exponent) if t is ex.Pow else ex.Func(e.name, u), args[0], n)
