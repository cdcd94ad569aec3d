"""Lie derivatives of output maps along system vector fields.

An observable word names an iterated Lie derivative of one output: the word
(j, mu) with mu = (mu_1, ..., mu_k) applies field mu_1 first (innermost),
then mu_2, and so on; index 0 is the drift field, index i >= 1 the i-th
input field.  Words evaluated at a state are exactly the quantities an
observer can reconstruct from output derivatives under piecewise-constant
inputs, which is why they drive the separation and rank machinery in
:mod:`obsv_lab.obsv`.
"""

from __future__ import annotations

from itertools import product

from . import expr as ex
from .expr import Expr
from .model import ControlAffineSystem
from .record import Frozen

L_MAX_DEFAULT = 8


class WordLengthError(ValueError):
    pass


class ObservableWord(Frozen):
    __slots__ = ("j", "mu")
    j: int                # output index, 1-based
    mu: tuple[int, ...]   # field indices, innermost first; 0 = drift

    def __init__(self, j: int, mu):
        mu = tuple(int(v) for v in mu)
        if j < 1:
            raise ValueError(f"output index must be >= 1, got {j}")
        if any(v < 0 for v in mu):
            raise ValueError(f"field indices must be >= 0: {mu}")
        super().__init__(j, mu)

    def __len__(self) -> int:
        return len(self.mu)


def lie_derivative(alpha: Expr, field, var_names) -> Expr:
    """Directional derivative of alpha along the vector field, grad(alpha) . field."""
    field = tuple(field)
    var_names = tuple(var_names)
    if len(field) != len(var_names):
        raise ValueError(
            f"field has {len(field)} components for {len(var_names)} variables"
        )
    acc = ex.const(0.0)
    for comp, name in zip(field, var_names):
        acc = ex.add(acc, ex.mul(ex.diff(alpha, name), comp))
    return acc


def _check_word(sys: ControlAffineSystem, word: ObservableWord, l_max: int) -> None:
    if len(word.mu) > l_max:
        raise WordLengthError(f"word length {len(word.mu)} exceeds cap {l_max}")
    if word.j > sys.p:
        raise ValueError(f"output index {word.j} out of range for p = {sys.p}")
    if any(v > sys.m for v in word.mu):
        raise ValueError(f"field index out of range for m = {sys.m}: {word.mu}")


def _field(sys: ControlAffineSystem, idx: int):
    return sys.drift if idx == 0 else sys.input_fields[idx - 1]


def iterated_observable(
    sys: ControlAffineSystem,
    word: ObservableWord,
    l_max: int = L_MAX_DEFAULT,
) -> Expr:
    """Symbolic expression for the iterated Lie derivative named by ``word``."""
    _check_word(sys, word, l_max)
    current = sys.outputs[word.j - 1]
    for idx in word.mu:
        current = lie_derivative(current, _field(sys, idx), sys.state_vars)
    return current


def evaluate_word(
    sys: ControlAffineSystem,
    word: ObservableWord,
    state,
    l_max: int = L_MAX_DEFAULT,
) -> float:
    e = iterated_observable(sys, word, l_max=l_max)
    env = dict(zip(sys.state_vars, (float(v) for v in state)))
    return ex.evaluate(e, env)


def nested_lie_along_affine(
    sys: ControlAffineSystem,
    u_seq,
    j: int,
    x0,
    l_max: int = L_MAX_DEFAULT,
) -> float:
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
    if len(u_rows) > l_max:
        raise WordLengthError(f"composition depth {len(u_rows)} exceeds cap {l_max}")
    if not 1 <= j <= sys.p:
        raise ValueError(f"output index {j} out of range for p = {sys.p}")

    def affine_field(row):
        comps = []
        for i in range(sys.dim):
            c = sys.drift[i]
            for l, ui in enumerate(row):
                c = ex.add(c, ex.mul(ex.const(ui), sys.input_fields[l][i]))
            comps.append(c)
        return tuple(comps)

    current = sys.outputs[j - 1]
    for row in reversed(u_rows):
        current = lie_derivative(current, affine_field(row), sys.state_vars)
    env = dict(zip(sys.state_vars, (float(v) for v in x0)))
    return ex.evaluate(current, env)


def enumerate_words(p: int, m: int, max_len: int):
    """Yield words breadth first: length ascending, output index ascending,
    then lexicographically with the drift index 0 before the input indices."""
    for length in range(max_len + 1):
        for j in range(1, p + 1):
            for mu in product(range(m + 1), repeat=length):
                yield ObservableWord(j=j, mu=mu)
