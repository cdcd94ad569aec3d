"""Expression trees for scalar functions used in system definitions.

The function catalog is deliberately closed: the functions in ``CATALOG``
(sin, cos, tan, exp, ln, tanh, sqrt), the four rational operations, unary
minus, and integer powers.  A ``CATALOG`` entry holds what this module knows
about its function (value, domain, derivative, Taylor-series rules, source
name, period, parity, tail); ``obsv``'s interval bounds also name functions
(``_EXACT_AT``, and tan and sqrt in ``_bounds``, ``_half_shift``, ``_value``).
Every member is smooth on its domain and the catalog is closed under
differentiation; an integer power runs on the series rules of the product
and the quotient (see ``Jet``).

Every order-0 value comes from ``_checked``, shared by ``evaluate``, the jets,
the folds and ``lie``'s word tables: a result that leaves the reals or is not
finite raises ``DomainError`` at its node, and so does a variable that
``evaluate`` finds bound to inf or nan.  Non-smooth builtins (abs, floor, ...),
non-finite literals, constants that fail to fold, such as ``1/0`` or
``10^400``, and trees deeper than ``MAX_DEPTH`` are rejected at parse time.

Expressions are immutable and the functions here are pure; ``Jet`` objects
hold series that grow as higher orders are asked for.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Callable

from .record import Frozen

# The tree walkers recurse, one Python frame per level, and Python refuses
# source nested in more than 200 parentheses, so parse bounds both.
MAX_DEPTH = 300    # nodes on the longest path from the root to a leaf
MAX_NESTING = 100  # parentheses and function calls open at once

_REJECTED_FUNCS = {"abs", "floor", "ceil", "sign", "min", "max"}
_CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Syntax or symbol error, with the byte offset into the source."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(f"at offset {offset}: expected {expected}, found {found!r}")


class DomainError(ArithmeticError):
    """Evaluation left the reals (log/sqrt argument, division by zero, overflow)."""

    def __init__(self, message: str, subexpr: "Expr"):
        self.reason = message
        self.subexpr = subexpr
        super().__init__(f"{message} in {format_expr(subexpr)}")


class DerivativeOrderError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST


class Expr(Frozen):
    """An immutable tree node; see ``record`` for its construction,
    equality, hash and repr."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_expr(self)


class Const(Expr):
    __slots__ = ("value",)
    value: float


class Var(Expr):
    __slots__ = ("name",)
    name: str


class Neg(Expr):
    __slots__ = ("arg",)
    arg: Expr


class Add(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Sub(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Mul(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Div(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr


class Pow(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: int


class Func(Expr):
    __slots__ = ("name", "arg")
    name: str
    arg: Expr


_ZERO = Const(0.0)
_ONE = Const(1.0)


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


# ---------------------------------------------------------------------------
# Smart constructors.  They fold the cheap identities so that derivative
# trees stay small; anything context-dependent is left alone.


def const(v: float) -> Expr:
    return Const(float(v))


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(Add(a, b), a.value, b.value)
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(Sub(a, b), a.value, b.value)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(Mul(a, b), a.value, b.value)
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return _ZERO
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold(Div(a, b), a.value, b.value)
    return Div(a, b)


def power(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const):
        return _fold(Pow(base, exponent), base.value)
    return Pow(base, exponent)


def func(name: str, arg: Expr) -> Expr:
    if isinstance(arg, Const):
        return _fold(Func(name, arg), arg.value)
    return Func(name, arg)


def _fold(e: Expr, *args: float) -> Expr:
    """The constant value of ``e`` from its operand values ``args``; a fold
    that fails stays symbolic, so the parser or evaluation can name it."""
    try:
        return Const(_checked(e, *args))
    except DomainError:
        return e


# ---------------------------------------------------------------------------
# Parsing.  Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ['-'] atom ['^' integer]
#   atom   := number | ident | func '(' expr ')' | '(' expr ')'
_LEVELS = ({"+": add, "-": sub}, {"*": mul, "/": div})  # expr's and term's operators

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def _tokenize(source: str):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stray = source[pos:].lstrip()
            if not stray:
                break
            offset = len(source) - len(stray)
            raise ParseError(offset, "a token", stray[0])
        kind = m.lastgroup
        text = m.group(kind)
        tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str, allowed_vars: frozenset[str]):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.allowed_vars = allowed_vars
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, expected: str):
        kind, text, offset = self.peek()
        found = text if kind != "end" else "end of input"
        raise ParseError(offset, expected, found)

    def expect_op(self, op: str):
        kind, text, _ = self.peek()
        if kind == "op" and text == op:
            return self.take()
        self.error(f"'{op}'")

    def at_op(self, *ops: str) -> bool:
        kind, text, _ = self.peek()
        return kind == "op" and text in ops

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek()[0] != "end":
            self.error("end of input")
        return e

    def folded(self, node: Expr, start: int) -> Expr:
        """``node``, which must not be a constant that failed to fold (1/0,
        ln(0), 10^400): that is a ParseError at ``start``, caused by the
        DomainError of the fold."""
        args = children(node)
        if args and all(isinstance(a, Const) for a in args):
            try:
                _checked(node, *(a.value for a in args))
            except DomainError as err:
                text = self.source[start:self.peek()[2]].rstrip()
                raise ParseError(start, "a finite number", text) from err
        return node

    def expr(self, level: int = 0) -> Expr:
        """The binary level ``_LEVELS[level]``, its operands left to right."""
        ops = _LEVELS[level]
        start = self.peek()[2]
        node = build = None
        while True:
            rhs = self.expr(level + 1) if level + 1 < len(_LEVELS) else self.factor()
            node = rhs if build is None else self.folded(build(node, rhs), start)
            if not self.at_op(*ops):
                return node
            build = ops[self.take()[1]]

    def factor(self) -> Expr:
        negate = False
        if self.at_op("-"):
            self.take()
            negate = True
        start = self.peek()[2]
        node = self.atom()
        if self.at_op("^"):
            self.take()
            node = self.folded(power(node, self.integer_exponent()), start)
        return neg(node) if negate else node

    def integer_exponent(self) -> int:
        sign = 1
        if self.at_op("-"):
            self.take()
            sign = -1
        kind, text, offset = self.peek()
        if kind != "num" or not text.isdigit():
            self.error("an integer exponent")
        self.take()
        return sign * int(text)

    def atom(self) -> Expr:
        kind, text, offset = self.peek()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(offset, "a finite number", text)
            self.take()
            return Const(value)
        if kind == "ident":
            self.take()
            if text in _CONSTANTS:
                return Const(_CONSTANTS[text])
            if text in CATALOG:
                return self.folded(func(text, self.group()), offset)
            if text in _REJECTED_FUNCS:
                raise ParseError(offset, "a smooth function from the catalog", text)
            if text in self.allowed_vars:
                return Var(text)
            raise ParseError(offset, "a known variable or function", text)
        if kind == "op" and text == "(":
            return self.group()
        self.error("a number, variable, or '('")

    def group(self) -> Expr:
        """'(' expr ')'."""
        offset = self.expect_op("(")[2]
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ParseError(offset, f"at most {MAX_NESTING} nested parentheses", "(")
        e = self.expr()
        self.expect_op(")")
        self.nesting -= 1
        return e


class VarNames(frozenset):
    """Variable names, each checked once on construction: an identifier
    that is no reserved symbol.  ``parse`` takes a ``VarNames`` as it is, so
    the expressions of one system, parsed over the same names, check them
    once and not once per expression."""

    def __new__(cls, names=()):
        checked = super().__new__(cls, names)
        for name in checked:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
            if name in CATALOG or name in _CONSTANTS or name in _REJECTED_FUNCS:
                raise ValueError(f"variable name {name!r} collides with a reserved symbol")
        return checked


def parse(source: str, allowed_vars=()) -> Expr:
    """Parse ``source`` into an Expr whose free variables lie in ``allowed_vars``."""
    allowed = allowed_vars if isinstance(allowed_vars, VarNames) else VarNames(allowed_vars)
    e = _Parser(source, allowed).parse()
    depth = _depth(e)
    if depth > MAX_DEPTH:
        raise ParseError(0, f"an expression at most {MAX_DEPTH} operations deep", f"depth {depth}")
    return e


def _depth(e: Expr) -> int:
    """Nodes on the longest path from ``e`` to a leaf, counted level by
    level rather than by recursion."""
    depth, level = 0, [e]
    while level:
        depth += 1
        level = [c for node in level for c in children(node)]
    return depth


# ---------------------------------------------------------------------------
# Printing.  format_expr round-trips: parse(format_expr(e)) == e for any
# tree produced by parse/diff/the smart constructors, unless it holds a
# constant that failed to fold, which parse rejects.

# Levels mirror the grammar: 0 expr, 1 term, 2 factor, 3 atom^int, 4 atom.
_LEVEL_EXPR, _LEVEL_TERM, _LEVEL_FACTOR, _LEVEL_POW, _LEVEL_ATOM = 0, 1, 2, 3, 4


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e: Expr, py: dict[str, str] | None = None) -> tuple[str, int]:
    """The text of ``e`` and its grammar level.  With ``py`` it is Python
    source (``repr`` numbers, ``**``, the ``python_functions`` names,
    variables renamed by ``py``): Python's precedence and associativity for
    these operators are the grammar's, so the parentheses are the same."""
    if isinstance(e, Const):
        text = _fmt_number(e.value) if py is None else repr(e.value)
        return text, _LEVEL_FACTOR if math.copysign(1.0, e.value) < 0.0 else _LEVEL_ATOM
    if isinstance(e, Var):
        return (e.name if py is None else py.get(e.name, e.name)), _LEVEL_ATOM
    if isinstance(e, Func):
        name = e.name if py is None else f"_{CATALOG[e.name].source}"
        return f"{name}({_render(e.arg, py)[0]})", _LEVEL_ATOM
    if isinstance(e, Pow):
        base = _paren(_render(e.base, py), _LEVEL_ATOM)
        return f"{base}{'^' if py is None else '**'}{e.exponent}", _LEVEL_POW
    if isinstance(e, Neg):
        return "-" + _paren(_render(e.arg, py), _LEVEL_POW), _LEVEL_FACTOR
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left = _paren(_render(e.left, py), _LEVEL_TERM)
        right = _paren(_render(e.right, py), _LEVEL_FACTOR)
        return f"{left}{op}{right}", _LEVEL_TERM
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        left = _paren(_render(e.left, py), _LEVEL_EXPR)
        right = _paren(_render(e.right, py), _LEVEL_TERM)
        return f"{left}{op}{right}", _LEVEL_EXPR
    raise TypeError(f"not an Expr: {e!r}")


def _paren(rendered: tuple[str, int], min_level: int) -> str:
    # called on what _render returned, so a walk takes one frame per level
    text, level = rendered
    return f"({text})" if level < min_level else text


def format_expr(e: Expr) -> str:
    return _render(e)[0]


# ---------------------------------------------------------------------------
# Evaluation


def children(e: Expr) -> tuple:
    """The operand subtrees of ``e``, left to right."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, (Neg, Func)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    names = frozenset()
    for a in children(e):
        names |= free_vars(a)
    return names


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace every occurrence of variable ``name`` by ``replacement``."""
    if isinstance(e, Var):
        return replacement if e.name == name else e
    if isinstance(e, Const):
        return e
    if isinstance(e, Neg):
        return neg(substitute(e.arg, name, replacement))
    if isinstance(e, Func):
        return func(e.name, substitute(e.arg, name, replacement))
    if isinstance(e, Pow):
        return power(substitute(e.base, name, replacement), e.exponent)
    ctor = {Add: add, Sub: sub, Mul: mul, Div: div}[type(e)]
    return ctor(substitute(e.left, name, replacement), substitute(e.right, name, replacement))


def evaluate(e: Expr, env: dict[str, float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        try:
            v = float(env[e.name])
        except KeyError:
            raise DomainError(f"unbound variable '{e.name}'", e) from None
        if not math.isfinite(v):
            raise DomainError(f"variable '{e.name}' bound to {v!r}", e)
        return v
    if isinstance(e, (Add, Sub, Mul, Div)):
        return _checked(e, evaluate(e.left, env), evaluate(e.right, env))
    return _checked(e, evaluate(e.base if isinstance(e, Pow) else e.arg, env))


_ARITH = {Neg: operator.neg, Add: operator.add, Sub: operator.sub, Mul: operator.mul,
          Div: operator.truediv}


def _checked(e: Expr, *args: float) -> float:
    """The value of the operation at the root of ``e`` on operand values
    ``args``: the one order-0 semantics of evaluate, the jets and the folds.

    A domain fault, a division by zero, an overflow or any other result that
    is not finite raises DomainError naming ``e``.
    """
    t = type(e)
    try:
        if t is Func:
            f = CATALOG[e.name]
            if f.domain is not None and not f.domain[0](args[0]):
                raise DomainError(f.domain[1], e)
            v = f.value(args[0])
        elif t is Pow:
            if args[0] == 0.0 and e.exponent < 0:
                raise DomainError("zero raised to a negative power", e)
            v = args[0] ** e.exponent
        elif t is Div and args[1] == 0.0:
            raise DomainError("division by zero", e)
        else:
            v = _ARITH[t](*args)
    except OverflowError:
        raise DomainError("overflow", e) from None
    except ValueError:
        raise DomainError("out-of-domain argument", e) from None
    if not math.isfinite(v):
        raise DomainError("non-finite result", e)
    return v


# ---------------------------------------------------------------------------
# Differentiation


def diff(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with light simplification."""
    if isinstance(e, Const):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.name == var else _ZERO
    if isinstance(e, Neg):
        return neg(diff(e.arg, var))
    if isinstance(e, Add):
        return add(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Sub):
        return sub(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, var), e.right), mul(e.left, diff(e.right, var)))
    if isinstance(e, Div):
        num = sub(mul(diff(e.left, var), e.right), mul(e.left, diff(e.right, var)))
        return div(num, power(e.right, 2))
    if isinstance(e, Pow):
        inner = diff(e.base, var)
        return mul(mul(const(e.exponent), power(e.base, e.exponent - 1)), inner)
    if isinstance(e, Func):
        return mul(CATALOG[e.name].derivative(e.arg), diff(e.arg, var))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Taylor-mode derivatives.  A Jet holds one node per subexpression, children
# before parents, and appends the order-k Taylor coefficient of every node
# at each order k, so it grows one order at a time in O(K^2) flops (Griewank
# & Walther, "Evaluating Derivatives", 2nd ed., ch. 13).  Order-0
# coefficients come from _checked, as in evaluate(); an integer power is a
# chain of product nodes (see _power).
# With tangent seeds, every node also carries the series of its derivative
# along the seed directions (forward mode over the series).


def _conv(p: list, nz: list, q: list, lo: int, k: int):
    """sum_{j=lo..k} p[j] * q[k-j] over the orders j in ``nz``, those where p
    is nonzero; the q entries may be tangent vectors.  The sum starts at +0.0
    and never becomes -0.0, so a term p[j] * q[k-j] with p[j] == 0.0 and
    q[k-j] finite could not change its bits; skipping it makes an order cost
    O(1) per node at an equilibrium, where every coefficient above order 0
    is zero."""
    s = 0.0
    for j in nz:
        if j >= lo:
            s += p[j] * q[k - j]
    return s


def _wconv(a: list, nz: list, w: list, k: int) -> float:
    """(1/k) sum_{j=1..k} j a[j] w[k-j] over the orders j in ``nz``, those
    where a is nonzero: coefficient k of c where c' = a' w."""
    s = 0.0
    for j in nz:
        if j:
            s += j * a[j] * w[k - j]
    return s / k


class _Node:
    __slots__ = ("rule", "e", "c", "a", "b", "w", "t", "nz", "wz")

    def __init__(self, rule: tuple, e: Expr, c0: float, a=None, b=None, w0=None):
        self.rule = rule  # (value rule, tangent rule)
        self.e = e
        self.c = [c0]   # Taylor coefficients
        self.a = a      # operand nodes
        self.b = b
        self.nz = [0] if c0 != 0.0 else []  # the orders where c is nonzero, ascending
        self.w = None   # companion series: the derivative of f in f(a)
        self.wz = None  # the orders where w is nonzero, ascending
        if w0 is not None:
            self.w, self.wz = [w0], [0] if w0 != 0.0 else []
        self.t = None   # tangent coefficients, with seeds


# Value rules: coefficient k >= 1 of a node from the first k+1 coefficients
# of its operands and the first k of its own series.  Tangent rules: tangent
# coefficient k >= 0, after every value of order k is known.  A function
# node's tangent is its derivative series convolved with the operand's
# tangent; ln, sqrt and / solve the same product for it.  Every convolution,
# value or tangent, runs over the nonzero orders of its first series
# (_conv, _wconv); while a node's value rule runs, its own nz holds only
# its orders below k.

def _zero(nd, k):
    return 0.0


def _v_neg(nd, k):
    return -nd.a.c[k]


def _v_add(nd, k):
    return nd.a.c[k] + nd.b.c[k]


def _v_sub(nd, k):
    return nd.a.c[k] - nd.b.c[k]


def _v_mul(nd, k):
    a = nd.a
    return _conv(a.c, a.nz, nd.b.c, 0, k)


def _v_div(nd, k):
    b = nd.b
    return (nd.a.c[k] - _conv(b.c, b.nz, nd.c, 1, k)) / b.c[0]


def _t_neg(nd, k):
    return -nd.a.t[k]


def _t_add(nd, k):
    return nd.a.t[k] + nd.b.t[k]


def _t_sub(nd, k):
    return nd.a.t[k] - nd.b.t[k]


def _t_mul(nd, k):
    a, b = nd.a, nd.b
    return _conv(b.c, b.nz, a.t, 0, k) + _conv(a.c, a.nz, b.t, 0, k)


def _t_div(nd, k):
    b = nd.b
    return (nd.a.t[k] - _conv(nd.c, nd.nz, b.t, 0, k) - _conv(b.c, b.nz, nd.t, 1, k)) / b.c[0]


_RULES = {
    Const: (_zero, _zero),
    Var: (None, None),  # inputs: their coefficients are supplied from outside
    Neg: (_v_neg, _t_neg),
    Add: (_v_add, _t_add),
    Sub: (_v_sub, _t_sub),
    Mul: (_v_mul, _t_mul),
    Div: (_v_div, _t_div),
}


# ---------------------------------------------------------------------------
# The function catalog.  The series rules of each function come first, then
# one CATALOG entry per function.

def _v_exp(nd, k):
    a = nd.a
    return _wconv(a.c, a.nz, nd.c, k)


def _t_exp(nd, k):
    return _conv(nd.c, nd.nz, nd.a.t, 0, k)


def _v_ln(nd, k):
    a = nd.a.c
    return (a[k] - _wconv(nd.c, nd.nz, a, k)) / a[0]


def _t_ln(nd, k):
    a = nd.a
    return (a.t[k] - _conv(a.c, a.nz, nd.t, 1, k)) / a.c[0]


def _v_sincos(nd, k):
    # c' = a' w and w' = -a' c: sin with w = cos, cos with w = -sin
    a = nd.a
    v = _wconv(a.c, a.nz, nd.w, k)
    nd.w.append(-_wconv(a.c, a.nz, nd.c, k))
    return v


def _v_tan(nd, k):
    a, c = nd.a, nd.c
    v = _wconv(a.c, a.nz, nd.w, k)
    nd.w.append(2.0 * c[0] * v + _conv(c, nd.nz, c, 1, k))
    return v


def _v_tanh(nd, k):
    a, c = nd.a, nd.c
    v = _wconv(a.c, a.nz, nd.w, k)
    nd.w.append(-(2.0 * c[0] * v + _conv(c, nd.nz, c, 1, k)))
    return v


def _t_companion(nd, k):
    # sin, cos, tan, tanh: the derivative series is the companion w
    return _conv(nd.w, nd.wz, nd.a.t, 0, k)


def _v_sqrt(nd, k):
    c = nd.c
    if c[0] == 0.0:
        raise DomainError("derivative of sqrt at 0", nd.e)
    return (nd.a.c[k] - _conv(c, nd.nz, c, 1, k)) / (2.0 * c[0])


def _t_sqrt(nd, k):
    c = nd.c
    if c[0] == 0.0:
        raise DomainError("derivative of sqrt at 0", nd.e)
    return (nd.a.t[k] - 2.0 * _conv(c, nd.nz, nd.t, 1, k)) / (2.0 * c[0])


class CatalogEntry(Frozen):
    """Everything the package knows about one catalog function f.

    - ``source``: the name of f in ``math`` and in numpy; ``value`` is the
      ``math`` one.
    - ``derivative(u)``: f'(u) as a tree.
    - ``series``, ``tangent``: the value and tangent rules of a node f(a).
    - ``companion(x, f(x))``: order 0 of the series w that the rules keep
      beside f(a), or None when they keep none.
    - ``domain``: None for all reals, else (test of an argument, the
      DomainError message for an argument that fails it).
    - ``period``: 2*pi/n for a periodic f, else None.
    - ``parity``: "odd" when f(-u) = -f(u), "even" when f(-u) = f(u),
      else None; the period proof halves a period with it.
    - ``tail``: for a periodic f, the bounds on f(u) where u has no limit
      ((-1, 1) for sin, unbounded for tan); None for an increasing f.
    """

    __slots__ = ("source", "derivative", "series", "tangent", "companion", "domain",
                 "period", "parity", "tail", "value")

    def __init__(self, source: str, derivative: Callable[[Expr], Expr], series: Callable,
                 tangent: Callable, companion: Callable[[float, float], float] | None = None,
                 domain: tuple[Callable[[float], bool], str] | None = None,
                 period: float | None = None, parity: str | None = None,
                 tail: tuple[float, float] | None = None):
        super().__init__(source, derivative, series, tangent, companion, domain, period, parity,
                         tail, getattr(math, source))


CATALOG = {
    "sin": CatalogEntry("sin", lambda u: func("cos", u), _v_sincos, _t_companion,
                        companion=lambda x, v: math.cos(x), period=2.0 * math.pi,
                        parity="odd", tail=(-1.0, 1.0)),
    "cos": CatalogEntry("cos", lambda u: neg(func("sin", u)), _v_sincos, _t_companion,
                        companion=lambda x, v: -math.sin(x), period=2.0 * math.pi,
                        parity="even", tail=(-1.0, 1.0)),
    "tan": CatalogEntry("tan", lambda u: div(_ONE, power(func("cos", u), 2)), _v_tan,
                        _t_companion, companion=lambda x, v: 1.0 + v * v, period=math.pi,
                        parity="odd", tail=(-math.inf, math.inf)),
    "exp": CatalogEntry("exp", lambda u: func("exp", u), _v_exp, _t_exp),
    "ln": CatalogEntry("log", lambda u: div(_ONE, u), _v_ln, _t_ln,
                       domain=(lambda x: x > 0.0, "ln of a non-positive value")),
    "tanh": CatalogEntry("tanh", lambda u: sub(_ONE, power(func("tanh", u), 2)), _v_tanh,
                         _t_companion, companion=lambda x, v: 1.0 - v * v, parity="odd"),
    "sqrt": CatalogEntry("sqrt", lambda u: div(_ONE, mul(const(2.0), func("sqrt", u))),
                         _v_sqrt, _t_sqrt, domain=(lambda x: x >= 0.0, "sqrt of a negative value")),
}


def _times_factorial(c, k: int):
    # k! * c as c * 1 * 2 * ... * k in floats: k! itself would overflow a float for k >= 171
    for j in range(2, k + 1):
        c = c * j
    return c


class Jet:
    """Taylor series of outputs h(x(t)) along the flow dx/dt = field(x), x(0) = x0.

    The state series follows x_{k+1} = (field o x)_k / (k+1), so the k-th
    Lie derivative of output j at x0 is k! times its k-th coefficient.
    ``field=None`` is the unit field dx/dt = 1: the coefficients of a
    function of one variable are then its Taylor coefficients around x0.
    With ``seeds`` (one tangent vector per state variable, e.g. unit
    vectors) every series also carries its gradient in those directions
    (Roebenack, J. Comput. Appl. Math. 213, 2008).  The series grow on
    demand, to whatever order is asked for: the caller's loop is the bound.

    The field and the outputs run as one tape: a node per subexpression
    (a variable is one input node however often it occurs), children
    first, each made whole, with its order-0 value, tangent and nonzero
    orders (nz, wz, which the convolutions of the rules run over).
    """

    def __init__(self, outputs, var_names, x0, field=None, seeds=None):
        self.outputs, var_names = tuple(outputs), tuple(var_names)
        n = len(var_names)
        field = (_ONE,) * n if field is None else tuple(field)
        if not len(field) == n == len(x0) == (n if seeds is None else len(seeds)):
            raise ValueError("field, variables, x0 and seeds must have one entry per state")
        self._env = dict(zip(var_names, x0))
        self._seeds = None if seeds is None else dict(zip(var_names, seeds))
        self._inputs: dict[str, _Node] = {}
        self._nodes: list[_Node] = []
        self._field = [self._build(e) for e in field]
        self._roots = [self._build(e) for e in self.outputs]
        # (state node, field node) for the variables the expressions use
        self._flow = [(self._inputs[name], f) for name, f in zip(var_names, self._field)
                      if name in self._inputs]
        self._order = 0

    def _node(self, rule: tuple, e: Expr, c0: float, a=None, b=None, w0=None) -> _Node:
        node = _Node(rule, e, c0, a, b, w0)
        if self._seeds is not None:
            node.t = [rule[1](node, 0)]
        self._nodes.append(node)
        return node

    def _build(self, e: Expr) -> _Node:
        if isinstance(e, Var):
            node = self._inputs.get(e.name)
            if node is None:
                try:
                    x = float(self._env[e.name])
                except KeyError:
                    raise DomainError(f"unbound variable '{e.name}'", e) from None
                node = self._inputs[e.name] = _Node(_RULES[Var], e, x)
                if self._seeds is not None:
                    node.t = [self._seeds[e.name]]
            return node
        if isinstance(e, Const):
            return self._node(_RULES[Const], e, e.value)
        if isinstance(e, (Add, Sub, Mul, Div)):
            a, b = self._build(e.left), self._build(e.right)
            return self._node(_RULES[type(e)], e, _checked(e, a.c[0], b.c[0]), a, b)
        a = self._build(e.base if isinstance(e, Pow) else e.arg)
        v = _checked(e, a.c[0])
        if isinstance(e, Pow):
            return self._power(a, e, v)
        if isinstance(e, Neg):
            return self._node(_RULES[Neg], e, v, a)
        f = CATALOG[e.name]
        w0 = None if f.companion is None else f.companion(a.c[0], v)
        return self._node((f.series, f.tangent), e, v, a, w0=w0)

    def _power(self, a: _Node, e: Pow, v: float) -> _Node:
        """Nodes for a^n, n = e.exponent, the last one with order-0 value v.

        a^|n| is a chain of products by repeated squaring, free of
        divisions, so it stays accurate where a_0 is tiny or zero; for n < 0
        the power is 1 over that chain.  For n > 1 the chain's last product
        takes v, which can differ from the product by an ulp.
        """
        n = e.exponent
        if n == 0:
            return self._node(_RULES[Const], e, v)
        square, acc, m = a, None, abs(n)
        while m:
            if m & 1:
                if acc is None:
                    acc = square
                else:
                    c0 = v if m == 1 and n > 0 else acc.c[0] * square.c[0]
                    acc = self._node(_RULES[Mul], e, c0, acc, square)
            m >>= 1
            if m:  # the square is the last node when it becomes acc as is
                c0 = v if m == 1 and acc is None and n > 0 else square.c[0] * square.c[0]
                square = self._node(_RULES[Mul], e, c0, square, square)
        if n < 0:
            return self._node(_RULES[Div], e, v, self._node(_RULES[Const], _ONE, 1.0), acc)
        return acc

    def _extend(self, k: int) -> None:
        if k < 0:
            raise DerivativeOrderError(f"negative derivative order {k}")
        tangents = self._seeds is not None
        while self._order < k:
            r = self._order
            k1 = r + 1
            for x, f in self._flow:
                x.c.append(f.c[r] / k1)
                if tangents:
                    x.t.append(f.t[r] / k1)
                if x.c[k1] != 0.0:
                    x.nz.append(k1)
            self._order = k1
            for node in self._nodes:
                try:
                    v = node.rule[0](node, k1)
                except OverflowError:
                    raise DomainError(f"overflow in Taylor coefficient {k1}", node.e) from None
                node.c.append(v)
                if v != 0.0:
                    node.nz.append(k1)
                if node.w is not None and node.w[k1] != 0.0:
                    node.wz.append(k1)
            if tangents:
                for node in self._nodes:
                    node.t.append(node.rule[1](node, k1))
            for e, h in zip(self.outputs, self._roots):
                if not math.isfinite(h.c[k1]):
                    raise DomainError(f"non-finite Taylor coefficient {k1}", e)

    def coefficient(self, j: int, k: int) -> float:
        """Taylor coefficient k of output j (0-based): its k-th derivative over k!."""
        self._extend(k)
        return self._roots[j].c[k]

    def derivative(self, j: int, k: int) -> float:
        return _times_factorial(self.coefficient(j, k), k)

    def tangent(self, j: int, k: int):
        """Gradient of Taylor coefficient k of output j in the seed directions:
        the gradient of L_f^k h_j over k!, a vector or the scalar 0.0."""
        self._extend(k)
        return self._roots[j].t[k]

    def gradient(self, j: int, k: int):
        """Gradient of L_f^k h_j at x0 in the seed directions, output index j 0-based."""
        return _times_factorial(self.tangent(j, k), k)

    def at_rest(self) -> bool:
        """Whether x0 is an equilibrium: every field component is exactly 0 there."""
        return all(f.c[0] == 0.0 for f in self._field)

    def jacobians(self):
        """(A, C): the order-0 gradients of the field and of the outputs in
        the seed directions, one row each; with unit seeds, A = Df(x0) and
        C = Dh(x0).  A constant component's gradient is the scalar 0,
        broadcast over its row."""
        import numpy as np

        d = len(self._field)
        rows = [node.t[0] for node in (*self._field, *self._roots)]
        J = np.empty((len(rows), d))
        for i, t in enumerate(rows):
            J[i] = t
        return J[:d], J[d:]


def jet(e: Expr, var: str, x0: float, K: int) -> list[float]:
    """Taylor coefficients c_0..c_K of ``e`` in ``var`` around ``x0``."""
    j = Jet((e,), (var,), (x0,))
    return [j.coefficient(0, k) for k in range(K + 1)]


def nth_derivative_at(e: Expr, var: str, k: int, x0: float) -> float:
    return Jet((e,), (var,), (x0,)).derivative(0, k)


# ---------------------------------------------------------------------------
# Compilation to plain Python for the integrator hot loop.  Semantics match
# evaluate() except that error messages lose the subexpression pinpointing.


def python_functions() -> dict[str, Callable]:
    """The name ``python_source`` calls each catalog function by, with the
    ``math`` function it calls; the code that runs the source binds these
    names."""
    return {f"_{f.source}": f.value for f in CATALOG.values()}


def python_source(e: Expr, names: dict[str, str] | None = None) -> str:
    """Python source computing ``e``, in one pair of parentheses; ``names``
    renames variables in the output."""
    return f"({_render(e, names or {})[0]})"


def compile_vector(exprs, var_names) -> "callable":
    """Compile a tuple of expressions into one function of the named
    variables, calling the ``math`` functions."""
    args = ", ".join(var_names)
    body = ", ".join(python_source(e) for e in exprs)
    src = f"def _compiled({args}):\n    return ({body}{',' if len(tuple(exprs)) == 1 else ''})\n"
    namespace = python_functions()
    exec(src, namespace)
    return namespace["_compiled"]
