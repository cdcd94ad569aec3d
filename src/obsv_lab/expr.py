"""Expression trees for scalar functions used in system definitions.

The function catalog is deliberately closed: sin, cos, tan, exp, ln, tanh,
sqrt, the four rational operations, unary minus, and integer powers.  Every
catalog member is smooth on its domain and the catalog is closed under
differentiation, so repeated symbolic differentiation never leaves it.
Non-smooth builtins (abs, floor, ...) are rejected at parse time.

Expressions are immutable; all operations here are pure functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

K_MAX_DEFAULT = 12  # cap on derivative order taken symbolically

_MATH_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "tanh": math.tanh,
    "sqrt": math.sqrt,
}
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
        self.subexpr = subexpr
        super().__init__(f"{message} in {format_expr(subexpr)}")


class DerivativeOrderError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Func(Expr):
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
        return _fold_const(a.value + b.value, Add(a, b))
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return neg(b)
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold_const(a.value - b.value, Sub(a, b))
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const):
        return _fold_const(a.value * b.value, Mul(a, b))
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 1.0):
        return a
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return _ZERO
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return _fold_const(a.value / b.value, Div(a, b))
    return Div(a, b)


def power(base: Expr, exponent: int) -> Expr:
    exponent = int(exponent)
    if exponent == 0:
        return _ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and (base.value != 0.0 or exponent > 0):
        return _fold_const(base.value ** exponent, Pow(base, exponent))
    return Pow(base, exponent)


def func(name: str, arg: Expr) -> Expr:
    if isinstance(arg, Const):
        try:
            return _fold_const(_MATH_FUNCS[name](arg.value), Func(name, arg))
        except (ValueError, OverflowError):
            pass  # leave symbolic; evaluate() will report the domain error
    return Func(name, arg)


def _fold_const(v: float, fallback: Expr) -> Expr:
    # Keep overflowing folds symbolic so evaluation can point at the culprit.
    return Const(v) if math.isfinite(v) else fallback


# ---------------------------------------------------------------------------
# Parsing.  Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := ['-'] atom ['^' integer]
#   atom   := number | ident | func '(' expr ')' | '(' expr ')'

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

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*", "/"):
            op = self.take()[1]
            rhs = self.factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def factor(self) -> Expr:
        negate = False
        if self.at_op("-"):
            self.take()
            negate = True
        node = self.atom()
        if self.at_op("^"):
            self.take()
            node = power(node, self.integer_exponent())
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
            self.take()
            return Const(float(text))
        if kind == "ident":
            self.take()
            if text in _CONSTANTS:
                return Const(_CONSTANTS[text])
            if text in _MATH_FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return func(text, arg)
            if text in _REJECTED_FUNCS:
                raise ParseError(offset, "a smooth function from the catalog", text)
            if text in self.allowed_vars:
                return Var(text)
            raise ParseError(offset, "a known variable or function", text)
        if kind == "op" and text == "(":
            self.take()
            e = self.expr()
            self.expect_op(")")
            return e
        self.error("a number, variable, or '('")


def parse(source: str, allowed_vars=()) -> Expr:
    """Parse ``source`` into an Expr whose free variables lie in ``allowed_vars``."""
    allowed = frozenset(allowed_vars)
    for name in allowed:
        if not _IDENT_RE.match(name):
            raise ValueError(f"invalid variable name {name!r}")
        if name in _MATH_FUNCS or name in _CONSTANTS or name in _REJECTED_FUNCS:
            raise ValueError(f"variable name {name!r} collides with a reserved symbol")
    return _Parser(source, allowed).parse()


# ---------------------------------------------------------------------------
# Printing.  format_expr round-trips: parse(format_expr(e)) == e for any
# tree produced by parse/diff/the smart constructors.

# Levels mirror the grammar: 0 expr, 1 term, 2 factor, 3 atom^int, 4 atom.
_LEVEL_EXPR, _LEVEL_TERM, _LEVEL_FACTOR, _LEVEL_POW, _LEVEL_ATOM = 0, 1, 2, 3, 4


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        level = _LEVEL_ATOM if e.value >= 0 else _LEVEL_FACTOR
        return _fmt_number(e.value), level
    if isinstance(e, Var):
        return e.name, _LEVEL_ATOM
    if isinstance(e, Func):
        inner, _ = _render(e.arg)
        return f"{e.name}({inner})", _LEVEL_ATOM
    if isinstance(e, Pow):
        base = _subrender(e.base, _LEVEL_ATOM)
        return f"{base}^{e.exponent}", _LEVEL_POW
    if isinstance(e, Neg):
        return "-" + _subrender(e.arg, _LEVEL_POW), _LEVEL_FACTOR
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left = _subrender(e.left, _LEVEL_TERM)
        right = _subrender(e.right, _LEVEL_FACTOR)
        return f"{left}{op}{right}", _LEVEL_TERM
    if isinstance(e, (Add, Sub)):
        op = " + " if isinstance(e, Add) else " - "
        left = _subrender(e.left, _LEVEL_EXPR)
        right = _subrender(e.right, _LEVEL_TERM)
        return f"{left}{op}{right}", _LEVEL_EXPR
    raise TypeError(f"not an Expr: {e!r}")


def _subrender(e: Expr, min_level: int) -> str:
    text, level = _render(e)
    if level < min_level:
        return f"({text})"
    return text


def format_expr(e: Expr) -> str:
    return _render(e)[0]


# ---------------------------------------------------------------------------
# Evaluation


def free_vars(e: Expr) -> frozenset[str]:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, (Const,)):
        return frozenset()
    if isinstance(e, Neg):
        return free_vars(e.arg)
    if isinstance(e, Func):
        return free_vars(e.arg)
    if isinstance(e, Pow):
        return free_vars(e.base)
    return free_vars(e.left) | free_vars(e.right)


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
            return float(env[e.name])
        except KeyError:
            raise DomainError(f"unbound variable '{e.name}'", e) from None
    if isinstance(e, Neg):
        return -evaluate(e.arg, env)
    if isinstance(e, Add):
        return evaluate(e.left, env) + evaluate(e.right, env)
    if isinstance(e, Sub):
        return evaluate(e.left, env) - evaluate(e.right, env)
    if isinstance(e, Mul):
        return evaluate(e.left, env) * evaluate(e.right, env)
    if isinstance(e, Div):
        denom = evaluate(e.right, env)
        if denom == 0.0:
            raise DomainError("division by zero", e)
        return evaluate(e.left, env) / denom
    if isinstance(e, Pow):
        base = evaluate(e.base, env)
        if base == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power", e)
        try:
            v = base ** e.exponent
        except OverflowError:
            raise DomainError("overflow", e) from None
        return _check_finite(v, e)
    if isinstance(e, Func):
        x = evaluate(e.arg, env)
        if e.name == "ln" and x <= 0.0:
            raise DomainError("ln of a non-positive value", e)
        if e.name == "sqrt" and x < 0.0:
            raise DomainError("sqrt of a negative value", e)
        try:
            v = _MATH_FUNCS[e.name](x)
        except (ValueError, OverflowError):
            raise DomainError("out-of-domain argument", e) from None
        return _check_finite(v, e)
    raise TypeError(f"not an Expr: {e!r}")


def _check_finite(v: float, e: Expr) -> float:
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
        inner = diff(e.arg, var)
        u = e.arg
        if e.name == "sin":
            outer = func("cos", u)
        elif e.name == "cos":
            outer = neg(func("sin", u))
        elif e.name == "tan":
            outer = div(_ONE, power(func("cos", u), 2))
        elif e.name == "exp":
            outer = func("exp", u)
        elif e.name == "ln":
            outer = div(_ONE, u)
        elif e.name == "tanh":
            outer = sub(_ONE, power(func("tanh", u), 2))
        elif e.name == "sqrt":
            outer = div(_ONE, mul(const(2.0), func("sqrt", u)))
        else:
            raise TypeError(f"unknown function {e.name!r}")
        return mul(outer, inner)
    raise TypeError(f"not an Expr: {e!r}")


# Derivative chains are memoized: observability scans ask for gamma^(k) at
# many states, and recomputing the symbolic chain each time would dominate.
_DERIV_CHAINS: dict[tuple[Expr, str], list[Expr]] = {}


def derivative_chain(e: Expr, var: str, k: int, k_max: int = K_MAX_DEFAULT) -> Expr:
    """k-th symbolic derivative of ``e`` with respect to ``var``."""
    if k < 0:
        raise DerivativeOrderError(f"negative derivative order {k}")
    if k > k_max:
        raise DerivativeOrderError(f"derivative order {k} exceeds cap {k_max}")
    chain = _DERIV_CHAINS.setdefault((e, var), [e])
    while len(chain) <= k:
        chain.append(diff(chain[-1], var))
    return chain[k]


def nth_derivative_at(e: Expr, var: str, k: int, x0: float, k_max: int = K_MAX_DEFAULT) -> float:
    return evaluate(derivative_chain(e, var, k, k_max), {var: x0})


def clear_caches() -> None:
    _DERIV_CHAINS.clear()


# ---------------------------------------------------------------------------
# Compilation to plain Python for the integrator hot loop.  Semantics match
# evaluate() except that error messages lose the subexpression pinpointing.


def python_source(e: Expr, names: dict[str, str] | None = None) -> str:
    """Python source computing ``e``; ``names`` renames variables in the output."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return names.get(e.name, e.name) if names else e.name
    if isinstance(e, Neg):
        return f"(-{python_source(e.arg, names)})"
    if isinstance(e, (Add, Sub, Mul, Div)):
        op = _PY_OP[type(e)]
        return f"({python_source(e.left, names)} {op} {python_source(e.right, names)})"
    if isinstance(e, Pow):
        return f"({python_source(e.base, names)} ** {e.exponent})"
    if isinstance(e, Func):
        return f"_m.{_PY_FUNC[e.name]}({python_source(e.arg, names)})"
    raise TypeError(f"not an Expr: {e!r}")


_PY_OP = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_PY_FUNC = {"sin": "sin", "cos": "cos", "tan": "tan", "exp": "exp",
            "ln": "log", "tanh": "tanh", "sqrt": "sqrt"}


def compile_vector(exprs, var_names, backend=math) -> "callable":
    """Compile a tuple of expressions into one function of the named variables.

    ``backend`` supplies the math namespace; pass numpy to get a function
    that maps arrays elementwise (domain violations then yield nan/inf
    instead of raising).
    """
    args = ", ".join(var_names)
    body = ", ".join(python_source(e) for e in exprs)
    src = f"def _compiled({args}):\n    return ({body}{',' if len(tuple(exprs)) == 1 else ''})\n"
    namespace = {"_m": backend}
    exec(src, namespace)
    return namespace["_compiled"]


def compile_scalar(e: Expr, var_names, backend=math) -> "callable":
    fn = compile_vector((e,), var_names, backend)
    return lambda *xs: fn(*xs)[0]
