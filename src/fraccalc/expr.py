"""One-variable math expressions: parsing, evaluation, Taylor-mode derivatives.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? power
    power  := atom ('^' factor)?
    atom   := number | 'pi' | 'e' | 't' | ident '(' expr ')' | '(' expr ')'

``ident`` is one of sin, cos, exp, log, sqrt, abs.  ``^`` is right
associative and binds tighter than unary minus, so ``-t^2`` is ``-(t^2)``
and ``2^3^2`` is ``2^(3^2)``.

One interpreter serves values and derivatives: truncated Taylor series
(jets) are propagated through the expression tree, so a single pass
yields f, f', ..., f^(n) exactly (up to rounding) instead of stacking
finite differences, and a value is the jet of order 0.  Orders go up to
``MAX_ORDER`` (170; 171! overflows a float).  Each expression's jet is
compiled once into a tree of closures with the dispatch and constant
exponents resolved.  It runs on a float or on a numpy array of points:
``eval`` and ``derivative_values`` map a float to a float (a QUADPACK or
root-finder callback is a jet of floats) and an array, of any size, to an
array.

Domain rules; a value (order 0) needs less than a derivative (order >= 1):

* ``u ^ c`` with an integer constant ``c`` uses repeated multiplication and
  is valid for any base sign (a negative ``c`` is ``1 / u^-c``, so it
  refuses a zero base); a non-integer constant exponent requires a
  non-negative base, and at a zero base coefficient k is 0 for k < c and
  unbounded (refused) from k >= c on, so ``t^0.5`` is 0 at 0 but has no
  derivative there and ``t^-0.5`` has no value there; a variable exponent
  is rewritten as ``exp(c * log(u))`` and requires ``u > 0``.
* ``sqrt`` and ``abs`` have the value 0 at 0 but no derivative there:
  a jet of order >= 1 raises :class:`~fraccalc.errors.DomainError`
  instead of an unbounded slope or a subgradient.
* ``log`` requires ``u > 0`` and ``/`` a non-zero divisor at any order,
  and every sampled result must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DomainError, ParseError, UnknownIdentifierError

__all__ = ["Expression", "TaylorJet", "parse", "derivatives", "derivative_values"]

_CONSTANTS = {"pi": math.pi, "e": math.e}
MAX_ORDER = 170  # highest derivative order of a jet: 171! overflows a float
_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")

Scalar = Union[float, np.ndarray]


# ---------------------------------------------------------------------------
# Syntax tree


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # 'pi' or 'e'


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Const, Var, Neg, BinOp, Call]


# ---------------------------------------------------------------------------
# Tokenizer / recursive-descent parser


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def parse(self) -> Node:
        node = self.expr()
        self.skip_ws()
        if self.pos < len(self.src):
            raise ParseError(f"unexpected character {self.src[self.pos]!r}", self.pos)
        return node

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def expr(self) -> Node:
        node = self.term()
        while self.peek() in {"+", "-"}:
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek() in {"*", "/"}:
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.peek() == "-":
            self.pos += 1
            return Neg(self.power())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        if self.peek() == "^":
            self.pos += 1
            node = BinOp("^", node, self.factor())  # right associative
        return node

    def atom(self) -> Node:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            return self.identifier()
        raise ParseError("expected a number, name or '('", self.pos)

    def number(self) -> Node:
        start = self.pos
        src = self.src
        while self.pos < len(src) and src[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(src) and src[self.pos] == ".":
            self.pos += 1
            while self.pos < len(src) and src[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(src) and src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(src) and src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(src) and src[self.pos].isdigit():
                while self.pos < len(src) and src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # the 'e' was the constant, not an exponent
        text = src[start : self.pos]
        try:
            return Num(float(text))
        except ValueError:
            raise ParseError(f"bad number literal {text!r}", start) from None

    def identifier(self) -> Node:
        start = self.pos
        src = self.src
        while self.pos < len(src) and (src[self.pos].isalnum() or src[self.pos] == "_"):
            self.pos += 1
        name = src[start : self.pos]
        if name == "t":
            return Var()
        if name in _CONSTANTS:
            return Const(name)
        if name in _FUNCTIONS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return Call(name, arg)
        raise UnknownIdentifierError(name, start)


# ---------------------------------------------------------------------------
# Pretty printing (minimal parentheses, stable under re-parsing)

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _format(node: Node, context: int = 0) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Neg):
        text = "-" + _format(node.arg, _PREC_POW)
        return f"({text})" if context > _PREC_NEG else text
    if isinstance(node, Call):
        return f"{node.fn}({_format(node.arg)})"
    if isinstance(node, BinOp):
        if node.op in "+-":
            prec = _PREC_ADD
            text = f"{_format(node.left, prec)} {node.op} {_format(node.right, prec + 1)}"
        elif node.op in "*/":
            prec = _PREC_MUL
            text = f"{_format(node.left, prec)}{node.op}{_format(node.right, prec + 1)}"
        else:  # '^': exponent is a factor, base is an atom
            prec = _PREC_POW
            text = f"{_format(node.left, _PREC_ATOM)}^{_format(node.right, _PREC_NEG)}"
        return f"({text})" if context > prec else text
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Evaluation: Taylor jets
#
# A jet holds [u, u'/1!, u''/2!, ...] at a point (entries may be numpy
# arrays so that whole sample grids run in one pass).  The jet of order 0
# is the value alone, so values and derivatives come from one interpreter.


def _all(cond) -> bool:
    return bool(cond.all() if isinstance(cond, np.ndarray) else cond)


def _any(cond) -> bool:
    return bool(cond.any() if isinstance(cond, np.ndarray) else cond)


def _contains_var(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Neg):
        return _contains_var(node.arg)
    if isinstance(node, Call):
        return _contains_var(node.arg)
    if isinstance(node, BinOp):
        return _contains_var(node.left) or _contains_var(node.right)
    return False


def _const_exponent(node: Node):
    """Value of a constant exponent subtree, else None."""
    if _contains_var(node):
        return None
    return float(_compile(node)(_Jet([0.0])).c[0])


def _is_int(value: float) -> bool:
    return float(value).is_integer() and abs(value) < 2**31


class _Jet:
    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = coeffs

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def __add__(self, other):
        return _Jet([a + b for a, b in zip(self.c, other.c)])

    def __sub__(self, other):
        return _Jet([a - b for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return _Jet([-a for a in self.c])

    def __mul__(self, other):
        n = self.order
        out = []
        for k in range(n + 1):
            acc = self.c[0] * other.c[k]
            for i in range(1, k + 1):
                acc = acc + self.c[i] * other.c[k - i]
            out.append(acc)
        return _Jet(out)

    def divide(self, other, node):
        if _any(other.c[0] == 0):
            raise DomainError(f"division by zero in {_format(node)}")
        n = self.order
        out = []
        for k in range(n + 1):
            acc = self.c[k]
            for i in range(0, k):
                acc = acc - out[i] * other.c[k - i]
            out.append(acc / other.c[0])
        return _Jet(out)


def _jet_const(value, template: _Jet) -> _Jet:
    zero = template.c[0] * 0.0
    return _Jet([zero + value] + [zero] * template.order)


def _jet_exp(u: _Jet) -> _Jet:
    out = [np.exp(u.c[0])]
    for k in range(1, u.order + 1):
        acc = u.c[1] * out[k - 1] if k >= 1 else 0.0
        for j in range(2, k + 1):
            acc = acc + j * u.c[j] * out[k - j]
        out.append(acc / k)
    return _Jet(out)


def _jet_log(u: _Jet, node) -> _Jet:
    if not _all(u.c[0] > 0):
        raise DomainError(f"log of non-positive value in {_format(node)}")
    out = [np.log(u.c[0])]
    for k in range(1, u.order + 1):
        acc = u.c[k] * k
        for j in range(1, k):
            acc = acc - j * out[j] * u.c[k - j]
        out.append(acc / (k * u.c[0]))
    return _Jet(out)


def _jet_sincos(u: _Jet):
    s = [np.sin(u.c[0])]
    c = [np.cos(u.c[0])]
    for k in range(1, u.order + 1):
        sa = 0.0
        ca = 0.0
        for j in range(1, k + 1):
            sa = sa + j * u.c[j] * c[k - j]
            ca = ca + j * u.c[j] * s[k - j]
        s.append(sa / k)
        c.append(-ca / k)
    return _Jet(s), _Jet(c)


def _jet_sqrt(u: _Jet, node) -> _Jet:
    if u.order and not _all(u.c[0] > 0):
        raise DomainError(f"sqrt not differentiable at non-positive value in {_format(node)}")
    if not _all(u.c[0] >= 0):
        raise DomainError(f"sqrt of negative value in {_format(node)}")
    out = [np.sqrt(u.c[0])]
    for k in range(1, u.order + 1):
        acc = u.c[k]
        for j in range(1, k):
            acc = acc - out[j] * out[k - j]
        out.append(acc / (2.0 * out[0]))
    return _Jet(out)


def _jet_abs(u: _Jet, node) -> _Jet:
    if u.order and _any(u.c[0] == 0):
        raise DomainError(f"abs not differentiable at zero in {_format(node)}")
    s = np.sign(u.c[0])
    return _Jet([np.abs(u.c[0])] + [s * a for a in u.c[1:]])


def _jet_powc(u: _Jet, c: float, node) -> _Jet:
    """u^c for a non-integer constant c and a nonnegative base; at a zero base
    every coefficient up to the jet order is 0 if c exceeds it, else unbounded."""
    if not _all(u.c[0] >= 0):
        raise DomainError(f"negative base with exponent {c!r} in {_format(node)}")
    zero = u.c[0] == 0
    if _any(zero) and not c > u.order:
        what = "derivative" if u.order else "value"
        raise DomainError(f"unbounded {what} at zero base with exponent {c!r} in {_format(node)}")
    if not u.order:  # 0^c is 0 for c > 0: no mask needed
        return _Jet([np.power(u.c[0], c)])
    base = np.where(zero, 1.0, u.c[0])  # masked: no 0/0 in the recurrence
    out = [np.where(zero, 0.0, np.power(base, c))]
    for k in range(1, u.order + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc = acc + ((c + 1.0) * j - k) * u.c[j] * out[k - j]
        out.append(acc / (k * base))
    return _Jet(out)


def _jet_ipow(u: _Jet, m: int, node) -> _Jet:
    if m == 0:
        return _jet_const(1.0, u)
    if m < 0:
        return _jet_const(1.0, u).divide(_jet_ipow(u, -m, node), node)
    result = None
    base = u
    while m:
        if m & 1:
            result = base if result is None else result * base
        m >>= 1
        if m:
            base = base * base
    return result


_JET_CALLS = {"sin": lambda u, node: _jet_sincos(u)[0] if u.order else _Jet([np.sin(u.c[0])]),
              "cos": lambda u, node: _jet_sincos(u)[1] if u.order else _Jet([np.cos(u.c[0])]),
              "exp": lambda u, node: _jet_exp(u), "log": _jet_log, "sqrt": _jet_sqrt, "abs": _jet_abs}
_JET_OPS = {"+": lambda u, v, node: u + v, "-": lambda u, v, node: u - v,
            "*": lambda u, v, node: u * v, "/": lambda u, v, node: u.divide(v, node)}


def _compile(node: Node) -> Callable[[_Jet], _Jet]:
    """The map from the jet of t to the jet of ``node``: a tree of closures
    with the node dispatch and every constant exponent resolved here, once."""
    if isinstance(node, (Num, Const)):
        value = node.value if isinstance(node, Num) else _CONSTANTS[node.name]
        return lambda var: _jet_const(value, var)
    if isinstance(node, Var):
        return lambda var: var
    if isinstance(node, Neg):
        arg = _compile(node.arg)
        return lambda var: -arg(var)
    if isinstance(node, Call):
        arg, call = _compile(node.arg), _JET_CALLS[node.fn]
        return lambda var: call(arg(var), node)
    left = _compile(node.left)
    if node.op != "^":
        right, op = _compile(node.right), _JET_OPS[node.op]
        return lambda var: op(left(var), right(var), node)
    try:
        c = _const_exponent(node.right)
    except DomainError as exc:
        error = exc

        def bad_exponent(var):  # raised on use, after the base's own checks
            left(var)
            raise error.with_traceback(None)

        return bad_exponent
    if c is not None and _is_int(c):
        m = int(c)
        return lambda var: _jet_ipow(left(var), m, node)
    if c is not None:
        return lambda var: _jet_powc(left(var), c, node)
    right = _compile(node.right)

    def var_exponent(var):
        u = left(var)
        return _jet_exp(right(var) * _jet_log(u, node))

    return var_exponent


# ---------------------------------------------------------------------------
# Public API


@dataclass(frozen=True)
class TaylorJet:
    """Scaled derivatives of a function at one point.

    ``coefficients[j]`` equals ``f^(j)(center) / j!``, so the jet is the
    truncated Taylor expansion of f about ``center``.
    """

    center: float
    coefficients: tuple

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def derivative(self, j: int) -> float:
        """Return f^(j)(center)."""
        return self.coefficients[j] * math.factorial(j)


@dataclass(frozen=True)
class Expression:
    """Parsed, immutable expression in the single variable ``t``."""

    root: Node

    def eval(self, t: Scalar) -> Scalar:
        """Evaluate at a float or elementwise over a numpy array."""
        if isinstance(t, np.ndarray):
            return _sample(self, np.asarray(t, dtype=float), 0, "value from", "on sample grid")[0]
        return float(_sample(self, t, 0, "value from", "at t={!r}")[0])

    __call__ = eval

    def pretty(self) -> str:
        """Render back to source; re-parsing reproduces the same tree."""
        return _format(self.root)

    def derivatives(self, center: float, n: int) -> TaylorJet:
        return derivatives(self, center, n)

    @cached_property
    def _jet(self) -> Callable[[_Jet], _Jet]:
        """The jet map of this expression, compiled on first use (under the caller's errstate)."""
        return _compile(self.root)

    def __str__(self) -> str:
        return self.pretty()


def parse(source: str) -> Expression:
    """Parse ``source`` into an :class:`Expression`.

    Raises :class:`~fraccalc.errors.ParseError` (with byte offset) on bad
    syntax and :class:`~fraccalc.errors.UnknownIdentifierError` for names
    outside the grammar.
    """
    return Expression(_Parser(source).parse())


def check_order(n: int) -> None:
    """Raise ValueError unless a jet can be built to derivative order ``n``."""
    if not 0 <= n <= MAX_ORDER:
        raise ValueError(f"derivative order must be in [0, {MAX_ORDER}], got {n!r}")


def _sample(e: Expression, t, order: int, what: str, where: str, jet: bool = False) -> list:
    """One pass of ``e``'s compiled jet seeded at ``t`` to ``order``: at a
    float, or at every point of an array.

    Returns ``[f^(order)]``, or with ``jet`` every scaled coefficient, each
    a float or shaped like ``t``; raises DomainError unless all of them are
    finite.
    """
    array = isinstance(t, np.ndarray)
    x = t if array else float(t)
    zero = np.zeros_like(t) if order and array else 0.0
    seed = _Jet([x] + [zero + 1.0] * min(order, 1) + [zero] * (order - 1))
    with np.errstate(all="ignore"):
        coeffs = e._jet(seed).c
        out = coeffs if jet else [coeffs[order] * math.factorial(order)]
    if not all(np.isfinite(c).all() if array else math.isfinite(c) for c in out):
        raise DomainError(f"non-finite {what} {_format(e.root)} " + where.format(t))
    return out


def derivatives(e: Expression, center: float, n: int) -> TaylorJet:
    """Taylor jet of ``e`` at ``center`` up to order ``n`` (inclusive)."""
    check_order(n)
    center = float(center)
    coeffs = _sample(e, center, n, "derivative of", "at {!r}", jet=True)
    return TaylorJet(center, tuple(float(c) for c in coeffs))


def derivative_values(e: Expression, ts: Scalar, order: int) -> Scalar:
    """f^(order) of ``e`` at a float, or at every point of an array in one pass."""
    check_order(order)
    if isinstance(ts, np.ndarray):
        return _sample(e, np.asarray(ts, dtype=float), order, "derivative of", "on sample grid")[0]
    return float(_sample(e, ts, order, "derivative of", "at t={!r}")[0])
