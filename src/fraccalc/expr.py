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

Values and derivatives come from one rule: truncated Taylor series (jets)
are propagated through the expression tree, so a single pass yields f, f',
..., f^(n) exactly (up to rounding) instead of stacking finite
differences, and a value is the jet of order 0.  Orders go up to
``MAX_ORDER`` (170; 171! overflows a float).  Each expression is compiled
once per order, on first use, into a tree of closures with the node
dispatch resolved and every constant subtree that passes its domain checks
folded to a float, so a constant shifts or scales a jet and never enters a
product.  A constant subtree that fails them (``log(-1)``, ``1/0``) is
compiled like a variable one: ``parse`` never raises its error, a sample
does, after the checks of the operands evaluated before it.  Orders 0 and 1
run as straight-line code.  A value runs on values.  The f' that every
fractional derivative samples computes the slope alone: along the root's
chain of sums and constant scalings only slopes pass, and a product,
quotient, power or call there reads its operands' (value, slope) pairs and
returns its slope, so f's own value is never built; ``derivatives`` at
order 1 compiles the whole (value, slope) jet on its own.  Orders >= 2
(``derivatives``, ``polyxi``) run the coefficient recurrences on lists.  A
jet runs on a float or on a numpy array of points: ``eval`` and
``derivative_values`` map a float to a float (a QUADPACK or root-finder
callback is a jet of floats) and an array, of any size, to an array.  numpy
ufuncs are called on floats too, so a one-point sample equals the same
point of a grid bit for bit.  At a float, each is one call into the
expression's one-point sampler of that order (``_point_sampler``), built
once.  A sample silences floating-point warnings and checks its result
instead: under an ``np.errstate`` of its own, or inside a ``_scalar_loop``
under the loop's.  The QUADPACK call of ``fracops._kernel_quad_oracle``
and each point-by-point root search of ``meanval._find_roots`` are such
loops, so each of their callbacks and Brent steps runs its compiled map
and its finiteness check alone.  The root searches of the shape checks'
window mean values run in lockstep on array samples instead.

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
import operator
from contextvars import ContextVar
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
# A jet of order n holds [u, u'/1!, ..., u^(n)/n!] at the sample points,
# each coefficient a float or an array over a whole grid.  Each order has
# its own jet arithmetic (_Values, _Duals, _Series) behind one compiler
# (_build); a constant subtree is folded in _Values arithmetic with the
# domain checks of the order it is compiled for.


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


def _is_int(value: float) -> bool:
    return float(value).is_integer() and abs(value) < 2**31


# Domain checks on the values u0 under a node, for a jet of ``order``.


def _check_none(u0, order, node) -> None:
    pass


def _check_log(u0, order, node) -> None:
    if not _all(u0 > 0):
        raise DomainError(f"log of non-positive value in {_format(node)}")


def _check_sqrt(u0, order, node) -> None:
    if order and not _all(u0 > 0):
        raise DomainError(f"sqrt not differentiable at non-positive value in {_format(node)}")
    if not _all(u0 >= 0):
        raise DomainError(f"sqrt of negative value in {_format(node)}")


def _check_abs(u0, order, node) -> None:
    if order and _any(u0 == 0):
        raise DomainError(f"abs not differentiable at zero in {_format(node)}")


def _check_powc(u0, c, order, node) -> None:
    """u^c for a non-integer constant c needs a nonnegative base; at a zero
    base every coefficient up to the jet order is 0 if c exceeds it, else
    unbounded."""
    if not _all(u0 >= 0):
        raise DomainError(f"negative base with exponent {c!r} in {_format(node)}")
    if not c > order and _any(u0 == 0):
        what = "derivative" if order else "value"
        raise DomainError(f"unbounded {what} at zero base with exponent {c!r} in {_format(node)}")


def _check_divisor(v0, node) -> None:
    if _any(v0 == 0):
        raise DomainError(f"division by zero in {_format(node)}")


_CHECKS = {"log": _check_log, "sqrt": _check_sqrt, "abs": _check_abs}

# each function's value, and its slope from (u, u', value); only the slopes
# of exp and sqrt read the value
_CALLS = {
    "sin": (np.sin, lambda u0, u1, v: u1 * np.cos(u0)),
    "cos": (np.cos, lambda u0, u1, v: -(u1 * np.sin(u0))),
    "exp": (np.exp, lambda u0, u1, v: u1 * v),
    "log": (np.log, lambda u0, u1, v: u1 / u0),
    "sqrt": (np.sqrt, lambda u0, u1, v: u1 / (2.0 * v)),
    "abs": (np.abs, lambda u0, u1, v: np.sign(u0) * u1),
}
_SLOPE_READS_VALUE = ("exp", "sqrt")


def _whole(jet):
    """The map of t in an arithmetic of whole jets: the seed itself."""
    return jet


class _Values:
    """Order-0 jets: the values themselves.  A constant subtree is folded in
    this arithmetic with the domain checks of the order it is compiled for.

    Every arithmetic has a ``fold`` (this one, at its order), a ``full``
    arithmetic whose whole jets its products, quotients, powers and calls
    read (itself, but for ``_Slopes``), and ``read``, the part of t's jet
    that its maps pass on."""

    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    shift, scale, divc = operator.add, operator.mul, operator.truediv
    read = staticmethod(_whole)

    def __init__(self, order: int = 0):
        self.order = order
        self.fold = self.full = self

    @staticmethod
    def const(c, u):
        return u * 0.0 + c

    @staticmethod
    def div(u, v, node):
        _check_divisor(v, node)
        return u / v

    cdiv = div

    def call(self, fn, node):
        check, value, order = _CHECKS.get(fn, _check_none), _CALLS[fn][0], self.order

        def call(u):
            check(u, order, node)
            return value(u)

        return call

    def powc(self, c, node):
        order = self.order

        def powc(u):
            _check_powc(u, c, order, node)
            return np.power(u, c)

        return powc


def _product_slope(u, v):
    return u[0] * v[1] + u[1] * v[0]


class _Duals:
    """Order-1 jets: (value, slope) pairs."""

    fold = _Values(1)
    read = staticmethod(_whole)

    @staticmethod
    def add(u, v):
        return u[0] + v[0], u[1] + v[1]

    @staticmethod
    def sub(u, v):
        return u[0] - v[0], u[1] - v[1]

    @staticmethod
    def mul(u, v):
        return u[0] * v[0], _product_slope(u, v)

    @staticmethod
    def neg(u):
        return -u[0], -u[1]

    @staticmethod
    def shift(u, c):
        return u[0] + c, u[1]

    @staticmethod
    def scale(u, c):
        return u[0] * c, u[1] * c

    @staticmethod
    def divc(u, c):
        return u[0] / c, u[1] / c

    @staticmethod
    def div(u, v, node):
        _check_divisor(v[0], node)
        q = u[0] / v[0]
        return q, (u[1] - q * v[1]) / v[0]

    @staticmethod
    def cdiv(c, v, node):
        _check_divisor(v[0], node)
        q = c / v[0]
        return q, -(q * v[1]) / v[0]

    @staticmethod
    def const(c, u):
        zero = u[0] * 0.0
        return zero + c, zero

    @staticmethod
    def call(fn, node):
        check, (value, slope) = _CHECKS.get(fn, _check_none), _CALLS[fn]

        def call(u):
            u0, u1 = u
            check(u0, 1, node)
            v = value(u0)
            return v, slope(u0, u1, v)

        return call

    @staticmethod
    def powc(c, node):
        cm = (c + 1.0) - 1  # (c + 1)j - k of the recurrence at j = k = 1

        def powc(u):
            u0, u1 = u
            _check_powc(u0, c, 1, node)
            v = np.power(u0, c)
            zero = u0 == 0
            base = np.where(zero, 1.0, u0) if _any(zero) else u0  # masked: no 0/0
            return v, cm * u1 * v / base

        return powc


_Duals.full = _Duals


def _slope_of(op):
    """The (value, slope) operation ``op`` returning its slope alone."""
    return lambda *args: op(*args)[1]


class _Slopes:
    """Order-1 maps that return the slope alone, the f' of ``derivative_values``.

    Along the root's chain of + - and negation and a constant's shift,
    scale or division, only slopes pass, and t's is the float 1.0.  A
    product, a quotient, a power or a call on that chain reads its operands'
    whole (value, slope) jets and returns its slope; it computes its own
    value only where the slope reads it: exp, sqrt, a non-integer power, a
    quotient and a variable exponent.  The formulas are ``_Duals``'s."""

    fold, full = _Duals.fold, _Duals
    read = staticmethod(operator.itemgetter(1))
    add, sub, neg = operator.add, operator.sub, operator.neg
    scale, divc = operator.mul, operator.truediv
    mul = staticmethod(_product_slope)
    div, cdiv, const = (staticmethod(_slope_of(op)) for op in (_Duals.div, _Duals.cdiv, _Duals.const))

    @staticmethod
    def shift(s, c):
        return s

    @staticmethod
    def call(fn, node):
        if fn in _SLOPE_READS_VALUE:
            return _slope_of(_Duals.call(fn, node))
        check, slope = _CHECKS.get(fn, _check_none), _CALLS[fn][1]

        def call(u):
            u0 = u[0]
            check(u0, 1, node)
            return slope(u0, u[1], None)

        return call

    @staticmethod
    def powc(c, node):
        return _slope_of(_Duals.powc(c, node))


def _exp(u: list) -> list:
    out = [np.exp(u[0])]
    for k in range(1, len(u)):
        acc = u[1] * out[k - 1]
        for j in range(2, k + 1):
            acc = acc + j * u[j] * out[k - j]
        out.append(acc / k)
    return out


def _log(u: list) -> list:
    out = [np.log(u[0])]
    for k in range(1, len(u)):
        acc = u[k] * k
        for j in range(1, k):
            acc = acc - j * out[j] * u[k - j]
        out.append(acc / (k * u[0]))
    return out


def _sincos(u: list):
    s = [np.sin(u[0])]
    c = [np.cos(u[0])]
    for k in range(1, len(u)):
        sa = 0.0
        ca = 0.0
        for j in range(1, k + 1):
            sa = sa + j * u[j] * c[k - j]
            ca = ca + j * u[j] * s[k - j]
        s.append(sa / k)
        c.append(-ca / k)
    return s, c


def _sqrt(u: list) -> list:
    out = [np.sqrt(u[0])]
    for k in range(1, len(u)):
        acc = u[k]
        for j in range(1, k):
            acc = acc - out[j] * out[k - j]
        out.append(acc / (2.0 * out[0]))
    return out


def _abs(u: list) -> list:
    s = np.sign(u[0])
    return [np.abs(u[0])] + [s * a for a in u[1:]]


_SERIES_CALLS = {"sin": lambda u: _sincos(u)[0], "cos": lambda u: _sincos(u)[1],
                 "exp": _exp, "log": _log, "sqrt": _sqrt, "abs": _abs}


class _Series:
    """Jets of order >= 2: coefficient lists, by the Taylor recurrences."""

    read = staticmethod(_whole)

    def __init__(self, order: int):
        self.order = order
        self.fold = _Values(order)
        self.full = self

    @staticmethod
    def add(u, v):
        return [a + b for a, b in zip(u, v)]

    @staticmethod
    def sub(u, v):
        return [a - b for a, b in zip(u, v)]

    @staticmethod
    def mul(u, v):
        out = []
        for k in range(len(u)):
            acc = u[0] * v[k]
            for i in range(1, k + 1):
                acc = acc + u[i] * v[k - i]
            out.append(acc)
        return out

    @staticmethod
    def neg(u):
        return [-a for a in u]

    @staticmethod
    def shift(u, c):
        return [u[0] + c] + u[1:]

    @staticmethod
    def scale(u, c):
        return [a * c for a in u]

    @staticmethod
    def divc(u, c):
        return [a / c for a in u]

    @staticmethod
    def div(u, v, node):
        _check_divisor(v[0], node)
        out = []
        for k in range(len(u)):
            acc = u[k]
            for i in range(k):
                acc = acc - out[i] * v[k - i]
            out.append(acc / v[0])
        return out

    @classmethod
    def cdiv(cls, c, v, node):
        return cls.div([c] + [0.0] * (len(v) - 1), v, node)

    @staticmethod
    def const(c, u):
        zero = u[0] * 0.0
        return [zero + c] + [zero] * (len(u) - 1)

    def call(self, fn, node):
        check, series, order = _CHECKS.get(fn, _check_none), _SERIES_CALLS[fn], self.order

        def call(u):
            check(u[0], order, node)
            return series(u)

        return call

    def powc(self, c, node):
        order = self.order

        def powc(u):
            _check_powc(u[0], c, order, node)
            zero = u[0] == 0
            base = np.where(zero, 1.0, u[0])  # masked: no 0/0 in the recurrence
            out = [np.where(zero, 0.0, np.power(base, c))]
            for k in range(1, len(u)):
                acc = 0.0
                for j in range(1, k + 1):
                    acc = acc + ((c + 1.0) * j - k) * u[j] * out[k - j]
                out.append(acc / (k * base))
            return out

        return powc


def _ipow(alg, m: int, node):
    """u -> u^m by repeated squaring, valid for any base sign; a negative m is
    1/u^-m, so it refuses a zero base.  The squarings and products are taken
    on whole jets, but for m > 1 the last one is ``alg``'s own."""
    if m == 0:
        const = alg.const
        return lambda u: const(1.0, u)
    if m == 1:
        return alg.read
    k, cdiv = abs(m), alg.cdiv
    muls = [alg.full.mul] * (k.bit_length() + bin(k).count("1") - 2)  # in the order the loop takes them
    if m > 0:
        muls[-1] = alg.mul

    def ipow(u):
        step = iter(muls)
        result, base, k = None, u, abs(m)
        while k:
            if k & 1:
                result = base if result is None else next(step)(result, base)
            k >>= 1
            if k:
                base = next(step)(base, base)
        return cdiv(1.0, result, node) if m < 0 else result

    return ipow


def _held(alg, c: float):
    """The map of a constant ``c`` whose operation fails: one jet at every t, nan too."""
    order = alg.fold.order
    jet = alg.const(c, [0.0] * (order + 1) if order else 0.0)
    return lambda _: jet


# The jet map of a subtree is a float for a constant subtree whose fold passes
# its domain checks, else a closure.  An operation whose fold fails is
# compiled on its held operand like any other, so the same check raises on
# a sample, after the checks of the operands evaluated before it.


def _unary(make, alg, arg):
    """The map of the operation ``make(alg)`` applied to the map ``arg``."""
    if isinstance(arg, float):
        try:
            return float(make(alg.fold)(arg))
        except DomainError:  # only a call or a power fails, and both read whole jets
            arg = _held(alg.full, arg)
    op = make(alg)
    return lambda jet: op(arg(jet))


def _binary(node: BinOp, alg):
    """The map of ``left op right`` for + - * /; a constant operand shifts or
    scales the other one, and a zero divisor is left to ``div``, which
    refuses it after the left operand's checks.  A product or quotient of
    two maps reads their whole jets (``alg.full``); a sum, a difference and
    a constant's shift, scale or division read them in ``alg``."""
    op = node.op
    sub = alg.full if op in "*/" else alg
    left, right = _build(node.left, sub), _build(node.right, sub)
    if op == "/" and isinstance(right, float) and right == 0:
        right = _held(sub, right)
    if isinstance(left, float) and isinstance(right, float):
        return float(_FOLDS[op](left, right))
    if isinstance(right, float):
        c = -right if op == "-" else right
        f = {"+": alg.shift, "-": alg.shift, "*": alg.scale, "/": alg.divc}[op]
        left = left if sub is alg else _build(node.left, alg)
        return lambda jet: f(left(jet), c)
    if isinstance(left, float):
        c = left
        if op == "/":
            cdiv = alg.cdiv
            return lambda jet: cdiv(c, right(jet), node)
        if op == "-":
            shift, neg = alg.shift, alg.neg
            return lambda jet: shift(neg(right(jet)), c)
        f = alg.shift if op == "+" else alg.scale
        right = right if sub is alg else _build(node.right, alg)
        return lambda jet: f(right(jet), c)
    if op == "/":
        div = alg.div
        return lambda jet: div(left(jet), right(jet), node)
    f = {"+": alg.add, "-": alg.sub, "*": alg.mul}[op]
    return lambda jet: f(left(jet), right(jet))


_FOLDS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _power(node: BinOp, left, alg):
    """The map of ``left ^ node.right``: a constant exponent is resolved here,
    at order 0, and one that fails its checks raises their order-0 message on
    a sample, after the base's checks; a variable one is ``exp(right *
    log(left))``, its exponent evaluated before the log of its base.  Only
    the last operation is ``alg``'s; ``left`` and the rest read whole jets."""
    full, var = alg.full, _contains_var(node.right)
    right = _build(node.right, full if var else _Values())
    if isinstance(right, float):
        c = right
        if _is_int(c):
            m = int(c)
            return _unary(lambda a: _ipow(a, m, node), alg, left)
        return _unary(lambda a: a.powc(c, node), alg, left)
    if not var:  # a failing exponent: its order-0 map raises on any value
        return _unary(lambda a: lambda u: right(0.0), alg, left)
    exp, log, mul = alg.call("exp", node), full.call("log", node), full.mul
    if isinstance(left, float):
        log_c = _unary(lambda a: a.call("log", node), full, left)
        if isinstance(log_c, float):
            scale = full.scale
            return lambda jet: exp(scale(right(jet), log_c))
        left = _held(full, left)

    def power(jet):
        u = left(jet)
        return exp(mul(right(jet), log(u)))

    return power


def _build(node: Node, alg):
    """The jet map of ``node`` in the jet arithmetic ``alg``."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Const):
        return _CONSTANTS[node.name]
    if isinstance(node, Var):
        return alg.read
    if isinstance(node, Neg):
        return _unary(lambda a: a.neg, alg, _build(node.arg, alg))
    if isinstance(node, Call):
        return _unary(lambda a: a.call(node.fn, node), alg, _build(node.arg, alg.full))
    if node.op == "^":
        return _power(node, _build(node.left, alg.full), alg)
    return _binary(node, alg)


def _map(root: Node, alg) -> Callable:
    """The map from the jet of t to ``root``'s in the arithmetic ``alg``: a
    tree of closures with the node dispatch and every constant subtree and
    constant exponent that passes its checks resolved here, once."""
    jet = _build(root, alg)
    return (lambda seed: alg.const(jet, seed)) if isinstance(jet, float) else jet


def _compile(root: Node, order: int) -> Callable:
    """The map that ``eval`` and ``derivative_values`` run at ``order``: to
    ``root``'s value at order 0, its slope alone at order 1 and every
    coefficient of its jet at orders >= 2."""
    return _map(root, _Values() if order == 0 else _Slopes if order == 1 else _Series(order))


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
        return (self._points.get(0) or _point_sampler(self, 0))(t, "value from")

    __call__ = eval

    def pretty(self) -> str:
        """Render back to source; re-parsing reproduces the same tree."""
        return _format(self.root)

    @cached_property
    def _jets(self) -> dict:
        """This expression's compiled maps, each on first use: per order the
        one that ``eval`` and ``derivative_values`` run (at order 1 to the
        slope alone), and under "duals" the whole (value, slope) jet that
        ``derivatives`` reads at order 1; at other orders it shares the
        order's map."""
        return {}

    @cached_property
    def _points(self) -> dict:
        """Per order, the one-point sampler of :func:`_point_sampler`, built on first use."""
        return {}

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


#: True while a ``_scalar_loop`` holds the errstate that float samples share
_IN_SCALAR_LOOP = ContextVar("fraccalc_scalar_loop", default=False)


class _scalar_loop:
    """Hold ``np.errstate(all="ignore")`` once around a loop of one-point
    samples, such as the callbacks of one QUADPACK call or the steps of one
    root search; a float sample inside it runs its compiled map and its
    finiteness check without entering an errstate of its own.  Leaving it,
    also by an exception, restores the errstate and the context variable.

    Enter it only around code that runs the whole loop before it returns,
    never across a ``yield``: the context variable, like numpy's errstate,
    set inside a suspended generator holds in the code that drives it."""

    __slots__ = ("_errstate", "_token")

    def __enter__(self) -> None:
        self._errstate = np.errstate(all="ignore")
        self._errstate.__enter__()
        self._token = _IN_SCALAR_LOOP.set(True)

    def __exit__(self, *exc) -> None:
        try:
            self._errstate.__exit__(*exc)
        finally:
            _IN_SCALAR_LOOP.reset(self._token)


def _silenced(fn: Callable, *args):
    """fn(*args) with every floating-point warning silenced: by the errstate
    of the enclosing ``_scalar_loop``, or outside one by an errstate of its own."""
    if _IN_SCALAR_LOOP.get():
        return fn(*args)
    with np.errstate(all="ignore"):
        return fn(*args)


def _compiled(e: Expression, key) -> Callable:
    """``e``'s map under ``key``, an order or "duals" (the whole order-1 jet
    that ``derivatives`` reads), compiled on first use; call it silenced:
    folding constants computes too."""
    run = e._jets.get(key)
    if run is None:
        run = e._jets[key] = _map(e.root, _Duals) if key == "duals" else _compile(e.root, key)
    return run


def _point_sampler(e: Expression, order: int) -> Callable[[float, str], float]:
    """``e``'s sampler of f^(order) at one float, kept in ``e._points``:
    ``sample(t, what)`` runs the compiled map under the errstate rule of
    :func:`_silenced`, inlined, and checks that the result is finite, or
    raises DomainError("non-finite {what} {e} at t={t!r}")."""
    run = _silenced(_compiled, e, order)
    if order >= 2:  # the recurrences give scaled coefficients
        series, factor = run, math.factorial(order)
        run = lambda seed: series(seed)[order] * factor  # noqa: E731

    def sample(t, what: str) -> float:
        x = float(t)
        seed = x if order == 0 else (x, 1.0) if order == 1 else [x, 1.0] + [0.0] * (order - 1)
        if _IN_SCALAR_LOOP.get():
            c = run(seed)
        else:
            with np.errstate(all="ignore"):
                c = run(seed)
        if not math.isfinite(c):
            raise DomainError(f"non-finite {what} {_format(e.root)} at t={t!r}")
        return float(c)

    e._points[order] = sample
    return sample


def _sample(e: Expression, t, order: int, what: str, where: str, jet: bool = False) -> list:
    """One pass of ``e``'s compiled map seeded at ``t`` to ``order``: at every
    point of an array, or with ``jet`` at a float.

    Returns ``[f^(order)]``, or with ``jet`` every scaled coefficient, each
    a float or shaped like ``t``; raises DomainError unless all of them are
    finite.  The whole order-1 jet has its own map, under the key "duals".
    A one-point sample of f^(order) alone is :func:`_point_sampler`'s."""
    return _silenced(_sample_silenced, e, t, order, what, where, jet)


def _sample_silenced(e: Expression, t, order: int, what: str, where: str, jet: bool) -> list:
    """:func:`_sample` under an errstate that silences every floating-point
    warning, held by its caller."""
    array = isinstance(t, np.ndarray)
    x = t if array else float(t)
    if order == 0:
        seed = x
    else:
        seed = (x, 1.0) if order == 1 else [x, 1.0] + [np.zeros_like(x) if array else 0.0] * (order - 1)
    coeffs = _compiled(e, "duals" if jet and order == 1 else order)(seed)
    # a finite scaled coefficient times order! may overflow: checked below
    out = list(coeffs) if jet and order else [coeffs] if order < 2 else [coeffs[order] * math.factorial(order)]
    if array and not isinstance(out[0], np.ndarray):  # a slope that reads no t, such as 2*t's
        out = [np.full(x.shape, out[0])[()]]  # [()]: a scalar at a 0-d t, as numpy arithmetic gives
    elif array and out[0] is x:  # the value of t itself, or of t^1: a copy, never the caller's array
        out = [x.copy()[()]]
    for c in out:
        if not (np.isfinite(c).all() if array else math.isfinite(c)):
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
    return (e._points.get(order) or _point_sampler(e, order))(ts, "derivative of")
