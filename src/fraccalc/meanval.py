"""Fractional mean values and their polynomial estimator.

The mean value of f over [a, x] at order alpha is any point xi in (a, x)
with

    f(xi) * (x - a)^(1 - alpha) / Gamma(2 - alpha) = I^(1-alpha) f(x),

equivalently f(xi) = g(x) where g is the kernel-weighted average

    g(x) = Gamma(2 - alpha) * I^(1-alpha) f(x) * (x - a)^(alpha - 1).

The full preimage f^(-1){g(x)} can be infinite; this module reports the
finite subset it can certify: every root bracketed by a uniform sign
scan, refined by Brent's method (bracketing is used instead of Newton
because the crossings can be arbitrarily flat).  ``xi_sup`` is the
largest one.  Every root search in the package is a ``_root_search``, a
generator of the points it needs fn at, run point by point by ``_bisect``
(behind ``_find_roots``) for a float function, or side by side by
``_find_roots_together`` for the roots of D^alpha f
(``critical._d_alpha_roots``).  Mean values, of one window or of a window
table's many, are one routine, ``_mean_values``: it scans a batch of
windows in one sample, runs a batch's one live search point by point and
several in lockstep, asking for the same points either way.

For smooth f the supremum near a is also approximated by the roots of an
explicit polynomial in (xi - a) built from the Taylor coefficients of f
at a; its tail is a genuine fractional integral of f^(n+1) and is
computed, not estimated away.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, HypothesisError, MeanValueNotFoundError
from .expr import Expression, _scalar_loop, check_order, derivative_values, derivatives
from .fracops import (
    FractionalParams,
    FuncLike,
    Sampler,
    base_value,
    caputo_derivative,
    gamma,
    rl_integral,
    _check_count,
    _fill_grid,
    _grid,
    _in_batches,
    _power,
    _prime_sampler,
    _sampler,
)

__all__ = [
    "MeanValueResult",
    "PolynomialEstimate",
    "mean_value",
    "mean_value_polynomial",
    "xi_smoothness_profile",
    "mean_path_witness",
]


@dataclass(frozen=True)
class MeanValueResult:
    """Certified mean values of f over (a, x).

    ``lambda_set`` holds the bracketed roots in ascending order with
    matching ``residuals`` |f(xi) - g(x)|.  A constant-level case (f is
    indistinguishable from g(x) across the whole scan) is flagged
    ``degenerate`` instead of pretending to a root list.
    """

    target_g: float
    lambda_set: Tuple[float, ...]
    residuals: Tuple[float, ...]
    xi_sup: Optional[float]
    degenerate: bool = False


@dataclass(frozen=True)
class PolynomialEstimate:
    """Polynomial surrogate for the mean value near the base point.

    ``coefficients[j]`` multiplies (xi - a)^j; ``remainder_term`` is the
    computed fractional-integral tail of the truncated series, and
    ``reliable`` is False when that tail dominates the retained terms.
    """

    coefficients: Tuple[float, ...]
    remainder_term: float
    roots_in_range: Tuple[float, ...]
    n: int
    delta: float
    reliable: bool = True


def _brent(lo: float, hi: float, flo: float, fhi: float, tol: float):
    """Brent's method (Brent 1973, ch. 4) on a bracket with fn(lo) = flo and
    fn(hi) = fhi of opposite signs, as a search (see :func:`_root_search`):
    it yields each point where it needs fn as a one-point list, is sent
    [fn there], and returns the root with fn there.
    Locates the root to within tol/2, as a bisection stopped at width tol
    does, mostly by secant and inverse quadratic steps."""
    a, fa, b, fb = lo, flo, hi, fhi
    c, fc, d, e = a, fa, b - a, b - a
    half = [math.inf, math.inf]  # |c - b| / 2 two steps and one step back
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):  # keep the root between b and c
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol1 = 4.0 * math.ulp(b) + 0.25 * tol
        m = 0.5 * (c - b)
        if abs(m) <= tol1 or fb == 0.0:
            break
        # bisect if the bracket has not halved in two steps (flat crossings)
        interpolate = abs(e) >= tol1 and abs(fa) > abs(fb) and abs(m) <= 0.5 * half[0]
        half = [half[1], abs(m)]
        if interpolate:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = abs(p), (-q if p > 0.0 else q)
            interpolate = 2.0 * p < min(3.0 * m * q - abs(tol1 * q), abs(e * q))
        e, d = (d, p / q) if interpolate else (m, m)  # else bisect
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, m)
        (fb,) = yield [b]
    return float(b), fb


def _bisect(fn: Callable[[float], float], search):
    """Run ``search``, a :func:`_root_search` or a :func:`_brent`, calling fn
    at each point it asks for, one after another, and return its result.
    The points are evaluated under one ``np.errstate`` (``expr._scalar_loop``),
    not one per point."""
    with _scalar_loop():
        try:
            points = next(search)
            while True:
                points = search.send([fn(x) for x in points])
        except StopIteration as stop:
            return stop.value


def _sign_brackets(vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Indices i with vals[i] == 0, and i with a sign change from vals[i] to vals[i + 1]."""
    sign = np.sign(vals)
    return np.flatnonzero(sign == 0.0), np.flatnonzero(sign[:-1] * sign[1:] < 0.0)


def _root_search(xs: np.ndarray, vals: np.ndarray, tol: float, exact: bool):
    """The search of :func:`_find_roots`, as a generator that returns its roots.

    It yields each list of points it needs fn at and is sent fn's values
    there: first the scan's zeros, then every bracket end, then one point
    per step of Brent's method.  Its drivers, :func:`_bisect` and
    :func:`_find_roots_together`, ask fn for these points in this order.
    A driver that cannot evaluate a point drops the search.  Unless
    ``exact``, the scan comes from a cheaper rule than fn: zeros and
    bracket ends are checked with fn, an end whose sign disagrees with the
    scan moves one step outwards (the bracket is dropped if fn still shows
    no sign change), and a root reached from two brackets is reported once."""
    xs, vals = np.asarray(xs, dtype=float), np.array(vals, dtype=float)
    known: dict = {}
    at = lambda j: vals[j] if exact else known[j]  # noqa: E731  exact: the scan holds fn at every node

    def fetch(js):
        new = [int(j) for j in dict.fromkeys(js) if j not in known]
        if new:
            known.update(zip(new, (yield [float(xs[j]) for j in new])))

    same = lambda i, j: np.sign(at(i)) == np.sign(at(j)) != 0.0  # noqa: E731
    zeros, changes = _sign_brackets(vals)
    if not exact:  # a zero of the scan is checked with fn, then every bracket end is
        yield from fetch(zeros)
        vals[zeros] = [at(j) for j in zeros]
        zeros, changes = _sign_brackets(vals)
        yield from fetch(j for lo in changes for j in (lo, lo + 1))
    roots = [(float(xs[j]), at(j)) for j in zeros]
    for lo in changes:
        hi = lo + 1
        if same(lo, hi):
            lo, hi = (lo - 1, hi) if np.sign(at(lo)) != np.sign(vals[lo]) else (lo, hi + 1)
            if lo < 0 or hi == len(xs):
                continue
            yield from fetch((lo, hi))
            if same(lo, hi):
                continue
        if at(lo) == 0.0 or at(hi) == 0.0:
            j = lo if at(lo) == 0.0 else hi
            roots.append((float(xs[j]), at(j)))
        else:
            roots.append((yield from _brent(float(xs[lo]), float(xs[hi]), at(lo), at(hi), tol)))
    roots.sort()
    return [r for k, r in enumerate(roots) if k == 0 or r[0] - roots[k - 1][0] > tol]


def _find_roots(
    xs: np.ndarray, vals: np.ndarray, fn: Callable[[float], float], tol: float
) -> List[Tuple[float, float]]:
    """Roots of fn bracketed by its sign scan ``vals`` at ascending ``xs``,
    each refined by Brent's method and returned with fn there, in ascending
    order: :func:`_root_search` driven by :func:`_bisect`."""
    return _bisect(fn, _root_search(xs, vals, tol, True))


def _find_roots_together(searches: list, evaluate: Callable[[list], list]) -> list:
    """Run :func:`_root_search` generators side by side and return their results.

    Each round hands the points that every live search waits for to
    ``evaluate``, as (search index, point) pairs in search order; it returns
    one value per pair.  What a search or ``evaluate`` raises ends the run; a
    caller that needs the failure of the searches run one after another
    reruns them one at a time (``fracops._in_batches``)."""
    results: list = [None] * len(searches)
    waiting: dict = {}  # search index -> the points it waits for

    def resume(i, values):
        try:
            waiting[i] = searches[i].send(values)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(searches)):
        resume(i, None)
    while waiting:
        batch = sorted(waiting.items())
        waiting.clear()
        values = iter(evaluate([(i, x) for i, pts in batch for x in pts]))
        for i, pts in batch:
            resume(i, [next(values) for _ in pts])
    return results


def mean_value(
    f: FuncLike,
    p: FractionalParams,
    x: float,
    scan_n: int = 128,
) -> MeanValueResult:
    """All bracketed mean values of f over (p.a, x) and their supremum.

    Raises :class:`~fraccalc.errors.MeanValueNotFoundError` when the scan
    brackets nothing and the level is not degenerate; absence is reported,
    never fabricated.
    """
    iv = rl_integral(f, p, 1.0 - p.alpha, x).value  # checks x > a
    (mv,) = _mean_values(_sampler(f), [(p, x, iv)], _check_count("scan_n", scan_n, 16))
    if isinstance(mv, MeanValueNotFoundError):
        raise mv
    return mv


def _mean_values(sample: Sampler, windows: list, scan_n: int) -> list:
    """The mean values of the function ``sample`` samples at each (p, x, iv) of
    ``windows``, given iv = I^(1-alpha) f(x) over (p.a, x], as
    :func:`mean_value` finds them, with a MeanValueNotFoundError returned, not
    raised; ``scan_n`` is an int >= 16, checked by the caller.

    A window's level g(x) is scanned at the scan_n + 1 interior nodes of
    ``_grid(p.a, x, scan_n + 2)``; it is degenerate when f - g is within
    1e-12 * (1 + |g|) of 0 at every node, and otherwise its roots are one
    exact :func:`_root_search` to within 1e-12 * (x - p.a).  The windows go
    through ``fracops._in_batches``, at most ``_BATCH_MAX_POINTS`` scan nodes
    to a batch.  A batch's grids are the rows of one array, each filled as
    ``_grid`` fills it, and f is sampled at all their nodes in one call.  One
    live search runs point by point through :func:`_find_roots` on float samples;
    several run in lockstep through :func:`_find_roots_together`, each round
    one array sample, and ask for the same points.  A batch that raises runs
    again window by window, so its first failing window raises what its
    one-point samples raise."""

    def together(batch):
        gs = [gamma(2.0 - p.alpha) * iv * _power(x - p.a, p.alpha - 1.0) for p, x, iv in batch]
        grids = np.empty((len(batch), scan_n + 3))
        for row, (p, x, _) in zip(grids, batch):
            _fill_grid(row, p.a, x, scan_n + 2)
        ts = grids[:, 1:-1]
        fv = sample(ts.ravel()).reshape(ts.shape)  # ravel: the interior nodes, copied in order
        live = {}  # window index -> (nodes, f - g there, tol), where the level is not degenerate
        for i, (g, row, f_row, (p, x, _)) in enumerate(zip(gs, ts, fv, batch)):
            vals = f_row - g
            if not float(np.max(np.abs(vals))) <= 1e-12 * (1.0 + abs(g)):
                live[i] = (row, vals, 1e-12 * (x - p.a))
        if len(live) == 1:
            ((i, (row, vals, tol)),) = live.items()
            level = gs[i]
            found = {i: _find_roots(row, vals, lambda s: sample(s) - level, tol)}
        else:
            searches = {i: _root_search(row, vals, tol, True) for i, (row, vals, tol) in live.items()}
            levels = np.array([gs[i] for i in searches])

            def evaluate(points):  # f - g at each (search, point), in one sample
                return (sample(np.array([x for _, x in points])) - levels[[k for k, _ in points]]).tolist()

            found = dict(zip(searches, _find_roots_together(list(searches.values()), evaluate)))
        out = []
        for i, (g, (p, x, _)) in enumerate(zip(gs, batch)):
            roots = found.get(i)
            if roots is None:
                out.append(MeanValueResult(g, (), (), None, degenerate=True))
            elif not roots:
                out.append(MeanValueNotFoundError(
                    f"no crossing of the level g(x)={g!r} found on ({p.a!r}, {x!r}) "
                    f"with {scan_n + 1} scan points"
                ))
            else:
                xis = tuple(r for r, _ in roots)
                out.append(MeanValueResult(g, xis, tuple(abs(v) for _, v in roots), xis[-1]))
        return out

    return _in_batches(windows, scan_n + 1, together)


def mean_value_polynomial(
    f: Expression,
    p: FractionalParams,
    delta: float,
    n: int,
) -> PolynomialEstimate:
    """Degree-n polynomial in (xi - a) whose roots estimate the mean value.

    Built from the jet of f at a: the coefficient of x^j (j >= 1) is
    f^(j)(a) delta^(1-alpha) / (Gamma(2-alpha) j!) and the constant term
    collects the series terms -f^(j)(a) delta^(j+1-alpha) / Gamma(j+2-alpha)
    together with the computed tail I^(n+2-alpha) f^(n+1) at a + delta.
    For polynomial f of degree <= n the surrogate is exact.
    """
    n = _check_count("polynomial order n", n, 1)
    check_order(n + 1)  # the remainder samples f^(n+1)
    if not delta > 0.0:
        raise ValueError("delta must be > 0")
    a, alpha = p.a, p.alpha
    jet = derivatives(f, a, n)
    d_pow = delta ** (1.0 - alpha)

    coeffs = [0.0] * (n + 1)
    series_terms = []
    for j in range(1, n + 1):
        fj = jet.derivative(j)
        coeffs[j] = fj * d_pow / (gamma(2.0 - alpha) * math.factorial(j))
        series_terms.append(fj * _power(delta, j + 1.0 - alpha) / gamma(j + 2.0 - alpha))

    f_top = lambda ts: derivative_values(f, ts, n + 1)  # noqa: E731
    remainder = rl_integral(f_top, p, n + 2.0 - alpha, a + delta).value
    coeffs[0] = -sum(series_terms) - remainder
    carr = np.asarray(coeffs)
    ts = _grid(0.0, delta, 257)[0][1:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        vals = np.polynomial.polynomial.polyval(ts, carr)
    if not np.isfinite(vals).all():  # a series term or the polynomial itself
        raise DomainError(f"the mean-value polynomial overflows a float at delta={delta!r}, n={n}")

    largest_term = max((abs(s) for s in series_terms), default=0.0)
    if largest_term == 0.0:
        reliable = remainder == 0.0
    else:
        reliable = abs(remainder) <= largest_term
    if not reliable:
        warnings.warn(
            "mean-value polynomial: the integral tail exceeds every retained "
            "series term; the root estimate is unreliable at this (delta, n)",
            stacklevel=2,
        )

    poly_scalar = lambda s: float(np.polynomial.polynomial.polyval(s, carr))  # noqa: E731
    roots = _find_roots(ts, vals, poly_scalar, 1e-14 * delta)
    return PolynomialEstimate(tuple(coeffs), remainder, tuple(r for r, _ in roots), n, delta, reliable)


def check_strictly_monotone(f: FuncLike, lo: float, hi: float) -> int:
    """Return +1/-1 for strictly increasing/decreasing on (lo, hi) by sampling."""
    ts = _grid(lo, hi, 511)[0][1:]
    vals = _sampler(f)(ts)
    diffs = np.diff(vals)
    if np.all(diffs > 0.0):
        return 1
    if np.all(diffs < 0.0):
        return -1
    raise HypothesisError(
        f"function is not strictly monotone on ({lo!r}, {hi!r}) "
        "(checked on a sample grid)"
    )


def xi_smoothness_profile(
    f: FuncLike,
    p: FractionalParams,
    x_grid: Sequence[float],
) -> List[Tuple[float, float, float]]:
    """Tabulate x, xi_sup(x) and a finite-difference slope of xi_sup.

    Requires f strictly monotone (sampled check); the returned slopes are
    the numerical probe of the claim that the mean value varies
    continuously differentiably with x.
    """
    xs = [float(x) for x in x_grid]
    if len(xs) < 3:
        raise ValueError("need at least 3 grid points for slopes")
    if not all(lo < hi for lo, hi in zip(xs, xs[1:])):
        raise ValueError("x_grid must be strictly ascending")
    check_strictly_monotone(f, p.a, xs[-1])
    xis = [mean_value(f, p, x).xi_sup for x in xs]
    if None in xis:  # a degenerate mean value has no xi
        raise HypothesisError(f"mean value degenerate at x={xs[xis.index(None)]!r}; xi_sup undefined")
    rows: List[Tuple[float, float, float]] = []
    for i, x in enumerate(xs):
        if i == 0:
            slope = (xis[1] - xis[0]) / (xs[1] - xs[0])
        elif i == len(xs) - 1:
            slope = (xis[-1] - xis[-2]) / (xs[-1] - xs[-2])
        else:
            slope = (xis[i + 1] - xis[i - 1]) / (xs[i + 1] - xs[i - 1])
        rows.append((x, xis[i], slope))
    return rows


def mean_path_witness(
    f: Expression,
    h: Expression,
    p: FractionalParams,
    x_grid: Sequence[float],
) -> Optional[float]:
    """Search for a point where D^alpha f matches the derivative of the
    reparametrised average x -> f(h(x)) (x-a)^(1-alpha) / Gamma(2-alpha),
    taken on first-order jets of f and h by the chain and product rules.

    Returns a refined root of the difference, or None when the grid shows
    no sign change; None is a legitimate outcome (the existence statement
    needs h to have an interior extremum that touches the mean value).
    A nonzero f(a) is an AssumptionError.
    """
    xs = np.asarray([float(x) for x in x_grid])
    if not len(xs):
        raise ValueError("x_grid is empty: the search needs at least one point")
    if not np.all(xs > p.a):
        raise ValueError("x_grid must lie strictly right of the base point")
    a, alpha = p.a, p.alpha
    base_value(f, a)  # once: each residual is a Caputo derivative
    fp, hp = _prime_sampler(f), _prime_sampler(h)
    scale = 1.0 / gamma(2.0 - alpha)

    def residual(x: float) -> float:
        hx = h.eval(x)
        slope = fp(hx) * hp(x) * (x - a) + (1.0 - alpha) * f.eval(hx)
        return caputo_derivative(f, p, x).value - slope * (x - a) ** -alpha * scale

    roots = _find_roots(xs, [residual(float(x)) for x in xs], residual, 1e-10 * (xs[-1] - a))
    return roots[0][0] if roots else None
