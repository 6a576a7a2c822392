"""Fractional critical points: roots of x -> D^alpha f(x).

The module locates such roots (a sign scan read off one sample of f',
each bracket refined by Brent's method on the pointwise rule), realises
the existence construction (every interior zero of f is preceded by a
zero of its fractional derivative), probes the order-duality identity
for monotone functions, and traces the migration curve r(alpha): the
largest critical point near a chosen centre, which drifts from the root
of f (orders near 0) to the classical stationary point (orders near 1).

All derivative evaluations go through the Caputo form I^(1-alpha) f', so
the f(a) = 0 convention is enforced once per operation; root residuals
then measure only the solver, not numerical differentiation noise.

An order sweep (``critpoints`` and ``r_alpha_curve``) is one computation,
``_critical_sweep``, of which ``critical_points`` is the one-order case: one
f' sample on the scan grid serves every order's scan, and the root searches
of a group of orders advance in lockstep, each round of pointwise
quadratures (every bracket end, then one Brent step per search) evaluated
as one batch of grid rows by ``fracops._kernel_quad_rows``.  ``dilation_scenario`` runs
its table through the same batches.  The results, and the first failure
raised, are those of running the orders one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import HypothesisError, SolverError
# bench/tracing.py wraps derivative_values at each module that binds it
from .expr import Expression, derivative_values  # noqa: F401
from .fracops import (
    FractionalParams,
    FuncLike,
    Sampler,
    base_value,
    rl_derivative,
    _batch_rows,
    _grid,
    _kernel_quad_grid,
    _kernel_quad_rows,
    _prime_sampler,
    _sampler,
    _strided_integral,
)
from .meanval import _find_roots, _find_roots_together, _root_search, check_strictly_monotone, mean_value

__all__ = [
    "CriticalPointReport",
    "RAlphaSample",
    "RAlphaCurve",
    "DerivativeZeroResult",
    "OrderDualityResult",
    "DilationResult",
    "critical_points",
    "order_duality_check",
    "derivative_zero_before",
    "r_alpha_curve",
    "dilation_scenario",
]

#: sweeps never touch the endpoint orders; limits are probed by approach
ALPHA_MIN, ALPHA_MAX = 0.01, 0.99


@dataclass(frozen=True)
class CriticalPointReport:
    alpha: float
    roots: Tuple[float, ...]
    residuals: Tuple[float, ...]


@dataclass(frozen=True)
class RAlphaSample:
    alpha: float
    r_alpha: Optional[float]       # largest critical point inside the ball, if any
    global_sup: Optional[float]    # largest critical point anywhere in (a, b]


@dataclass(frozen=True)
class RAlphaCurve:
    samples: Tuple[RAlphaSample, ...]
    limit_targets: Tuple[float, float]  # (root of f, stationary point of f)
    gap_low_alpha: Optional[float]      # |global_sup(alpha_min) - root|
    gap_high_alpha: Optional[float]     # |r_alpha(alpha_max) - stationary point|


@dataclass(frozen=True)
class DerivativeZeroResult:
    xi: float
    residual: float
    degenerate: bool = False


@dataclass(frozen=True)
class OrderDualityResult:
    level_residual: float   # |f(xi(x)) - (x - a)^alpha|
    d_value: float          # D^(1-alpha) f(x)


@dataclass(frozen=True)
class DilationResult:
    rows: Tuple[Tuple[float, float], ...]  # (t, V(t))
    zero_time: Optional[float]             # first root of v located on the grid
    xi: Optional[float]                    # earlier vanishing time of V
    xi_residual: Optional[float]


def _scan(fp: Sampler, a: float, b: float, n: int, grid_n: int) -> tuple:
    """The nodes a + (b - a) i / n, i = 1..n, and one f' sample fv on k n >= grid_n
    panels of [a, b] (its nodes k i), with its step h and k: D^alpha f at the
    nodes is ``_strided_integral(fv, h, 1 - alpha, k)``."""
    k = -(-grid_n // n)
    ts, h = _grid(a, b, k * n)
    return ts[k::k], fp(ts), h, k


def _critical_sweep(
    f: Expression,
    ps: Sequence[FractionalParams],
    b: float,
    scan_n: int,
    allow_nonzero_base: Optional[bool] = None,
) -> List[CriticalPointReport]:
    """:func:`critical_points` at each of ``ps``, orders on one base point and
    grid_n, bit for bit, computed together: f(a) is checked once, f' sampled
    once on the scan grid, each order's scan read off that sample, and the
    root searches advanced side by side, so that each round of pointwise
    quadratures (first every bracket end, then one Brent step per search)
    is one batch.  The searches go in groups of as many orders as a batch
    has rows (one at the ``--grid-n`` cap), so the weight tables of a group
    stay cached between its rounds.  Raises what the first order to fail
    raises when the orders run one after another."""
    if not ps:
        return []
    a, grid_n = ps[0].a, ps[0].grid_n
    if not b > a:
        raise ValueError(f"need b > a, got b={b!r}, a={a!r}")
    if scan_n < 4:
        raise ValueError("scan_n must be >= 4")
    base_value(f, a, allow_nonzero=allow_nonzero_base)
    fp = _prime_sampler(f)
    xs, fv, h, k = _scan(fp, a, b, scan_n, grid_n)

    def search(mu):
        return (yield from _root_search(xs, _strided_integral(fv, h, mu, k), 1e-10 * (b - a), False))

    def group_roots(mus):
        def evaluate(points):
            rows = _kernel_quad_rows(fp, a, [x for _, x in points], [mus[i] for i, _ in points], grid_n)
            return [r if isinstance(r, Exception) else r[0] for r in rows]

        return _find_roots_together([search(mu) for mu in mus], evaluate)

    mus, per = [1.0 - p.alpha for p in ps], _batch_rows(grid_n)
    found = [r for i in range(0, len(mus), per) for r in group_roots(mus[i : i + per])]
    return [
        CriticalPointReport(p.alpha, tuple(r for r, _ in roots), tuple(abs(v) for _, v in roots))
        for p, roots in zip(ps, found)
    ]


def critical_points(
    f: Expression,
    p: FractionalParams,
    b: float,
    scan_n: int = 96,
    *,
    allow_nonzero_base: Optional[bool] = False,
) -> CriticalPointReport:
    """Roots of D^alpha f on (a, b], bracketed on a scan and refined by Brent.

    A caller that offers no ``allow_nonzero_base`` of its own passes None,
    so the refusal of a nonzero f(a) does not name it.  An order sweep runs
    as one computation through ``_critical_sweep``."""
    return _critical_sweep(f, [p], b, scan_n, allow_nonzero_base)[0]


def order_duality_check(f: FuncLike, p: FractionalParams, x: float) -> OrderDualityResult:
    """Residual pair for the duality between mean-value level crossings of
    (x - a)^alpha and roots of the order-(1 - alpha) derivative.

    Returns |f(xi(x)) - (x - a)^alpha| with xi taken from the mean value
    of the order-alpha integral (so the companion operator order is
    1 - alpha), together with D^(1-alpha) f(x).  The tested predicate is
    that both are zero together or nonzero together; for strictly
    monotone f vanishing at a both quantities stay one-signed away from
    the base point, so the nonzero branch is the live one.
    """
    if not x > p.a:
        raise ValueError(f"need x > a, got x={x!r}, a={p.a!r}")
    check_strictly_monotone(f, p.a, x)
    # mean value attached to I^alpha means the params order flips to 1 - alpha
    p_flip = FractionalParams(1.0 - p.alpha, p.a, p.grid_n)
    mv = mean_value(f, p_flip, x)
    if mv.degenerate or mv.xi_sup is None:
        raise HypothesisError("mean value degenerate; duality check undefined")
    fxi = _sampler(f)(mv.xi_sup)
    level_residual = abs(fxi - (x - p.a) ** p.alpha)
    d = rl_derivative(f, p_flip, x, allow_nonzero_base=None).value
    return OrderDualityResult(level_residual, d)


def derivative_zero_before(
    f: Expression,
    p: FractionalParams,
    x_zero: float,
    *,
    zero_tol: float = 1e-10,
) -> DerivativeZeroResult:
    """A point xi in (a, x_zero] where D^alpha f vanishes, given f(x_zero) = 0.

    Existence is guaranteed, so an empty search is a solver failure (the
    scan is refined a few times before giving up), not a valid answer.
    """
    if not x_zero > p.a:
        raise ValueError(f"need x_zero > a, got x_zero={x_zero!r}, a={p.a!r}")
    fx = _sampler(f)(x_zero)
    if abs(fx) > zero_tol:
        raise HypothesisError(f"f(x_zero) = {fx!r} is not 0 within {zero_tol!r}")
    base_value(f, p.a)
    fp = _prime_sampler(f)
    mu = 1.0 - p.alpha
    d = lambda x: _kernel_quad_grid(fp, p.a, x, mu, p.grid_n)[0]  # noqa: E731
    span = x_zero - p.a

    n = 96
    best_x, best_val = None, math.inf
    for _ in range(4):
        xs, fv, h, k = _scan(fp, p.a, x_zero, n, p.grid_n)
        vals = _strided_integral(fv, h, mu, k)
        scale = float(np.max(np.abs(vals)))
        if scale <= 1e-13:
            return DerivativeZeroResult(float(xs[0]), abs(float(vals[0])), degenerate=True)
        hits = _find_roots(xs, vals, d, 1e-12 * span, exact=False)
        if hits:
            return DerivativeZeroResult(hits[-1][0], abs(hits[-1][1]))
        k = int(np.argmin(np.abs(vals)))
        if abs(float(vals[k])) < best_val:
            best_x, best_val = float(xs[k]), abs(float(vals[k]))
        n *= 4
    # no sign change anywhere: accept a tangent root at the endpoint scale,
    # otherwise report the resolution failure (existence is not in doubt)
    if best_x is not None and best_val <= 1e-8 * scale:
        return DerivativeZeroResult(best_x, abs(d(best_x)))
    raise SolverError(
        f"no root of D^alpha f found on ({p.a!r}, {x_zero!r}] after refining "
        f"to {n // 4} scan points; existence is guaranteed, so this is a "
        "resolution failure"
    )


def _verify_single_extremum_and_root(f: Expression, a: float, b: float, x0: float) -> Tuple[float, float]:
    """Sampled check that f has exactly one stationary point and one root
    in (a, b], the stationary point close to the claimed x0; returns them,
    bracketed on a 2048-step scan and refined by Brent's method."""
    ts = _grid(a, b, 2048)[0][1:]
    slope = _prime_sampler(f)
    vals = f.eval(ts)
    if abs(float(vals[-1])) <= 1e-9 * max(1.0, float(np.max(np.abs(vals)))):
        vals[-1] = 0.0  # a root on the right endpoint, on whichever side of b it rounds
    tol = 1e-12 * (b - a)
    ext = [x for x, _ in _find_roots(ts, slope(ts), slope, tol)]
    roots = [x for x, _ in _find_roots(ts, vals, f.eval, tol)]
    if len(ext) != 1:
        raise HypothesisError(f"expected exactly one stationary point in ({a}, {b}), found {len(ext)}")
    if len(roots) != 1:
        raise HypothesisError(f"expected exactly one root of f in ({a}, {b}], found {len(roots)}")
    if abs(ext[0] - x0) > (b - a) / 16.0:
        raise HypothesisError(f"claimed stationary point {x0!r} is far from detected {ext[0]!r}")
    return ext[0], roots[0]


def r_alpha_curve(
    f: Expression,
    a: float,
    b: float,
    x0: float,
    eps: float,
    alpha_grid: Sequence[float],
    *,
    grid_n: int = 1024,
    scan_n: int = 96,
) -> RAlphaCurve:
    """Trace alpha -> r(alpha), the largest critical point near x0.

    For each order the ball-restricted supremum over B(x0, eps) is
    recorded (None when the ball holds no critical point: the quantity is
    defined conditionally) together with the unrestricted largest critical
    point in (a, b].  ``limit_targets`` holds f's unique root and
    stationary point, refined by Brent's method: the low-order gap is
    measured from the root, the high-order gap from the stationary point.
    """
    if not eps > 0.0:
        raise ValueError("eps must be > 0")
    x0_ref, x1_ref = _verify_single_extremum_and_root(f, a, b, x0)
    alphas = sorted(min(max(float(al), ALPHA_MIN), ALPHA_MAX) for al in alpha_grid)
    ps = [FractionalParams(al, a, grid_n) for al in alphas]
    samples: List[RAlphaSample] = []
    for al, report in zip(alphas, _critical_sweep(f, ps, b, scan_n)):
        in_ball = [r for r in report.roots if abs(r - x0) <= eps]
        samples.append(
            RAlphaSample(
                al,
                max(in_ball) if in_ball else None,
                max(report.roots) if report.roots else None,
            )
        )
    gap_low = None
    if samples and samples[0].global_sup is not None:
        gap_low = abs(samples[0].global_sup - x1_ref)
    gap_high = None
    if samples and samples[-1].r_alpha is not None:
        gap_high = abs(samples[-1].r_alpha - x0_ref)
    return RAlphaCurve(tuple(samples), (x1_ref, x0_ref), gap_low, gap_high)


def dilation_scenario(v: Expression, p: FractionalParams, t_grid: Sequence[float]) -> DilationResult:
    """Tabulate V(t) = D^alpha v(t), the rate seen through a memory kernel.

    If the plain rate v vanishes at some time t* on the grid range, the
    transformed rate V is guaranteed to vanish no later; the scenario
    reports that earlier time xi <= t* alongside the table.
    """
    ts = [float(t) for t in t_grid]
    if not ts:
        raise ValueError("t_grid is empty: the table needs at least one time")
    if any(t <= p.a for t in ts):
        raise ValueError("t_grid must lie strictly right of the base point")
    base_value(v, p.a)
    rows = []
    for t, out in zip(ts, _kernel_quad_rows(_prime_sampler(v), p.a, ts, [1.0 - p.alpha] * len(ts), p.grid_n)):
        if isinstance(out, Exception):
            raise out
        rows.append((t, out[0]))

    sample = _sampler(v)
    vvals = sample(np.asarray(ts))
    vscale = float(np.max(np.abs(vvals))) or 1.0
    vvals[np.abs(vvals) <= 1e-10 * vscale] = 0.0  # a grid point where v vanishes
    zeros = _find_roots(ts, vvals, sample, 1e-12 * (ts[-1] - p.a))
    if not zeros:
        return DilationResult(tuple(rows), None, None, None)
    zero_time = zeros[0][0]
    res = derivative_zero_before(v, p, zero_time, zero_tol=max(1e-10, 1e-9 * vscale))
    return DilationResult(tuple(rows), zero_time, res.xi, res.residual)
