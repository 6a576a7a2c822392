"""Order and shape analysis through windowed fractional derivatives.

The pointwise order on classical derivatives has no direct analogue for
memory operators, so comparisons are made over equal-length windows: f is
delta-increasing when the window-restarted derivative never decreases as
the window slides right.  A companion regularity notion, property (P),
asks that the window mean value sit at the same offset from every window
start.  Together they tie convexity to fractional monotonicity: for f
with a property-(P) derivative,

    D_w[x0] f - D_w[y0] f = delta^(1-alpha)/Gamma(2-alpha) * (f'(xi_x) - f'(xi_y)),

so the sliding-window order agrees with the order of f' at the matched
mean values.  All verdicts here are sampled evidence over explicit window
pairs, never proofs, and failed checks carry quantified witnesses.

Each distinct window is evaluated once.  Its integral I^(1-alpha) f' over
[x0, x0 + delta] is both the windowed derivative of f and the level that
locates the mean value of f' on the window, so the mean value reuses it;
the delta-increasing, property-(P), f'(xi)-monotone and bridge verdicts
are all read off that one table.  Its caller hands it the quadrature: the
product rule on ``grid_n`` panels, or in ``convexity_equivalence`` the oracle.
Every window is integrated first; then the mean values are located batch
by batch by ``meanval._mean_values``: one sample scans the windows of a
batch, and their root searches run in lockstep, each round of Brent steps
one array sample, or point by point if one is live.  Each mean value is
bit for bit the one that the window alone gives.  A failing table raises its first failing integral,
else the first failure of its first failing batch, as the windows of that
batch would meet it one after another.  f' at the mean values of all pairs
is then one sample.

Window convention: the derivative over a window [x0, x0 + delta] is
``caputo_derivative`` with base x0 evaluated at x0 + delta, i.e.
I^(1-alpha) f' over the window with the function's own values on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fracops
from .errors import DomainError, HypothesisError
# bench/tracing.py wraps derivative_values at each module that binds it
from .expr import Expression, derivative_values  # noqa: F401
from .fracops import (
    FractionalParams,
    FuncLike,
    Sampler,
    gamma,
    integral_on_grid,
    _check_alpha,
    _check_count,
    _grid,
    _kernel_quad_grid,
    _prime_sampler,
    _sampler,
)
from .meanval import _mean_values

__all__ = [
    "WindowPairSample",
    "Violation",
    "ShapeVerdict",
    "ConvexityReport",
    "sample_window_pairs",
    "delta_increasing_check",
    "property_P_check",
    "convexity_equivalence",
    "monotonicity_certificate",
    "comparison_check",
    "periodicity_defect",
]

#: relative tolerance of the monotonicity and comparison hypotheses and conclusions
_HYPOTHESIS_TOL = 1e-9


@dataclass(frozen=True)
class WindowPairSample:
    """Two disjoint windows of common length: [x0, x0+d] left of [y0, y0+d]."""

    x0: float
    y0: float
    delta: float

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("delta must be > 0")
        if not self.x0 + self.delta < self.y0:
            raise ValueError(
                f"windows must be disjoint and ordered: x0+delta={self.x0 + self.delta!r} "
                f"must be < y0={self.y0!r}"
            )


@dataclass(frozen=True)
class Violation:
    where: Tuple[float, ...]
    margin: float


@dataclass(frozen=True)
class ShapeVerdict:
    """Outcome of one sampled shape check.

    ``holds`` is True/False for decided checks and None when the check is
    not applicable (hypothesis failed) or purely a measurement; ``defect``
    carries the measured magnitude where one exists.  False verdicts list
    witnesses with their violation margins; a measurement lists its
    per-point values there.
    """

    property: str
    holds: Optional[bool]
    defect: Optional[float] = None
    witnesses: Tuple[Violation, ...] = ()
    note: str = ""
    info: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ConvexityReport:
    convex_sampled: bool
    delta_incr: ShapeVerdict
    fprime_xi_monotone: ShapeVerdict
    property_P_fprime: ShapeVerdict
    bridge_residual_max: float
    equivalence: Optional[bool]  # None when the property-(P) gate fails


def sample_window_pairs(
    lo: float,
    hi: float,
    delta: float,
    n_pairs: int = 32,
    seed: int = 0,
) -> Tuple[WindowPairSample, ...]:
    """Latin-hypercube sample of admissible ordered window pairs.

    Strata are permuted with a seeded generator, so a fixed seed yields a
    reproducible, deterministic pair set.
    """
    if not delta > 0.0:
        raise ValueError("delta must be > 0")
    n_pairs = _check_count("n_pairs", n_pairs, 1)
    gap = 1e-3 * delta
    span = hi - lo - 2.0 * delta - gap
    if span <= 0.0:
        raise ValueError("interval too short for two disjoint windows of this length")
    if not math.isfinite(span):
        raise DomainError(f"the interval [{lo!r}, {hi!r}] is wider than a float")
    rng = np.random.RandomState(seed)
    u = (rng.permutation(n_pairs) + rng.uniform(0.0, 1.0, n_pairs)) / n_pairs
    v = (rng.permutation(n_pairs) + rng.uniform(0.0, 1.0, n_pairs)) / n_pairs
    pairs = []
    for ui, vi in zip(u, v):
        x0 = lo + ui * span
        y0_min = x0 + delta + gap
        y0 = y0_min + vi * (hi - delta - y0_min)
        pairs.append(WindowPairSample(float(x0), float(y0), delta))
    return tuple(pairs)


def _window_table(
    phi: Sampler, alpha: float, delta: float, pair_samples: Sequence[WindowPairSample],
    quad: Callable[[Sampler, float, float, float], tuple], scan_n: Optional[int] = None,
) -> Dict[float, tuple]:
    """Each distinct window start x0, in pair order, mapped to I^(1-alpha) phi
    over [x0, x0 + delta] and, given ``scan_n``, the offset xi - x0 of phi's
    mean value on the window: None when degenerate, the
    MeanValueNotFoundError when no crossing brackets.  The mean value reuses
    the window integral, so each window is integrated once, by the caller's
    ``quad(phi, x0, x0 + delta, 1 - alpha)``, which returns (value, error).
    Every window is integrated before any is scanned; the mean values are
    ``meanval._mean_values`` of all windows, whose batches are scanned in one
    sample each, so the first failing integral is raised first, then the
    first failure of the first failing batch.
    An empty pair sample is a ValueError: no verdict rests on no evidence;
    so is a ``scan_n`` that is not an integer >= 16, before any window."""
    if not pair_samples:
        raise ValueError("pair_samples must hold at least one window pair")
    if scan_n is not None:
        scan_n = _check_count("scan_n", scan_n, 16)
    table: Dict[float, tuple] = {}
    windows = []
    for x0 in dict.fromkeys(x for pair in pair_samples for x in (pair.x0, pair.y0)):
        p = FractionalParams(alpha, x0)
        value = quad(phi, x0, x0 + delta, 1.0 - alpha)[0]
        if not math.isfinite(value):
            raise DomainError(f"non-finite quadrature value over [{x0!r}, {x0 + delta!r}]")
        table[x0] = (value, None)
        windows.append((p, x0 + delta, value))
    if scan_n is not None:
        for (p, _, value), mv in zip(windows, _mean_values(phi, windows, scan_n)):
            offset = mv if isinstance(mv, Exception) else None if mv.degenerate else mv.xi_sup - p.a
            table[p.a] = (value, offset)
    return table


def _product_rule(grid_n: int) -> Callable[[Sampler, float, float, float], tuple]:
    """``_window_table``'s quadrature by the product rule on grid_n panels: ``_kernel_quad_grid`` at one pair."""
    return lambda phi, a, x, mu: _kernel_quad_grid(phi, a, [x], [mu], grid_n)[0]


def _order_verdict(name: str, gaps: Sequence[Tuple[WindowPairSample, float, float]]) -> ShapeVerdict:
    """Nondecreasing across the pairs unless some (pair, gap, allowance) has a
    gap (left value minus right value) above its allowance."""
    violations = tuple(Violation((p.x0, p.y0), gap) for p, gap, allowance in gaps if gap > allowance)
    return ShapeVerdict(name, not violations, max([0.0] + [v.margin for v in violations]), violations)


def _delta_increasing_verdict(table, pair_samples) -> ShapeVerdict:
    gaps = []
    for pair in pair_samples:
        wx, wy = table[pair.x0][0], table[pair.y0][0]
        gaps.append((pair, wx - wy, 1e-8 * (1.0 + max(abs(wx), abs(wy)))))
    return _order_verdict("delta_increasing", gaps)


def _property_P_verdict(table, pair_samples, delta: float) -> ShapeVerdict:
    violations: List[Violation] = []
    inconclusive = 0
    worst = 0.0
    for pair in pair_samples:
        ox, oy = table[pair.x0][1], table[pair.y0][1]
        if isinstance(ox, Exception) or isinstance(oy, Exception):
            inconclusive += 1
        elif ox is not None and oy is not None:  # a degenerate level fits any offset
            diff = abs(ox - oy)
            worst = max(worst, diff)
            if diff > 1e-6 * delta:
                violations.append(Violation((pair.x0, pair.y0), diff))
    if violations:
        return ShapeVerdict("property_P", False, worst, tuple(violations))
    if inconclusive:
        return ShapeVerdict(
            "property_P", None, worst,
            note=f"{inconclusive} pair(s) inconclusive: no mean value bracketed",
        )
    return ShapeVerdict("property_P", True, worst)


def delta_increasing_check(
    f: Expression,
    alpha: float,
    delta: float,
    pair_samples: Sequence[WindowPairSample],
    grid_n: int = 1024,
) -> ShapeVerdict:
    """Is the windowed derivative nondecreasing across the sampled pairs?"""
    _check_count("grid_n", grid_n, 2)
    table = _window_table(_prime_sampler(f), alpha, delta, pair_samples, _product_rule(grid_n))
    return _delta_increasing_verdict(table, pair_samples)


def property_P_check(
    f: FuncLike,
    alpha: float,
    delta: float,
    pair_samples: Sequence[WindowPairSample],
    *,
    grid_n: int = 1024,
    scan_n: int = 96,
) -> ShapeVerdict:
    """Translation invariance of the window mean-value offset.

    For each pair the mean value of f over [x0, x0+delta] and over
    [y0, y0+delta] is located; the check holds when xi_x - x0 and
    xi_y - y0 agree within 1e-6 * delta on every pair.
    A window whose mean value is degenerate (constant level) constrains
    nothing and counts as satisfied; a window where no crossing brackets
    makes the pair inconclusive and the verdict None.
    """
    _check_count("grid_n", grid_n, 2)
    table = _window_table(_sampler(f), alpha, delta, pair_samples, _product_rule(grid_n), scan_n)
    return _property_P_verdict(table, pair_samples, delta)


def convexity_equivalence(
    f: Expression,
    alpha: float,
    delta: float,
    pair_samples: Sequence[WindowPairSample],
    *,
    scan_n: int = 96,
) -> ConvexityReport:
    """Three-way agreement between convexity and the windowed order.

    Reports midpoint convexity sampled over the covered range, the
    delta-increasing verdict, the monotonicity of f' at the window mean
    values, and the largest residual of the bridging identity that links
    the two sides.  The equivalence is only asserted when f' passes the
    property-(P) gate; otherwise it is returned as None (inconclusive).
    Every window is integrated by ``fracops._kernel_quad_oracle``, looked
    up there at each call, so no grid is involved.
    """
    fp = _prime_sampler(f)
    # windowed derivative of f and mean value of f' on every window, once
    table = _window_table(fp, alpha, delta, pair_samples, fracops._kernel_quad_oracle, scan_n)
    gate = _property_P_verdict(table, pair_samples, delta)

    lo = min(p.x0 for p in pair_samples)
    hi = max(p.y0 + p.delta for p in pair_samples)
    grid = _grid(lo, hi, 32)[0]
    fg = f.eval(grid)
    scale = 1.0 + float(np.max(np.abs(fg)))
    convex = True
    for i in range(len(grid)):
        for j in range(i + 2, len(grid), 2):  # even spacing keeps midpoints on-grid
            mid = (i + j) // 2
            if fg[mid] > 0.5 * (fg[i] + fg[j]) + 1e-10 * scale:
                convex = False
                break
        if not convex:
            break

    k = 1.0 / gamma(2.0 - alpha) * delta ** (1.0 - alpha)
    matched = [(pair, table[pair.x0], table[pair.y0]) for pair in pair_samples]
    for _, (_, ox), (_, oy) in matched:
        for offset in (ox, oy):
            if isinstance(offset, Exception):
                raise offset
    # f' at both mean values of each pair, all in one sample
    xis = [x for pair, (_, ox), (_, oy) in matched if ox is not None and oy is not None
           for x in (pair.x0 + ox, pair.y0 + oy)]
    fp_xi = iter(fp(np.array(xis)).tolist())
    gaps = []
    bridge_max = 0.0
    for pair, (wx, ox), (wy, oy) in matched:
        if ox is None or oy is None:
            # constant f' on the window: both sides of the bridge are equal
            bridge_max = max(bridge_max, abs(wx - wy))
            continue
        fpx, fpy = next(fp_xi), next(fp_xi)
        bridge_max = max(bridge_max, abs((wx - wy) - k * (fpx - fpy)))
        gaps.append((pair, fpx - fpy, 1e-8 * (1.0 + abs(fpx) + abs(fpy))))
    fxi = _order_verdict("fprime_xi_monotone", gaps)
    dinc = _delta_increasing_verdict(table, pair_samples)

    if gate.holds:
        equivalence = (convex == dinc.holds) and (convex == fxi.holds)
    else:
        equivalence = None
    return ConvexityReport(convex, dinc, fxi, gate, bridge_max, equivalence)


def monotonicity_certificate(
    f: Expression,
    alpha: float,
    tau: float,
    b: float,
    grid_n: int = 2048,
) -> ShapeVerdict:
    """Certificate that f grows over steps of length tau on [0, b].

    Hypotheses (checked on the grid, treating f as 0 outside [0, b]):
    the first step f(tau) - f(0) is nonnegative and the fractional
    derivative's tau-difference D^alpha f(x + tau) - D^alpha f(x) never
    goes negative.  When they hold the conclusion f(x + tau) >= f(x) is
    verified and the step function Df(x) = f(x + tau) - f(x) is
    reconstructed from derivative data alone,

        Df(x) = Df(0) + I^alpha [ I^(1-alpha) (f'(. + tau) - f') ](x),

    by two discrete convolution sweeps; ``defect`` is the largest
    reconstruction error.  Failed hypotheses yield a not-applicable
    verdict (None), never a violation claim.

    f and f' are sampled once, on one grid of step h = tau/s over [0, b]
    with s = round(tau*grid_n/(b - tau)) clipped to [1, grid_n], so that
    x + tau is the node s places right of x.  Its conclusion nodes are
    0, h, ..., k*h with k = floor((b - tau)/h): the last may sit up to one
    step short of b - tau, no node lies past b, and the grid has at most
    2*grid_n + 1 panels.  A tau outside [(b - tau)/(2*grid_n),
    grid_n*(b - tau)] leaves no such grid and is a ValueError.
    """
    _check_alpha(alpha)
    _check_count("grid_n", grid_n, 2)
    fp = _prime_sampler(f)
    if not (0.0 < tau < b):
        raise ValueError(f"need 0 < tau < b, got tau={tau!r}, b={b!r}")
    m = int(grid_n)
    span = b - tau
    s = min(max(round(min(tau / span * m, m)), 1), m)  # tau is s steps
    k = math.floor(min(span / tau, 2 * m) * s)  # conclusion panels
    if 2 * m * tau < span or k < 1:
        raise ValueError(f"tau={tau!r} must lie in [(b - tau)/(2*grid_n), grid_n*(b - tau)] for b={b!r}, "
                         f"grid_n={m}: change --tau or raise --grid-n")
    ts, h = _grid(0.0, min(tau / s * (s + k), b), s + k)
    ts[s] = tau  # the first step reads f(tau) itself, not f(s*h) rounded

    fv = f.eval(ts)
    direct = fv[s:] - fv[: k + 1]
    df0 = float(direct[0])
    scale = 1.0 + float(np.max(np.abs(fv[s:])))

    if df0 < -_HYPOTHESIS_TOL * scale:
        return ShapeVerdict(
            "monotone_up_to_tau", None,
            note=f"not applicable: first step f(tau)-f(0) = {df0!r} is negative",
            info={"df0": df0},
        )

    # hypothesis: the tau-difference of D^alpha f is nonnegative on the grid
    fpv = fp(ts)
    d_all = integral_on_grid(fpv, h, 1.0 - alpha)
    delta_d = d_all[s:] - d_all[: k + 1]
    bad = np.nonzero(delta_d < -_HYPOTHESIS_TOL * (1.0 + np.max(np.abs(d_all))))[0]

    conclusion_ok = bool(np.all(direct >= -_HYPOTHESIS_TOL * scale))

    # reconstruction from derivative data (two convolution sweeps); the
    # identity holds for any C^1 f, so it is reported whether or not the
    # monotonicity hypotheses gate the verdict
    inner = integral_on_grid(fpv[s:] - fpv[: k + 1], h, 1.0 - alpha)
    recon = df0 + integral_on_grid(inner, h, alpha)
    recon_err = float(np.max(np.abs(recon - direct)))

    info = {"df0": df0, "reconstruction_error": recon_err}
    if len(bad):
        worst = float(np.min(delta_d[bad]))
        info["worst_hypothesis_margin"] = worst
        return ShapeVerdict(
            "monotone_up_to_tau", None,
            defect=recon_err,
            witnesses=(Violation((float(ts[bad[0]]),), worst),),
            note="not applicable: D^alpha f(x + tau) - D^alpha f(x) is negative on the grid",
            info=info,
        )
    return ShapeVerdict(
        "monotone_up_to_tau",
        holds=conclusion_ok,
        defect=recon_err,
        witnesses=(),
        info=info,
    )


def comparison_check(
    f: Expression,
    g: Expression,
    alpha: float,
    b: float,
    grid_n: int = 1024,
) -> ShapeVerdict:
    """Dominated fractional derivative implies dominated function.

    Checks D^alpha f <= D^alpha g on a grid over (0, b] (hypothesis) and
    then f <= g (conclusion).  Requires f(0) = g(0) = 0; a failed
    hypothesis yields a not-applicable verdict.
    """
    _check_alpha(alpha)
    _check_count("grid_n", grid_n, 2)
    if not b > 0.0:
        raise ValueError(f"need b > 0 for the interval (0, b], got b={b!r}")
    fp, gp = _prime_sampler(f), _prime_sampler(g)
    f0 = f.eval(0.0)
    g0 = g.eval(0.0)
    if abs(f0 - g0) > 1e-12 or abs(f0) > 1e-12:
        raise HypothesisError(
            f"comparison needs f(0) = g(0) = 0, got f(0)={f0!r}, g(0)={g0!r}"
        )
    npts = 2 * int(grid_n)
    grid_b, h = _grid(0.0, b, npts)
    df = integral_on_grid(fp(grid_b), h, 1.0 - alpha)
    dg = integral_on_grid(gp(grid_b), h, 1.0 - alpha)
    xs_idx = np.linspace(1, npts, 64).round().astype(int)
    xs = grid_b[xs_idx]
    hyp_margin = dg[xs_idx] - df[xs_idx]
    dscale = 1.0 + float(np.max(np.abs(dg)))
    bad = np.nonzero(hyp_margin < -_HYPOTHESIS_TOL * dscale)[0]
    if len(bad):
        worst = float(np.min(hyp_margin[bad]))
        return ShapeVerdict(
            "comparison", None,
            witnesses=tuple(Violation((float(xs[i]),), float(hyp_margin[i])) for i in bad[:8]),
            note="not applicable: D^alpha f <= D^alpha g fails on part of the grid",
            info={"worst_hypothesis_margin": worst},
        )
    fv = f.eval(xs)
    gv = g.eval(xs)
    margins = gv - fv
    fscale = 1.0 + float(np.max(np.abs(gv)))
    viol = np.nonzero(margins < -_HYPOTHESIS_TOL * fscale)[0]
    if len(viol):
        return ShapeVerdict(
            "comparison", False,
            defect=float(-np.min(margins[viol])),
            witnesses=tuple(Violation((float(xs[i]),), float(margins[i])) for i in viol[:8]),
        )
    return ShapeVerdict("comparison", True, defect=float(np.min(margins)))


def periodicity_defect(
    f: Expression,
    alpha: float,
    tau: float,
    t_grid: Sequence[float],
    *,
    grid_n: int = 2048,
) -> ShapeVerdict:
    """Measured failure of period tau to survive fractional differentiation.

    The input must itself be tau-periodic on the sampled range (verified,
    rejected otherwise).  The returned ``defect`` is the largest observed
    |D^alpha f(t + tau) - D^alpha f(t)| over the grid; ``witnesses`` holds
    one ``Violation((t,), defect)`` per point, in the order of ``t_grid``.
    This is deliberately a measurement, not an assertion: the memory
    kernel remembers the base point, so exact periodicity of the
    derivative is not expected at finite times even though the defect
    fades as t grows.
    """
    _check_alpha(alpha)
    _check_count("grid_n", grid_n, 2)
    fp = _prime_sampler(f)
    if not tau > 0.0:
        raise ValueError(f"period tau must be > 0, got tau={tau!r}")
    ts = np.asarray([float(t) for t in t_grid])
    if not len(ts):
        raise ValueError("t_grid is empty: the defect needs at least one time")
    if not np.all(ts > 0.0):
        raise ValueError("t_grid must be positive (operators are based at 0)")
    last = float(np.max(ts))
    # the derivative's grid reaches last + tau: built first, it refuses an
    # end past the largest float before the probe is shifted by tau
    grid_b, h = _grid(0.0, last + tau, 2 * int(grid_n))
    probe = _grid(0.0, last, 511)[0]
    fv = f.eval(probe)
    fv_shift = f.eval(probe + tau)
    fscale = 1.0 + float(np.max(np.abs(fv)))
    if np.max(np.abs(fv_shift - fv)) > 1e-10 * fscale:
        raise HypothesisError(f"input is not periodic with period {tau!r} on the sampled range")

    d_all = integral_on_grid(fp(grid_b), h, 1.0 - alpha)
    d_at = lambda pts: np.interp(pts, grid_b, d_all)  # noqa: E731
    defects = np.abs(d_at(ts + tau) - d_at(ts))
    return ShapeVerdict(
        "periodic_defect", None,
        defect=float(np.max(defects)),
        witnesses=tuple(Violation((float(t),), float(d)) for t, d in zip(ts, defects)),
    )
