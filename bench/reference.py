"""Independent reference values for the outputs the benchmark checks.

Nothing here imports fraccalc.  Power laws use Gamma ratios from ``math``,
the exponential uses ``scipy.special.gammainc``, and the half-derivatives
of sin(w t) come from ``mpmath.quad``.  All operators are based at 0.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List

import mpmath
import numpy as np
from scipy.special import gammainc


def power_integral(beta: float, mu: float, x: float) -> float:
    """I^mu t^beta at x."""
    return math.gamma(beta + 1.0) / math.gamma(beta + 1.0 + mu) * x ** (beta + mu)


def power_derivative(beta: float, alpha: float, x: float) -> float:
    """D^alpha t^beta at x."""
    return math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - alpha) * x ** (beta - alpha)


def power_mean_value(beta: float, alpha: float, x: float) -> float:
    """Mean value xi of t^beta over (0, x): xi/x = (G(2-a) G(b+1) / G(b+2-a))^(1/b)."""
    ratio = math.gamma(2.0 - alpha) * math.gamma(beta + 1.0) / math.gamma(beta + 2.0 - alpha)
    return x * ratio ** (1.0 / beta)


def expm1_integral(mu: float, x: float) -> float:
    """I^mu (e^t - 1) at x, from I^mu e^t = e^x P(mu, x)."""
    return math.exp(x) * float(gammainc(mu, x)) - x**mu / math.gamma(mu + 1.0)


def expm1_derivative(alpha: float, x: float) -> float:
    """D^alpha (e^t - 1) at x = I^(1-alpha) e^t."""
    return math.exp(x) * float(gammainc(1.0 - alpha, x))


def expm1_mean_value(alpha: float, x: float) -> float:
    """Mean value of e^t - 1 over (0, x): solves e^xi - 1 = g(x)."""
    g = math.gamma(2.0 - alpha) * expm1_integral(1.0 - alpha, x) * x ** (alpha - 1.0)
    return math.log1p(g)


def polyxi_coefficients(poly: List[float], alpha: float, delta: float) -> List[float]:
    """Exact mean-value polynomial of f = sum poly[j] t^j (degree <= n), base 0.

    Entry j >= 1 is f^(j)(0)/j! * delta^(1-alpha)/G(2-alpha); entry 0 is
    -sum_j f^(j)(0) delta^(j+1-alpha)/G(j+2-alpha), since the tail vanishes.
    """
    k = delta ** (1.0 - alpha) / math.gamma(2.0 - alpha)
    out = [0.0] + [p * k for p in poly[1:]]
    out[0] = -sum(
        p * math.factorial(j) * delta ** (j + 1.0 - alpha) / math.gamma(j + 2.0 - alpha)
        for j, p in enumerate(poly) if j >= 1
    )
    return out


def polynomial_roots(coeffs: List[float], lo: float, hi: float) -> List[float]:
    """Real roots of sum coeffs[j] x^j inside (lo, hi), ascending."""
    roots = np.roots(list(reversed(coeffs)))
    real = [float(r.real) for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real))]
    return sorted(r for r in real if lo < r < hi)


@lru_cache(maxsize=None)
def sin_derivative(alpha: float, omega: float, x: float) -> float:
    """D^alpha sin(omega t) at x by mpmath.quad.

    D^alpha sin = I^(1-alpha) (omega cos); u = (x - t)^(1-alpha) removes the
    kernel singularity, leaving omega cos(omega (x - u^(1/(1-alpha)))) / (1-alpha)
    on [0, x^(1-alpha)], split into pieces so each holds under a half period.
    """
    with mpmath.workdps(17):
        a, w, xx = mpmath.mpf(alpha), mpmath.mpf(omega), mpmath.mpf(x)
        p = 1 / (1 - a)
        top = xx ** (1 - a)
        pieces = max(2, int(math.ceil(2.0 * omega * x / math.pi)) + 1)
        # equal steps in t, mapped to u, keep each piece under half a period
        knots = [(xx * k / pieces) ** (1 - a) for k in range(pieces + 1)]
        knots[-1] = top
        val = mpmath.quad(lambda u: mpmath.cos(w * (xx - u**p)), knots)
        return float(w * val / (1 - a) / mpmath.gamma(1 - a))


def sin_critical_points(alpha: float, omega: float, b: float, scan: int = 24) -> List[float]:
    """All roots of x -> D^alpha sin(omega x) on (0, b], by scan and mpmath.findroot."""
    xs = [b * k / scan for k in range(1, scan + 1)]
    vals = [sin_derivative(alpha, omega, x) for x in xs]
    roots = []
    for i in range(scan - 1):
        if (vals[i] > 0.0) != (vals[i + 1] > 0.0):
            f = lambda x: sin_derivative(alpha, omega, float(x))  # noqa: E731
            with mpmath.workdps(17):
                r = mpmath.findroot(f, (xs[i], xs[i + 1]), solver="anderson", tol=1e-26, verify=False)
            roots.append(float(r))
    return roots
