"""Shape analysis: sliding-window order, convexity, step monotonicity.

Memory operators have no pointwise order, so monotonicity of the
fractional derivative is judged over equal-length windows.  This script
checks the window order for convex and concave profiles, shows the
translation-invariance property of window mean values, certifies step
monotonicity with a derivative-only reconstruction, and measures how far
fractional differentiation is from preserving periodicity.
"""

import math

import numpy as np

from fraccalc import (
    comparison_check,
    convexity_equivalence,
    delta_increasing_check,
    monotonicity_certificate,
    parse,
    periodicity_defect,
    property_P_check,
    sample_window_pairs,
)

alpha, delta = 0.5, 0.5
pairs = sample_window_pairs(0.0, 4.0, delta, n_pairs=16, seed=0)
print(f"sampled {len(pairs)} window pairs on [0, 4], delta = {delta}")

# Window order: t^2 increases, its mirror image does not.
for src in ("t^2", "-t^2"):
    verdict = delta_increasing_check(parse(src), alpha, delta, pairs, 1024)
    print(f"  {src:5s} delta-increasing: {verdict.holds}  (witnesses: {len(verdict.witnesses)})")

# Translation invariance of the window mean-value offset: affine and
# exponential profiles have it, the plain quadratic does not.
print("\nwindow mean-value offsets (property check):")
for src in ("t", "exp(t)", "t^2"):
    verdict = property_P_check(parse(src), alpha, delta, pairs, grid_n=1024)
    print(f"  {src:7s} offsets translation-invariant: {verdict.holds}   spread {verdict.defect:.2e}")

# Convexity agrees with the window order whenever the derivative passes
# the offset-invariance gate.
print("\nconvexity vs window order:")
for src in ("t^2", "exp(t) - 1 - t", "t", "-t^2", "t^3"):
    rc = convexity_equivalence(parse(src), alpha, delta, sample_window_pairs(0.1, 3.1, delta, 8, seed=1))
    print(f"  {src:15s} convex={rc.convex_sampled!s:5s} window-order={rc.delta_incr.holds!s:5s} "
          f"gate={rc.property_P_fprime.holds!s:5s} equivalence={rc.equivalence}")

# Step monotonicity: hypotheses checked on the grid, conclusion verified,
# and the step reconstructed from derivative data alone.
v = monotonicity_certificate(parse("t"), 0.5, 0.1, 1.0, 2048)
print(f"\nstep certificate for f = t, tau = 0.1: holds={v.holds}")
print(f"  reconstruction error {v.info['reconstruction_error']:.2e}")

# Dominated derivative implies dominated function.
v = comparison_check(parse("t"), parse("2*t"), 0.5, 1.0, 1024)
print(f"\ncomparison t vs 2t: hypothesis and conclusion hold: {v.holds}")

# Periodic input does not give a periodic fractional derivative at
# finite times; the defect is measured and fades as t grows.
tau = 2 * math.pi
v = periodicity_defect(parse("sin(t)"), 0.5, tau, np.linspace(tau, 4 * tau, 7), grid_n=2048)
print(f"\nperiodicity defect of D^0.5 sin over one to four periods: max {v.defect:.4f}")
for w in v.witnesses:
    print(f"  defect@{w.where[0]:.6g} = {w.margin:.6f}")
