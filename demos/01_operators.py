"""Fractional integrals and derivatives on user-supplied expressions.

Walks through the operator layer: parsing, the product-rule quadrature,
closed-form sanity checks, and how the derivative interpolates between
the function itself (order near 0) and the classical derivative (order
near 1).
"""

import math

from fraccalc import (
    FractionalParams,
    caputo_derivative,
    gamma,
    parse,
    rl_derivative,
    rl_integral,
)

# Expressions are plain text in the single variable t.
f = parse("t^2")
print("expression:", f.pretty())

# Half-order integral of t^2 over [0, 1].  The closed form is
# Gamma(3)/Gamma(3.5) * x^2.5, a handy first sanity check.
p = FractionalParams(alpha=0.5, a=0.0, grid_n=2048)
out = rl_integral(f, p, order=0.5, x=1.0)
print("\nI^0.5 [t^2](1):")
print(f"  grid backend     {out.value:.12f}  (est err {out.est_error:.1e})")
print(f"  closed form      {gamma(3.0) / gamma(3.5):.12f}")

# The Riemann-Liouville derivative of t at order 1/2 is 2 sqrt(x/pi).
out = rl_derivative(parse("t"), p, x=1.0)
print(f"\nD^0.5 [t](1) = {out.value:.10f}   (2/sqrt(pi) = {2 / math.sqrt(math.pi):.10f})")

# The default derivative path requires f(a) = 0; the Caputo derivative
# does not care about the base value and annihilates constants.
print("\nCaputo derivative of a constant:", caputo_derivative(parse("42"), p, 1.0).value)

# Sweeping the order shows the derivative sliding from f to f'.
f = parse("sin(t)")
print("\norder sweep for sin at x = 1   (sin(1) = %.6f, cos(1) = %.6f)" % (math.sin(1), math.cos(1)))
for al in (0.01, 0.25, 0.5, 0.75, 0.99):
    out = rl_derivative(f, FractionalParams(al, 0.0, 2048), 1.0)
    print(f"  alpha = {al:4.2f}   D^alpha sin(1) = {out.value:+.6f}")
