"""The pointwise operators on the adaptive QUADPACK oracle, for cross-checks.

Each function takes the arguments of its namesake in ``fraccalc`` and
integrates with ``fracops._kernel_quad_oracle`` (the QAWS rule) in place of
the product rule; ``p.grid_n`` is not read.  The oracle is looked up in
``fracops`` at each call, so a test that patches it there sees every call.
"""

import fraccalc.fracops as fracops
from fraccalc.fracops import OperatorValue, base_value, _prime_sampler, _sampler


def _quad(sample, a, x, mu):
    return OperatorValue(*fracops._kernel_quad_oracle(sample, a, x, mu))


def rl_integral(f, p, order, x):
    """I^order f(x) over [p.a, x]."""
    return _quad(_sampler(f), p.a, x, order)


def caputo_derivative(f, p, x):
    """I^(1-alpha) f' at x."""
    return _quad(_prime_sampler(f), p.a, x, 1.0 - p.alpha)


def rl_derivative(f, p, x):
    """The Caputo form of D^alpha f at x, with f(a) = 0 enforced."""
    base_value(f, p.a, allow_nonzero=False)
    return caputo_derivative(f, p, x)
