"""The public API's defaulted parameters, pinned.

Every function exported by ``fraccalc`` is listed with each parameter that
has a default, and that default.  Numerical tolerances and resolutions
that no caller varies are fixed inside the module that owns them, not
parameters; adding, removing or re-defaulting a parameter is a decision
this table makes visible.
"""

import inspect
import math
import os
import re

import numpy as np
import pytest

import fraccalc

PT, ORACLE = fraccalc.PRODUCT_TRAPEZOID, fraccalc.ADAPTIVE_ORACLE

DEFAULTED = {
    "parse": {},
    "derivatives": {},
    "derivative_values": {},
    "gamma": {},
    "rl_integral": {"backend": PT},
    "rl_derivative": {"method": "caputo_form", "allow_nonzero_base": False, "backend": PT},
    "caputo_derivative": {"backend": PT},
    "f_lower": {"backend": PT},
    "integral_on_grid": {},
    "mean_value": {"scan_n": 128},
    "mean_value_polynomial": {},
    "xi_smoothness_profile": {},
    "mean_path_witness": {},
    "critical_points": {"scan_n": 96, "allow_nonzero_base": False},
    "order_duality_check": {},
    "derivative_zero_before": {"zero_tol": 1e-10},
    "r_alpha_curve": {"grid_n": 1024, "scan_n": 96},
    "dilation_scenario": {},
    "sample_window_pairs": {"n_pairs": 32, "seed": 0},
    "delta_increasing_check": {"grid_n": 1024},
    "property_P_check": {"grid_n": 1024, "scan_n": 96},
    "convexity_equivalence": {"grid_n": 1024, "scan_n": 96, "backend": ORACLE},
    "monotonicity_certificate": {"grid_n": 2048},
    "comparison_check": {"grid_n": 1024},
    "periodicity_defect": {"grid_n": 2048},
}


def _defaulted(fn):
    params = inspect.signature(fn).parameters.values()
    return {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}


def test_every_public_function_is_pinned():
    public = {name for name in fraccalc.__all__ if inspect.isfunction(getattr(fraccalc, name))}
    assert public == set(DEFAULTED)


def test_defaulted_parameters_are_pinned():
    for name, want in DEFAULTED.items():
        assert _defaulted(getattr(fraccalc, name)) == want, name


def test_readme_names_exactly_the_functions_that_take_a_backend():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        quick = fh.read().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    listed = re.search(r"functions that take `backend=`:(.*?):\n", quick, re.S).group(1)
    named = set(re.findall(r"`(\w+)`", listed))
    public = (getattr(fraccalc, name) for name in fraccalc.__all__)
    have = {fn.__name__ for fn in public if inspect.isfunction(fn) and "backend" in inspect.signature(fn).parameters}
    assert named == have


def test_functions_that_sample_fprime_refuse_a_callable():
    # f' comes only from an expression's jets: no public function takes one,
    # and each that samples f' refuses a callable f once np.sin passes its
    # checks of f(a) = 0 and f(pi) = 0
    for name in fraccalc.__all__:
        fn = getattr(fraccalc, name)
        assert not inspect.isfunction(fn) or "fprime" not in inspect.signature(fn).parameters, name
    p, t = fraccalc.FractionalParams(0.5, 0.0, 64), fraccalc.parse("t")
    pairs = fraccalc.sample_window_pairs(0.0, 4.0, 0.5, n_pairs=2)
    refusing = [
        lambda f: fraccalc.rl_derivative(f, p, 1.0),
        lambda f: fraccalc.caputo_derivative(f, p, 1.0),
        lambda f: fraccalc.f_lower(f, p, 1.0),
        lambda f: fraccalc.critical_points(f, p, 4.0),
        lambda f: fraccalc.derivative_zero_before(f, p, math.pi),
        lambda f: fraccalc.r_alpha_curve(f, 0.0, 4.0, math.pi / 2.0, 0.5, [0.5], grid_n=256, scan_n=32),
        lambda f: fraccalc.dilation_scenario(f, p, [1.0, 2.0]),
        lambda f: fraccalc.delta_increasing_check(f, 0.5, 0.5, pairs),
        lambda f: fraccalc.convexity_equivalence(f, 0.5, 0.5, pairs),
        lambda f: fraccalc.monotonicity_certificate(f, 0.5, 0.5, 2.0, 64),
        lambda f: fraccalc.comparison_check(f, t, 0.5, 2.0, 64),
        lambda f: fraccalc.comparison_check(t, f, 0.5, 2.0, 64),
        lambda f: fraccalc.periodicity_defect(f, 0.5, 2.0 * math.pi, [1.0, 2.0], grid_n=64),
        lambda f: fraccalc.mean_path_witness(f, t, p, [1.0, 2.0]),
        lambda f: fraccalc.mean_path_witness(t, f, p, [1.0, 2.0]),
    ]
    for call in refusing:
        with pytest.raises(TypeError, match=r"use rl_derivative\(\.\.\., method='direct'\), or rl_integral"):
            call(np.sin)
    # a callable is still differentiated, integrated and given mean values
    sin = fraccalc.parse("sin(t)")
    p = fraccalc.FractionalParams(0.5, 0.0, 1024)
    want = fraccalc.caputo_derivative(sin, p, 1.0).value
    assert fraccalc.rl_derivative(np.sin, p, 1.0, method="direct").value == pytest.approx(want, rel=1e-6)
    assert fraccalc.rl_integral(np.cos, p, 0.5, 1.0).value == pytest.approx(want, rel=1e-12)
    assert fraccalc.mean_value(np.sin, p, 1.0) == fraccalc.mean_value(sin, p, 1.0)
