"""The public API's defaulted parameters, pinned.

Every function exported by ``fraccalc`` is listed with each parameter that
has a default, and that default.  Numerical tolerances and resolutions
that no caller varies are fixed inside the module that owns them, not
parameters; adding, removing or re-defaulting a parameter is a decision
this table makes visible.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import fraccalc

DEFAULTED = {
    "parse": {},
    "derivatives": {},
    "derivative_values": {},
    "gamma": {},
    "rl_integral": {},
    "rl_derivative": {"method": "caputo_form", "allow_nonzero_base": False},
    "caputo_derivative": {},
    "f_lower": {},
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
    "convexity_equivalence": {"scan_n": 96},
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


def test_no_public_function_takes_a_backend():
    # one rule per job: no caller picks a quadrature
    public = (getattr(fraccalc, name) for name in fraccalc.__all__)
    assert not [fn for fn in public if inspect.isfunction(fn) and "backend" in inspect.signature(fn).parameters]


def test_an_operator_value_is_a_value_and_its_estimate():
    assert [field.name for field in dataclasses.fields(fraccalc.OperatorValue)] == ["value", "est_error"]


_P = fraccalc.FractionalParams(0.5, 0.0, 256)
_BAD_INPUTS = {
    "derivative_zero_before_left_of_a": (
        lambda: fraccalc.derivative_zero_before(fraccalc.parse("t*(t+1)"), _P, -1.0),
        "need x_zero > a, got x_zero=-1.0, a=0.0"),
    "derivative_zero_before_at_a": (
        lambda: fraccalc.derivative_zero_before(fraccalc.parse("t*(t+1)"), _P, 0.0),
        "need x_zero > a, got x_zero=0.0, a=0.0"),
    "xi_smoothness_profile_repeated_x": (
        lambda: fraccalc.xi_smoothness_profile(fraccalc.parse("t"), _P, [1.0, 1.0, 2.0]),
        "x_grid must be strictly ascending"),
    "dilation_scenario_empty_grid": (
        lambda: fraccalc.dilation_scenario(fraccalc.parse("sin(t)"), _P, []),
        "t_grid is empty: the table needs at least one time"),
    "periodicity_defect_empty_grid": (
        lambda: fraccalc.periodicity_defect(fraccalc.parse("sin(2*pi*t)"), 0.5, 1.0, []),
        "t_grid is empty: the defect needs at least one time"),
    "mean_path_witness_empty_grid": (
        lambda: fraccalc.mean_path_witness(fraccalc.parse("t"), fraccalc.parse("t"), _P, []),
        "x_grid is empty: the search needs at least one point"),
    "comparison_check_negative_b": (
        lambda: fraccalc.comparison_check(fraccalc.parse("t"), fraccalc.parse("t"), 0.5, -1.0),
        "need b > 0 for the interval (0, b], got b=-1.0"),
    "comparison_check_nan_b": (
        lambda: fraccalc.comparison_check(fraccalc.parse("t"), fraccalc.parse("t"), 0.5, math.nan),
        "need b > 0 for the interval (0, b], got b=nan"),
    "sample_window_pairs_nan_delta": (
        lambda: fraccalc.sample_window_pairs(0.0, 4.0, math.nan),
        "delta must be > 0"),
    "mean_path_witness_nan_point": (
        lambda: fraccalc.mean_path_witness(fraccalc.parse("t^2"), fraccalc.parse("t"), _P, [1.0, math.nan]),
        "x_grid must lie strictly right of the base point"),
    "dilation_scenario_nan_time": (
        lambda: fraccalc.dilation_scenario(fraccalc.parse("sin(t)"), _P, [1.0, math.nan]),
        "t_grid must lie strictly right of the base point"),
    "sample_window_pairs_negative_count": (
        lambda: fraccalc.sample_window_pairs(0.0, 4.0, 0.5, n_pairs=-1),
        "n_pairs must be an integer >= 1, got -1"),
    "sample_window_pairs_fractional_count": (
        lambda: fraccalc.sample_window_pairs(0.0, 4.0, 0.5, n_pairs=2.5),
        "n_pairs must be an integer >= 1, got 2.5"),
    "mean_value_polynomial_fractional_order": (
        lambda: fraccalc.mean_value_polynomial(fraccalc.parse("t"), _P, 1.0, 2.5),
        "polynomial order n must be an integer >= 1, got 2.5"),
    "integral_on_grid_two_dimensional_samples": (
        lambda: fraccalc.integral_on_grid(np.ones((3, 3)), 0.1, 0.5),
        "integral_on_grid samples must be a one-dimensional array, got shape (3, 3)"),
    "integral_on_grid_nan_sample": (
        lambda: fraccalc.integral_on_grid(np.array([0.0, math.nan, 1.0]), 0.1, 0.5),
        "integral_on_grid samples must be finite, got nan at index 1"),
    "integral_on_grid_no_samples": (
        lambda: fraccalc.integral_on_grid(np.array([]), 0.1, 0.5),
        "integral_on_grid samples must hold at least one value, got an empty array"),
    "integral_on_grid_one_nan_sample": (
        lambda: fraccalc.integral_on_grid(np.array([math.nan]), 0.1, 0.5),
        "integral_on_grid samples must be finite, got nan at index 0"),
    "mean_value_fractional_scan_n": (
        lambda: fraccalc.mean_value(fraccalc.parse("t"), _P, 1.0, scan_n=20.5),
        "scan_n must be an integer >= 16, got 20.5"),
    "convexity_equivalence_fractional_scan_n": (
        lambda: fraccalc.convexity_equivalence(
            fraccalc.parse("t"), 0.5, 0.5, fraccalc.sample_window_pairs(0.0, 4.0, 0.5, 2), scan_n=20.5),
        "scan_n must be an integer >= 16, got 20.5"),
    "critical_points_fractional_scan_n": (
        lambda: fraccalc.critical_points(fraccalc.parse("sin(t)"), _P, 3.0, scan_n=20.5),
        "scan_n must be an integer >= 4, got 20.5"),
    "periodicity_defect_nan_time": (
        lambda: fraccalc.periodicity_defect(fraccalc.parse("sin(t)"), 0.5, 2 * math.pi, [1.0, math.nan]),
        "t_grid must be positive (operators are based at 0)"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_a_bad_public_input_is_a_value_error_that_names_it(case):
    call, message = _BAD_INPUTS[case]
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


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
