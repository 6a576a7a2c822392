"""The public API's defaulted parameters, pinned.

Every function exported by ``fraccalc`` is listed with each parameter that
has a default, and that default.  Numerical tolerances and resolutions
that no caller varies are fixed inside the module that owns them, not
parameters; adding, removing or re-defaulting a parameter is a decision
this table makes visible.
"""

import inspect
import os
import re

import fraccalc

PT, ORACLE = fraccalc.PRODUCT_TRAPEZOID, fraccalc.ADAPTIVE_ORACLE

DEFAULTED = {
    "parse": {},
    "derivatives": {},
    "derivative_values": {},
    "gamma": {},
    "rl_integral": {"backend": PT},
    "rl_derivative": {"method": "caputo_form", "fprime": None, "allow_nonzero_base": False, "backend": PT},
    "caputo_derivative": {"fprime": None, "backend": PT},
    "f_lower": {"fprime": None, "backend": PT},
    "integral_on_grid": {},
    "mean_value": {"scan_n": 128},
    "mean_value_polynomial": {},
    "xi_smoothness_profile": {},
    "mean_path_witness": {"allow_nonzero_base": False},
    "critical_points": {"scan_n": 96, "fprime": None, "allow_nonzero_base": False},
    "order_duality_check": {},
    "derivative_zero_before": {"fprime": None, "zero_tol": 1e-10},
    "r_alpha_curve": {"x1": None, "grid_n": 1024, "scan_n": 96, "fprime": None},
    "dilation_scenario": {"fprime": None},
    "sample_window_pairs": {"n_pairs": 32, "seed": 0},
    "delta_increasing_check": {"grid_n": 1024, "fprime": None},
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
