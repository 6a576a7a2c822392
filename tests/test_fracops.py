import math
import re
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fraccalc
import quadpack_oracle as oracle
from fraccalc import (
    AssumptionError,
    DomainError,
    FractionalParams,
    caputo_derivative,
    critical_points,
    derivative_values,
    derivative_zero_before,
    dilation_scenario,
    f_lower,
    gamma,
    integral_on_grid,
    mean_path_witness,
    order_duality_check,
    parse,
    r_alpha_curve,
    rl_derivative,
    rl_integral,
)
import fraccalc.fracops as fracops
from fraccalc.expr import Expression
from fraccalc.fracops import _extrapolate, _kernel_quad_grid, _l1_sum, base_value
from test_expr import _grow, _leaves

# closed forms: I^mu t^beta = G(b+1)/G(b+1+mu) x^(b+mu),
#               D^al t^beta = G(b+1)/G(b+1-al) x^(b-al)   (math.gamma oracle)


def power_integral(beta, mu, x):
    return math.gamma(beta + 1.0) / math.gamma(beta + 1.0 + mu) * x ** (beta + mu)


def power_derivative(beta, al, x):
    return math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - al) * x ** (beta - al)


# --- gamma ----------------------------------------------------------------


def test_gamma_trivial_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_recurrence_from_half():
    # Gamma(3.5) = 2.5 * 1.5 * 0.5 * Gamma(0.5)
    ref = 2.5 * 1.5 * 0.5 * math.sqrt(math.pi)
    assert gamma(3.5) == pytest.approx(ref, rel=1e-13)
    assert gamma(3.5) == pytest.approx(3.3233509704478426, rel=1e-12)


def test_gamma_twelve_digits_against_stdlib():
    for z in np.linspace(0.05, 25.0, 173):
        assert gamma(float(z)) == pytest.approx(math.gamma(z), rel=1e-12)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma(0.0)
    with pytest.raises(ValueError):
        gamma(-1.3)


def test_gamma_overflow_is_a_domain_error():
    assert math.isfinite(gamma(171.0))
    with pytest.raises(DomainError, match="172"):
        gamma(172.0)


# --- parameter validation ---------------------------------------------------


def test_params_reject_endpoint_orders():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            FractionalParams(bad, 0.0)
    # nan and inf too, which int() refuses with errors of its own
    for bad in (1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"grid_n must be an integer >= 2, got {bad!r}"):
            FractionalParams(0.5, 0.0, grid_n=bad)
    FractionalParams(0.5, 0.0, grid_n=2)  # minimum allowed


def test_rl_integral_rejects_bad_order_and_point():
    p = FractionalParams(0.5, 0.0, 64)
    f = parse("t")
    # every finite order > 0 is valid; no infinite order may reach the weights
    for bad in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="order"):
            rl_integral(f, p, bad, 1.0)
    with pytest.raises(ValueError):
        rl_integral(f, p, 0.5, 0.0)
    with pytest.raises(ValueError):
        rl_integral(f, p, 0.5, -1.0)


@pytest.mark.parametrize("mu, h, name", [
    (0.0, 0.1, "order mu"), (-0.5, 0.1, "order mu"), (-1.5, 0.1, "order mu"),
    (math.nan, 0.1, "order mu"), (math.inf, 0.1, "order mu"),
    (0.5, -0.1, "step h"), (0.5, 0.0, "step h"), (0.5, math.nan, "step h"), (0.5, math.inf, "step h"),
])
def test_integral_on_grid_refuses_a_bad_order_or_step(mu, h, name):
    # as rl_integral does: one ValueError that names the argument, no warning
    got = mu if name == "order mu" else h
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"integral_on_grid {name} must be finite and > 0, got {got!r}"):
            integral_on_grid(np.ones(9), h, mu)


# --- fractional integral ----------------------------------------------------


def test_integral_of_constant():
    p = FractionalParams(0.5, 0.0, 256)
    out = rl_integral(parse("1"), p, 0.5, 1.0)
    assert out.value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)


def test_integral_order_one_is_ordinary():
    p = FractionalParams(0.5, 0.0, 256)
    out = rl_integral(parse("t"), p, 1.0, 1.0)
    assert out.value == pytest.approx(0.5, rel=1e-13)


def test_integral_power_law_cross_checked_with_oracle():
    p = FractionalParams(0.5, 0.0, 1024)
    f = parse("t^2")
    grid = rl_integral(f, p, 0.5, 1.0)
    ref = oracle.rl_integral(f, p, 0.5, 1.0)
    exact = power_integral(2.0, 0.5, 1.0)
    assert grid.value == pytest.approx(exact, rel=1e-8)
    assert ref.value == pytest.approx(exact, rel=1e-10)
    assert abs(grid.value - ref.value) <= grid.est_error + ref.est_error


def test_oracle_est_error_within_requested_tolerance():
    p = FractionalParams(0.3, 0.0, 64)
    out = oracle.rl_integral(parse("sin(t)"), p, 0.3, 2.0)
    assert out.est_error <= 1e-10


def test_oracle_samples_the_weighted_integrand_few_times():
    from fraccalc.fracops import _kernel_quad_oracle, _sampler

    calls = []

    def sample(ts):
        calls.append(len(ts))
        return 1.2 * ts + 1.5

    value, _ = _kernel_quad_oracle(_sampler(sample), 0.3, 0.75, 0.75)
    # I^0.75 of a linear function, closed form from the base point 0.3
    exact = (1.5 + 1.2 * 0.3) * 0.45**0.75 / math.gamma(1.75) + 1.2 * 0.45**1.75 / math.gamma(2.75)
    assert value == pytest.approx(exact, rel=1e-13)
    assert len(calls) <= 60


def test_oracle_callbacks_reach_the_jet_as_floats(monkeypatch):
    # QUADPACK is handed the sampler itself: every callback is a float, never
    # a 1-element array, down to derivative_values
    import fraccalc.fracops as fracops_module
    from fraccalc import convexity_equivalence, sample_window_pairs

    points, inside = [], []
    sample, quad = fracops_module.derivative_values, fracops_module._kernel_quad_oracle

    def recording(e, ts, order):
        if inside:
            points.append(ts)
        return sample(e, ts, order)

    def marking(*args):
        inside.append(True)
        try:
            return quad(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(fracops_module, "derivative_values", recording)
    monkeypatch.setattr(fracops_module, "_kernel_quad_oracle", marking)
    f = parse("exp(0.6*t)")
    out = oracle.caputo_derivative(f, FractionalParams(0.4, 0.0, 64), 1.5)
    # D^0.4 exp(0.6 t) = 0.6 t^0.6 E_(1,1.6)(0.6 t)
    assert out.value == pytest.approx(0.6 * 1.5**0.6 * sum(0.9**k / math.gamma(k + 1.6) for k in range(40)))
    convexity_equivalence(f, 0.75, 0.45, sample_window_pairs(0.0, 4.0, 0.45, n_pairs=2))
    assert len(points) > 100
    assert all(type(t) is float for t in points)


@pytest.mark.parametrize("beta", [0.3, 0.5, 1.5, 2.5, 3.0])
def test_oracle_power_law_corpus(beta):
    f = parse(f"t^{beta}")
    for al in (0.1, 0.3, 0.5, 0.7, 0.9):
        for x in (0.5, 1.0, 2.0):
            out = oracle.rl_integral(f, FractionalParams(al, 0.0), al, x)
            exact = power_integral(beta, al, x)
            err = abs(out.value - exact)
            assert err <= 1e-11 * exact
            assert out.est_error >= err


def test_integral_linearity():
    rng = np.random.RandomState(3)
    p = FractionalParams(0.4, 0.0, 512)
    f, g = parse("sin(t)"), parse("t^2")
    for _ in range(5):
        c1, c2 = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
        combo = parse(f"{c1!r}*sin(t) + {c2!r}*t^2")
        lhs = rl_integral(combo, p, 0.4, 1.5).value
        rhs = c1 * rl_integral(f, p, 0.4, 1.5).value + c2 * rl_integral(g, p, 0.4, 1.5).value
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_backend_agreement_random_corpus():
    rng = np.random.RandomState(11)
    for _ in range(12):
        c1, c2 = rng.uniform(-2, 2, 2)
        f = parse(f"{float(c1)!r}*sin(1.3*t) + {float(c2)!r}*(exp(-t) - 1) + t^2/2")
        al = float(rng.uniform(0.05, 0.95))
        x = float(rng.uniform(0.3, 2.5))
        p = FractionalParams(al, 0.0, 512)
        a = rl_integral(f, p, al, x)
        b = oracle.rl_integral(f, p, al, x)
        assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-13


def test_convergence_order_at_least_three_halves():
    # power-law case with a derivative singularity at the base point
    exact = power_integral(0.5, 0.5, 1.0)
    errs, ns = [], [64, 128, 256, 512, 1024, 2048, 4096]
    f = parse("t^0.5")

    def plain_l1(n):
        # raw rule without refinement: sample the interpolant sum directly
        from fraccalc.fracops import _l1_sum

        h = 1.0 / n
        ts = h * np.arange(n + 1)
        return _l1_sum(f.eval(ts), h, 0.5)

    for n in ns:
        errs.append(abs(plain_l1(n) - exact))
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope <= -1.45, f"observed convergence order {-slope}"


# --- derivatives -------------------------------------------------------------


def test_derivative_of_t_closed_form():
    p = FractionalParams(0.5, 0.0, 512)
    out = rl_derivative(parse("t"), p, 1.0)
    assert out.value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)


def test_derivative_constant_in_x_for_matching_power():
    # the half-derivative of sqrt(t) is the same number at every x
    f = parse("t^0.5")
    vals = []
    for x in (0.25, 1.0, 4.0):
        p = FractionalParams(0.5, 0.0, 2048)
        vals.append(rl_derivative(f, p, x, method="direct").value)
    ref = math.gamma(1.5) / math.gamma(1.0)
    for v in vals:
        assert v == pytest.approx(ref, rel=1e-6)


def test_derivative_methods_agree_on_smooth_function():
    p = FractionalParams(0.3, 0.0, 2048)
    f = parse("sin(t)")
    a = rl_derivative(f, p, 2.0, method="caputo_form")
    b = rl_derivative(f, p, 2.0, method="direct")
    assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-10


def test_derivative_three_way_agreement_random_corpus():
    # caputo-form grid, caputo-form oracle and the direct difference path
    # are three distinct code routes to the same number
    rng = np.random.RandomState(31)
    for _ in range(8):
        c1, c2 = rng.uniform(-1.5, 1.5, 2)
        f = parse(f"{float(c1)!r}*sin(t) + {float(c2)!r}*(1 - exp(-t)) + t^2/3")
        al = float(rng.uniform(0.1, 0.9))
        x = float(rng.uniform(0.4, 2.0))
        p = FractionalParams(al, 0.0, 1024)
        a = rl_derivative(f, p, x)
        b = oracle.rl_derivative(f, p, x)
        c = rl_derivative(f, p, x, method="direct")
        assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-12
        assert abs(c.value - b.value) <= c.est_error + b.est_error + 1e-9


def test_direct_derivative_samples_only_inside_the_interval():
    # the difference is one-sided: f is never sampled beyond x (or before a)
    seen = []

    def f(ts):
        seen.append((float(np.min(ts)), float(np.max(ts))))
        return np.sqrt(ts)

    for x in (0.25, 1.0, 4.0):
        seen.clear()
        out = rl_derivative(f, FractionalParams(0.5, 0.0, 2048), x, method="direct")
        assert seen and min(lo for lo, _ in seen) >= 0.0 and max(hi for _, hi in seen) <= x
        assert out.value == pytest.approx(math.gamma(1.5), rel=1e-6)


@pytest.mark.parametrize("beta", [1.5, 2.5])
def test_power_law_derivative_on_default_path(beta):
    # f' = beta t^(beta-1) is sampled at the base point t = 0 itself
    f = parse(f"t^{beta}")
    for al in (0.1, 0.3, 0.5, 0.7, 0.9):
        for x in (0.5, 1.0, 2.0):
            out = rl_derivative(f, FractionalParams(al, 0.0, 2048), x)
            exact = power_derivative(beta, al, x)
            err = abs(out.value - exact)
            assert err <= 1e-8 * exact
            assert out.est_error >= err


def test_caputo_kills_constants():
    p = FractionalParams(0.7, 0.0, 128)
    out = caputo_derivative(parse("3.25"), p, 2.0)
    assert out.value == 0.0


def test_caputo_ignores_additive_constant():
    p = FractionalParams(0.5, 0.0, 512)
    shifted = caputo_derivative(parse("t + 1"), p, 1.0)
    plain = rl_derivative(parse("t"), p, 1.0)
    assert shifted.value == pytest.approx(plain.value, rel=1e-12)
    assert shifted.value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)


def test_caputo_alpha_sweep_family():
    f = parse("t")
    for al in np.arange(0.1, 0.95, 0.1):
        p = FractionalParams(float(al), 0.0, 256)
        out = caputo_derivative(f, p, 1.0)
        assert out.value == pytest.approx(1.0 / math.gamma(2.0 - al), rel=1e-12)


def test_assumption_gate_and_override():
    p = FractionalParams(0.5, 0.0, 128)
    f = parse("t + 1")
    with pytest.raises(AssumptionError, match="f\\(a\\) must be 0"):
        rl_derivative(f, p, 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = rl_derivative(f, p, 1.0, allow_nonzero_base=True)
    assert any("Caputo" in str(w.message) for w in caught)
    assert out.value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)


def test_the_caputo_semantics_warning_points_at_the_callers_line():
    # however deep below the public function the check runs
    p, f = FractionalParams(0.5, 0.0, 128), parse("cos(t)")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = sys._getframe().f_lineno
        rl_derivative(f, p, 1.0, allow_nonzero_base=True)
        critical_points(f, p, 3.0, allow_nonzero_base=True)
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line + 1), (__file__, line + 2)]
    assert all("Caputo" in str(w.message) for w in caught)


@pytest.mark.parametrize("fa", [1.0, math.nan, math.inf, -math.inf])
def test_a_nonzero_or_nonfinite_base_value_is_refused(fa):
    # a nonzero f(a) fails the base-value gate; a non-finite one never
    # reaches it: the callable's sample refuses it, as an Expression's does
    p = FractionalParams(0.5, 0.0, 256)

    def f(t):
        return np.where(t == 0.0, fa, np.sin(t))

    if not math.isfinite(fa):
        for call in (lambda: rl_derivative(f, p, 1.0), lambda: critical_points(f, p, 4.0),
                     lambda: base_value(f, 0.0, allow_nonzero=True)):
            with pytest.raises(DomainError, match=r"^non-finite value from the callable f at t=0\.0$"):
                call()
        return
    with pytest.raises(AssumptionError, match="f\\(a\\) must be 0"):
        rl_derivative(f, p, 1.0)
    with pytest.raises(AssumptionError, match="f\\(a\\) must be 0"):
        critical_points(f, p, 4.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert repr(base_value(f, 0.0, allow_nonzero=True)) == repr(fa)
    assert [str(w.message) for w in caught] == [f"f(a) = {fa!r} != 0: result has Caputo (not Riemann-Liouville) semantics"]


_REMEDY = "; pass allow_nonzero_base=True (CLI --allow-nonzero-base) to downgrade to Caputo semantics"


@pytest.mark.parametrize("call, remedy", [
    (lambda p: rl_derivative(parse("t+1"), p, 1.0), True),
    (lambda p: critical_points(parse("t+1"), p, 2.0), True),
    (lambda p: mean_path_witness(parse("t+1"), parse("t"), p, [1.0, 2.0]), False),
    (lambda p: derivative_zero_before(parse("t-1"), p, 1.0), False),
    (lambda p: dilation_scenario(parse("t+1"), p, [0.5, 1.0]), False),
    (lambda p: r_alpha_curve(parse("0.5-(t-1)^2"), 0.0, 1.5, 1.0, 0.2, [0.5]), False),
    (lambda p: order_duality_check(parse("t+1"), p, 1.0), False),
], ids=["rl_derivative", "critical_points", "mean_path_witness", "derivative_zero_before",
        "dilation_scenario", "r_alpha_curve", "order_duality_check"])
def test_a_nonzero_base_names_its_remedy_only_where_the_caller_takes_it(call, remedy):
    # allow_nonzero_base is a parameter of rl_derivative and critical_points
    # alone; every other operation that needs f(a) = 0 refuses without it
    with pytest.raises(AssumptionError) as err:
        call(FractionalParams(0.5, 0.0, 64))
    got = str(err.value)
    assert got.startswith("f(a) must be 0 for this operation (got f(0.0) = ")
    assert got.endswith(_REMEDY) is remedy and ("allow_nonzero" in got) is remedy


# --- lowered function ---------------------------------------------------------


def test_f_lower_vanishes_at_base():
    p = FractionalParams(0.5, 0.0, 128)
    assert f_lower(parse("t"), p, 0.0).value == 0.0


@pytest.mark.parametrize("fa", [math.nan, math.inf, -math.inf])
def test_f_lower_refuses_a_nonfinite_base_value(fa):
    p = FractionalParams(0.5, 0.0, 256)

    def f(t):
        return np.where(t == 0.0, fa, np.sin(t))

    with pytest.raises(DomainError, match=r"^non-finite value from the callable f at t=0\.0$"):
        f_lower(f, p, 1.0)


@pytest.mark.parametrize("case", ["float", "array"])
def test_a_callable_is_refused_where_it_is_not_finite(case):
    # at the sample that reads it, naming the point, as an Expression is:
    # a Brent step's float lands on the nan ...
    p = FractionalParams(0.5, 0.0, 256)
    if case == "float":
        f, at = (lambda ts: np.where(abs(ts - 0.6667) < 2e-4, np.nan, ts)), 2.0 / 3.0
    else:  # ... or the quadrature grid holds it: its first such node is named
        f, at = (lambda ts: np.where(ts > 0.5, np.inf, ts)), 129 / 256
    with pytest.raises(DomainError, match=f"^non-finite value from the callable f at t={at!r}$"):
        fraccalc.mean_value(f, p, 1.0, 128)
    with pytest.raises(DomainError, match=f"^non-finite value from the callable f at t={at!r}$"):
        fracops._sampler(f)(at if case == "float" else np.linspace(0.0, 1.0, 257))


@pytest.mark.parametrize("f, got", [(lambda ts: 1.0, "()"), (lambda ts: ts[:-1], "(256,)")], ids=["scalar", "short"])
def test_a_callable_whose_values_break_the_shape_contract_is_refused(f, got):
    # an array in gives an array of its shape out: the array path (a quadrature
    # grid) and the float path (one point, as a 1-element array) both check it
    p = FractionalParams(0.5, 0.0, 256)
    contract = "the callable f must map an array of points to an array of the same shape: "
    with pytest.raises(ValueError, match=re.escape(f"{contract}points of shape (257,) gave values of shape {got}")):
        rl_integral(f, p, 0.5, 1.0)
    got = "(0,)" if got == "(256,)" else got
    with pytest.raises(ValueError, match=re.escape(f"{contract}points of shape (1,) gave values of shape {got}")):
        base_value(f, 0.0)


def test_f_lower_power_law():
    p = FractionalParams(0.5, 0.0, 512)
    out = f_lower(parse("t"), p, 1.0)
    assert out.value == pytest.approx(power_integral(1.0, 0.5, 1.0), rel=1e-12)
    assert out.value == pytest.approx(1.0 / math.gamma(2.5), rel=1e-12)


def test_f_lower_identity_with_integral():
    p = FractionalParams(0.4, 0.0, 1024)
    f = parse("sin(t)")
    lowered = f_lower(f, p, 1.5)
    direct = rl_integral(f, p, 0.6, 1.5)
    assert lowered.value == pytest.approx(direct.value, rel=1e-6)


def test_f_lower_identity_with_nonzero_base_value():
    # the boundary term carries f(a) when it is not zero
    p = FractionalParams(0.3, 0.5, 1024)
    f = parse("cos(t)")
    lowered = f_lower(f, p, 2.0)
    direct = rl_integral(f, p, 0.7, 2.0)
    assert lowered.value == pytest.approx(direct.value, rel=1e-7)


# --- composition identities ---------------------------------------------------


def test_every_operator_value_holds_python_floats():
    # a numpy scalar is a float subclass with its own repr; no path returns one
    f, p = parse("t^2"), FractionalParams(0.5, 0.0, 64)
    outs = [rl_derivative(f, p, 1.0, method="direct"), rl_derivative(np.square, p, 1.0, method="direct")]
    for ops in (fraccalc, oracle):
        outs += [
            ops.rl_integral(f, p, 0.5, 1.0),
            ops.rl_integral(f, p, 2.5, 1.0),
            ops.rl_derivative(f, p, 1.0),
            ops.caputo_derivative(f, p, 1.0),
        ]
    outs.append(f_lower(f, p, 1.0))
    for out in outs:
        assert type(out.value) is float and type(out.est_error) is float, out


@pytest.mark.parametrize("al", [0.3, 0.5, 0.7])
def test_derivative_after_integral_recovers_f(al):
    # D^al I^al f = f, computed on one shared grid
    n = 2048
    x = 1.5
    h = x / n
    ts = h * np.arange(n + 1)
    fv = np.sin(ts)
    inner = integral_on_grid(fv, h, al)
    outer = integral_on_grid(inner, h, 1.0 - al)
    dval = (outer[-1] - outer[-3]) / (2.0 * h)
    assert dval == pytest.approx(math.sin(x - h), rel=2e-4)


@pytest.mark.parametrize("al", [0.3, 0.5, 0.7])
def test_integral_after_derivative_recovers_f(al):
    # I^al D^al f = f when f(a) = 0 (no correction term survives)
    n = 2048
    x = 1.5
    h = x / n
    ts = h * np.arange(n + 1)
    fv = ts * np.exp(-ts)
    fpv = (1.0 - ts) * np.exp(-ts)
    u = integral_on_grid(fpv, h, 1.0 - al)
    back = integral_on_grid(u, h, al)
    assert back[-1] == pytest.approx(fv[-1], rel=2e-4)


def test_integral_above_order_one_is_exact_on_t():
    # the product rule integrates the piecewise-linear interpolant exactly
    # at every order, so I^2.5 t = G(2)/G(4.5) x^3.5 holds to round-off
    exact = power_integral(1.0, 2.5, 1.0)
    for n in (256, 2048):
        out = rl_integral(parse("t"), FractionalParams(0.5, 0.0, n), 2.5, 1.0)
        assert abs(out.value - exact) <= 1e-15 * exact
    # on t^0.5, where the interpolant is not exact, the finer grid is closer
    exact = power_integral(0.5, 2.5, 1.0)
    coarse, fine = (rl_integral(parse("t^0.5"), FractionalParams(0.5, 0.0, n), 2.5, 1.0) for n in (256, 2048))
    assert abs(fine.value - exact) < abs(coarse.value - exact)
    # integer order: plain double integration of t^2
    out = rl_integral(parse("t^2"), FractionalParams(0.5, 0.0, 512), 2.0, 1.0)
    assert out.value == pytest.approx(power_integral(2.0, 2.0, 1.0), rel=1e-4)


def test_integral_of_any_order_power_law_corpus():
    # the nested-grid refinement applies to every order
    for beta in (0.5, 1.0, 2.0):
        f = parse(f"t^{beta}")
        for order in (0.5, 1.5, 2.5, 3.25):
            for x in (0.5, 1.0, 2.0):
                out = rl_integral(f, FractionalParams(0.5, 0.0, 512), order, x)
                exact = power_integral(beta, order, x)
                err = abs(out.value - exact)
                assert err <= 1e-5 * exact
                assert out.est_error >= err


@pytest.mark.parametrize("src", ["exp(t)", "sin(t)"])
@pytest.mark.parametrize("n", [1, 3])
def test_remainder_order_integral_matches_oracle(src, n):
    # the mean-value polynomial's remainder I^(n+2-alpha) f^(n+1), on 64 panels
    f, alpha, x = parse(src), 0.5, 1.0
    top = lambda ts: derivative_values(f, ts, n + 1)  # noqa: E731
    p = FractionalParams(alpha, 0.0, 64)
    out = rl_integral(top, p, n + 2.0 - alpha, x)
    ref = oracle.rl_integral(top, p, n + 2.0 - alpha, x).value
    err = abs(out.value - ref)
    assert err <= 1e-6 * abs(ref)
    assert out.est_error >= err


def test_grid_scale_overflow_is_one_domain_error():
    # h^mu in front of a product-trapezoid sum passes a float's range:
    # I^40 with h = 1e10, and I^65.5 with h = 1.25e9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows a float"):
            integral_on_grid(np.ones(3), 1e10, 40.0)
        with pytest.raises(DomainError, match="overflows a float"):
            rl_integral(parse("t"), FractionalParams(0.5, 0.0, 8), 65.5, 1e10)


def test_integral_on_grid_matches_pointwise_rule():
    from fraccalc.fracops import _l1_sum

    n = 64
    h = 2.0 / n
    ts = h * np.arange(n + 1)
    fv = np.cos(ts) + ts
    sweep = integral_on_grid(fv, h, 0.35)
    for i in (1, 2, 7, 33, 64):
        assert sweep[i] == pytest.approx(_l1_sum(fv[: i + 1], h, 0.35), rel=1e-13)


@pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("n, m", [
    (12, 12), (96, 96), (288, 96), (2112, 96), (2304, 384), (3072, 1536), (6144, 6144), (8256, 96), (32768, 128),
])
def test_strided_integral_matches_the_dot_product_per_node(n, m, mu):
    from fraccalc.fracops import _l1_weights, _strided_integral

    k = n // m
    h = 3.0 / n
    fv = np.cos(2.0 * h * np.arange(n + 1)) + 1.2  # positive, so every node's sum is well away from 0
    # node j's prefix rule read from the packed n-panel table, one dot product per node
    w = _l1_weights(n, mu)
    scale = h**mu / math.gamma(mu + 2.0)
    loop = scale * np.array([w[n + j] * fv[0] + w[n - j + 1 : n + 1] @ fv[1 : j + 1] for j in range(k, n + 1, k)])
    got = _strided_integral(fv, h, mu, k)
    assert got.shape == (m,)
    assert np.max(np.abs(got - loop) / np.abs(loop)) <= 4e-15


def test_strided_integral_at_every_node_keeps_its_temporaries_small():
    import tracemalloc

    from fraccalc.fracops import _strided_integral, _l1_weights

    n = 1 << 14
    fv = np.cos(np.arange(n + 1) / n)
    _l1_weights(n, 0.5)
    tracemalloc.start()
    try:
        _strided_integral(fv, 1.0 / n, 0.5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n matrix of chunk products would be 2 GB
    assert peak < 16 << 20


def test_strided_integral_overflow_is_one_domain_error():
    from fraccalc.fracops import _strided_integral

    fv = np.full(97, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="product-trapezoid sums for I\\^0.5 overflow a float"):
            _strided_integral(fv, 1.0, 0.5, 1)


@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9, 1.5])
@pytest.mark.parametrize("n", [65, 100, 127, 129, 130, 191, 4097, 4098, 5329, 6000])
def test_integral_on_grid_last_block_matches_the_dot_product_per_node(n, mu):
    # the last block [lo, n) is transformed on the least 5-smooth length >=
    # 2n - 1 - lo; at n = 100 (lo = 64) and n = 5329 (lo = 4096) that bound,
    # 135 and 6561, is 5-smooth itself, so the length has no slack and node lo
    # would take the first entry past the linear convolution if it were short
    from fraccalc.fracops import _l1_weights

    h = 3.0 / n
    fv = np.cos(2.0 * h * np.arange(n + 1)) + 0.2 * np.sin(40.0 * h * np.arange(n + 1))
    w = _l1_weights(n, mu)
    scale = h**mu / math.gamma(mu + 2.0)
    loop = scale * np.array([w[n + j] * fv[0] + w[n - j + 1 : n + 1] @ fv[1 : j + 1] for j in range(1, n + 1)])
    got = integral_on_grid(fv, h, mu)
    assert got[0] == 0.0
    assert np.max(np.abs(got[1:] - loop)) <= 1e-13 * np.max(np.abs(loop))


def test_smooth_length_is_the_least_5_smooth_integer_at_or_above():
    from fraccalc.fracops import _smooth_length

    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    assert [_smooth_length(m) for m in (135, 6561)] == [135, 6561]
    for m in range(1, 3000):
        assert _smooth_length(m) == next(k for k in range(m, 2 * m + 1) if smooth(k)), m


def test_integral_on_grid_of_one_sample_is_zero():
    assert np.array_equal(integral_on_grid(np.array([3.0]), 0.1, 0.5), [0.0])


def _sweep_by_direct_convolution(samples, h, mu):
    # the product-trapezoid sweep with its inner sum as one np.convolve
    n = len(samples) - 1
    m = np.arange(n + 1, dtype=float)
    mp = m ** (mu + 1.0)
    v = np.empty(n)
    v[0] = 1.0
    v[1:] = mp[2:] - 2.0 * mp[1:n] + mp[: n - 1]
    e = mp[:n] - mp[1:] + (mu + 1.0) * m[1:] ** mu
    out = np.zeros(n + 1)
    out[1:] = h**mu / gamma(mu + 2.0) * (e * samples[0] + np.convolve(samples[1:], v)[:n])
    return out


@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("fn, end", [
    (lambda t: np.exp(10.0 * t), 3.0),
    (lambda t: t**20, 2.0),
    (lambda t: t**6, 1.0),
    (lambda t: np.cos(1.3 * t) + 2.0, 2.0),
], ids=["exp10t", "t20", "t6", "cos"])
def test_integral_on_grid_sweep_relative_error_at_every_node(fn, end, mu):
    # round-off at each node must stay relative to the data near that node,
    # even where the data grow by many orders of magnitude along the grid
    for n in (1, 2, 3, 63, 64, 65, 128, 129, 192, 1000, 4097, 12288, 16384):
        h = end / n
        fv = fn(h * np.arange(n + 1))
        sweep = integral_on_grid(fv, h, mu)
        ref = _sweep_by_direct_convolution(fv, h, mu)
        assert sweep[0] == 0.0
        np.testing.assert_allclose(sweep[1:], ref[1:], rtol=1e-8, atol=0.0)


def test_weight_cache_is_bounded_by_bytes(monkeypatch):
    from fraccalc import fracops

    fracops._WEIGHT_CACHE.clear()
    cap = fracops._WEIGHT_CACHE_MAX_BYTES
    for k in range(20):
        fracops._l1_weights(2**20, 0.05 + 0.045 * k)
        assert sum(c.nbytes for c in fracops._WEIGHT_CACHE.values()) <= cap
    small = fracops._l1_weights(256, 0.35)
    for _ in range(3):
        assert fracops._l1_weights(256, 0.35) is small
    # an array larger than the whole cap is returned but never kept
    monkeypatch.setattr(fracops, "_WEIGHT_CACHE_MAX_BYTES", 1024)
    big = fracops._l1_weights(4096, 0.35)
    assert big.nbytes > 1024 and (4096, 0.35) not in fracops._WEIGHT_CACHE
    fracops._WEIGHT_CACHE.clear()


def test_weight_overflow_is_one_domain_error_and_never_cached():
    from fraccalc import fracops

    fracops._WEIGHT_CACHE.clear()
    w = fracops._l1_weights(1024, 101.0)  # 1024^102 = 2^1020 is a float
    assert np.isfinite(w).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(2):
            with pytest.raises(DomainError, match=r"mu=102\.0 .*n=1024"):
                fracops._l1_weights(1024, 102.0)  # 1024^103 is not
    assert (1024, 102.0) not in fracops._WEIGHT_CACHE
    fracops._WEIGHT_CACHE.clear()


def _cached_bytes(fracops):
    return sum(c.nbytes for c in fracops._WEIGHT_CACHE.values())


@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [65, 1000, 4097, 16384])
def test_sweep_is_the_same_with_cold_warm_and_refused_weight_spectra(n, mu, monkeypatch):
    from fraccalc import fracops

    h = 2.0 / n
    ts = h * np.arange(n + 1)
    fv = np.exp(3.0 * ts) + np.cos(7.0 * ts)
    fracops._WEIGHT_CACHE.clear()
    cold = integral_on_grid(fv, h, mu)
    assert (n, mu, "spectra") in fracops._WEIGHT_CACHE
    warm = integral_on_grid(fv, h, mu)
    # a budget that holds the weights and nothing more refuses the spectra
    fracops._WEIGHT_CACHE.clear()
    monkeypatch.setattr(fracops, "_WEIGHT_CACHE_MAX_BYTES", (2 * n + 1) * 8)
    refused = integral_on_grid(fv, h, mu)
    assert list(fracops._WEIGHT_CACHE) == [(n, mu)]
    assert np.array_equal(cold, warm) and np.array_equal(cold, refused)
    fracops._WEIGHT_CACHE.clear()


def test_warm_sweep_transforms_the_data_once_per_block(monkeypatch):
    from fraccalc import fracops

    n = 16384
    fv = np.cos(np.arange(n + 1) / n)
    fracops._WEIGHT_CACHE.clear()
    integral_on_grid(fv, 1.0 / n, 0.3)
    calls = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda *args, **kwargs: calls.append(args[1]) or rfft(*args, **kwargs))
    integral_on_grid(fv, 1.0 / n, 0.3)
    # blocks [64, 128), ..., [8192, 16384): one transform of length 3*lo each
    assert calls == [3 * 64 << k for k in range(8)]
    fracops._WEIGHT_CACHE.clear()


def test_warm_sweep_holds_few_copies_of_its_output():
    import tracemalloc

    from fraccalc import fracops

    n = 1 << 16
    fv = np.cos(np.arange(n + 1) / n)
    fracops._WEIGHT_CACHE.clear()
    integral_on_grid(fv, 1.0 / n, 0.3)
    tracemalloc.start()
    try:
        integral_on_grid(fv, 1.0 / n, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output, the last block's data spectrum and its inverse transform
    assert peak <= 5 * 8 * (n + 1)
    fracops._WEIGHT_CACHE.clear()


def test_caching_weight_spectra_never_evicts(monkeypatch):
    from fraccalc import fracops

    fracops._WEIGHT_CACHE.clear()
    fv = np.linspace(1.0, 2.0, 4097)
    for mu in (0.2, 0.4):
        integral_on_grid(fv, 0.01, mu)
    held = dict(fracops._WEIGHT_CACHE)
    # room for the weights of one more sweep, not for its spectra
    budget = _cached_bytes(fracops) + (2 * 4096 + 1) * 8
    monkeypatch.setattr(fracops, "_WEIGHT_CACHE_MAX_BYTES", budget)
    integral_on_grid(fv, 0.01, 0.6)
    assert (4096, 0.6) in fracops._WEIGHT_CACHE and (4096, 0.6, "spectra") not in fracops._WEIGHT_CACHE
    assert all(fracops._WEIGHT_CACHE[key] is arr for key, arr in held.items())
    assert _cached_bytes(fracops) <= budget
    fracops._WEIGHT_CACHE.clear()


def test_weights_that_need_room_drop_the_spectra_first(monkeypatch):
    from fraccalc import fracops

    fv = np.linspace(1.0, 2.0, 4097)
    fracops._WEIGHT_CACHE.clear()
    integral_on_grid(fv, 0.01, 0.2)
    spectra = fracops._WEIGHT_CACHE[(4096, 0.2, "spectra")].nbytes
    fracops._WEIGHT_CACHE.clear()
    # room for two weight tables and one set of spectra, one byte short of all three
    weights = (2 * 4096 + 1) * 8
    monkeypatch.setattr(fracops, "_WEIGHT_CACHE_MAX_BYTES", 2 * weights + spectra - 1)
    integral_on_grid(fv, 0.01, 0.2)
    first = fracops._WEIGHT_CACHE[(4096, 0.2)]
    assert (4096, 0.2, "spectra") in fracops._WEIGHT_CACHE
    fracops._l1_weights(4096, 0.4)
    # the spectra make room; the weights stay, as in a cache without spectra
    assert list(fracops._WEIGHT_CACHE) == [(4096, 0.2), (4096, 0.4)]
    assert fracops._WEIGHT_CACHE[(4096, 0.2)] is first
    fracops._WEIGHT_CACHE.clear()


# --- the Richardson step -------------------------------------------------------


def _refined(v1, v2, v4):
    order = math.log(abs(v2 - v4) / abs(v1 - v2)) / math.log(2.0)
    return v1 + (v1 - v2) / (2.0**order - 1.0)


@pytest.mark.parametrize(
    "v1, v2, v4, value",
    [
        (1.0, 1.0, 0.5, 1.0),  # d1 = 0
        (0.0, -1e-15, -3e-15, 0.0),  # |d1| equal to the floor, at a ratio that would refine
        (1e6, 1e6 - 1e-10, 1e6 - 3e-10, 1e6),  # |d1| under a floor scaled by |v1|
        (1.0, 0.9, 0.85, 1.0),  # |d2| <= |d1|
        (1.0, 0.9, 0.72, 1.0),  # measured order log2(1.8) below 0.9
        (1.0, 0.9, 0.3, 1.0),  # measured order log2(6) above 2.5
        (1.0, 0.9, 0.7, _refined(1.0, 0.9, 0.7)),  # order about 1
        (1.0, 0.9, 0.5, _refined(1.0, 0.9, 0.5)),  # order about 2
        (-2.0, -1.9, -1.5, _refined(-2.0, -1.9, -1.5)),  # order about 2, negative values
    ],
)
def test_extrapolate_branches(v1, v2, v4, value):
    assert _extrapolate(v1, v2, v4) == (value, abs(v1 - v2) + 1e-15 * max(abs(v1), abs(v2), 1.0))


def test_extrapolate_refines_to_the_limit_at_orders_one_and_two():
    # v = L + c h^p on h, 2h and 4h: the refined value is L up to round-off
    assert _extrapolate(1.0, 0.9, 0.7)[0] == pytest.approx(1.1, rel=1e-13)
    assert _extrapolate(1.0, 0.9, 0.5)[0] == pytest.approx(1.0 + 0.1 / 3.0, rel=1e-13)


@pytest.mark.parametrize("grid_n", [2, 17, 2047, 2050])
def test_nested_values_are_extrapolate_of_the_three_slices(grid_n):
    a, x, mu = 0.25, 1.75, 0.4

    def slices(n):
        n = -(-n // 4) * 4  # rounded up so the half and quarter grids nest
        fv, h = np.sin(np.linspace(a, x, n + 1)), (x - a) / n
        return [(np.ascontiguousarray(fv[::k]), k * h) for k in (1, 2, 4)]

    want = _extrapolate(*(_l1_sum(fv, h, mu) for fv, h in slices(grid_n)))
    assert _kernel_quad_grid(np.sin, a, [x], [mu], grid_n) == [want]

    def slope(fv, h):
        m = len(fv) - 1
        u0, u1, u2 = (_l1_sum(fv[: j + 1], h, mu) for j in (m - 2, m - 1, m))
        return (3.0 * u2 - 4.0 * u1 + u0) / (2.0 * h)

    v, est = _extrapolate(*(slope(fv, h) for fv, h in slices(max(12, grid_n))))
    out = rl_derivative(parse("sin(t)"), FractionalParams(1.0 - mu, a, grid_n), x, method="direct")
    assert (out.value, out.est_error) == (v, est)


# --- limit behaviour ----------------------------------------------------------


def test_order_limits_for_sine():
    f = parse("sin(t)")
    lo = rl_derivative(f, FractionalParams(0.01, 0.0, 2048), 1.0)
    hi = rl_derivative(f, FractionalParams(0.99, 0.0, 2048), 1.0)
    assert abs(lo.value - math.sin(1.0)) <= 0.02
    assert abs(hi.value - math.cos(1.0)) <= 0.02


def test_order_limits_approach_monotonically():
    f = parse("sin(t)")
    devs_lo = [
        abs(rl_derivative(f, FractionalParams(al, 0.0, 1024), 1.0).value - math.sin(1.0))
        for al in (0.05, 0.04, 0.03, 0.02, 0.01)
    ]
    devs_hi = [
        abs(rl_derivative(f, FractionalParams(al, 0.0, 1024), 1.0).value - math.cos(1.0))
        for al in (0.95, 0.96, 0.97, 0.98, 0.99)
    ]
    assert all(a > b for a, b in zip(devs_lo, devs_lo[1:]))
    assert all(a > b for a, b in zip(devs_hi, devs_hi[1:]))


# --- windows: the Caputo derivative restarted at the window start --------------


def test_windowed_power_law_at_origin():
    out = caputo_derivative(parse("t^2"), FractionalParams(0.5, 0.0, 512), 1.0)
    assert out.value == pytest.approx(power_derivative(2.0, 0.5, 1.0), rel=1e-9)
    assert out.value == pytest.approx(2.0 / math.gamma(2.5), rel=1e-9)


def test_windowed_sees_shifted_slope():
    f = parse("t^2")
    near = oracle.caputo_derivative(f, FractionalParams(0.5, 0.0, 512), 1.0)
    far = oracle.caputo_derivative(f, FractionalParams(0.5, 1.0, 512), 2.0)
    # oracle closed form for the shifted window: I^(1/2) of 2t from 1 at 2
    assert far.value == pytest.approx(20.0 / (3.0 * math.sqrt(math.pi)), rel=1e-9)
    assert far.value > near.value


def test_windowed_linear_closed_form():
    # slope m over any window gives m delta^(1-al)/Gamma(2-al)
    f = parse("3*t - 1")
    for x0 in (0.0, 0.7, 2.0):
        for al in (0.3, 0.6):
            out = caputo_derivative(f, FractionalParams(al, x0, 256), x0 + 0.8)
            ref = 3.0 * 0.8 ** (1.0 - al) / math.gamma(2.0 - al)
            assert out.value == pytest.approx(ref, rel=1e-12)


def test_grid_parity_does_not_matter():
    # the Richardson grids are nested for every grid_n, so an odd grid is no
    # worse than the even one below it
    exact = power_integral(2.0, 0.5, 1.0)

    def err(n):
        return abs(rl_integral(parse("t^2"), FractionalParams(0.5, 0.0, n), 0.5, 1.0).value - exact)

    assert err(17) <= 2.0 * err(16)
    assert err(33) <= 2.0 * err(32)


# --- pointwise quadratures in batches ------------------------------------------


def _quad_outcome(run):
    try:
        value, est = run()
    except DomainError as exc:
        return type(exc), str(exc)
    return np.array([value, est]).tobytes()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.recursive(_leaves, _grow, max_leaves=6),
    st.floats(-1.0, 1.0),
    st.lists(st.tuples(st.floats(0.05, 3.0), st.floats(0.01, 0.99)), min_size=1, max_size=9),
    st.sampled_from([2, 3, 17, 2047, 2050]),
    st.integers(1, 10),
)
# log(2 - t) has no f' from t = 2 on: batches that mix failing and finite rows
@example(parse("log(2-t)").root, 0.0, [(0.5, 0.3), (2.5, 0.5), (1.0, 0.5), (3.0, 0.9), (1.5, 0.9)], 17, 2)
@example(parse("log(2-t)").root, 0.0, [(0.5, 0.3), (2.5, 0.5), (1.0, 0.5), (3.0, 0.9), (1.5, 0.9)], 2050, 10)
def test_a_batch_of_quadratures_equals_one_at_a_time_bit_for_bit(root, a, pairs, grid_n, per_batch):
    # f' of a grammar expression at (x, mu) pairs of mixed orders, in batches
    # of per_batch rows (the element budget set to that many grids), against
    # _kernel_quad_grid at each pair alone: the rows are equal, or the batch
    # raises the exception of the first pair that fails alone
    e = Expression(root)
    fp = fracops._prime_sampler(e)
    xs, mus = [a + d for d, _ in pairs], [mu for _, mu in pairs]
    alone = [_quad_outcome(lambda x=x, mu=mu: _kernel_quad_grid(fp, a, [x], [mu], grid_n)[0]) for x, mu in zip(xs, mus)]
    assume(any(isinstance(o, bytes) for o in alone))  # f' finite on [a, x] for some x
    first_failure = next((o for o in alone if not isinstance(o, bytes)), None)
    with mock.patch.object(fracops, "_BATCH_MAX_POINTS", per_batch * (fracops._panels(grid_n) + 1)):
        try:
            together = [np.array(row).tobytes() for row in _kernel_quad_grid(fp, a, xs, mus, grid_n)]
        except DomainError as exc:
            together = type(exc), str(exc)
    assert together == (alone if first_failure is None else first_failure)


def test_a_refined_value_that_overflows_a_float_is_a_domain_error():
    # finite sums on the fine, half and quarter grids whose Richardson step
    # overflows: every pointwise value is checked where it is refined
    sums = {5: 1.0e308, 3: 0.1e308, 2: -1.6e308}  # by the node count of the 4-panel grid and its slices
    value, est = _extrapolate(*sums.values())
    assert math.isinf(value) and math.isfinite(est)
    with pytest.raises(DomainError, match=re.escape("non-finite quadrature value over [0.0, 1.0]")):
        fracops._nested(np.sin, 0.0, [1.0], 4, [lambda fv, h: sums[len(fv)]])


def test_a_failing_batch_runs_again_item_by_item(monkeypatch):
    # items of 3 nodes, in batches of two under a budget of 6 nodes: the first
    # batch keeps its values, the second fails together and runs item by item
    # until its first failing item raises its own error, and the third never starts
    calls = []

    def together(batch):
        calls.append(("together", batch))
        if 3 in batch:
            raise ValueError("the batch fails")
        return [10 * item for item in batch]

    def alone(item):
        calls.append(("alone", item))
        if item == 5:
            raise ArithmeticError("item 5 fails")
        return -item

    monkeypatch.setattr(fracops, "_BATCH_MAX_POINTS", 6)
    assert fracops._in_batches([0, 1, 2, 3, 4], 3, together, alone) == [0, 10, -2, -3, 40]
    assert calls == [("together", [0, 1]), ("together", [2, 3]), ("alone", 2), ("alone", 3), ("together", [4])]
    calls.clear()
    with pytest.raises(ArithmeticError, match="item 5 fails"):
        fracops._in_batches([0, 1, 5, 3, 4, 6], 3, together, alone)
    assert calls == [("together", [0, 1]), ("together", [5, 3]), ("alone", 5)]
    # the budget is read at each call, and a batch holds at least one item
    for budget, batches in ((9, [[0, 1, 2], [4]]), (2, [[0], [1], [2], [4]])):
        calls.clear()
        monkeypatch.setattr(fracops, "_BATCH_MAX_POINTS", budget)
        assert fracops._in_batches([0, 1, 2, 4], 3, together, alone) == [0, 10, 20, 40]
        assert calls == [("together", batch) for batch in batches]



def test_a_failed_batch_is_freed_before_its_items_run_again():
    # the rerun of a batch does not hold what the failed call's frames held
    # (at the --grid-n cap, a weight table that overflowed, or a sample)
    import weakref

    held = []

    class Held:
        pass

    def together(batch):
        block = Held()
        held.append(weakref.ref(block))
        raise ValueError("the batch fails")

    def alone(item):
        assert held[-1]() is None
        return item

    assert fracops._in_batches([1, 2], 1, together, alone) == [1, 2]


def test_without_alone_a_failing_one_item_batch_raises_from_its_first_attempt(monkeypatch):
    # items of 3 nodes in batches of two: a failing batch of two runs again as
    # two batches of one, and a batch of one that fails is not run twice
    calls = []

    def together(batch):
        calls.append(batch)
        if 3 in batch:
            raise ValueError(f"the batch {batch} fails")
        return [10 * item for item in batch]

    monkeypatch.setattr(fracops, "_BATCH_MAX_POINTS", 6)
    with pytest.raises(ValueError, match=re.escape("the batch [3] fails")):
        fracops._in_batches([0, 1, 2, 3, 4], 3, together)
    assert calls == [[0, 1], [2, 3], [2], [3]]
    calls.clear()
    with pytest.raises(ValueError, match=re.escape("the batch [3] fails")):
        fracops._in_batches([0, 1, 2, 4, 3], 3, together)
    assert calls == [[0, 1], [2, 4], [3]]


_ENTRY_CALLERS = {
    "rl_integral": lambda: rl_integral(parse("t^2"), FractionalParams(0.5, 0.0, 64), 0.5, 1.0),
    "caputo_derivative": lambda: caputo_derivative(parse("t^2"), FractionalParams(0.5, 0.0, 64), 1.0),
    "rl_derivative": lambda: rl_derivative(parse("t^2"), FractionalParams(0.5, 0.0, 64), 1.0),
    "f_lower": lambda: f_lower(parse("t^2+1"), FractionalParams(0.5, 0.0, 64), 1.0),
    "mean_value": lambda: fraccalc.mean_value(parse("t^2"), FractionalParams(0.5, 0.0, 64), 1.0),
    "critical_points": lambda: critical_points(parse("sin(t)"), FractionalParams(0.5, 0.0, 256), 4.5),
    "_critical_sweep": lambda: fraccalc.critical._critical_sweep(
        parse("sin(t)"), [FractionalParams(al, 0.0, 256) for al in (0.3, 0.7)], 4.5, 96),
    "derivative_zero_before": lambda: derivative_zero_before(parse("sin(t)"), FractionalParams(0.5, 0.0, 256), math.pi),
    "dilation_scenario": lambda: dilation_scenario(parse("t"), FractionalParams(0.5, 0.0, 64), [0.5, 1.0]),
    "delta_increasing_check": lambda: fraccalc.delta_increasing_check(
        parse("t^2"), 0.5, 0.5, fraccalc.sample_window_pairs(0.0, 4.0, 0.5, n_pairs=2), 64),
    "property_P_check": lambda: fraccalc.property_P_check(
        parse("t^2"), 0.5, 0.5, fraccalc.sample_window_pairs(0.0, 4.0, 0.5, n_pairs=2), grid_n=64),
}


@pytest.mark.parametrize("caller", sorted(_ENTRY_CALLERS))
def test_every_pointwise_quadrature_goes_through_the_one_entry(monkeypatch, caller):
    # a recorder at every module that looks the entry up by name, as the
    # benchmark's tracer installs it
    entry, calls = fracops._kernel_quad_grid, []

    def recording(*args, **kwargs):
        calls.append(args)
        return entry(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fraccalc":
            for attr, value in list(vars(module).items()):
                if value is entry:
                    monkeypatch.setattr(module, attr, recording)
    _ENTRY_CALLERS[caller]()
    assert calls
