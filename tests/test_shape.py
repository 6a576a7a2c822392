import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraccalc
import quadpack_oracle as oracle
from fraccalc import (
    FractionalParams,
    HypothesisError,
    caputo_derivative,
    comparison_check,
    convexity_equivalence,
    delta_increasing_check,
    monotonicity_certificate,
    parse,
    periodicity_defect,
    property_P_check,
    sample_window_pairs,
)
import fraccalc.fracops as fracops
from fraccalc.fracops import _prime_sampler, _sampler
from fraccalc.expr import BinOp, Expression, Var
from fraccalc.meanval import _mean_values
from fraccalc.shape import (
    WindowPairSample,
    _delta_increasing_verdict,
    _product_rule,
    _property_P_verdict,
    _window_table,
)
from test_expr import _grow, _leaves


@pytest.fixture(scope="module")
def pairs():
    return sample_window_pairs(0.0, 4.0, 0.5, n_pairs=16, seed=0)


def test_pair_sampler_is_deterministic_and_admissible():
    a = sample_window_pairs(0.0, 4.0, 0.5, n_pairs=32, seed=3)
    b = sample_window_pairs(0.0, 4.0, 0.5, n_pairs=32, seed=3)
    assert a == b
    for p in a:
        assert p.x0 + p.delta < p.y0
        assert p.y0 + p.delta <= 4.0 + 1e-12
    c = sample_window_pairs(0.0, 4.0, 0.5, n_pairs=32, seed=4)
    assert c != a


def test_pair_validation():
    with pytest.raises(ValueError):
        sample_window_pairs(0.0, 0.9, 0.5, n_pairs=4)  # no room for two windows


# --- delta-increasing order ----------------------------------------------------


def test_quadratic_is_delta_increasing(pairs):
    verdict = delta_increasing_check(parse("t^2"), 0.5, 0.5, pairs, 512)
    assert verdict.holds is True
    assert verdict.witnesses == ()
    # the windowed values increase strictly along x0 in {0, 1, 2}
    vals = [
        caputo_derivative(parse("t^2"), FractionalParams(0.5, x0, 512), x0 + 0.5).value
        for x0 in (0.0, 1.0, 2.0)
    ]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("rule", ["product rule", "oracle"])
def test_window_values_are_caputo_derivatives_at_the_window_start(rule):
    # the window [x0, x0 + delta] is caputo_derivative with base x0 at x0 + delta
    # on either quadrature, and the verdicts of both window checks read exactly
    # those values: the standalone check runs the product rule, the
    # convexity report the oracle
    f, al, delta, n = parse("exp(t)*cos(2*t)"), 0.4, 0.5, 256
    pairs = sample_window_pairs(0.0, 4.0, delta, n_pairs=4, seed=2)
    quad = _product_rule(n) if rule == "product rule" else fracops._kernel_quad_oracle
    table = _window_table(_prime_sampler(f), al, delta, pairs, quad)
    assert set(table) == {x for p in pairs for x in (p.x0, p.y0)}
    ops = fraccalc if rule == "product rule" else oracle
    for x0, (value, _) in table.items():
        assert value == ops.caputo_derivative(f, FractionalParams(al, x0, n), x0 + delta).value
    verdict = _delta_increasing_verdict(table, pairs)
    assert verdict.holds is False and verdict.witnesses
    for w in verdict.witnesses:
        assert w.margin == table[w.where[0]][0] - table[w.where[1]][0]
    if rule == "product rule":
        assert delta_increasing_check(f, al, delta, pairs, n) == verdict
    else:
        assert convexity_equivalence(f, al, delta, pairs).delta_incr == verdict


def test_window_table_integrates_a_shared_start_once():
    # both pairs start a window at 0; the product rule samples each window once
    fprime = _prime_sampler(parse("t^2"))
    starts = []

    def phi(ts):
        starts.append(float(np.min(ts)))
        return fprime(ts)

    pairs = [WindowPairSample(0.0, 1.0, 0.5), WindowPairSample(0.0, 2.0, 0.5)]
    table = _window_table(phi, 0.5, 0.5, pairs, _product_rule(256))
    assert list(table) == starts == [0.0, 1.0, 2.0]


def test_concave_mirror_fails_with_witnesses(pairs):
    verdict = delta_increasing_check(parse("-t^2"), 0.5, 0.5, pairs, 512)
    assert verdict.holds is False
    assert len(verdict.witnesses) == len(pairs)
    for w in verdict.witnesses:
        assert w.margin > 0.0


# --- property (P) ----------------------------------------------------------------


def test_property_P_linear_offsets(pairs):
    # affine functions place the window mean value at delta/(2-alpha) from
    # every window start; at alpha = 1/2 that is 2 delta / 3
    verdict = property_P_check(parse("t"), 0.5, 0.5, pairs, grid_n=512)
    assert verdict.holds is True
    from fraccalc import FractionalParams, mean_value

    p = FractionalParams(0.5, 1.3, 512)
    mv = mean_value(parse("t"), p, 1.8)
    assert mv.xi_sup - 1.3 == pytest.approx(2.0 * 0.5 / 3.0, abs=1e-9)


def test_property_P_fails_for_unshifted_quadratic(pairs):
    verdict = property_P_check(parse("t^2"), 0.5, 0.5, pairs, grid_n=512)
    assert verdict.holds is False
    assert verdict.witnesses
    assert verdict.defect > 1e-3  # offsets genuinely drift across windows


def test_property_P_exponential_offsets_are_constant(pairs):
    # the window average of e^t scales by e^(x0), so the mean-value offset
    # log(...) is the same in every window: the exponential family passes
    verdict = property_P_check(parse("exp(t)"), 0.5, 0.5, pairs, grid_n=512)
    assert verdict.holds is True
    assert verdict.defect <= 1e-9


def test_property_P_degenerate_constant_function(pairs):
    verdict = property_P_check(parse("1"), 0.5, 0.5, pairs, grid_n=256)
    assert verdict.holds is True  # constant level constrains nothing


# --- convexity equivalence ---------------------------------------------------------


@pytest.fixture(scope="module")
def pairs8():
    return sample_window_pairs(0.1, 3.1, 0.5, n_pairs=8, seed=1)


def test_convex_quadratic_all_positive(pairs8):
    rc = convexity_equivalence(parse("t^2"), 0.5, 0.5, pairs8)
    assert rc.property_P_fprime.holds is True  # f' affine passes the gate
    assert rc.convex_sampled is True
    assert rc.delta_incr.holds is True
    assert rc.fprime_xi_monotone.holds is True
    assert rc.equivalence is True
    assert rc.bridge_residual_max <= 1e-6


def test_concave_quadratic_negative_side_agreement(pairs8):
    rc = convexity_equivalence(parse("-t^2"), 0.5, 0.5, pairs8)
    assert rc.convex_sampled is False
    assert rc.delta_incr.holds is False
    assert rc.equivalence is True  # both sides say "not convex"
    assert rc.bridge_residual_max <= 1e-6


def test_affine_boundary_case_zero_margins(pairs8):
    rc = convexity_equivalence(parse("t"), 0.5, 0.5, pairs8)
    assert rc.convex_sampled is True
    assert rc.delta_incr.holds is True
    assert rc.fprime_xi_monotone.holds is True
    assert rc.equivalence is True
    assert rc.delta_incr.defect == 0.0
    assert rc.bridge_residual_max <= 1e-9


def test_exp_minus_linear_convex(pairs8):
    # f' = e^t - 1 passes the gate through the exponential offset structure
    rc = convexity_equivalence(parse("exp(t) - 1 - t"), 0.5, 0.5, pairs8)
    assert rc.property_P_fprime.holds is True
    assert rc.convex_sampled is True
    assert rc.delta_incr.holds is True
    assert rc.equivalence is True
    assert rc.bridge_residual_max <= 1e-6


def test_cubic_gate_fails_inconclusive(pairs8):
    # f' = 3 t^2 does not have translation-invariant offsets, so the
    # equivalence is not asserted either way
    rc = convexity_equivalence(parse("t^3"), 0.5, 0.5, pairs8)
    assert rc.property_P_fprime.holds is False
    assert rc.equivalence is None


def test_corpus_agreement_when_gate_passes(pairs8):
    for src in ("t^2", "exp(t) - 1 - t", "t", "-t^2"):
        rc = convexity_equivalence(parse(src), 0.5, 0.5, pairs8)
        if rc.property_P_fprime.holds:
            assert rc.convex_sampled == rc.delta_incr.holds
            assert rc.equivalence is True


# --- step-monotonicity certificate ----------------------------------------------


def test_certificate_linear_function():
    v = monotonicity_certificate(parse("t"), 0.5, 0.1, 1.0, 1024)
    assert v.holds is True
    assert v.info["df0"] == pytest.approx(0.1, abs=1e-14)
    assert v.info["reconstruction_error"] <= 1e-12  # identity is exact for t


def test_certificate_sine_small_order():
    # at small orders the shifted-derivative hypothesis holds across the grid
    v = monotonicity_certificate(parse("sin(t)"), 0.05, 0.2, math.pi / 2.0, 1024)
    assert v.holds is True
    assert v.info["reconstruction_error"] <= 1e-4


def test_certificate_sine_half_order_hypothesis_gate():
    # at order 1/2 the tau-difference of the derivative changes sign before
    # pi/2, so the certificate reports not-applicable (yet still reconstructs)
    v = monotonicity_certificate(parse("sin(t)"), 0.5, 0.1, math.pi / 2.0, 1024)
    assert v.holds is None
    assert "not applicable" in v.note
    assert v.info["reconstruction_error"] <= 1e-4


def test_certificate_decreasing_not_applicable():
    v = monotonicity_certificate(parse("-t"), 0.5, 0.1, 1.0, 256)
    assert v.holds is None
    assert "first step" in v.note


def test_certificate_reconstruction_halves_under_doubling():
    # tau is no whole number of (b - tau)/grid_n in any case, so the step
    # count s of tau rounds: the error still halves with each doubling
    for src, alpha, tau, b in [("sin(t)", 0.5, 0.1, math.pi / 2.0), ("exp(0.8*t)-1", 0.7, 0.35, 2.5),
                               ("t^3+0.5*t", 0.15, 0.77, 3.7)]:
        errors = [monotonicity_certificate(parse(src), alpha, tau, b, m).info["reconstruction_error"]
                  for m in (1024, 2048, 4096, 8192)]
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 1.8, (src, errors)


def test_certificate_validates_tau():
    with pytest.raises(ValueError):
        monotonicity_certificate(parse("t"), 0.5, 1.5, 1.0, 128)


def test_certificate_grid_is_aligned_and_bounded(monkeypatch):
    # the one grid of a certificate has at most 2*grid_n + 1 panels and ends
    # at or before b, or the input is refused; the grid is recorded and the
    # certificate stopped before any sampling
    import fraccalc.shape as shape

    class Built(Exception):
        pass

    def recorded(a, x, n):
        raise Built(a, x, n)

    monkeypatch.setattr(shape, "_grid", recorded)
    f, rng = parse("t"), np.random.default_rng(21)
    outcomes = {"built": 0, "tau too short": 0, "tau too near b": 0}
    for _ in range(20000):
        grid_n = int(2 ** rng.uniform(1.0, 20.0))
        b = 10.0 ** rng.uniform(-3.0, 3.0)
        tiny = 10.0 ** -rng.uniform(0.0, 9.0)
        tau = b * rng.choice([rng.uniform(0.0, 1.0), tiny, 1.0 - tiny])
        if not 0.0 < tau < b:
            continue
        try:
            monotonicity_certificate(f, 0.5, tau, b, grid_n)
        except ValueError as exc:
            assert "--tau" in str(exc) and "--grid-n" in str(exc)
            outcomes["tau too short" if 2 * grid_n * tau < b - tau else "tau too near b"] += 1
        except Built as grid:
            a, x, n = grid.args
            assert a == 0.0 and 0.0 < x <= b and 2 <= n <= 2 * grid_n + 1, (tau, b, grid_n, x, n)
            outcomes["built"] += 1
    assert min(outcomes.values()) > 2000, outcomes


def test_certificate_samples_once_and_sweeps_three_times(monkeypatch):
    # f and f' are sampled on one array each; D^alpha, I^(1-alpha) of the f'
    # step and I^alpha of that are the three sweeps
    import fraccalc.fracops as fracops
    import fraccalc.shape as shape

    calls = []

    def counted(name, func):
        def wrapper(*args):
            calls.append((name, type(args[1]).__name__))
            return func(*args)

        return wrapper

    monkeypatch.setattr(shape.Expression, "eval", counted("eval", shape.Expression.eval))
    monkeypatch.setattr(fracops, "derivative_values", counted("derivative_values", fracops.derivative_values))
    monkeypatch.setattr(shape, "integral_on_grid", counted("integral_on_grid", shape.integral_on_grid))
    assert monotonicity_certificate(parse("t^2+0.7*t"), 0.4, 0.5, 3.0, 4096).holds is True
    sweeps = [("integral_on_grid", "float")] * 3
    assert sorted(calls) == [("derivative_values", "ndarray"), ("eval", "ndarray")] + sweeps


@pytest.mark.parametrize("alpha", [1.5, -0.5, 0.0, 1.0, math.nan])
@pytest.mark.parametrize("check", [
    lambda al: monotonicity_certificate(parse("t^2"), al, 0.5, 2.0, 64),
    lambda al: comparison_check(parse("t^2"), parse("t^2+t"), al, 2.0, 64),
    lambda al: periodicity_defect(parse("sin(t)"), al, 2.0 * math.pi, [1.0, 2.0], grid_n=64),
], ids=["monotonicity_certificate", "comparison_check", "periodicity_defect"])
def test_shape_checks_refuse_orders_outside_0_1_as_fractional_params_does(check, alpha):
    with pytest.raises(ValueError) as expected:
        FractionalParams(alpha, 0.0)
    with pytest.raises(ValueError, match="^alpha must satisfy 0 < alpha < 1") as refused:
        check(alpha)
    assert str(refused.value) == str(expected.value)


# --- dominated derivative comparison ----------------------------------------------


def test_comparison_linear_pair_holds():
    v = comparison_check(parse("t"), parse("2*t"), 0.5, 1.0, 512)
    assert v.holds is True
    assert v.defect >= 0.0


def test_comparison_equal_functions_degenerate_pass():
    v = comparison_check(parse("sin(t)"), parse("sin(t)"), 0.4, 1.5, 512)
    assert v.holds is True
    assert v.defect == pytest.approx(0.0, abs=1e-12)


def test_comparison_crossing_hypothesis_gate():
    # D^0.5 ordering of t^2 against t flips at x = 0.75, so the hypothesis
    # fails on part of (0, 1] and the verdict is not-applicable
    v = comparison_check(parse("t^2"), parse("t"), 0.5, 1.0, 512)
    assert v.holds is None
    assert v.witnesses
    assert all(w.where[0] > 0.7 for w in v.witnesses)


def test_comparison_requires_matching_base_values():
    with pytest.raises(HypothesisError):
        comparison_check(parse("t + 1"), parse("2*t + 1"), 0.5, 1.0, 128)


def test_comparison_random_ordered_pairs_never_violate_conclusion():
    # g = f + nonnegative increment vanishing at 0; when the sampled
    # hypothesis holds the sampled conclusion must hold as well
    rng = np.random.RandomState(23)
    fs = ["t", "sin(t)", "t*exp(-t)"]
    incs = ["t^2", "t", "1 - exp(-t)"]
    for _ in range(8):
        f_src = fs[rng.randint(len(fs))]
        c = float(rng.uniform(0.1, 2.0))
        inc = incs[rng.randint(len(incs))]
        g_src = f"{f_src} + {c!r}*({inc})"
        v = comparison_check(parse(f_src), parse(g_src), float(rng.uniform(0.2, 0.8)), 1.2, 512)
        assert v.holds is not False


# --- periodicity defect -------------------------------------------------------------


def test_zero_function_zero_defect():
    v = periodicity_defect(parse("0"), 0.5, 1.0, [2.0, 3.0, 4.0], grid_n=256)
    assert v.defect == 0.0


def test_sine_defect_measured_and_decaying():
    tau = 2.0 * math.pi
    ts = np.linspace(tau, 4.0 * tau, 7)
    v = periodicity_defect(parse("sin(t)"), 0.5, tau, ts, grid_n=2048)
    assert v.holds is None  # measurement, not a verdict
    assert v.defect > 0.0
    first, last = v.witnesses[0].margin, v.witnesses[-1].margin
    assert last < first  # memory of the base point fades


def test_wrong_period_rejected():
    with pytest.raises(HypothesisError):
        periodicity_defect(parse("sin(t)"), 0.5, math.pi, [7.0, 8.0], grid_n=256)


# --- one window table behind the sliding-window verdicts ---------------------------


def test_convexity_integrates_each_window_once(monkeypatch):
    import fraccalc.fracops as fracops

    calls = []
    oracle = fracops._kernel_quad_oracle

    def counted(*args):
        calls.append(args[1:4])
        return oracle(*args)

    monkeypatch.setattr(fracops, "_kernel_quad_oracle", counted)
    pairs = sample_window_pairs(0.0, 4.0, 0.45, n_pairs=8, seed=0)
    convexity_equivalence(parse("exp(0.6*t)"), 0.75, 0.45, pairs)
    # 8 pairs have 16 distinct windows; each window's integral is both the
    # windowed derivative of f and the mean-value level of f'
    assert len(calls) == 16
    assert len(set(calls)) == 16


def _count_scalar_loops(monkeypatch):
    """Count the oracle calls and one-point root searches, the np.errstate
    entries made inside them and the one-point f' samples."""
    import fraccalc.fracops as fracops
    import fraccalc.meanval as meanval

    counts = {"oracle calls": 0, "root searches": 0, "depth": 0, "errstates inside": 0, "float samples": 0}
    errstate, derivative_values = np.errstate, fracops.derivative_values

    def counted_errstate(*args, **kwargs):
        counts["errstates inside"] += counts["depth"] > 0
        return errstate(*args, **kwargs)

    def counted_samples(e, ts, order):
        counts["float samples"] += not isinstance(ts, np.ndarray)
        return derivative_values(e, ts, order)

    def loop(fn, name):
        def run(*args, **kwargs):
            counts[name] += 1
            counts["depth"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                counts["depth"] -= 1

        return run

    monkeypatch.setattr(np, "errstate", counted_errstate)
    monkeypatch.setattr(fracops, "derivative_values", counted_samples)
    monkeypatch.setattr(fracops, "_kernel_quad_oracle", loop(fracops._kernel_quad_oracle, "oracle calls"))
    monkeypatch.setattr(meanval, "_find_roots", loop(meanval._find_roots, "root searches"))
    return counts


def test_convexity_enters_one_errstate_per_oracle_call_and_root_search(monkeypatch):
    # grid_shape's exp(0.6*t) input: each QUADPACK call's callbacks share one
    # errstate, not one per point, and the windows' mean values run in
    # lockstep on array samples, with no one-point root search
    import scipy.integrate  # noqa: F401  here, not in the oracle's first call: importing it enters errstates

    counts = _count_scalar_loops(monkeypatch)
    pairs = sample_window_pairs(0.0, 4.0, 0.45, n_pairs=8, seed=0)
    convexity_equivalence(parse("exp(0.6*t)"), 0.75, 0.45, pairs)
    assert counts["oracle calls"] == 16  # 16 windows, each integrated once
    assert counts["root searches"] == 0
    assert counts["errstates inside"] <= counts["oracle calls"]
    assert counts["float samples"] > 10 * counts["oracle calls"]


def test_a_domain_error_that_escapes_the_oracle_leaves_no_errstate_behind():
    before = np.geterr()
    pairs = sample_window_pairs(0.0, 4.0, 0.45, n_pairs=8, seed=0)
    with pytest.raises(fraccalc.DomainError, match=r"^non-finite derivative of exp\(800\.0\*t\) at t=2\.687"):
        convexity_equivalence(parse("exp(800*t)"), 0.5, 0.45, pairs)
    assert np.geterr() == before
    # a float sample outside any loop still silences its own overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(fraccalc.DomainError, match=r"^non-finite value from exp\(800\.0\*t\) at t=2\.0$"):
            parse("exp(800*t)").eval(2.0)


@pytest.mark.parametrize("src", ["t^2", "-t^2", "exp(t)-1-t"])
def test_convexity_verdicts_match_standalone_checks(pairs8, src):
    from fraccalc import derivative_values

    f = parse(src)
    fprime = lambda ts: derivative_values(f, np.asarray(ts, dtype=float), 1)  # noqa: E731
    # the report against the standalone checks' verdicts on oracle window
    # tables, sampled as those checks sample
    rc = convexity_equivalence(f, 0.5, 0.5, pairs8)
    table = _window_table(_prime_sampler(f), 0.5, 0.5, pairs8, fracops._kernel_quad_oracle)
    assert rc.delta_incr == _delta_increasing_verdict(table, pairs8)
    table = _window_table(_sampler(fprime), 0.5, 0.5, pairs8, fracops._kernel_quad_oracle, 96)
    assert rc.property_P_fprime == _property_P_verdict(table, pairs8, 0.5)


def test_unbracketed_window_raises_in_convexity_inconclusive_in_gate(pairs8):
    # f' is a narrow doublet at t = 2.6 that falls between the 17 scan points
    # of the windows around it, so their mean value of f' is never bracketed
    from fraccalc import MeanValueNotFoundError, derivative_values

    f = parse("exp(-((t-2.6)/0.01)^2)")
    with pytest.raises(MeanValueNotFoundError, match=f"on \\({pairs8[0].x0!r}, "):
        convexity_equivalence(f, 0.5, 0.5, pairs8, scan_n=16)
    fprime = lambda ts: derivative_values(f, np.asarray(ts, dtype=float), 1)  # noqa: E731
    verdict = property_P_check(fprime, 0.5, 0.5, pairs8, grid_n=512, scan_n=16)
    assert verdict.holds is None
    assert verdict.note == "2 pair(s) inconclusive: no mean value bracketed"


def _window_by_window(phi, alpha, delta, pairs, quad, scan_n):
    """The window table as a loop: each window integrated, then its mean
    value located by ``_mean_values`` of that window alone, one window after
    another: each search runs point by point."""
    table = {}
    for x0 in dict.fromkeys(x for pair in pairs for x in (pair.x0, pair.y0)):
        value = quad(phi, x0, x0 + delta, 1.0 - alpha)[0]
        if not math.isfinite(value):
            raise fraccalc.DomainError(f"non-finite quadrature value over [{x0!r}, {x0 + delta!r}]")
        (mv,) = _mean_values(phi, [(FractionalParams(alpha, x0), x0 + delta, value)], scan_n)
        offset = mv if isinstance(mv, Exception) else None if mv.degenerate else mv.xi_sup - x0
        table[x0] = (value, offset)
    return table


def _table_outcome(make):
    """A window table as bytes, its MeanValueNotFoundErrors as messages; or the type of what it raised."""
    try:
        table = make()
    except fraccalc.FracCalcError as exc:
        return type(exc)
    return [(x0, np.float64(value).tobytes(),
             offset if offset is None else str(offset) if isinstance(offset, Exception) else np.float64(offset).tobytes())
            for x0, (value, offset) in table.items()]


_SAMPLERS = {
    "f' of the expression": lambda e: _prime_sampler(e),
    "f of the expression": lambda e: _sampler(e),
    "a callable's f'": lambda e: _sampler(lambda ts: fraccalc.derivative_values(e, ts, 1)),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.recursive(_leaves, _grow, max_leaves=6).flatmap(  # + t*t: fewer constant levels
        lambda root: st.sampled_from([root, BinOp("+", root, BinOp("*", Var(), Var()))])),
    st.sampled_from(sorted(_SAMPLERS)),
    st.sampled_from(["oracle", "grid"]), st.floats(0.05, 0.95), st.floats(0.05, 0.8),
    st.integers(1, 12), st.sampled_from([16, 33, 96, 4095, 12288]), st.integers(0, 3),
)
@example(parse("exp(-((t-2.6)/0.01)^2)").root, "f' of the expression", "oracle", 0.5, 0.5, 8, 16, 0)  # unbracketed
@example(parse("2*t + 1").root, "f' of the expression", "grid", 0.5, 0.5, 8, 96, 0)  # every level degenerate
@example(parse("sin(3*t)*t").root, "a callable's f'", "grid", 0.3, 0.4, 12, 4095, 1)  # several batches
def test_the_window_table_equals_its_window_by_window_loop(root, sampler, rule, alpha, delta, n_pairs, scan_n, seed):
    # the lockstep mean values against each window alone, with the same
    # quadrature: bit for bit, degenerate windows and unbracketed ones
    # included; an input that fails raises in both (its first failure may be
    # another window's, as the loop meets the windows in another order)
    phi = _SAMPLERS[sampler](Expression(root))
    quad = fracops._kernel_quad_oracle if rule == "oracle" else _product_rule(64)
    pairs = sample_window_pairs(0.1, 4.0, delta, n_pairs=n_pairs, seed=seed)
    got = _table_outcome(lambda: _window_table(phi, alpha, delta, pairs, quad, scan_n))
    assert got == _table_outcome(lambda: _window_by_window(phi, alpha, delta, pairs, quad, scan_n))


def test_a_brent_step_that_fails_in_a_batch_raises_the_one_point_error(pairs8):
    # phi fails within 1e-6 of the first window's mean value, between its scan
    # nodes, where its Brent steps go, and says whether an array or one point
    # was sampled: the batch runs again window by window, and the first window
    # raises the error of its one-point sample
    quad = _product_rule(64)
    x0 = pairs8[0].x0
    xi = x0 + _window_table(lambda ts: ts * ts, 0.5, 0.5, pairs8, quad, 96)[x0][1]

    def phi(ts):
        if np.any(abs(np.asarray(ts) - xi) < 1e-6):
            raise fraccalc.DomainError("an array sample" if isinstance(ts, np.ndarray) else f"one point, t={ts!r}")
        return ts * ts

    messages = []
    for table in (_window_table, _window_by_window):
        with pytest.raises(fraccalc.DomainError) as exc:
            table(phi, 0.5, 0.5, pairs8, quad, 96)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("one point, t=")
    assert abs(float(re.search(r"\d+\.\d+", messages[0]).group()) - xi) < 1e-6


def test_a_scan_that_fails_in_a_batch_raises_what_the_window_by_window_loop_raises(pairs8):
    # phi fails near the first window's mean value, where its Brent steps go,
    # and at a scan node of the second window: the batch fails at its scan
    # sample and runs again window by window, so the first window's Brent
    # step fails first, as in the loop
    quad = _product_rule(64)
    x0, y0 = pairs8[0].x0, pairs8[0].y0
    xi = x0 + _window_table(lambda ts: ts * ts, 0.5, 0.5, pairs8, quad, 96)[x0][1]
    node = fracops._grid(y0, y0 + 0.5, 98)[0][40]  # the scan of 96 interior nodes

    def phi(ts):
        if np.any(abs(np.asarray(ts) - xi) < 1e-6):
            raise fraccalc.DomainError("a Brent step of the first window")
        if np.any(np.asarray(ts) == node):
            raise fraccalc.DomainError("a scan node of the second window")
        return ts * ts

    messages = []
    for table in (_window_table, _window_by_window):
        with pytest.raises(fraccalc.DomainError) as exc:
            table(phi, 0.5, 0.5, pairs8, quad, 96)
        messages.append(str(exc.value))
    assert messages == ["a Brent step of the first window"] * 2


def test_periodicity_rejects_nonpositive_period():
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="period tau must be > 0"):
            periodicity_defect(parse("sin(t)"), 0.5, tau, [1.0, 2.0], grid_n=64)


@pytest.mark.parametrize("grid_n", [0, 1, 2.5])
@pytest.mark.parametrize("check", [
    lambda n: monotonicity_certificate(parse("t^2"), 0.5, 0.5, 2.0, n),
    lambda n: comparison_check(parse("t"), parse("t^2"), 0.5, 2.0, n),
    lambda n: periodicity_defect(parse("sin(t)"), 0.5, 2.0 * math.pi, [1.0, 2.0], grid_n=n),
    lambda n: delta_increasing_check(parse("t^2"), 0.5, 0.5, sample_window_pairs(0.0, 4.0, 0.5, 2), n),
    lambda n: property_P_check(parse("t"), 0.5, 0.5, sample_window_pairs(0.0, 4.0, 0.5, 2), grid_n=n),
], ids=["mono", "comparison", "periodic", "delta_increasing", "property_P"])
def test_grid_checks_refuse_the_grid_n_that_params_refuse(check, grid_n):
    with pytest.raises(ValueError, match=f"grid_n must be an integer >= 2, got {grid_n!r}"):
        check(grid_n)


@pytest.mark.parametrize("check", [convexity_equivalence, delta_increasing_check, property_P_check])
def test_convexity_refuses_an_empty_pair_sample(check):
    # a verdict on no window pair would rest on no evidence
    with pytest.raises(ValueError, match="pair_samples must hold at least one window pair"):
        check(parse("t^2"), 0.5, 0.4, [])


@pytest.mark.parametrize("check", [convexity_equivalence, property_P_check])
def test_a_bad_scan_n_is_refused_before_any_window_is_integrated(check):
    # exp(800*t) overflows on the first window, so its integral would fail first
    pairs = sample_window_pairs(0.0, 2.0, 0.2, n_pairs=4, seed=0)
    with pytest.raises(ValueError, match="^scan_n must be an integer >= 16, got 20.5$"):
        check(parse("exp(800*t)"), 0.5, 0.2, pairs, scan_n=20.5)
