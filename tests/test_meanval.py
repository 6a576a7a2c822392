import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import quadpack_oracle as oracle
from fraccalc import fracops, meanval
from fraccalc import (
    AssumptionError,
    DomainError,
    FractionalParams,
    HypothesisError,
    MeanValueNotFoundError,
    mean_value,
    mean_value_polynomial,
    parse,
    mean_path_witness,
    xi_smoothness_profile,
)
from fraccalc.meanval import _bisect, _brent, _find_roots, _find_roots_together, _mean_values, _root_search
from fraccalc.meanval import check_strictly_monotone


def oracle_mean_value(f, p, x):
    # mean_value with its level integral taken by the QUADPACK oracle instead
    # of the product rule: an independent cross-check of the level
    iv = oracle.rl_integral(f, p, 1.0 - p.alpha, x).value
    (mv,) = _mean_values(f.eval, [(p, x, iv)], 128)
    if isinstance(mv, MeanValueNotFoundError):
        raise mv
    return mv


def power_ratio(beta, al):
    # xi/x for f = t^beta from base 0: (G(2-al) G(b+1) / G(b+2-al))^(1/b)
    return (math.gamma(2.0 - al) * math.gamma(beta + 1.0) / math.gamma(beta + 2.0 - al)) ** (1.0 / beta)


def test_linear_mean_value_is_two_thirds():
    p = FractionalParams(0.5, 0.0, 1024)
    res = mean_value(parse("t"), p, 1.0)
    assert res.xi_sup == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert len(res.lambda_set) == 1
    assert power_ratio(1.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_linear_ratio_independent_of_x():
    for al in (0.2, 0.5, 0.8):
        p = FractionalParams(al, 0.0, 1024)
        ratios = [mean_value(parse("t"), p, x).xi_sup / x for x in (0.5, 1.0, 2.0)]
        for r in ratios:
            assert r == pytest.approx(power_ratio(1.0, al), abs=1e-9)


def test_power_law_scale_covariance():
    # xi/x constant in x for t^beta, checked against the closed-form ratio
    p = FractionalParams(0.5, 0.0, 1024)
    for beta, src in ((2.0, "t^2"), (3.0, "t^3")):
        for x in (0.5, 1.0, 2.0):
            res = oracle_mean_value(parse(src), p, x)
            assert res.xi_sup / x == pytest.approx(power_ratio(beta, 0.5), abs=1e-8)
    # the product rule on a coarser grid
    res = mean_value(parse("t^2"), FractionalParams(0.5, 0.0, 512), 0.5)
    assert res.xi_sup == pytest.approx(0.5 * power_ratio(2.0, 0.5), abs=1e-8)


def test_defining_residual_invariant():
    # |f(xi) (x-a)^(1-al)/G(2-al) - I^(1-al) f(x)| small at every root
    rng = np.random.RandomState(5)
    for _ in range(6):
        al = float(rng.uniform(0.1, 0.9))
        x = float(rng.uniform(0.5, 2.5))
        p = FractionalParams(al, 0.0, 1024)
        f = parse("t*exp(-t/2)")
        res = oracle_mean_value(f, p, x)
        iv = oracle.rl_integral(f, p, 1.0 - al, x).value
        for xi in res.lambda_set:
            lhs = f.eval(xi) * x ** (1.0 - al) / math.gamma(2.0 - al)
            assert abs(lhs - iv) <= 1e-8 * (1.0 + abs(iv))
        assert all(0.0 < xi < x for xi in res.lambda_set)
        assert res.xi_sup == max(res.lambda_set)


def test_monotone_uniqueness():
    p = FractionalParams(0.35, 0.0, 512)
    for src in ("t", "exp(t) - 1", "t^3"):
        res = mean_value(parse(src), p, 1.7)
        assert len(res.lambda_set) == 1


def test_intermediate_value_guarantee_nonmonotone():
    # rises then falls: the level may be hit twice, and every hit is reported
    p = FractionalParams(0.5, 0.0, 1024)
    res = mean_value(parse("t*(2 - t)"), p, 2.0, scan_n=256)
    assert len(res.lambda_set) >= 1
    assert res.lambda_set == tuple(sorted(res.lambda_set))


def test_degenerate_constant_level():
    p = FractionalParams(0.5, 0.0, 256)
    res = mean_value(parse("2.5"), p, 1.0)
    assert res.degenerate
    assert res.xi_sup is None
    assert res.lambda_set == ()


def test_empty_lambda_reported_not_fabricated():
    # the level crossings of a narrow spike hide between coarse scan points;
    # the solver must report emptiness, not invent a root
    p = FractionalParams(0.5, 0.0, 512)
    spike = parse("100*exp(-3000*(t - 0.58)^2)")
    with pytest.raises(MeanValueNotFoundError):
        mean_value(spike, p, 3.0, scan_n=16)
    # a fine scan brackets both crossings of the same level
    res = mean_value(spike, p, 3.0, scan_n=4096)
    assert len(res.lambda_set) == 2


def test_scan_n_validation():
    p = FractionalParams(0.5, 0.0, 256)
    with pytest.raises(ValueError):
        mean_value(parse("t"), p, 1.0, scan_n=8)


# --- polynomial estimator -----------------------------------------------------


def test_polynomial_linear_exact():
    p = FractionalParams(0.5, 0.0, 512)
    est = mean_value_polynomial(parse("t"), p, 1.0, 1)
    assert est.remainder_term == 0.0
    assert len(est.roots_in_range) == 1
    assert est.roots_in_range[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert est.reliable


@pytest.mark.parametrize("src,deg", [("t", 1), ("t^2", 2), ("t - t^3/3", 3), ("t^2*(1 - t)", 3)])
def test_polynomial_consistency_on_polynomials(src, deg):
    # degree <= n makes the estimator exact: roots match the scanned mean value
    p = FractionalParams(0.5, 0.0, 1024)
    delta = 0.9
    est = mean_value_polynomial(parse(src), p, delta, 4)
    assert abs(est.remainder_term) < 1e-13
    mv = mean_value(parse(src), p, delta, scan_n=256)
    assert est.roots_in_range, "estimator found no root"
    assert max(est.roots_in_range) == pytest.approx(mv.xi_sup, abs=1e-8)


def test_polynomial_sine_small_window():
    p = FractionalParams(0.5, 0.0, 1024)
    est = mean_value_polynomial(parse("sin(t)"), p, 0.1, 4)
    mv = mean_value(parse("sin(t)"), p, 0.1)
    assert max(est.roots_in_range) == pytest.approx(mv.xi_sup, abs=1e-6)
    assert est.reliable


@pytest.mark.parametrize("alpha", [0.1, 0.5])
def test_polynomial_order_past_the_jet_limit_is_a_value_error(alpha):
    # the remainder needs f^(n+1), and 171! overflows a float
    with pytest.raises(ValueError, match="170"):
        mean_value_polynomial(parse("sin(t)"), FractionalParams(alpha, 0.0, 256), 1.0, 170)


@pytest.mark.parametrize("n", [120, 150, 169])
def test_polynomial_past_the_float_range_is_one_domain_error(n):
    # the remainder I^(n+2-alpha) f^(n+1) needs m^(mu+1) weights and
    # Gamma(mu+2) with mu ~ n; where a float overflows, no nan and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflow"):
            mean_value_polynomial(parse("sin(t)"), FractionalParams(0.5, 0.0, 1024), 1.0, n)


def test_polynomial_weight_overflow_is_found_before_sampling(monkeypatch):
    # at n = 64 the remainder's I^65.5 weights pass a float's range on 65,536
    # panels; that is known before f^(65) is sampled on the whole grid
    from fraccalc import meanval

    calls = []
    monkeypatch.setattr(meanval, "derivative_values", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match="mu=65.5"):
        mean_value_polynomial(parse("sin(t)"), FractionalParams(0.5, 0.0, 65536), 1.0, 64)
    assert calls == []


def test_polynomial_remainder_matches_oracle():
    # n = 8: the remainder is I^9.6 of sin^(9) = cos over [0, 2.5]
    p = FractionalParams(0.4, 0.0, 512)
    est = mean_value_polynomial(parse("sin(t)"), p, 2.5, 8)
    ref = oracle.rl_integral(parse("cos(t)"), p, 9.6, 2.5).value
    assert abs(est.remainder_term - ref) <= 1e-8 * abs(ref)


def test_polynomial_remainder_dominance_warning():
    # large window and tiny truncation order on a rapidly growing function:
    # the integral tail swamps the retained terms and the estimate says so
    p = FractionalParams(0.5, 0.0, 512)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = mean_value_polynomial(parse("exp(4*t) - 1"), p, 2.0, 1)
    assert not est.reliable
    assert any("unreliable" in str(w.message) for w in caught)


def test_polynomial_all_retained_terms_zero_is_flagged():
    # t^5 truncated at n = 4: every retained derivative vanishes at 0 while
    # the integral tail does not, so the estimate must declare itself useless
    p = FractionalParams(0.5, 0.0, 512)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        est = mean_value_polynomial(parse("t^5"), p, 0.8, 4)
    assert not est.reliable
    assert est.roots_in_range == ()


def test_polynomial_coefficient_layout():
    p = FractionalParams(0.3, 0.0, 512)
    est = mean_value_polynomial(parse("t^2"), p, 0.5, 3)
    assert len(est.coefficients) == 4
    # x^1 coefficient: f'(0) = 0 for t^2; x^2 coefficient positive
    assert est.coefficients[1] == 0.0
    assert est.coefficients[2] > 0.0
    assert est.n == 3 and est.delta == 0.5


# --- smoothness profile --------------------------------------------------------


def test_profile_linear_slope():
    p = FractionalParams(0.5, 0.0, 512)
    rows = xi_smoothness_profile(parse("t"), p, np.linspace(0.5, 2.0, 9))
    for x, xi, slope in rows:
        assert xi == pytest.approx(2.0 * x / 3.0, abs=1e-9)
        assert slope == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_profile_quadratic_constant_ratio():
    p = FractionalParams(0.5, 0.0, 1024)
    rows = xi_smoothness_profile(parse("t^2"), p, np.linspace(0.5, 2.0, 7))
    for x, xi, _ in rows:
        assert xi / x == pytest.approx(power_ratio(2.0, 0.5), abs=1e-7)


def test_profile_smooth_slopes_no_jumps():
    p = FractionalParams(0.3, 0.0, 512)
    rows = xi_smoothness_profile(parse("exp(t) - 1"), p, np.linspace(0.4, 1.6, 13))
    slopes = [s for _, _, s in rows[1:-1]]
    jumps = np.abs(np.diff(slopes))
    typical = np.median(jumps) + 1e-9
    assert np.max(jumps) <= 10.0 * max(typical, 1e-4)


def test_profile_refuses_a_degenerate_mean_value_naming_its_point():
    # a level within 1e-12 of zero has no certified root, so there is no xi to tabulate
    p = FractionalParams(0.5, 0.0, 256)
    with pytest.raises(HypothesisError, match="x=0.5"):
        xi_smoothness_profile(parse("1e-14*t"), p, [0.5, 1.0, 1.5])


def test_profile_requires_monotonicity():
    p = FractionalParams(0.5, 0.0, 256)
    with pytest.raises(HypothesisError):
        xi_smoothness_profile(parse("sin(t)"), p, np.linspace(0.5, 6.0, 7))


# --- reparametrised-average witness --------------------------------------------


def test_witness_none_when_hypotheses_unmet():
    # h(x) = x is monotone with no interior extremum: nothing may be invented
    p = FractionalParams(0.5, 0.0, 512)
    out = mean_path_witness(parse("t"), parse("t"), p, np.linspace(0.3, 1.8, 11))
    assert out is None


def test_witness_for_constant_h():
    # with f = t and constant h = c the mismatch has the closed-form root
    # x = c (1 - alpha): derived by differentiating c x^(1-al)/G(2-al)
    al = 0.5
    c = 0.5
    p = FractionalParams(al, 0.0, 512)
    out = mean_path_witness(parse("t"), parse(repr(c)), p, np.linspace(0.05, 1.5, 25))
    assert out is not None
    assert out == pytest.approx(c * (1.0 - al), abs=1e-6)


def test_witness_differentiates_the_average_exactly():
    # f = t, h = 1.3: the root is 1.3 (1 - alpha) = 0.65.  The average's
    # derivative comes from first-order jets, so the residual has no
    # difference-quotient noise and Brent lands on the root
    p = FractionalParams(0.5, 0.0, 512)
    out = mean_path_witness(parse("t"), parse("1.3"), p, np.linspace(0.05, 1.5, 11))
    assert abs(out - 0.65) <= 1e-12


@pytest.mark.parametrize("al", [0.3, 0.5, 0.7])
def test_witness_chain_rule_through_a_varying_h(al):
    # f = t^2, h = sqrt(t): f(h(x)) = x, so the average's derivative is
    # (2 - al) x^(1-al) / G(2-al) against D^al f = 2 x^(2-al) / G(3-al);
    # they meet at x = (2 - al)^2 / 2
    p = FractionalParams(al, 0.0, 512)
    out = mean_path_witness(parse("t^2"), parse("sqrt(t)"), p, np.linspace(0.05, 2.5, 11))
    assert abs(out - (2.0 - al) ** 2 / 2.0) <= 1e-9


def test_witness_constant_sign_residual_gives_none():
    # f = t with h far above the mean value keeps the residual one-signed
    p = FractionalParams(0.5, 0.0, 512)
    out = mean_path_witness(parse("t"), parse("5"), p, np.linspace(1.0, 2.0, 9))
    assert out is None


def test_witness_refuses_a_nonzero_base():
    p = FractionalParams(0.5, 0.0, 256)
    f, h, xs = parse("t+1"), parse("0.5"), np.linspace(0.05, 1.5, 12)
    with pytest.raises(AssumptionError, match="f\\(a\\) must be 0"):
        mean_path_witness(f, h, p, xs)


def test_strict_monotonicity_check_reports_the_direction():
    assert check_strictly_monotone(parse("t"), 0.0, 1.0) == 1
    assert check_strictly_monotone(parse("exp(-t)"), 0.0, 1.0) == -1


def test_bracket_refinement_is_fast_and_within_half_tolerance():
    evals = []

    def fn(x):
        evals.append(x)
        return math.cos(x) - x

    root, _ = _bisect(fn, _brent(0.0, 1.0, 1.0, fn(1.0), 1e-12))
    assert abs(root - 0.7390851332151607) <= 0.5e-12
    assert len(evals) <= 12  # bisection to the same width takes 40


def test_bracket_refinement_bounded_on_flat_crossing():
    # a triple root is flat: secant and inverse quadratic steps crawl towards
    # it from one side, so bisection is forced whenever the bracket stalls
    evals = []

    def fn(x):
        evals.append(x)
        return (x - 0.3) ** 3

    root, _ = _bisect(fn, _brent(0.0, 1.0, fn(0.0), fn(1.0), 1e-10))
    assert abs(root - 0.3) <= 0.5e-10
    assert len(evals) <= 75  # 88 without the forced bisection steps


@st.composite
def _scans(draw):
    # f = prod(x - r) on a uniform scan; with exact=False the scan is another
    # rule's: nodes negated, zeroed or scaled, so it can disagree with f next to a root
    n = draw(st.integers(2, 24))
    xs = np.linspace(0.0, 1.0, n).tolist()
    roots = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(xs)), max_size=4))
    exact = draw(st.booleans())
    factors = {} if exact else draw(st.dictionaries(st.integers(0, n - 1), st.sampled_from([-1.0, 0.0, 0.5])))
    return xs, roots, factors, exact, draw(st.sampled_from([1e-12, 1e-3]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_scans())
# the scan of test_disagreeing_scan_brackets_give_one_root: wrong at the two nodes next to the root
@example(([0.2, 0.4, 0.6, 0.8], [0.5], {1: -1.0, 2: -1.0}, False, 1e-12))
@example(([0.0, 0.25, 0.5, 0.75, 1.0], [0.25, 0.6, 0.6], {}, True, 1e-12))
def test_both_drivers_ask_for_the_same_points_and_find_the_same_roots(case):
    # _bisect evaluates a search point by point and _find_roots_together a
    # round at a time: the same points in the same order, the same roots
    # and values bit for bit
    xs, roots, factors, exact, tol = case

    def f(x):
        return math.prod(x - r for r in roots)

    scan = np.array([f(x) * factors.get(j, 1.0) for j, x in enumerate(xs)])
    alone, together = [], []

    def fn(x):
        alone.append(x)
        return f(x)

    def evaluate(points):
        together.extend(x for _, x in points)
        return [f(x) for _, x in points]

    found = _bisect(fn, _root_search(xs, scan, tol, exact))
    (found_together,) = _find_roots_together([_root_search(xs, scan, tol, exact)], evaluate)
    assert alone == together
    assert [(r.hex(), float(v).hex()) for r, v in found] == [(r.hex(), float(v).hex()) for r, v in found_together]


def test_a_search_evaluates_every_bracket_end_before_its_first_brent_step():
    # with exact=False both drivers check the bracket ends 0.1, 0.3, 0.5 and
    # 0.7 before refining (0.1, 0.3), so the failure at 0.7 is raised, not
    # that of the first Brent step at 0.225
    xs, scan = np.array([0.1, 0.3, 0.5, 0.7, 0.9]), np.array([-1.0, 1.0, 1.0, -1.0, -1.0])
    asked = []

    def fn(x):
        asked.append(x)
        if 0.1 < x < 0.3 or x == 0.7:
            raise ValueError(f"fn fails at {x!r}")
        return (x - 0.2) * (0.6 - x)

    with pytest.raises(ValueError, match=r"^fn fails at 0\.7$"):
        _bisect(fn, _root_search(xs, scan, 1e-12, False))
    assert asked == [0.1, 0.3, 0.5, 0.7]
    asked.clear()
    with pytest.raises(ValueError, match=r"^fn fails at 0\.7$"):
        _find_roots_together([_root_search(xs, scan, 1e-12, False)], lambda points: [fn(x) for _, x in points])
    assert asked == [0.1, 0.3, 0.5, 0.7]


def _windows(phi, starts, width, alpha=0.5):
    # phi's sampler, and (p, x, iv) of each window [x0, x0 + width] with its
    # level integral iv by the product rule
    sample = fracops._sampler(phi)
    return sample, [(FractionalParams(alpha, x0), x0 + width,
                     fracops._kernel_quad_grid(sample, x0, [x0 + width], [1.0 - alpha], 256)[0][0]) for x0 in starts]


def test_a_failing_one_window_batch_samples_its_scan_once(monkeypatch):
    # one window to a batch: the second window's scan meets a non-finite value
    # of phi and raises from its one scan sample, since its rerun would be the
    # same call
    sample, windows = _windows(lambda ts: ts * ts, [0.0, 1.0], 1.0)
    node = float(fracops._grid(1.0, 2.0, 18)[0][5])  # a node of the second window's scan of 17
    scans = []

    def phi(ts):
        if len(ts) == 17:
            scans.append(node in ts)
        return np.where(ts == node, np.nan, ts * ts)

    monkeypatch.setattr(fracops, "_BATCH_MAX_POINTS", 16)
    with pytest.raises(DomainError, match=f"^non-finite value from the callable f at t={node!r}$"):
        _mean_values(fracops._sampler(phi), windows, 16)
    assert scans == [False, True]


def test_one_live_window_among_degenerate_ones_is_searched_as_it_is_alone(monkeypatch):
    # phi is 0 up to t = 2, so the windows there have a degenerate level: the
    # batch's one live search runs point by point, as that window's alone
    # does, and two live searches run in lockstep
    sample, windows = _windows(lambda ts: np.maximum(ts - 2.0, 0.0) ** 2, [0.0, 2.5, 1.0, 2.2], 0.8)
    searches, bisect = [], meanval._bisect

    def counting(fn, search):
        searches.append(search)
        return bisect(fn, search)

    monkeypatch.setattr(meanval, "_bisect", counting)
    batch = _mean_values(sample, windows[:3], 64)
    assert [mv.degenerate for mv in batch] == [True, False, True] and len(searches) == 1
    (alone,) = _mean_values(sample, windows[1:2], 64)
    assert len(searches) == 2
    assert [float(v).hex() for v in (alone.target_g, *alone.lambda_set, *alone.residuals)] == \
        [float(v).hex() for v in (batch[1].target_g, *batch[1].lambda_set, *batch[1].residuals)]
    assert not _mean_values(sample, windows, 64)[3].degenerate and len(searches) == 2
