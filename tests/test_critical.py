import math

import numpy as np
import pytest

from fraccalc import (
    AssumptionError,
    FractionalParams,
    HypothesisError,
    SolverError,
    caputo_derivative,
    critical_points,
    dilation_scenario,
    order_duality_check,
    parse,
    r_alpha_curve,
    derivative_zero_before,
)


def test_sine_has_single_critical_point_half_order():
    p = FractionalParams(0.5, 0.0, 1024)
    rep = critical_points(parse("sin(t)"), p, math.pi, 64)
    assert len(rep.roots) == 1
    assert 0.0 < rep.roots[0] <= math.pi
    assert rep.residuals[0] <= 1e-8


def test_sine_critical_point_order_limits():
    # near order 1 the critical point approaches the stationary point pi/2,
    # near order 0 it approaches the root pi
    hi = critical_points(parse("sin(t)"), FractionalParams(0.99, 0.0, 2048), math.pi, 64)
    assert any(abs(r - math.pi / 2.0) <= 0.05 for r in hi.roots)
    lo = critical_points(parse("sin(t)"), FractionalParams(0.01, 0.0, 2048), math.pi, 64)
    assert any(abs(r - math.pi) <= 0.05 for r in lo.roots)


def test_strictly_increasing_function_has_no_critical_points():
    for al in (0.2, 0.5, 0.8):
        p = FractionalParams(al, 0.0, 512)
        rep = critical_points(parse("t"), p, 2.0, 48)
        assert rep.roots == ()


def test_limit_consistency_for_bump_profile():
    # t e^(-t) has no root on (0, 2] (so low orders find nothing) and a
    # stationary point at 1 (found as the order approaches 1)
    f = parse("t*exp(-t)")
    lo = critical_points(f, FractionalParams(0.01, 0.0, 2048), 2.0, 64)
    assert lo.roots == ()
    hi = critical_points(f, FractionalParams(0.99, 0.0, 2048), 2.0, 64)
    assert any(abs(r - 1.0) <= 0.05 for r in hi.roots)


def test_residual_invariant_scaled():
    p = FractionalParams(0.4, 0.0, 1024)
    f = parse("sin(t)")
    rep = critical_points(f, p, math.pi, 64)
    from fraccalc import rl_derivative

    sup = max(
        abs(rl_derivative(f, p, float(x)).value)
        for x in np.linspace(0.05 * math.pi, math.pi, 24)
    )
    for r in rep.residuals:
        assert r <= 1e-8 * max(1.0, sup)


def test_critical_points_enforce_base_assumption():
    p = FractionalParams(0.5, 0.0, 256)
    with pytest.raises(AssumptionError):
        critical_points(parse("t + 1"), p, 2.0, 32)


# --- existence construction ----------------------------------------------------


@pytest.mark.parametrize("al", [0.25, 0.5, 0.75])
def test_existence_point_for_quadratic(al):
    # f = t(1-t) vanishes at 1; D^al f vanishes at (2-al)/2 exactly
    p = FractionalParams(al, 0.0, 1024)
    res = derivative_zero_before(parse("t*(1 - t)"), p, 1.0)
    assert res.xi == pytest.approx((2.0 - al) / 2.0, abs=1e-9)
    assert res.residual <= 1e-8
    assert not res.degenerate


@pytest.mark.parametrize("al", [0.25, 0.5, 0.75])
def test_existence_point_for_sine(al):
    p = FractionalParams(al, 0.0, 1024)
    res = derivative_zero_before(parse("sin(t)"), p, math.pi)
    assert 0.0 < res.xi <= math.pi
    assert res.residual <= 1e-8


def test_existence_precondition_checked():
    p = FractionalParams(0.5, 0.0, 256)
    with pytest.raises(HypothesisError):
        derivative_zero_before(parse("sin(t)"), p, 2.0)  # sin(2) != 0


def test_existence_degenerate_zero_function():
    p = FractionalParams(0.5, 0.0, 256)
    res = derivative_zero_before(parse("0"), p, 1.0)
    assert res.degenerate
    assert res.residual == 0.0


def _count_scans(monkeypatch, fprime):
    # the number of nodes of every scan derivative_zero_before reads, with
    # fprime standing in for the f' it samples
    from fraccalc import critical

    scans = []
    strided = critical._strided_integral

    def counting(*args):
        out = strided(*args)
        scans.append(len(out))
        return out

    monkeypatch.setattr(critical, "_strided_integral", counting)
    monkeypatch.setattr(critical, "_prime_sampler", lambda f: fprime)
    return scans


def _zero_at_0_and_1(t):
    # only f(a) and f(x_zero) are read; the f' put in by _count_scans shapes D^alpha f
    return t * (1.0 - t)


def test_existence_point_past_the_first_scan(monkeypatch):
    # D^alpha f = I^0.1 f' dips below 0 only between two nodes of the
    # 96-node scan; the 384-node scan has a node at the dip's centre c
    c, w = 50.5 / 96, 0.002
    scans = _count_scans(monkeypatch, lambda t: 1.0 - 2.0 * np.exp(-(((t - c) / w) ** 2)))
    res = derivative_zero_before(_zero_at_0_and_1, FractionalParams(0.9, 0.0, 2048), 1.0)
    assert scans == [96, 384]
    assert c < res.xi < c + 2 * w  # the dip's right edge, the last root
    assert res.residual <= 1e-10 and not res.degenerate


def test_existence_point_at_a_tangent_root(monkeypatch):
    # D^alpha f = 1e-12 x^0.5 / Gamma(1.5) on (0, 1/2] comes within 1e-12 of
    # 0 without a sign change: after four scans the smallest |D^alpha f| is
    # accepted
    scans = _count_scans(monkeypatch, lambda t: 1e-12 + np.maximum(t - 0.5, 0.0) ** 2)
    res = derivative_zero_before(_zero_at_0_and_1, FractionalParams(0.5, 0.0, 2048), 1.0)
    assert scans == [96, 384, 1536, 6144]
    assert res.xi == 1.0 / 6144  # the first node of the finest scan
    assert res.residual <= 1e-13 and not res.degenerate


def test_existence_point_not_resolved_is_a_solver_error(monkeypatch):
    # D^alpha f = x^0.5 / Gamma(1.5) has no root and no value near 0 on the
    # scans, so the search fails after refining to 6144 nodes
    scans = _count_scans(monkeypatch, np.ones_like)
    with pytest.raises(SolverError, match="after refining to 6144 scan points"):
        derivative_zero_before(_zero_at_0_and_1, FractionalParams(0.5, 0.0, 2048), 1.0)
    assert scans == [96, 384, 1536, 6144]


def _zero_before_point_by_point(f, p, x_zero):
    # derivative_zero_before with each scan level's search driven point by
    # point, each pointwise quadrature its own call; returns (xi, residual,
    # number of scan levels) for inputs that are not degenerate and, after
    # the last level, accept the tangent root
    from fraccalc import critical
    from fraccalc.meanval import _bisect, _root_search

    fp, mu = critical._prime_sampler(f), 1.0 - p.alpha
    d = lambda x: critical._kernel_quad_grid(fp, p.a, [x], [mu], p.grid_n)[0][0]  # noqa: E731
    best_x, best_val = None, math.inf
    for level in range(4):
        xs, fv, h, k = critical._scan(fp, p.a, x_zero, 96 * 4**level, p.grid_n)
        vals = critical._strided_integral(fv, h, mu, k)
        hits = _bisect(d, _root_search(xs, vals, 1e-12 * (x_zero - p.a), False))
        if hits:
            return hits[-1][0], abs(hits[-1][1]), level + 1
        i = int(np.argmin(np.abs(vals)))
        if abs(float(vals[i])) < best_val:
            best_x, best_val = float(xs[i]), abs(float(vals[i]))
    return best_x, abs(d(best_x)), 4


@pytest.mark.parametrize("fprime, f, al, x_zero, levels", [
    # the dip of test_existence_point_past_the_first_scan, found on the 384-node scan
    (lambda t: 1.0 - 2.0 * np.exp(-(((t - 50.5 / 96) / 0.002) ** 2)), _zero_at_0_and_1, 0.9, 1.0, 2),
    # the tangent root of test_existence_point_at_a_tangent_root
    (lambda t: 1e-12 + np.maximum(t - 0.5, 0.0) ** 2, _zero_at_0_and_1, 0.5, 1.0, 4),
    # three brackets on the first scan
    (None, parse("sin(3*t)"), 0.5, math.pi, 1),
], ids=["refined-scan", "tangent-root", "three-brackets"])
def test_an_existence_search_equals_its_point_by_point_loop_bit_for_bit(monkeypatch, fprime, f, al, x_zero, levels):
    if fprime is not None:
        _count_scans(monkeypatch, fprime)
    p = FractionalParams(al, 0.0, 2048)
    xi, residual, scanned = _zero_before_point_by_point(f, p, x_zero)
    res = derivative_zero_before(f, p, x_zero)
    assert scanned == levels
    assert (res.xi.hex(), res.residual.hex()) == (xi.hex(), residual.hex())
    assert not res.degenerate


@pytest.mark.parametrize("where", ["brent-step", "bracket-end"])
def test_an_existence_search_that_fails_raises_the_point_by_point_error(monkeypatch, where):
    # f' fails on the pointwise grids ending near xi, reached by a Brent step,
    # or at the left end of the second of three brackets, which the lockstep
    # search asks for in one call with the other five ends
    from fraccalc import critical
    from fraccalc.errors import DomainError
    from fraccalc.expr import derivative_values

    f, p = parse("sin(3*t)"), FractionalParams(0.5, 0.0, 256)
    m = 257  # nodes of one pointwise grid; no scan sample has a multiple of them
    x = derivative_zero_before(f, p, math.pi).xi if where == "brent-step" else 56 * math.pi / 96

    def fprime(ts):
        if ts.size % m == 0 and np.any(np.abs(ts[m - 1 :: m] - x) < 1e-6):  # the rows' last nodes: their points
            raise DomainError(f"f' fails at the {where}")
        return derivative_values(f, ts, 1)

    monkeypatch.setattr(critical, "_prime_sampler", lambda f: fprime)
    with pytest.raises(DomainError) as alone:
        _zero_before_point_by_point(f, p, math.pi)
    with pytest.raises(DomainError) as lockstep:
        derivative_zero_before(f, p, math.pi)
    assert str(lockstep.value) == str(alone.value) == f"f' fails at the {where}"


def test_one_scan_level_asks_for_every_bracket_end_in_one_quadrature_call(monkeypatch):
    # D^0.5 sin(3t) changes sign three times on the 96-node scan of (0, pi]:
    # the six bracket ends are one call, and each Brent step one more
    from fraccalc import critical

    f, p = parse("sin(3*t)"), FractionalParams(0.5, 0.0, 1024)
    calls = []
    rows = critical._kernel_quad_grid

    def recording(sample, a, xs, mus, grid_n):
        calls.append(list(xs))
        return rows(sample, a, xs, mus, grid_n)

    monkeypatch.setattr(critical, "_kernel_quad_grid", recording)
    derivative_zero_before(f, p, math.pi)
    xs, fv, h, k = critical._scan(critical._prime_sampler(f), 0.0, math.pi, 96, 1024)
    vals = critical._strided_integral(fv, h, 0.5, k)
    changes = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0)
    assert len(changes) == 3
    assert calls[0] == [float(xs[j]) for lo in changes for j in (lo, lo + 1)]
    assert len(calls) > 4 and all(len(points) == 1 for points in calls[1:])


def test_a_degenerate_existence_search_gives_dilation_no_xi():
    # |D^0.5 v| <= 1e-13 on the whole scan of (0, pi]: the search's first scan
    # node is no vanishing time of V, so dilation reports none
    p = FractionalParams(0.5, 0.0, 2048)
    res = dilation_scenario(parse("1e-14*sin(t)"), p, [i * math.pi / 25 for i in range(1, 26)])
    assert res.zero_time == pytest.approx(math.pi, abs=1e-9)
    assert res.xi is None and res.xi_residual is None
    assert derivative_zero_before(parse("1e-14*sin(t)"), p, res.zero_time).degenerate


# --- order duality for monotone functions ---------------------------------------


def test_duality_check_linear_closed_form():
    # f = t: D^(1-al) t(x) = x^al / G(1+al) > 0 and xi(x) = x/(1+al), so
    # the level residual is |x/(1+al) - x^al|: both quantities stay nonzero
    for al in (0.3, 0.5, 0.7):
        p = FractionalParams(al, 0.0, 1024)
        for x in (0.5, 1.5):
            out = order_duality_check(parse("t"), p, x)
            assert out.d_value == pytest.approx(x**al / math.gamma(1.0 + al), rel=1e-8)
            assert out.level_residual == pytest.approx(
                abs(x / (1.0 + al) - x**al), abs=1e-8
            )
            assert out.d_value > 1e-3
            assert out.level_residual > 1e-3


def test_duality_check_continuity_near_base():
    p = FractionalParams(0.5, 0.0, 1024)
    a = order_duality_check(parse("t"), p, 0.5)
    b = order_duality_check(parse("t"), p, 0.5 + 1e-6)
    assert abs(a.level_residual - b.level_residual) < 1e-5
    assert abs(a.d_value - b.d_value) < 1e-5


def test_duality_predicate_on_monotone_corpus():
    # both-nonzero together at matched tolerance, 20 random probe points each
    rng = np.random.RandomState(17)
    corpus = ["t", "exp(t) - 1", "t^3", "t + sin(t)/2"]
    p_template = [(0.3, 1024), (0.6, 1024)]
    for src in corpus:
        f = parse(src)
        for al, n in p_template:
            p = FractionalParams(al, 0.0, n)
            for _ in range(10):
                x = float(rng.uniform(0.2, 2.0))
                out = order_duality_check(f, p, x)
                level_zero = out.level_residual <= 1e-8 * max(1.0, abs(f.eval(x)))
                d_zero = abs(out.d_value) <= 1e-8 * max(1.0, abs(f.eval(x)))
                assert level_zero == d_zero


def test_duality_check_rejects_nonmonotone():
    p = FractionalParams(0.5, 0.0, 256)
    with pytest.raises(HypothesisError):
        order_duality_check(parse("sin(t)"), p, 6.0)


# --- migration curve -------------------------------------------------------------


def test_r_alpha_endpoints_for_sine():
    curve = r_alpha_curve(
        parse("sin(t)"), 0.0, 1.5 * math.pi, math.pi / 2.0, 0.5,
        [0.01, 0.25, 0.5, 0.75, 0.99], grid_n=1024, scan_n=96,
    )
    last = curve.samples[-1]
    assert last.alpha == 0.99
    assert last.r_alpha is not None
    assert abs(last.r_alpha - math.pi / 2.0) <= 0.05
    first = curve.samples[0]
    assert first.alpha == 0.01
    assert first.global_sup is not None
    assert abs(first.global_sup - math.pi) <= 0.05
    assert curve.gap_high_alpha <= 0.05
    x1, x0 = curve.limit_targets
    assert x1 == pytest.approx(math.pi, abs=0.01)
    assert x0 == pytest.approx(math.pi / 2.0, abs=0.01)


def test_r_alpha_limit_targets_are_refined_roots():
    # the root of sin and of its derivative are bracketed on the check's scan
    # and refined by Brent, not read off as a bracket's midpoint
    curve = r_alpha_curve(parse("sin(t)"), 0.0, 4.712, 1.5708, 0.5, [0.5], grid_n=256, scan_n=32)
    x1, x0 = curve.limit_targets
    assert abs(x1 - math.pi) <= 1e-12
    assert abs(x0 - math.pi / 2.0) <= 1e-12


@pytest.mark.parametrize("b", [math.pi, math.nextafter(math.pi, 4.0), math.nextafter(math.pi, 0.0)])
def test_r_alpha_root_on_the_right_endpoint_counts_once(b):
    # sin(b) rounds to +1.2e-16 at pi and to -3.2e-16 one ulp above it, where
    # the scan also changes sign into b: either way f has one root, at b
    curve = r_alpha_curve(parse("sin(t)"), 0.0, b, math.pi / 2.0, 0.5, [0.5], grid_n=64, scan_n=16)
    assert curve.limit_targets[0] == b


def test_r_alpha_empty_ball_is_marked_not_interpolated():
    # mid orders park the critical point outside a small ball around pi/2
    curve = r_alpha_curve(
        parse("sin(t)"), 0.0, 1.5 * math.pi, math.pi / 2.0, 0.25,
        [0.3, 0.5], grid_n=512, scan_n=64,
    )
    for s in curve.samples:
        assert s.r_alpha is None
        assert s.global_sup is not None


def test_r_alpha_downward_parabola_curve_recorded():
    # f = t(2 - t) on (0, 2]: stationary point 1, root 2; the curve moves
    # from near 2 at small order to near 1 at high order (recorded only)
    curve = r_alpha_curve(
        parse("t*(2 - t)"), 0.0, 2.0, 1.0, 0.4,
        [0.01, 0.3, 0.6, 0.99], grid_n=512, scan_n=64,
    )
    first, last = curve.samples[0], curve.samples[-1]
    assert abs(first.global_sup - 2.0) <= 0.05
    assert last.r_alpha is not None and abs(last.r_alpha - 1.0) <= 0.05
    sups = [s.global_sup for s in curve.samples]
    assert all(a >= b for a, b in zip(sups, sups[1:]))  # observed, not asserted theory


def test_r_alpha_hypothesis_violations_detected():
    with pytest.raises(HypothesisError):
        r_alpha_curve(parse("sin(t)"), 0.0, 4.0 * math.pi, math.pi / 2.0, 0.5,
                      [0.5], grid_n=256, scan_n=48)  # several roots and extrema
    with pytest.raises(HypothesisError):
        r_alpha_curve(parse("sin(t)"), 0.0, 1.5 * math.pi, 2.8, 0.5,
                      [0.5], grid_n=256, scan_n=48)  # wrong claimed stationary point
    with pytest.raises(HypothesisError, match="exactly one root of f"):
        r_alpha_curve(parse("t^2-1"), -2.0, 2.0, 0.0, 0.5,
                      [0.5], grid_n=256, scan_n=48)  # roots at -1 and 1


# --- memory-kernel velocity scenario ----------------------------------------------


def test_dilation_sine_reports_earlier_zero():
    p = FractionalParams(0.5, 0.0, 1024)
    res = dilation_scenario(parse("sin(t)"), p, [i * math.pi / 12.0 for i in range(1, 13)])
    assert res.zero_time == pytest.approx(math.pi, abs=1e-9)
    assert res.xi is not None and res.xi <= res.zero_time
    assert res.xi_residual <= 1e-8
    assert len(res.rows) == 12


def test_dilation_linear_velocity_never_zero():
    # v = t: the transformed rate is 2 sqrt(t/pi) > 0, no vanishing time
    p = FractionalParams(0.5, 0.0, 512)
    res = dilation_scenario(parse("t"), p, list(np.linspace(0.2, 2.0, 10)))
    for t, val in res.rows:
        assert val == pytest.approx(2.0 * math.sqrt(t / math.pi), rel=1e-10)
    assert res.zero_time is None and res.xi is None


@pytest.mark.parametrize("rows", [1, 3, None])
def test_a_failing_dilation_table_raises_what_the_row_at_a_time_loop_raises(monkeypatch, capsys, rows):
    # log(2.5 - t) has no f' from t = 2.5 on, so the table fails part-way; in
    # batches of 1 and 3 rows and the default, and through the CLI
    from fraccalc import fracops
    from fraccalc.cli import run
    from fraccalc.errors import DomainError

    if rows is not None:
        monkeypatch.setattr(fracops, "_BATCH_MAX_POINTS", rows * 1025)
    v, p = parse("log(2.5-t)-log(2.5)"), FractionalParams(0.5, 0.0, 1024)
    ts = list(np.linspace(0.25, 3.0, 12))
    fp = fracops._prime_sampler(v)
    with pytest.raises(DomainError) as alone:
        for t in ts:
            fracops._kernel_quad_grid(fp, p.a, [t], [1.0 - p.alpha], p.grid_n)
    with pytest.raises(DomainError) as table:
        dilation_scenario(v, p, ts)
    assert str(table.value) == str(alone.value)
    assert run(["dilation", "--f", "log(2.5-t)-log(2.5)", "--alpha", "0.5", "--a", "0", "--b", "3"]) == 2
    assert capsys.readouterr().err == f"computation error: {alone.value}\n"


def test_dilation_high_order_matches_classical_rate():
    p = FractionalParams(0.99, 0.0, 2048)
    res = dilation_scenario(parse("sin(t)"), p, list(np.linspace(0.3, 3.0, 8)))
    for t, val in res.rows:
        assert abs(val - math.cos(t)) <= 0.02


# --- one-sample scan with Brent refinement ------------------------------------------


def test_root_on_a_scan_node_found_once():
    # the root 2.7 of D^0.3 (t^3 - 3t^2) is scan node 72 of 96 on [0, 3.6], where
    # the scan and the pointwise rule disagree in sign
    rep = critical_points(parse("t^3-3*t^2"), FractionalParams(0.3, 0.0, 2048), 3.6)
    assert len(rep.roots) == 1
    assert abs(rep.roots[0] - 2.7) <= 1e-9


def _record_prime_samples(monkeypatch, record):
    # hands each f' sample's points to record before sampling
    from fraccalc import fracops

    sample = fracops.derivative_values

    def recording(e, ts, order):
        record(ts)
        return sample(e, ts, order)

    monkeypatch.setattr(fracops, "derivative_values", recording)


def _record_quadratures(monkeypatch, points):
    # appends (mu, x) for every pointwise quadrature of a critical-point sweep
    from fraccalc import critical

    rows = critical._kernel_quad_grid

    def recording(sample, a, xs, mus, grid_n):
        points.extend(zip(mus, xs))
        return rows(sample, a, xs, mus, grid_n)

    monkeypatch.setattr(critical, "_kernel_quad_grid", recording)


def test_one_scan_sample_per_sweep_and_few_quadratures_per_root(monkeypatch):
    # the sweep samples f' once on the scan grid (22 * 96 >= 2048 panels) and
    # then once per batch of quadratures, within the element budget; with a
    # budget that holds every round, once per round: every bracket end in
    # the first round, one Brent step per search in each later one
    from fraccalc import fracops
    from fraccalc.critical import _critical_sweep

    f = parse("sin(1.2*t)")
    ps = [FractionalParams(al, 0.0, 2048) for al in (0.1, 0.3, 0.5, 0.7, 0.9)]
    for budget in (fracops._BATCH_MAX_POINTS, 1 << 20):
        samples, points = [], []
        with monkeypatch.context() as m:
            _record_prime_samples(m, lambda ts: samples.append(np.size(ts)))
            _record_quadratures(m, points)
            m.setattr(fracops, "_BATCH_MAX_POINTS", budget)
            reports = _critical_sweep(f, ps, 4.712 / 1.2, 96)
        assert samples[0] == 22 * 96 + 1
        assert all(n % 2049 == 0 and n <= max(budget, 2049) for n in samples[1:])
        per_order = []
        for p, rep in zip(ps, reports):
            assert len(rep.roots) == 1
            xs = [x for mu, x in points if mu == 1.0 - p.alpha]
            assert len(xs) == len(set(xs)) <= 15 * len(rep.roots)
            per_order.append(len(xs))
        assert sum(per_order) == len(points) == sum(samples[1:]) // 2049
    assert len(samples) - 1 == max(per_order) - 1  # both ends of a bracket in one round


def test_fine_grid_gives_same_root():
    f = parse("sin(t)")
    mid = critical_points(f, FractionalParams(0.5, 0.0, 8192), 4.7)
    fine = critical_points(f, FractionalParams(0.5, 0.0, 32768), 4.7)
    assert len(mid.roots) == len(fine.roots) == 1
    assert abs(mid.roots[0] - fine.roots[0]) <= 1e-9


def test_disagreeing_scan_brackets_give_one_root():
    # a scan that is wrong at two nodes next to the root 0.5 brackets it three
    # times; each bracket is repaired with the exact function, and the root is
    # reported once
    from fraccalc.meanval import _bisect, _root_search

    xs = np.array([0.2, 0.4, 0.6, 0.8])
    roots = _bisect(lambda x: x - 0.5, _root_search(xs, np.array([-1.0, 1.0, -1.0, 1.0]), 1e-12, False))
    assert len(roots) == 1
    assert abs(roots[0][0] - 0.5) <= 1e-12


@pytest.mark.parametrize("source", ["sin(t)", "t^3-3*t^2+2*t"])
def test_critical_points_runs_the_pointwise_rule_once_per_point(monkeypatch, source):
    # Brent is handed both bracket ends and returns the value at its root, so
    # no residual or bracket end is computed twice, at any order of a sweep
    from fraccalc.critical import _critical_sweep

    points = []
    _record_quadratures(monkeypatch, points)
    f = parse(source)
    ps = [FractionalParams(al, 0.0, 1024) for al in (0.3, 0.5, 0.7)]
    reports = _critical_sweep(f, ps, 3.0, 96)
    for p, report in zip(ps, reports):
        assert report.roots
        xs = [x for mu, x in points if mu == 1.0 - p.alpha]
        assert len(xs) == len(set(xs))
        for r, res in zip(report.roots, report.residuals):
            assert r in xs and res == abs(caputo_derivative(f, p, r).value)


# --- an order sweep as one computation --------------------------------------------


def _one_order_at_a_time(f, p, b, scan_n):
    # critical_points as a loop of single quadratures: the scan, then the
    # scalar root search calling the pointwise rule point by point
    from fraccalc import critical
    from fraccalc.fracops import _kernel_quad_grid
    from fraccalc.meanval import _bisect, _root_search

    fp, mu = critical._prime_sampler(f), 1.0 - p.alpha
    xs, fv, h, k = critical._scan(fp, p.a, b, scan_n, p.grid_n)
    vals = critical._strided_integral(fv, h, mu, k)
    found = _bisect(lambda x: _kernel_quad_grid(fp, p.a, [x], [mu], p.grid_n)[0][0],
                    _root_search(xs, vals, 1e-10 * (b - p.a), False))
    return [r for r, _ in found], [abs(v) for _, v in found]


def _bits(values):
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("source, b", [
    ("sin(1.3*t)", 4.712 / 1.3), ("t^3-3*t^2", 3.6), ("t^2-2*t", 2.5),
    ("sin(3*t)", 9.0), ("t*cos(2*t)", 6.0), ("t*(t-1)*(t-2)*(t-3)", 3.5), ("exp(t)-1", 2.0),
])
@pytest.mark.parametrize("rows", [1, 3, None])
def test_a_sweep_equals_the_per_order_loop_bit_for_bit(monkeypatch, source, b, rows):
    # roots and residuals of every order, several roots per order included;
    # with batches of 1 and 3 grids (so groups of 1 and 3 orders) and the default
    from fraccalc import fracops
    from fraccalc.critical import _critical_sweep

    if rows is not None:
        monkeypatch.setattr(fracops, "_BATCH_MAX_POINTS", rows * 513)
    f = parse(source)
    ps = [FractionalParams(al, 0.0, 512) for al in (0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95)]
    sweep = _critical_sweep(f, ps, b, 64)
    for p, rep in zip(ps, sweep):
        roots, residuals = _one_order_at_a_time(f, p, b, 64)
        alone = critical_points(f, p, b, 64)
        assert rep.alpha == alone.alpha == p.alpha
        assert _bits(rep.roots) == _bits(alone.roots) == _bits(roots)
        assert _bits(rep.residuals) == _bits(alone.residuals) == _bits(residuals)


_SWEEP_FAILURES = [
    # order 0 fails at a Brent step near its root, after order 2 failed at a bracket end
    ({0: "root", 2: "end"}, None, (0, "root")),
    # order 1's scan fails; order 3 fails at a bracket end in the first round
    ({3: "end"}, 1, (1, "scan")),
    # order 2's scan fails after order 1 failed at a Brent step
    ({1: "root"}, 2, (1, "root")),
    ({4: "end"}, None, (4, "end")),
]


@pytest.mark.parametrize("bad_ends, bad_scan, want", _SWEEP_FAILURES)
@pytest.mark.parametrize("rows", [2, None])
def test_a_sweep_raises_the_first_failure_of_the_per_order_loop(monkeypatch, bad_ends, bad_scan, want, rows):
    # f' fails on a pointwise grid ending near a chosen root (reached by a
    # Brent step) or on a chosen bracket end, and the scan of one order fails;
    # the sweep raises what running the orders one after another raises, in
    # groups of 2 orders and in one group of all 5
    from fraccalc import critical, fracops
    from fraccalc.errors import DomainError
    from fraccalc.expr import derivative_values

    if rows is not None:
        monkeypatch.setattr(fracops, "_BATCH_MAX_POINTS", rows * 257)
    f, b = parse("sin(t)"), 4.5
    ps = [FractionalParams(al, 0.0, 256) for al in (0.1, 0.3, 0.5, 0.7, 0.9)]
    clean = critical._critical_sweep(f, ps, b, 32)
    m = 257  # nodes of one pointwise grid
    xs = critical._grid(0.0, b, 32)[0][1:]
    windows = {}
    for i, where in bad_ends.items():
        r = clean[i].roots[0]
        x = r if where == "root" else float(xs[np.searchsorted(xs, r)])
        windows[(i, where)] = (x - 1e-6, x + 1e-6)

    def fprime(ts):
        if ts.size % m == 0:  # rows of pointwise grids; their last nodes are their points
            for x in ts[m - 1 :: m]:
                for key, (lo, hi) in windows.items():
                    if lo < x < hi:
                        raise DomainError(f"f' fails for order {key[0]} at its {key[1]}, x={x!r}")
        return derivative_values(f, ts, 1)

    strided = critical._strided_integral

    def scan(fv, h, mu, k):
        if bad_scan is not None and mu == 1.0 - ps[bad_scan].alpha:
            raise DomainError(f"f' fails for order {bad_scan} at its scan")
        return strided(fv, h, mu, k)

    monkeypatch.setattr(critical, "_prime_sampler", lambda f: fprime)
    monkeypatch.setattr(critical, "_strided_integral", scan)
    with pytest.raises(DomainError) as sequential:
        for p in ps:
            _one_order_at_a_time(f, p, b, 32)
    with pytest.raises(DomainError) as together:
        critical._critical_sweep(f, ps, b, 32)
    assert str(together.value) == str(sequential.value)
    assert str(together.value).startswith(f"f' fails for order {want[0]} at its {want[1]}")


# the orders of each lockstep run of the failing sweep of each case above, in
# groups of 2 orders: the group of the first failing order, unless a scan of
# it fails first, then its orders again one by one up to that order (whose
# search never starts when its scan fails); a last group of one order is
# not run twice
_FAILING_RUNS = {
    (0, "root"): [[0, 1], [0]],
    (1, "scan"): [[0]],
    (1, "root"): [[0, 1], [0], [1]],
    (4, "end"): [[0, 1], [2, 3], [4]],
}


@pytest.mark.parametrize("bad_ends, bad_scan, want", _SWEEP_FAILURES)
def test_a_failing_group_reruns_only_its_own_orders(monkeypatch, bad_ends, bad_scan, want):
    # with the failures of the test above, after its clean sweep: no other
    # order's search runs again
    from fraccalc import critical

    ps = [FractionalParams(al, 0.0, 256) for al in (0.1, 0.3, 0.5, 0.7, 0.9)]
    xs, fv, h, k = critical._scan(critical._prime_sampler(parse("sin(t)")), 0.0, 4.5, 32, 256)
    order_of = {_bits(critical._strided_integral(fv, h, 1.0 - p.alpha, k)): i for i, p in enumerate(ps)}
    runs = []
    d_alpha_roots = critical._d_alpha_roots

    def recording(fp, a, xs, scans, *args):
        runs.append([order_of[_bits(vals)] for vals, _ in scans])
        return d_alpha_roots(fp, a, xs, scans, *args)

    monkeypatch.setattr(critical, "_d_alpha_roots", recording)
    test_a_sweep_raises_the_first_failure_of_the_per_order_loop(monkeypatch, bad_ends, bad_scan, want, 2)
    assert runs == [[0, 1], [2, 3], [4]] + _FAILING_RUNS[want]  # the clean sweep, then the failing one


def test_an_integral_float_grid_n_acts_as_the_int():
    # FractionalParams keeps grid_n as the int its check returns, so the scan
    # grid of a critical-point search is built on an int panel count
    from fraccalc.critical import _critical_sweep

    f = parse("sin(t)")
    whole, floating = FractionalParams(0.5, 0.0, 256), FractionalParams(0.5, 0.0, 256.0)
    assert type(floating.grid_n) is int and floating == whole
    assert critical_points(f, floating, 3.0) == critical_points(f, whole, 3.0)
    sweep = [FractionalParams(al, 0.0, 256.0) for al in (0.2, 0.5, 0.8)]
    got = _critical_sweep(f, sweep, 3.0, 96)
    want = _critical_sweep(f, [FractionalParams(al, 0.0, 256) for al in (0.2, 0.5, 0.8)], 3.0, 96)
    assert [(_bits(r.roots), _bits(r.residuals)) for r in got] == [(_bits(r.roots), _bits(r.residuals)) for r in want]
    assert all(r.roots for r in got)
