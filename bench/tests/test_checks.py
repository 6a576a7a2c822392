"""Each checker accepts true values and rejects outputs moved by 1e-6 on
their scale; property checks reject outputs that break the property."""

import math

import mpmath
import pytest

import checks
import reference as ref
import run
import workloads

PERTURB = 1e-6


def _csv(header, rows, comments=()):
    lines = [",".join(header)] + [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in r) for r in rows]
    lines += [f"# {c}" for c in comments]
    return checks.parse_csv("\n".join(lines) + "\n")


def _verdict(fn, *args):
    v = checks.Verdict()
    fn(v, *args)
    return v


# -- references ----------------------------------------------------------


def test_power_mean_value_pins_two_thirds():
    assert ref.power_mean_value(1.0, 0.5, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_expm1_integral_matches_mpmath_quad():
    mu, x = 0.37, 1.6
    with mpmath.workdps(30):
        want = mpmath.quad(lambda t: (mpmath.exp(t) - 1) * (x - t) ** (mu - 1), [0, x]) / mpmath.gamma(mu)
    assert ref.expm1_integral(mu, x) == pytest.approx(float(want), rel=1e-12)


def test_sin_derivative_matches_power_series():
    alpha, w = 0.43, 1.3
    for x in (0.4, 2.5, 9.0):
        with mpmath.workdps(40):
            series = mpmath.nsum(
                lambda k: (-1) ** k * mpmath.mpf(w) ** (2 * k + 1) * mpmath.mpf(x) ** (2 * k + 1 - alpha)
                / mpmath.gamma(2 * k + 2 - alpha), [0, mpmath.inf])
        assert ref.sin_derivative(alpha, w, x) == pytest.approx(float(series), rel=1e-12, abs=1e-14)


def test_sin_critical_point_limits():
    # orders near 0 find the root of sin, orders near 1 its stationary point
    (low,) = ref.sin_critical_points(0.01, 1.0, 4.712)
    (high,) = ref.sin_critical_points(0.99, 1.0, 4.712)
    assert abs(low - math.pi) < 0.05 and abs(high - math.pi / 2) < 0.05


def test_polyxi_reference_root_is_mean_value():
    # f = t: the mean value over (0, delta) at alpha = 1/2 sits at 2/3 delta
    coeffs = ref.polyxi_coefficients([0.0, 1.0], 0.5, 1.5)
    assert ref.polynomial_roots(coeffs, 0.0, 1.5) == [pytest.approx(1.0, rel=1e-14)]


# -- value checkers --------------------------------------------------------


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_operator_check(sign):
    want = ref.power_integral(2.5, 0.3, 1.7)
    header = ["alpha", "x", "value", "est_error"]
    assert not _verdict(checks.check_operator, _csv(header, [[0.3, 1.7, want, 1e-9]]), 0.3, 1.7, want).failures
    bad = want * (1 + sign * PERTURB)
    assert _verdict(checks.check_operator, _csv(header, [[0.3, 1.7, bad, 1e-9]]), 0.3, 1.7, want).failures


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_meanvalue_check(sign):
    x = 1.3
    xi = ref.expm1_mean_value(0.4, x)
    header = ["alpha", "x", "xi", "residual", "is_sup"]
    good = _csv(header, [[0.4, x, xi, 1e-13, "true"]])
    assert not _verdict(checks.check_meanvalue, good, x, xi).failures
    bad = _csv(header, [[0.4, x, xi + sign * PERTURB * x, 1e-13, "true"]])
    assert _verdict(checks.check_meanvalue, bad, x, xi).failures
    two = _csv(header, [[0.4, x, 0.1, 0.0, "false"], [0.4, x, xi, 0.0, "true"]])
    assert _verdict(checks.check_meanvalue, two, x, xi).failures


def _polyxi_csv(coeffs, roots, remainder=0.0):
    rows = [["coefficient", j, c] for j, c in enumerate(coeffs)]
    rows += [["root", i, r] for i, r in enumerate(roots)]
    rows.append(["remainder", "", remainder])
    return _csv(["kind", "index", "value"], rows, ["reliable true"])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_polyxi_check(sign):
    delta = 1.2
    coeffs = ref.polyxi_coefficients([0.0, 0.7, 0.4, 1.1], 0.35, delta)
    roots = ref.polynomial_roots(coeffs, 0.0, delta)
    assert not _verdict(checks.check_polyxi, _polyxi_csv(coeffs, roots), delta, coeffs, roots).failures
    scale = max(abs(c) for c in coeffs)
    for j in range(len(coeffs)):
        moved = list(coeffs)
        moved[j] += sign * PERTURB * scale
        assert _verdict(checks.check_polyxi, _polyxi_csv(moved, roots), delta, coeffs, roots).failures
    moved_roots = [roots[0] + sign * PERTURB * delta]
    assert _verdict(checks.check_polyxi, _polyxi_csv(coeffs, moved_roots), delta, coeffs, roots).failures
    assert _verdict(checks.check_polyxi, _polyxi_csv(coeffs, roots, 1e-3), delta, coeffs, roots).failures


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_critpoints_check(sign):
    c, b = 1.1, 2.75
    alphas = [0.2, 0.5, 0.8]
    want = {al: [c * (2 - al)] for al in alphas}
    header = ["alpha", "root", "residual"]
    good = _csv(header, [[al, want[al][0], 1e-10] for al in alphas])
    assert not _verdict(checks.check_critpoints, good, alphas, b, want).failures
    bad = _csv(header, [[al, want[al][0] + (sign * PERTURB * b if al == 0.5 else 0.0), 1e-10] for al in alphas])
    assert _verdict(checks.check_critpoints, bad, alphas, b, want).failures
    missing = _csv(header, [[al, want[al][0], 1e-10] for al in alphas[:2]])
    assert _verdict(checks.check_critpoints, missing, alphas, b, want).failures


def _ralpha_csv(rows, root):
    return _csv(["alpha", "r_alpha", "global_sup"], rows,
                [f"detected_root {root!r} detected_stationary 1.0", "gap_low_alpha 0 gap_high_alpha 0"])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_ralpha_check(sign):
    c = 0.9
    b = 2.5 * c
    alphas = [0.1, 0.5, 0.9]
    r = {al: c * (2 - al) for al in alphas}
    args = (alphas, b, r, r, c, 2 * c)
    good = _ralpha_csv([[al, r[al], r[al]] for al in alphas], 2 * c)
    assert not _verdict(checks.check_ralpha, good, *args).failures
    bad = _ralpha_csv([[al, r[al] + (sign * PERTURB * b if al == 0.5 else 0.0), r[al]] for al in alphas], 2 * c)
    assert _verdict(checks.check_ralpha, bad, *args).failures
    # a curve that rises with alpha breaks the migration property
    rising = {al: c * (1 + al) for al in alphas}
    flipped = _ralpha_csv([[al, rising[al], rising[al]] for al in alphas], 2 * c)
    assert _verdict(checks.check_ralpha, flipped, alphas, b, rising, rising, c, 2 * c).failures


# -- grid shape checkers ----------------------------------------------------


def _mono_csv(holds, df0, recon):
    return _csv(["quantity", "value"], [["holds", holds], ["df0", df0], ["literal_defect", 0.1],
                                        ["reconstruction_error", recon]])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_mono_check(sign):
    df0, scale = 0.5, 2.0
    assert not _verdict(checks.check_mono, _mono_csv("true", df0, 1e-5), df0, scale).failures
    assert _verdict(checks.check_mono, _mono_csv("true", df0 + sign * PERTURB * scale, 1e-5), df0, scale).failures
    assert _verdict(checks.check_mono, _mono_csv("false", df0, 1e-5), df0, scale).failures
    assert _verdict(checks.check_mono, _mono_csv("true", df0, 0.1), df0, scale).failures


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_periodic_check(sign):
    alpha, w = 0.4, 1.5
    tau = 2 * math.pi / w
    ts = [tau, 1.5 * tau, 2 * tau]
    d = [ref.sin_derivative(alpha, w, t) for t in ts]
    ds = [ref.sin_derivative(alpha, w, t + tau) for t in ts]
    defects = [abs(p - q) for p, q in zip(ds, d)]
    scale = max(abs(v) for v in d + ds)

    def table(vals):
        return _csv(["t", "defect"], [[t, v] for t, v in zip(ts, vals)], [f"max_defect {max(vals)!r}"])

    assert not _verdict(checks.check_periodic, table(defects), ts, defects, scale).failures
    moved = [defects[0], defects[1] + sign * PERTURB * scale, defects[2]]
    assert _verdict(checks.check_periodic, table(moved), ts, defects, scale).failures


def _convexity_csv(convex, equivalence="true", gate="true", bridge=1e-13):
    v = "true" if convex else "false"
    return _csv(["check", "holds", "value"], [
        ["convex_sampled", v, ""], ["delta_increasing", v, 0.0], ["fprime_xi_monotone", v, 0.0],
        ["property_P_fprime", gate, 0.0], ["bridge_residual_max", "", bridge], ["equivalence", equivalence, ""]])


@pytest.mark.parametrize("convex", [True, False])
def test_convexity_check(convex):
    assert not _verdict(checks.check_convexity, _convexity_csv(convex), convex).failures
    assert _verdict(checks.check_convexity, _convexity_csv(not convex), convex).failures
    assert _verdict(checks.check_convexity, _convexity_csv(convex, equivalence="false"), convex).failures
    assert _verdict(checks.check_convexity, _convexity_csv(convex, gate=""), convex).failures
    assert _verdict(checks.check_convexity, _convexity_csv(convex, bridge=1e-3), convex).failures


# -- against fraccalc itself -------------------------------------------------


@pytest.fixture(scope="module")
def cli():
    import fraccalc.cli

    return fraccalc.cli


def test_point_queries_pass_and_repeat_bytes(cli):
    ops = workloads.point_queries(0)
    expected, errors, failures = run.warm_up(cli, ops)
    assert failures == []
    assert max(errors) <= checks.TOL
    for op, want in zip(ops[::7], expected[::7]):
        code, out, _ = run.call(cli, op.argv)
        assert code == 0 and out == want


@pytest.mark.parametrize("workload", ["order_sweep", "grid_shape"])
def test_one_op_of_each_kind_passes(cli, workload):
    ops = workloads.ROUNDS[workload](0)
    first = list({op.kind: op for op in reversed(ops)}.values())
    _, _, failures = run.warm_up(cli, first)
    assert failures == []


def test_failing_operation_fails_its_check(cli):
    def never(verdict, csv):
        raise AssertionError("a failed operation has no output to check")

    op = workloads.Op("fracint", ["fracint", "--f", "foo(t)", "--alpha", "0.5", "--a", "0", "--x", "1"], never)
    expected, errors, failures = run.warm_up(cli, [op])
    assert expected == [None]
    assert errors == [math.inf]
    assert len(failures) == 1 and "exit 1" in failures[0] and "unknown identifier" in failures[0]
