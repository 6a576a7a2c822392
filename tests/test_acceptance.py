"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete.  Expected values are closed Gamma-function forms
(evaluated with the standard library as an independent oracle) or
identities whose two sides are computed through unrelated code paths.
"""

import io
import math
import sys
import time

import numpy as np

from fraccalc import (
    FractionalParams,
    convexity_equivalence,
    integral_on_grid,
    mean_value,
    mean_value_polynomial,
    monotonicity_certificate,
    parse,
    r_alpha_curve,
    rl_derivative,
    rl_integral,
    sample_window_pairs,
    derivative_zero_before,
)
from fraccalc.cli import run


class criterion:
    def __init__(self, num: int, label: str):
        self.num = num
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:2d} [{status}] {self.label}")
        return False


BETAS = (0.5, 1.0, 2.0, 3.0)
ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)
XS = (0.5, 1.0, 2.0)


def test_criterion_01_power_law_operator_suite():
    with criterion(1, "power-law integral/derivative closed forms, rel <= 1e-6 @4096"):
        start = time.perf_counter()
        for beta in BETAS:
            f = parse(f"t^{beta!r}" if beta != int(beta) else f"t^{int(beta)}")
            for al in ALPHAS:
                p = FractionalParams(al, 0.0, 4096)
                for x in XS:
                    exact_i = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 + al) * x ** (beta + al)
                    got_i = rl_integral(f, p, al, x).value
                    assert abs(got_i - exact_i) / abs(exact_i) <= 1e-6, (
                        f"integral beta={beta} alpha={al} x={x}"
                    )
                    exact_d = math.gamma(beta + 1.0) / math.gamma(beta + 1.0 - al) * x ** (beta - al)
                    method = "direct" if beta < 1.0 else "caputo_form"
                    got_d = rl_derivative(f, p, x, method=method).value
                    assert abs(got_d - exact_d) / abs(exact_d) <= 1e-6, (
                        f"derivative beta={beta} alpha={al} x={x}"
                    )
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"suite took {elapsed:.1f}s"


def test_criterion_02_mean_value_closed_forms():
    with criterion(2, "mean-value ratios: linear 2/3 +-1e-8, quadratic sqrt form +-1e-6"):
        p = FractionalParams(0.5, 0.0, 2048)
        for x in XS:
            res = mean_value(parse("t"), p, x)
            assert abs(res.xi_sup / x - 2.0 / 3.0) <= 1e-8
        ratio = math.sqrt(math.gamma(1.5) * 2.0 / math.gamma(3.5))
        for x in XS:
            res = mean_value(parse("t^2"), p, x)
            assert abs(res.xi_sup / x - ratio) <= 1e-6


def test_criterion_03_polynomial_estimator_consistency():
    with criterion(3, "polynomial mean-value estimator: exact on degree<=4, 1e-6 on sine"):
        p = FractionalParams(0.5, 0.0, 2048)
        for src in ("t", "t^2", "t - t^3/3", "t^2*(1 - t)", "t^4 + t"):
            est = mean_value_polynomial(parse(src), p, 0.9, 4)
            assert abs(est.remainder_term) <= 1e-12
            mv = mean_value(parse(src), p, 0.9, scan_n=256)
            assert est.roots_in_range
            assert abs(max(est.roots_in_range) - mv.xi_sup) <= 1e-8, src
        est = mean_value_polynomial(parse("sin(t)"), p, 0.1, 4)
        mv = mean_value(parse("sin(t)"), p, 0.1)
        assert abs(max(est.roots_in_range) - mv.xi_sup) <= 1e-6


def _composition_round_trips(fv_fn, fpv_fn, b, al, n):
    """(D I residual at x-h, I D residual at x, est pair) on grid size n."""
    h = b / n
    ts = h * np.arange(n + 1)
    fv = fv_fn(ts)
    inner = integral_on_grid(fv, h, al)
    outer = integral_on_grid(inner, h, 1.0 - al)
    di = (outer[-1] - outer[-3]) / (2.0 * h) - fv_fn(np.asarray([b - h]))[0]
    u = integral_on_grid(fpv_fn(ts), h, 1.0 - al)
    back = integral_on_grid(u, h, al)
    id_ = back[-1] - fv[-1]
    return di, id_


def test_criterion_04_composition_identities():
    with criterion(4, "round trips D(I f)=f and I(D f)=f within 10x estimated error"):
        corpus = [
            (lambda ts: np.sin(ts), lambda ts: np.cos(ts), math.pi),
            (lambda ts: ts * np.exp(-ts), lambda ts: (1 - ts) * np.exp(-ts), 2.0),
            (lambda ts: ts * ts * (1 - ts), lambda ts: 2 * ts - 3 * ts * ts, 1.0),
        ]
        for fv_fn, fpv_fn, b in corpus:
            for al in (0.3, 0.5, 0.7):
                for k in range(1, 17):
                    x = b * k / 16.0
                    di1, id1 = _composition_round_trips(fv_fn, fpv_fn, x, al, 1024)
                    di2, id2 = _composition_round_trips(fv_fn, fpv_fn, x, al, 512)
                    est_di = abs(di1 - di2) + 1e-12
                    est_id = abs(id1 - id2) + 1e-12
                    assert abs(di1) <= 10.0 * est_di, (b, al, x, "D I")
                    assert abs(id1) <= 10.0 * est_id, (b, al, x, "I D")


def test_criterion_05_order_limit_deviations():
    with criterion(5, "order limits: D^0.01 ~ f and D^0.99 ~ f' within 0.02, monotone"):
        corpus = [
            (parse("sin(t)"), parse("cos(t)"), math.pi),
            (parse("t*exp(-t)"), parse("(1 - t)*exp(-t)"), 2.0),
            (parse("t^2*(1 - t)"), parse("2*t - 3*t^2"), 1.0),
        ]
        for f, fp, b in corpus:
            xs = [b * k / 8.0 for k in range(1, 9)]

            def dev_low(al):
                return max(
                    abs(rl_derivative(f, FractionalParams(al, 0.0, 2048), x).value - f.eval(x))
                    for x in xs
                )

            def dev_high(al):
                return max(
                    abs(rl_derivative(f, FractionalParams(al, 0.0, 2048), x).value - fp.eval(x))
                    for x in xs
                )

            assert dev_low(0.01) <= 0.02
            assert dev_high(0.99) <= 0.02
            sweep_low = [dev_low(al) for al in (0.05, 0.04, 0.03, 0.02, 0.01)]
            sweep_high = [dev_high(al) for al in (0.95, 0.96, 0.97, 0.98, 0.99)]
            assert all(a > b_ for a, b_ in zip(sweep_low, sweep_low[1:])), sweep_low
            assert all(a > b_ for a, b_ in zip(sweep_high, sweep_high[1:])), sweep_high


def test_criterion_06_existence_of_derivative_zeros():
    with criterion(6, "zero of f forces earlier zero of D^alpha f, residual <= 1e-8"):
        for al in (0.25, 0.5, 0.75):
            p = FractionalParams(al, 0.0, 2048)
            res = derivative_zero_before(parse("sin(t)"), p, math.pi)
            assert 0.0 < res.xi <= math.pi
            assert res.residual <= 1e-8
            res = derivative_zero_before(parse("t*(1 - t)"), p, 1.0)
            assert 0.0 < res.xi <= 1.0
            assert res.residual <= 1e-8
            assert abs(res.xi - (2.0 - al) / 2.0) <= 1e-8  # closed form for the parabola


def test_criterion_07_migration_curve_endpoints():
    with criterion(7, "critical-point migration: r(0.99)~pi/2, global(0.01)~pi, <30s"):
        start = time.perf_counter()
        alphas = list(np.linspace(0.01, 0.99, 25))
        curve = r_alpha_curve(
            parse("sin(t)"), 0.0, 1.5 * math.pi, math.pi / 2.0, 0.5, alphas,
            grid_n=1024, scan_n=96,
        )
        assert len(curve.samples) == 25
        last = curve.samples[-1]
        assert last.r_alpha is not None and abs(last.r_alpha - math.pi / 2.0) <= 0.05
        first = curve.samples[0]
        assert first.global_sup is not None and abs(first.global_sup - math.pi) <= 0.05
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"curve took {elapsed:.1f}s"


def test_criterion_08_convexity_agreement():
    with criterion(8, "convexity <=> window order when the gate passes; bridge <= 1e-6"):
        pairs = sample_window_pairs(0.1, 3.1, 0.5, n_pairs=8, seed=1)
        positives = ("t^2", "exp(t) - 1 - t", "t")
        for src in positives + ("-t^2",):
            rc = convexity_equivalence(parse(src), 0.5, 0.5, pairs)
            assert rc.property_P_fprime.holds is True, src
            assert rc.convex_sampled == rc.delta_incr.holds, src
            assert rc.equivalence is True, src
            assert rc.bridge_residual_max <= 1e-6, (src, rc.bridge_residual_max)
            if src == "-t^2":
                assert rc.convex_sampled is False
            else:
                assert rc.convex_sampled is True


def test_criterion_09_step_reconstruction():
    with criterion(9, "step reconstruction from derivative data <= 1e-4 @2048, halving"):
        cases = [(parse("t"), 1.0), (parse("sin(t)"), math.pi / 2.0)]
        for f, b in cases:
            e_fine = monotonicity_certificate(f, 0.5, 0.1, b, 2048).info["reconstruction_error"]
            e_coarse = monotonicity_certificate(f, 0.5, 0.1, b, 1024).info["reconstruction_error"]
            e_double = monotonicity_certificate(f, 0.5, 0.1, b, 4096).info["reconstruction_error"]
            assert e_fine <= 1e-4
            # halving under doubling (or already at rounding noise)
            assert e_fine <= e_coarse / 1.8 or e_fine <= 1e-12
            assert e_double <= e_fine / 1.8 or e_double <= 1e-12


def _capture_run(argv):
    buf, err = io.StringIO(), io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = buf, err
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, buf.getvalue()


def test_criterion_10_selftest_and_determinism():
    with criterion(10, "self-test passes clean; fixed-seed CSV is byte-identical"):
        code, out = _capture_run(["selftest"])
        assert code == 0, out
        argv = ["convexity", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--b", "4",
                "--delta", "0.5", "--seed", "11", "--pairs", "8",
                "--scan-n", "48", "--output", "csv"]
        c1, out1 = _capture_run(argv)
        c2, out2 = _capture_run(argv)
        assert c1 == 0 and c2 == 0
        assert out1.encode() == out2.encode()
        argv2 = ["ralpha", "--f", "sin(t)", "--alpha", "0.01:0.99:5", "--a", "0",
                 "--b", repr(1.5 * math.pi), "--x0", repr(math.pi / 2), "--eps", "0.5",
                 "--grid-n", "256", "--scan-n", "48", "--output", "csv"]
        d1, r1 = _capture_run(argv2)
        d2, r2 = _capture_run(argv2)
        assert d1 == 0 and d2 == 0
        assert r1.encode() == r2.encode()
