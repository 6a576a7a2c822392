"""Command-line front end.

Every command takes an expression in ``t`` via ``--f``, dispatches to the
library and prints either an aligned table or machine-readable CSV
(``--output csv``).  CSV carries a header row, data rows with all numbers
at 17 significant digits (bit-exact on re-parse), and trailing ``#``
comment lines echoing the configuration and error-estimate summaries.
Runs with identical flags (including ``--seed``) are byte-identical.

The commands are one table, ``_COMMANDS``: each row names a handler, its
help, whether ``--alpha`` may be a sweep and the command's own flags.
A command's argv is parsed by that command's own parser alone, in one
argparse pass; ``run`` then parses ``--f`` and ``--alpha`` once, calls the
handler with the expression and its orders, and prints the ``Report`` it
returns.

Exit codes: 0 success, 1 usage error (bad flags or expression), 2
computation error (domain or assumption violation), 3 self-test failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import sys
import warnings
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .critical import ALPHA_MAX, ALPHA_MIN, _critical_sweep, dilation_scenario, r_alpha_curve
from .errors import FracCalcError, ParseError
from .expr import Expression, parse
from .fracops import (
    FractionalParams,
    gamma,
    integral_on_grid,
    f_lower,
    rl_derivative,
    rl_integral,
    _check_alpha,
    _grid,
)
from .meanval import mean_value, mean_value_polynomial
from .shape import (
    convexity_equivalence,
    monotonicity_certificate,
    periodicity_defect,
    sample_window_pairs,
)

#: upper caps of the count flags, so that no single flag can ask for
#: gigabytes; at its cap the heaviest command runs in a few seconds and
#: under 350 MB (figures in README)
MAX_GRID_N = 1 << 20
MAX_SCAN_N = 1 << 14
MAX_PAIRS = 1024
MAX_TAYLOR_N = 64
MAX_SWEEP = 1000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


class Report:
    """Collects rows plus comment lines; renders as table or CSV."""

    def __init__(self, columns: Sequence[str]):
        self.columns = list(columns)
        self.rows: List[List[str]] = []
        self.comments: List[str] = []

    def add(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("row width mismatch")
        self.rows.append([_fmt(v) for v in values])

    def comment(self, text: str):
        self.comments.append(text)

    def render(self, output: str) -> str:
        if output == "csv":
            lines = [",".join(self.columns)]
            lines += [",".join(row) for row in self.rows]
            lines += [f"# {c}" for c in self.comments]
            return "\n".join(lines) + "\n"
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            widths = [max(w, len(v)) for w, v in zip(widths, row)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(self.columns, widths)).rstrip()]
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
        lines += [f"[{c}]" for c in self.comments]
        return "\n".join(lines) + "\n"


def _alpha_list(text: str, *, sweep_ok: bool) -> List[float]:
    if ":" in text:
        if not sweep_ok:
            raise _UsageError("this command takes a single --alpha, not a sweep")
        parts = text.split(":")
        if len(parts) != 3:
            raise _UsageError("alpha sweep must be start:stop:count")
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError:
            raise _UsageError(f"bad alpha sweep {text!r}") from None
        if not math.isfinite(stop - start):
            raise _UsageError(f"alpha sweep ends must be finite and less than a float apart, got {text!r}")
        if not 1 <= count <= MAX_SWEEP:
            raise _UsageError(f"--alpha sweep count must lie in [1, {MAX_SWEEP}], got {count}")
        return [float(min(max(a, ALPHA_MIN), ALPHA_MAX)) for a in _points(start, stop, count)]
    try:
        alpha = float(text)
    except ValueError:
        raise _UsageError(f"bad alpha value {text!r}") from None
    # r_alpha_curve clamps its orders into [ALPHA_MIN, ALPHA_MAX], so without
    # this check ralpha would run an order of 1.5 as 0.99
    _check_alpha(alpha)
    return [alpha]


def _points(start: float, stop: float, count: int) -> np.ndarray:
    """``count`` evenly spaced points from start to stop; one point is start."""
    return _grid(start, stop, count - 1)[0] if count > 1 else np.asarray([start])


def _emit(report: Report, args) -> int:
    """Print the report, closed by comments echoing the flags and the version."""
    flags = (f"{key}={_fmt(value)}" for key, value in sorted(vars(args).items()) if key != "output")
    report.comment("config " + " ".join(flags))
    report.comment(f"fraccalc {__version__}")
    sys.stdout.write(report.render(args.output))
    return 0


# ---------------------------------------------------------------------------
# command handlers: each takes the expression, its orders and the parsed
# flags, and returns its report


def _cmd_operator(f: Expression, alphas: List[float], args) -> Report:
    """fracint and fracderiv: the operator at x, one row per order."""
    rep = Report(["alpha", "x", "value", "est_error"])
    worst = 0.0
    for al in alphas:
        p = FractionalParams(al, args.a, args.grid_n)
        if args.command == "fracint":
            out = rl_integral(f, p, al, args.x)
        else:
            out = rl_derivative(f, p, args.x, allow_nonzero_base=args.allow_nonzero_base)
        worst = max(worst, out.est_error)
        rep.add(al, args.x, out.value, out.est_error)
    rep.comment(f"est_error_max {_fmt(worst)}")
    return rep


def _cmd_meanvalue(f: Expression, alphas: List[float], args) -> Report:
    (al,) = alphas
    p = FractionalParams(al, args.a, args.grid_n)
    res = mean_value(f, p, args.x, args.scan_n)
    rep = Report(["alpha", "x", "xi", "residual", "is_sup"])
    if res.degenerate:
        rep.comment("degenerate level: f matches g(x) across the whole scan")
    for xi, r in zip(res.lambda_set, res.residuals):
        rep.add(al, args.x, xi, r, xi == res.xi_sup)
    rep.comment(f"target_g {_fmt(res.target_g)}")
    if res.xi_sup is not None:
        rep.comment(f"xi_sup {_fmt(res.xi_sup)}")
    return rep


def _cmd_polyxi(f: Expression, alphas: List[float], args) -> Report:
    (al,) = alphas
    p = FractionalParams(al, args.a, args.grid_n)
    est = mean_value_polynomial(f, p, args.delta, args.n)
    rep = Report(["kind", "index", "value"])
    for j, c in enumerate(est.coefficients):
        rep.add("coefficient", j, c)
    for i, r in enumerate(est.roots_in_range):
        rep.add("root", i, r)
    rep.add("remainder", "", est.remainder_term)
    rep.comment(f"reliable {_fmt(est.reliable)}")
    return rep


def _cmd_critpoints(f: Expression, alphas: List[float], args) -> Report:
    rep = Report(["alpha", "root", "residual"])
    ps = [FractionalParams(al, args.a, args.grid_n) for al in alphas]
    for al, report in zip(alphas, _critical_sweep(f, ps, args.b, args.scan_n, args.allow_nonzero_base)):
        if not report.roots:
            rep.comment(f"alpha={_fmt(al)}: no critical points in (a, b]")
        for root, resid in zip(report.roots, report.residuals):
            rep.add(al, root, resid)
    return rep


def _cmd_ralpha(f: Expression, alphas: List[float], args) -> Report:
    curve = r_alpha_curve(
        f, args.a, args.b, args.x0, args.eps, alphas,
        grid_n=args.grid_n, scan_n=args.scan_n,
    )
    rep = Report(["alpha", "r_alpha", "global_sup"])
    for s in curve.samples:
        rep.add(s.alpha, s.r_alpha, s.global_sup)
    x1, x0 = curve.limit_targets
    rep.comment(f"detected_root {_fmt(x1)} detected_stationary {_fmt(x0)}")
    rep.comment(f"gap_low_alpha {_fmt(curve.gap_low_alpha)} gap_high_alpha {_fmt(curve.gap_high_alpha)}")
    return rep


def _cmd_dilation(v: Expression, alphas: List[float], args) -> Report:
    (al,) = alphas
    p = FractionalParams(al, args.a, args.grid_n)
    ts = _grid(args.a, args.b, args.scan_n)[0][1:]
    res = dilation_scenario(v, p, ts)
    rep = Report(["t", "V"])
    for t, val in res.rows:
        rep.add(t, val)
    if res.zero_time is not None:
        rep.comment(f"zero_time {_fmt(res.zero_time)}")
        if res.xi is None:
            rep.comment("degenerate: |D^alpha v| <= 1e-13 at every scan node, so xi is not located")
        else:
            rep.comment(f"xi {_fmt(res.xi)} residual {_fmt(res.xi_residual)}")
    else:
        rep.comment("no vanishing time of v on the grid")
    return rep


def _cmd_convexity(f: Expression, alphas: List[float], args) -> Report:
    (al,) = alphas
    pairs = sample_window_pairs(args.a, args.b, args.delta, n_pairs=args.pairs, seed=args.seed)
    rc = convexity_equivalence(f, al, args.delta, pairs, scan_n=args.scan_n)
    rep = Report(["check", "holds", "value"])
    rep.add("convex_sampled", rc.convex_sampled, "")
    rep.add("delta_increasing", rc.delta_incr.holds, rc.delta_incr.defect)
    rep.add("fprime_xi_monotone", rc.fprime_xi_monotone.holds, rc.fprime_xi_monotone.defect)
    rep.add("property_P_fprime", rc.property_P_fprime.holds, rc.property_P_fprime.defect)
    rep.add("bridge_residual_max", "", rc.bridge_residual_max)
    rep.add("equivalence", rc.equivalence, "")
    for v in (rc.delta_incr.witnesses + rc.fprime_xi_monotone.witnesses)[:8]:
        rep.comment(f"witness windows {v.where} margin {_fmt(v.margin)}")
    if rc.property_P_fprime.note:
        rep.comment(rc.property_P_fprime.note)
    return rep


def _cmd_mono(f: Expression, alphas: List[float], args) -> Report:
    (al,) = alphas
    verdict = monotonicity_certificate(f, al, args.tau, args.b, args.grid_n)
    rep = Report(["quantity", "value"])
    rep.add("holds", "not_applicable" if verdict.holds is None else verdict.holds)
    for key in sorted(verdict.info):
        rep.add(key, verdict.info[key])
    if verdict.note:
        rep.comment(verdict.note)
    for v in verdict.witnesses[:8]:
        rep.comment(f"witness x={v.where} margin {_fmt(v.margin)}")
    return rep


def _cmd_periodic(f: Expression, alphas: List[float], args) -> Report:
    (al,) = alphas
    start = args.a if args.a > 0 else args.tau
    ts = _points(start, args.b, args.scan_n)
    verdict = periodicity_defect(f, al, args.tau, ts, grid_n=args.grid_n)
    rep = Report(["t", "defect"])
    for w in verdict.witnesses:
        rep.add(w.where[0], w.margin)
    rep.comment(f"max_defect {_fmt(verdict.defect)}")
    rep.comment("measurement only: the memory kernel remembers the base point")
    return rep


# ---------------------------------------------------------------------------
# self test


def _selftest_checks(grid_n: int):
    """Closed-form and identity checks; each yields (name, error, tol)."""
    t = parse("t")
    t2 = parse("t^2")
    sin = parse("sin(t)")
    checks = []

    err = abs(gamma(0.5) - math.sqrt(math.pi)) / math.sqrt(math.pi)
    checks.append(("gamma(1/2) value", err, 1e-12))
    err = abs(gamma(6.0) - 120.0) / 120.0
    checks.append(("gamma(6) factorial value", err, 1e-12))

    p5 = FractionalParams(0.5, 0.0, grid_n)
    exact = gamma(3.0) / gamma(3.5)
    out = rl_integral(t2, p5, 0.5, 1.0)
    checks.append(("integral power law t^2", abs(out.value - exact) / exact, 1e-8))

    exact = gamma(2.0) / gamma(1.5)
    out = rl_derivative(t, p5, 1.0)
    checks.append(("derivative power law t", abs(out.value - exact) / exact, 1e-10))

    out = rl_integral(sin, p5, 0.5, 2.0)
    checks.append(("integral error budget sin", out.est_error, 1e-6))

    ident = f_lower(sin, FractionalParams(0.4, 0.0, grid_n), 1.5)
    ref = rl_integral(sin, FractionalParams(0.4, 0.0, grid_n), 0.6, 1.5)
    checks.append(("lowered-function identity", abs(ident.value - ref.value) / abs(ref.value), 1e-8))

    # composition round trips on a shared grid
    ts, h = _grid(0.0, 1.5, grid_n)
    al = 0.4
    inner = integral_on_grid(np.sin(ts), h, al)      # I^alpha sin at nodes
    outer = integral_on_grid(inner, h, 1.0 - al)     # I^(1-alpha) of that
    dval = (outer[-1] - outer[-3]) / (2.0 * h)       # d/dx at x - h
    err = abs(dval - math.sin(1.5 - h)) / abs(math.sin(1.5 - h))
    checks.append(("composition D I recovers f", err, 1e-4))

    fe = ts * np.exp(-ts)
    fpe = (1.0 - ts) * np.exp(-ts)
    u = integral_on_grid(fpe, h, 1.0 - al)           # D^alpha f at nodes
    back = integral_on_grid(u, h, al)                # I^alpha of that
    err = abs(float(back[-1]) - float(fe[-1])) / abs(float(fe[-1]))
    checks.append(("composition I D recovers f", err, 1e-5))

    d99 = rl_derivative(sin, FractionalParams(0.99, 0.0, grid_n), 1.0)
    d01 = rl_derivative(sin, FractionalParams(0.01, 0.0, grid_n), 1.0)
    err = max(abs(d99.value - math.cos(1.0)), abs(d01.value - math.sin(1.0)))
    checks.append(("order limits bracket f' and f", err, 0.02))

    mv = mean_value(t, p5, 1.0)
    checks.append(("mean value of t at 2/3", abs(mv.xi_sup - 2.0 / 3.0), 1e-9))

    argv = ["fracderiv", "--f", "t", "--alpha", "0.2:0.8:4", "--a", "0",
            "--x", "1", "--grid-n", "64", "--output", "csv"]
    first = _capture(argv)
    second = _capture(argv)
    checks.append(("deterministic CSV bytes", 0.0 if first == second else 1.0, 0.5))
    return checks


def _capture(argv: List[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    if code != 0:
        raise RuntimeError(f"internal command failed with exit {code}")
    return buf.getvalue()


def _selftest(grid_n: int) -> int:
    """Print one PASS or FAIL line per check; exit 3 when any check fails."""
    checks = _selftest_checks(grid_n)
    failures = [name for name, err, tol in checks if not err <= tol]
    lines = [f"selftest  grid_n={grid_n}"]
    for name, err, tol in checks:
        status = "PASS" if err <= tol else "FAIL"
        lines.append(f"  [{status}] {name:<32s} err={err:.3e} tol={tol:.3e}")
    lines.append(f"result: {len(checks) - len(failures)}/{len(checks)} passed")
    if failures:
        lines.append("failing: " + "; ".join(failures))
    sys.stdout.write("\n".join(lines) + "\n")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# argument wiring


def _finite(text: str) -> float:
    """argparse type of every real-valued flag: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _count(minimum: int, maximum: int):
    """argparse type of an integer-count flag: an int in [minimum, maximum]."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(f"must be an integer in [{minimum}, {maximum}], got {text!r}")
        return value

    return count


def _real(flag: str, default: Optional[float] = None, help: Optional[str] = None):
    """A real-valued flag, required unless it has a default."""
    return flag, dict(type=_finite, required=default is None, default=default, help=help)


def _scan(default: int, minimum: int = 1):
    """The --scan-n flag; a mean value needs 16 scan nodes, a critical point 4."""
    return "--scan-n", dict(type=_count(minimum, MAX_SCAN_N), default=default)


_A, _B, _X = _real("--a"), _real("--b"), _real("--x")
_NONZERO_BASE = "--allow-nonzero-base", dict(action="store_true")
_GRID_N = dict(type=_count(2, MAX_GRID_N), default=2048)


class _Command(NamedTuple):
    """One row of the command table."""

    handler: Callable[[Expression, List[float], argparse.Namespace], Report]
    help: str
    sweep: bool  # whether --alpha may be a sweep start:stop:count
    flags: Tuple[Tuple[str, dict], ...]  # the command's own flags, after the common ones
    preset: Optional[Tuple[str, str]] = None  # defaults of --f and --alpha, else both are required
    grid: bool = True  # takes --grid-n (the adaptive oracle of convexity has no grid)


_COMMANDS = {
    "fracint": _Command(_cmd_operator, "fractional integral I^alpha f(x)", True, (_A, _X)),
    "fracderiv": _Command(_cmd_operator, "fractional derivative D^alpha f(x)", True, (_A, _X, _NONZERO_BASE)),
    "meanvalue": _Command(_cmd_meanvalue, "fractional mean values over (a, x)", False, (_A, _X, _scan(128, 16))),
    "polyxi": _Command(_cmd_polyxi, "polynomial estimate of the mean value", False, (
        _A, _real("--delta"),
        ("--n", dict(type=_count(1, MAX_TAYLOR_N), required=True, help="Taylor truncation order")))),
    "critpoints": _Command(_cmd_critpoints, "roots of D^alpha f on (a, b]", True, (
        _A, _B, _scan(96, 4), _NONZERO_BASE)),
    "ralpha": _Command(_cmd_ralpha, "largest critical point near x0 as alpha varies", True, (
        _A, _B, _real("--x0", help="claimed stationary point"), _real("--eps", 0.5), _scan(96, 4))),
    "dilation": _Command(_cmd_dilation, "memory-kernel velocity table (preset: sin on [0, pi])", False, (
        _real("--a", 0.0), _real("--b", math.pi), _scan(25)), preset=("sin(t)", "0.5")),
    "convexity": _Command(_cmd_convexity, "convexity vs sliding-window order", False, (
        _A, _B, _real("--delta"), ("--pairs", dict(type=_count(1, MAX_PAIRS), default=32)),
        ("--seed", dict(type=_count(0, 2**32 - 1), default=0, help="seed of the window-pair sample")),
        _scan(96, 16)), grid=False),
    "mono": _Command(_cmd_mono, "tau-step monotonicity certificate on [0, b]", False, (_B, _real("--tau"))),
    "periodic": _Command(_cmd_periodic, "periodicity defect of D^alpha f", False, (
        _real("--a", 0.0, "start of the sampled t range"), _real("--b", help="end of the sampled t range"),
        _real("--tau", help="claimed period"), _scan(17))),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> Tuple[_Parser, Dict[str, _Parser]]:
    """The top-level parser and each command's own parser by name, built
    once per process: parsing leaves them unchanged."""
    top = _Parser(prog="fraccalc", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    parsers = {}
    dash = "; write --f=EXPR when EXPR starts with '-'"
    for name, cmd in _COMMANDS.items():
        sp = parsers[name] = sub.add_parser(name, help=cmd.help)
        f_default, alpha_default = cmd.preset or (None, None)
        f_help = "expression in t, e.g. 'sin(t)'" if f_default is None else f"expression in t (default {f_default!r})"
        sp.add_argument("--f", required=f_default is None, default=f_default, help=f_help + dash)
        sp.add_argument("--alpha", required=alpha_default is None, default=alpha_default,
                        help="order in (0,1) or sweep start:stop:count")
        if cmd.grid:
            sp.add_argument("--grid-n", **_GRID_N)
        sp.add_argument("--output", choices=("table", "csv"), default="table")
        for flag, kwargs in cmd.flags:
            sp.add_argument(flag, **kwargs)
    sp = parsers["selftest"] = sub.add_parser("selftest", help="closed-form and identity suite")
    sp.add_argument("--grid-n", **_GRID_N)
    return top, parsers


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The flags of ``argv`` as the top-level parser gives them, in one pass:
    a known command's flags go to that command's parser alone (the top-level
    parser hands it every token after the command anyway, after a pass of
    its own), and any other argv (none, ``--help``, an unknown command) to
    the top-level parser."""
    top, parsers = _build_parser()
    if argv and argv[0] in parsers:
        return parsers[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return top.parse_args(argv)


def run(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code instead of raising.
    ``argv`` (default ``sys.argv[1:]``) is parsed by ``_parse_args``: a
    command's argv by that command's parser alone."""
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings(record=True) as caught:
            if args.command == "selftest":
                code = _selftest(args.grid_n)
            else:
                cmd = _COMMANDS[args.command]
                f = parse(args.f)
                code = _emit(cmd.handler(f, _alpha_list(args.alpha, sweep_ok=cmd.sweep), args), args)
    except (_UsageError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FracCalcError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    for w in caught:  # one line each, and none from a run that failed
        print(f"warning: {w.message}", file=sys.stderr)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
