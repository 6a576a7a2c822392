import io
import math
import sys
import warnings
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraccalc import FractionalParams
from fraccalc.cli import MAX_GRID_N, MAX_PAIRS, MAX_SCAN_N, MAX_SWEEP, MAX_TAYLOR_N, run
from fraccalc.expr import BinOp, Expression, Num, Var
from test_expr import _grow, _leaves


def capture(argv):
    buf = io.StringIO()
    err = io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = buf, err
    try:
        code = run(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, buf.getvalue(), err.getvalue()


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def test_fracderiv_linear_value():
    code, out, _ = capture(["fracderiv", "--f", "t", "--alpha", "0.5",
                            "--a", "0", "--x", "1", "--output", "csv"])
    assert code == 0
    header, rows = csv_rows(out)
    value = float(rows[0][header.index("value")])
    assert value == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-10)


def test_meanvalue_two_thirds():
    code, out, _ = capture(["meanvalue", "--f", "t", "--alpha", "0.5",
                            "--a", "0", "--x", "1", "--output", "csv"])
    assert code == 0
    header, rows = csv_rows(out)
    xi = float(rows[0][header.index("xi")])
    assert xi == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert rows[0][header.index("is_sup")] == "true"


def test_assumption_violation_exit_code_and_message():
    code, out, err = capture(["fracderiv", "--f", "t+1", "--alpha", "0.5",
                              "--a", "0", "--x", "1"])
    assert code == 2
    assert "f(a) must be 0" in err


def test_bad_expression_exit_code():
    code, _, err = capture(["fracint", "--f", "t^(", "--alpha", "0.5",
                            "--a", "0", "--x", "1"])
    assert code == 1
    assert "offset" in err

@pytest.mark.parametrize("argv, remedy", [
    (["fracderiv", "--f", "t+1", "--alpha", "0.5", "--a", "0", "--x", "1"], True),
    (["critpoints", "--f", "t+1", "--alpha", "0.5", "--a", "0", "--b", "2"], True),
    (["dilation", "--f", "cos(t)"], False),
    (["ralpha", "--f", "0.5-(t-1)^2", "--alpha", "0.5", "--a", "0", "--b", "1.5", "--x0", "1", "--eps", "0.2"], False),
], ids=["fracderiv", "critpoints", "dilation", "ralpha"])
def test_a_nonzero_base_names_the_flag_only_where_the_command_has_it(argv, remedy):
    code, out, err = capture(argv)
    assert code == 2 and out == ""
    assert err.startswith("computation error: f(a) must be 0 for this operation")
    assert ("--allow-nonzero-base" in err) is remedy and len(err.splitlines()) == 1



def test_missing_flags_exit_code():
    code, _, err = capture(["fracint", "--f", "t"])
    assert code == 1


def test_bad_alpha_value_exit_code():
    code, _, err = capture(["fracint", "--f", "t", "--alpha", "1.5",
                            "--a", "0", "--x", "1"])
    assert code == 1


def test_unknown_command_exit_code():
    code, _, _ = capture(["frobnicate"])
    assert code == 1


def test_help_exits_zero():
    code, out, _ = capture(["--help"])
    assert code == 0


def test_alpha_sweep_expansion_and_clipping():
    code, out, _ = capture(["fracint", "--f", "t", "--alpha", "0:1:5",
                            "--a", "0", "--x", "1", "--grid-n", "64", "--output", "csv"])
    assert code == 0
    header, rows = csv_rows(out)
    alphas = [float(r[header.index("alpha")]) for r in rows]
    assert len(alphas) == 5
    assert alphas[0] == 0.01 and alphas[-1] == 0.99  # clipped, inclusive
    # closed form I^al t(1) = 1/Gamma(2+al) per row
    for r in rows:
        al, value = float(r[0]), float(r[2])
        assert value == pytest.approx(1.0 / math.gamma(2.0 + al), rel=1e-10)


def test_sweep_rejected_for_single_alpha_commands():
    code, _, err = capture(["meanvalue", "--f", "t", "--alpha", "0.1:0.9:3",
                            "--a", "0", "--x", "1"])
    assert code == 1
    assert "single" in err


def test_csv_round_trip_is_bit_exact():
    code, out, _ = capture(["fracderiv", "--f", "sin(t)", "--alpha", "0.37",
                            "--a", "0", "--x", "1.234", "--grid-n", "256",
                            "--output", "csv"])
    assert code == 0
    header, rows = csv_rows(out)
    from fraccalc import FractionalParams, parse, rl_derivative

    expected = rl_derivative(parse("sin(t)"), FractionalParams(0.37, 0.0, 256), 1.234)
    assert float(rows[0][header.index("value")]) == expected.value  # bit-for-bit
    assert float(rows[0][header.index("est_error")]) == expected.est_error


def test_deterministic_output_bytes():
    argv = ["convexity", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--b", "4",
            "--delta", "0.5", "--seed", "7", "--pairs", "6",
            "--scan-n", "48", "--output", "csv"]
    code1, out1, _ = capture(argv)
    code2, out2, _ = capture(argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_csv_has_config_echo_comments():
    code, out, _ = capture(["fracint", "--f", "t", "--alpha", "0.5",
                            "--a", "0", "--x", "1", "--grid-n", "64", "--output", "csv"])
    assert code == 0
    comments = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert any("config" in c and "grid_n=64" in c for c in comments)
    assert any("est_error_max" in c for c in comments)


def test_dilation_preset_runs_without_flags():
    code, out, _ = capture(["dilation", "--output", "csv"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["t", "V"]
    assert len(rows) == 25
    comments = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert any("zero_time" in c for c in comments)
    assert any("xi" in c for c in comments)


def test_critpoints_sweep():
    code, out, _ = capture(["critpoints", "--f", "sin(t)", "--alpha", "0.3:0.7:3",
                            "--a", "0", "--b", repr(math.pi), "--grid-n", "256",
                            "--scan-n", "48", "--output", "csv"])
    assert code == 0
    header, rows = csv_rows(out)
    assert len(rows) == 3
    roots = [float(r[header.index("root")]) for r in rows]
    assert all(0.0 < r < math.pi for r in roots)


def test_ralpha_command():
    code, out, _ = capture(["ralpha", "--f", "sin(t)", "--alpha", "0.01:0.99:5",
                            "--a", "0", "--b", repr(1.5 * math.pi),
                            "--x0", repr(math.pi / 2.0), "--eps", "0.5",
                            "--grid-n", "256", "--scan-n", "48", "--output", "csv"])
    assert code == 0
    header, rows = csv_rows(out)
    assert len(rows) == 5
    assert rows[0][header.index("r_alpha")] == ""  # empty marker, not interpolated
    assert float(rows[-1][header.index("r_alpha")]) == pytest.approx(math.pi / 2, abs=0.05)


def test_ralpha_refuses_a_single_order_outside_0_1():
    # r_alpha_curve clamps its orders into [0.01, 0.99]; the CLI refuses 1.5
    # with the message of FractionalParams instead of running it as 0.99
    with pytest.raises(ValueError) as refused:
        FractionalParams(1.5, 0.0)
    code, out, err = capture(["ralpha", "--f", "sin(t)", "--alpha", "1.5", "--a", "0", "--b", "4.7", "--x0", "1.57"])
    assert code == 1 and out == "" and str(refused.value) in err


def test_mono_command():
    code, out, _ = capture(["mono", "--f", "t", "--alpha", "0.5", "--tau", "0.1",
                            "--b", "1", "--grid-n", "512", "--output", "csv"])
    assert code == 0
    assert "reconstruction_error" in out


def test_periodic_command():
    code, out, _ = capture(["periodic", "--f", "sin(t)", "--alpha", "0.5",
                            "--tau", repr(2 * math.pi), "--a", repr(2 * math.pi),
                            "--b", repr(6 * math.pi), "--scan-n", "5",
                            "--grid-n", "512", "--output", "csv"])
    assert code == 0
    header, rows = csv_rows(out)
    assert header == ["t", "defect"]
    assert len(rows) == 5


def test_periodic_rows_are_one_defect_per_point():
    # the five points agree to 6 significant digits; each row still has its own defect
    code, out, _ = capture(["periodic", "--f", "sin(t)", "--alpha", "0.5", "--a", "10",
                            "--b", "10.00001", "--tau", "6.283185307179586", "--scan-n", "5",
                            "--grid-n", "256", "--output", "csv"])
    assert code == 0
    _, rows = csv_rows(out)
    defects = [float(d) for _, d in rows]
    assert len(rows) == 5 and len(set(defects)) == 5
    (max_defect,) = [ln.split()[-1] for ln in out.splitlines() if ln.startswith("# max_defect ")]
    assert max(defects) == float(max_defect)


def test_leading_minus_expression_is_passed_with_equals():
    # argparse reads a separate "-t^2" as an option; "--f=-t^2" is a value
    common = ["fracderiv", "--alpha", "0.5", "--a", "0", "--x", "1", "--output", "csv"]
    code_pos, out_pos, _ = capture(common + ["--f", "t^2"])
    code_neg, out_neg, _ = capture(common + ["--f=-t^2"])
    assert code_pos == code_neg == 0
    (pos,), (neg,) = csv_rows(out_pos)[1], csv_rows(out_neg)[1]
    assert float(neg[2]) == -float(pos[2]) and neg[3] == pos[3]
    code, out, err = capture(common + ["--f", "-t^2"])
    assert code == 1 and out == "" and "expected one argument" in err
    code, out, _ = capture(["fracderiv", "--help"])
    assert code == 0 and "--f=EXPR" in out


def test_critpoints_without_roots_says_so():
    # D^alpha t^2 is positive on (0, 1]
    code, out, _ = capture(["critpoints", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--b", "1",
                            "--output", "csv"])
    assert code == 0
    assert csv_rows(out) == (["alpha", "root", "residual"], [])
    assert "# alpha=0.5: no critical points in (a, b]" in out.splitlines()


def test_mono_not_applicable_reports_its_note_and_witness():
    code, out, _ = capture(["mono", "--f", "sin(t)", "--alpha", "0.5", "--b", "6", "--tau", "0.5",
                            "--output", "csv"])
    assert code == 0
    assert csv_rows(out)[1][0] == ["holds", "not_applicable"]
    comments = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert comments[0] == "# not applicable: D^alpha f(x + tau) - D^alpha f(x) is negative on the grid"
    assert comments[1].startswith("# witness x=(") and " margin -" in comments[1]


@pytest.mark.parametrize("flags, want", [
    (["--b", "1e6", "--tau", "1e-3", "--grid-n", "64"], 1),  # tau under (b - tau)/(2*grid_n)
    (["--b", "2", "--tau", "1e-300"], 1),
    (["--b", "1", "--tau", "0.9999999", "--grid-n", "64"], 1),  # b - tau under one step tau/grid_n
    (["--b", "1", "--tau", "0.5", "--grid-n", "2"], 0),
])
def test_mono_refuses_a_tau_without_an_aligned_grid(flags, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = capture(["mono", "--f", "t^2+0.5*t", "--alpha", "0.4", "--output", "csv"] + flags)
    assert code == want
    if want:
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: ") and "--tau" in err and "--grid-n" in err
    else:
        assert err == "" and csv_rows(out)[1][0] == ["holds", "true"]


def test_convexity_of_a_concave_function_reports_witness_windows():
    code, out, _ = capture(["convexity", "--f=1.5*t-0.6*t^2", "--alpha", "0.5", "--a", "0", "--b", "2",
                            "--delta", "0.5", "--pairs", "4", "--output", "csv"])
    assert code == 0
    rows = dict((r[0], r[1]) for r in csv_rows(out)[1])
    assert rows["convex_sampled"] == rows["delta_increasing"] == rows["fprime_xi_monotone"] == "false"
    witnesses = [ln for ln in out.splitlines() if ln.startswith("# witness windows (")]
    assert len(witnesses) == 8 and all(" margin " in ln for ln in witnesses)


@pytest.mark.parametrize("argv, message", [
    (["--alpha", "0.1:0.9"], "alpha sweep must be start:stop:count"),
    (["--alpha", "a:b:3"], "bad alpha sweep 'a:b:3'"),
    (["--alpha", "x"], "bad alpha value 'x'"),
    (["--alpha", "0.5", "--x", "abc"], "argument --x: invalid float value: 'abc'"),
])
def test_malformed_numbers_are_usage_errors(argv, message):
    code, out, err = capture(["fracint", "--f", "t", "--a", "0", "--x", "1"] + argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_polyxi_command():
    code, out, _ = capture(["polyxi", "--f", "t", "--alpha", "0.5", "--a", "0",
                            "--delta", "1", "--n", "1", "--output", "csv"])
    assert code == 0
    header, rows = csv_rows(out)
    roots = [float(r[2]) for r in rows if r[0] == "root"]
    assert roots and roots[0] == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_selftest_passes_clean():
    code, out, _ = capture(["selftest"])
    assert code == 0
    assert "result:" in out


def test_selftest_fails_on_coarse_grid():
    code, out, _ = capture(["selftest", "--grid-n", "8"])
    assert code == 3
    assert "FAIL" in out


def test_parser_reuse_matches_fresh_parser():
    # the parser is built once per process; a usage error in between must not
    # leave state behind that changes later runs
    import fraccalc.cli as cli

    argvs = [
        ["fracderiv", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "1", "--output", "csv"],
        ["fracint", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--x", "1"],
        ["fracint", "--f", "t^2", "--alpha", "0.5", "--x", "1"],  # usage error: no --a
        ["critpoints", "--f", "sin(t)", "--alpha", "0.3:0.7:2", "--a", "0", "--b", "3.2",
         "--grid-n", "256", "--output", "csv"],
        ["nosuchcommand"],
        ["meanvalue", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "1", "--scan-n", "32"],
    ]
    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(capture(argv))
    in_a_row = [capture(argv) for argv in argvs]
    assert [c for c, _, _ in alone] == [0, 0, 1, 0, 1, 0]
    assert [(c, out) for c, out, _ in in_a_row] == [(c, out) for c, out, _ in alone]
    assert cli._build_parser() is cli._build_parser()


def test_readme_and_help_name_exactly_the_commands():
    import os
    import re

    import fraccalc.cli as cli

    commands = set(cli._COMMANDS) | {"selftest"}
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        listed = fh.read().split("\nCommands: ", 1)[1].split(".", 1)[0]
    assert set(re.findall(r"`(\w+)`", listed)) == commands
    code, out, _ = capture(["--help"])
    choices = re.findall(r"\{([\w,]+)\}", out)
    assert code == 0 and choices and all(set(c.split(",")) == commands for c in choices)


def test_cli_import_leaves_scipy_integrate_and_optimize_unloaded():
    import os
    import subprocess

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fraccalc.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_dead_flags_are_rejected():
    # --seed belongs to convexity; elsewhere it did nothing, and neither did
    # --grid-n on convexity, whose oracle has no grid; no command takes --tol
    convexity = ["convexity", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--b", "4", "--delta", "0.5"]
    fracint = ["fracint", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "1"]
    for argv in (fracint + ["--tol", "1e-3"], fracint + ["--seed", "3"], convexity + ["--grid-n", "64"],
                 ["selftest", "--tol", "1e-3"]):
        code, out, err = capture(argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and "unrecognized arguments" in err
    code, out, _ = capture(convexity + ["--seed", "7", "--pairs", "4", "--output", "csv"])
    assert code == 0
    config = [ln for ln in out.splitlines() if ln.startswith("# config")][0]
    assert "seed=7" in config and "tol=" not in config and "grid_n=" not in config


@pytest.mark.parametrize("argv", [
    ["fracint", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "inf"],
    ["fracderiv", "--f", "t", "--alpha", "0.5", "--a", "nan", "--x", "1"],
    ["critpoints", "--f", "t", "--alpha", "0.5", "--a", "0", "--b", "inf"],
    ["mono", "--f", "t", "--alpha", "0.5", "--tau", "0.1", "--b", "inf"],
    ["ralpha", "--f", "t", "--alpha", "0.5", "--a", "0", "--b", "2", "--x0", "1", "--eps=-inf"],
    ["polyxi", "--f", "t", "--alpha", "0.5", "--a", "0", "--delta", "nan", "--n", "1"],
    ["periodic", "--f", "sin(t)", "--alpha", "0.5", "--b", "12", "--tau", "inf"],
    ["periodic", "--f", "sin(t)", "--alpha", "0.5", "--b", "12", "--tau", "0"],
    ["fracint", "--f", "t", "--alpha", "0.1:inf:3", "--a", "0", "--x", "1"],
])
def test_nonfinite_numbers_and_nonpositive_period_are_usage_errors(argv):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = capture(argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert ("must be finite" in err) or ("period tau must be > 0" in err)


@pytest.mark.parametrize("argv, flag", [
    (["periodic", "--f", "sin(t)", "--alpha", "0.5", "--b", "12", "--tau", "6.283185307179586",
      "--scan-n", "0"], "--scan-n"),
    (["periodic", "--f", "sin(t)", "--alpha", "0.5", "--b", "12", "--tau", "6.283185307179586",
      "--grid-n", "0"], "--grid-n"),
    (["mono", "--f", "t^2", "--alpha", "0.5", "--b", "2", "--tau", "0.5", "--grid-n", "0"], "--grid-n"),
    (["mono", "--f", "t^2", "--alpha", "0.5", "--b", "2", "--tau", "0.5", "--grid-n", "-5"], "--grid-n"),
    (["convexity", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--b", "4", "--delta", "0.5",
      "--pairs", "0"], "--pairs"),
    (["convexity", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--b", "4", "--delta", "0.5",
      "--pairs", "-2"], "--pairs"),
    (["dilation", "--scan-n", "0"], "--scan-n"),
    # a mean value needs 16 scan nodes and a critical point 4
    (["meanvalue", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "1", "--scan-n", "15"], "--scan-n"),
    (["convexity", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--b", "4", "--delta", "0.5",
      "--scan-n", "15"], "--scan-n"),
    (["critpoints", "--f", "sin(t)", "--alpha", "0.5", "--a", "0", "--b", "3", "--scan-n", "3"], "--scan-n"),
    (["ralpha", "--f", "sin(t)", "--alpha", "0.5", "--a", "0", "--b", "4.7", "--x0", "1.57",
      "--scan-n", "3"], "--scan-n"),
    (["convexity", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--b", "4", "--delta", "0.5",
      "--seed=-1"], "--seed"),
    (["polyxi", "--f", "t", "--alpha", "0.5", "--a", "0", "--delta", "0.5", "--n", "0"], "--n"),
    (["fracint", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "1", "--grid-n", "1"], "--grid-n"),
    (["selftest", "--grid-n", "1.5"], "--grid-n"),
])
def test_bad_counts_are_usage_errors(argv, flag):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = capture(argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert f"argument {flag}:" in err and "Traceback" not in err


_COMMANDS = {
    "fracint": ["fracint", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "1"],
    "fracderiv": ["fracderiv", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "1"],
    "meanvalue": ["meanvalue", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "1"],
    "polyxi": ["polyxi", "--f", "t", "--alpha", "0.5", "--a", "0", "--delta", "0.5", "--n", "1"],
    "critpoints": ["critpoints", "--f", "sin(t)", "--alpha", "0.5", "--a", "0", "--b", "3"],
    "ralpha": ["ralpha", "--f", "sin(t)", "--alpha", "0.5", "--a", "0", "--b", "4.7", "--x0", "1.57"],
    "dilation": ["dilation"],
    "convexity": ["convexity", "--f", "t^2", "--alpha", "0.5", "--a", "0", "--b", "4", "--delta", "0.5"],
    "mono": ["mono", "--f", "t^2", "--alpha", "0.5", "--b", "2", "--tau", "0.5"],
    "periodic": ["periodic", "--f", "sin(t)", "--alpha", "0.5", "--b", "12", "--tau", "6.283185307179586"],
    "selftest": ["selftest"],
}


# convexity takes no --grid-n: its case exits 1 as an unrecognized argument
@pytest.mark.parametrize("argv, flag", [
    (argv + ["--grid-n", str(MAX_GRID_N + 1)], "--grid-n") for argv in _COMMANDS.values()
] + [
    (_COMMANDS[cmd] + ["--scan-n", str(MAX_SCAN_N + 1)], "--scan-n")
    for cmd in ("meanvalue", "critpoints", "ralpha", "dilation", "convexity", "periodic")
] + [
    (_COMMANDS["convexity"] + ["--pairs", str(MAX_PAIRS + 1)], "--pairs"),
    (_COMMANDS["polyxi"] + ["--n", str(MAX_TAYLOR_N + 1)], "--n"),
] + [
    (_COMMANDS[cmd][:4] + [f"0.1:0.9:{MAX_SWEEP + 1}"] + _COMMANDS[cmd][5:], "--alpha")
    for cmd in ("fracint", "fracderiv", "critpoints", "ralpha")
])
def test_counts_above_their_caps_are_usage_errors(argv, flag):
    code, out, err = capture(argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and flag in err and "Traceback" not in err


def test_count_caps_are_inclusive():
    from fraccalc.cli import _count

    assert _count(2, MAX_GRID_N)(str(MAX_GRID_N)) == MAX_GRID_N
    code, out, _ = capture(["polyxi", "--f", "exp(3*t)", "--alpha", "0.5", "--a", "0", "--delta", "2",
                            "--n", str(MAX_TAYLOR_N), "--output", "csv"])
    assert code == 0 and "nan" not in out and "inf" not in out


def test_polyxi_weight_overflow_exits_2_with_one_line():
    # at --n 64 the remainder's I^65.5 weights need m^66.5, past a float for m > 42,700
    # (65536 panels here: the same failure as at the --grid-n cap, at 1/16 the cost)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = capture(["polyxi", "--f", "sin(t)", "--alpha", "0.5", "--a", "0", "--delta", "1",
                                  "--n", str(MAX_TAYLOR_N), "--grid-n", "65536", "--output", "csv"])
    assert code == 2 and out == ""
    assert err.startswith("computation error:") and len(err.splitlines()) == 1
    assert "mu=65.5" in err and "n=65536" in err


def test_polyxi_float_overflow_exits_2_with_one_line():
    # delta^(j+1-alpha) passes a float's range at j = 31
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = capture(["polyxi", "--f", "t", "--alpha", "0.5", "--a", "0", "--delta", "1e10",
                                  "--n", str(MAX_TAYLOR_N), "--grid-n", "8", "--output", "csv"])
    assert code == 2 and out == ""
    assert err.startswith("computation error:") and len(err.splitlines()) == 1
    assert "overflows a float" in err


def test_polyxi_series_term_overflow_exits_2_with_one_line():
    # f'(0) * delta^1.5 = 1e315 overflows the float product of a finite power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = capture(["polyxi", "--f", "1e300*t", "--alpha", "0.5", "--a", "0", "--delta", "1e10",
                                  "--n", "1", "--grid-n", "8", "--output", "csv"])
    assert code == 2 and out == ""
    assert err.startswith("computation error:") and len(err.splitlines()) == 1
    assert "mean-value polynomial overflows a float" in err


@pytest.mark.parametrize("argv", [
    ["mono", "--f", "1e307*t^2", "--alpha", "0.5", "--b", "1.5", "--tau", "0.5"],  # FFT sweep
    ["critpoints", "--f", "1e307*t^2-1e307*t", "--alpha", "0.5", "--a", "0", "--b", "1.5"],  # strided scan sums
    ["fracderiv", "--f", "1e307*t^2-1e307*t", "--alpha", "0.5", "--a", "0", "--x", "1"],  # one grid sum
])
def test_grid_sum_overflow_exits_2_with_one_line(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = capture(argv + ["--output", "csv"])
    assert code == 2 and out == ""
    assert err.startswith("computation error: product-trapezoid sum") and len(err.splitlines()) == 1
    assert "overflow" in err


@pytest.mark.parametrize("argv, codes", [
    (["critpoints", "--f", "sin(t)", "--alpha", "0.5", "--a", "0", "--b", "1e308", "--grid-n", "8"], {0, 2}),
    (["ralpha", "--f", "sin(t)", "--alpha", "0.5", "--a", "0", "--b", "1e308", "--x0", "1.57",
      "--grid-n", "8", "--scan-n", "4"], {0, 2}),
    (["ralpha", "--f", "sin(t)", "--alpha", "0.5", "--a=-1e308", "--b", "1e308", "--x0", "1.57",
      "--grid-n", "8", "--scan-n", "4"], {0, 2}),
    (["dilation", "--b", "1e308"], {0, 2}),
    (["fracint", "--f", "t", "--alpha", "0.5", "--a=-1e308", "--x", "1e308"], {0, 2}),
    (["convexity", "--f", "t^2", "--alpha", "0.5", "--a=-1e308", "--b", "1e308", "--delta", "1e307",
      "--pairs", "1"], {0, 2}),
    (["fracint", "--f", "t", "--alpha=-1e308:1e308:3", "--a", "0", "--x", "1"], {1}),
    # a subnormal span: (x - a)^(alpha - 1) of the mean-value level overflows
    (["meanvalue", "--f", "t", "--alpha", "0.03125", "--a", "0", "--x", "5e-324", "--grid-n", "2"], {2}),
])
def test_intervals_near_the_float_range_leak_no_overflow(argv, codes):
    # spans and steps near 1e308: a grid wider than a float is one clean error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = capture(argv + ["--output", "csv"])
    assert code in codes
    assert len(err.splitlines()) <= 1 and "Traceback" not in err


def test_fracderiv_fractional_power_at_zero_base():
    code, out, err = capture(["fracderiv", "--f", "t^1.5", "--alpha", "0.5", "--a", "0", "--x", "1",
                              "--output", "csv"])
    assert code == 0 and err == ""
    header, rows = csv_rows(out)
    value = float(rows[0][header.index("value")])
    assert value == pytest.approx(math.gamma(2.5) / math.gamma(2.0), rel=1e-8)
    code, out, err = capture(["fracderiv", "--f", "t^0.5", "--alpha", "0.5", "--a", "0", "--x", "1"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "unbounded derivative at zero base" in err


def test_mono_on_a_large_grid_is_fast():
    import time

    start = time.perf_counter()
    code, out, _ = capture(["mono", "--f", "t^2+0.5*t", "--alpha", "0.4", "--b", "3", "--tau", "0.4",
                            "--grid-n", "131072", "--output", "csv"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert csv_rows(out)[1][0] == ["holds", "true"]
    assert elapsed < 2.0


# --- every command on random input fails cleanly ------------------------------


class _Flag(NamedTuple):
    usual: st.SearchStrategy
    edges: list


def _value(draw, flag, edgy):
    # in an example that takes edge values, an edge one time in four: the
    # branch is an index drawn first, as st.one_of(usual, usual, usual,
    # edges) picks the edges about half the time; index 0, the simplest
    # choice, is a usual value
    if edgy and draw(st.integers(0, 3)) == 3:
        return draw(st.sampled_from(flag.edges))
    return draw(flag.usual)


# a real flag's usual value comes from the example's interval [a, a + span]
# (see _WITHIN); in an example with edges, one time in four every real flag
# is any finite float instead, so intervals may be reversed or huge
_REAL = _Flag(st.floats(-10.0, 10.0) | st.floats(allow_nan=False, allow_infinity=False),
              [0.0, 1.0, -1.0, 1e-300, -1e-300, 1e308, -1e308, 1.7e308])


def _count_flag(minimum, cap, largest_drawn):
    # a small valid count, or the minimum, one below it or one above the cap
    return _Flag(st.integers(minimum, largest_drawn), [minimum, minimum - 1, cap + 1])


_GRID = _count_flag(2, MAX_GRID_N, 64)
# scans of more than 64 nodes read them in several phases; a scan takes from
# 4 nodes in critpoints and ralpha and from 16 in meanvalue and convexity
_SCAN, _SCAN_4, _SCAN_16 = (_count_flag(minimum, MAX_SCAN_N, 256) for minimum in (1, 4, 16))
_FLAGS = {
    "fracint": {"--a": _REAL, "--x": _REAL, "--grid-n": _GRID},
    "fracderiv": {"--a": _REAL, "--x": _REAL, "--grid-n": _GRID},
    "meanvalue": {"--a": _REAL, "--x": _REAL, "--scan-n": _SCAN_16, "--grid-n": _GRID},
    "polyxi": {"--a": _REAL, "--delta": _REAL, "--n": _count_flag(1, MAX_TAYLOR_N, MAX_TAYLOR_N), "--grid-n": _GRID},
    "critpoints": {"--a": _REAL, "--b": _REAL, "--scan-n": _SCAN_4, "--grid-n": _GRID},
    "ralpha": {"--a": _REAL, "--b": _REAL, "--x0": _REAL, "--eps": _REAL, "--scan-n": _SCAN_4, "--grid-n": _GRID},
    "dilation": {"--a": _REAL, "--b": _REAL, "--scan-n": _SCAN, "--grid-n": _GRID},
    "convexity": {"--a": _REAL, "--b": _REAL, "--delta": _REAL, "--pairs": _count_flag(1, MAX_PAIRS, 4),
                  "--seed": _Flag(st.integers(0, 3), [-1, 2**32]), "--scan-n": _SCAN_16},
    "mono": {"--b": _REAL, "--tau": _REAL, "--grid-n": _GRID},
    "periodic": {"--a": _REAL, "--b": _REAL, "--tau": _REAL, "--scan-n": _SCAN, "--grid-n": _GRID},
}
# each real flag's usual value from a, span and a fraction u in [0.1, 0.9]:
# x0 in its left half, eps and tau shorter than the interval, and a delta that
# leaves room for convexity's two disjoint windows
_WITHIN = {
    "--a": lambda a, span, u: a,
    "--b": lambda a, span, u: a + span,
    "--x": lambda a, span, u: a + span,
    "--x0": lambda a, span, u: a + 0.5 * u * span,
    "--eps": lambda a, span, u: u * span,
    "--tau": lambda a, span, u: u * span,
    "--delta": lambda a, span, u: 0.45 * u * span,
}
_SWEEPS = ("fracint", "fracderiv", "critpoints", "ralpha")
_ORDER = _Flag(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
               [0.0, 1.0, -1.0, 5e-324, 1e-300, 0.9999999999999999, 1e308, 1.7e308])
_SWEEP_COUNT = _count_flag(1, MAX_SWEEP, 5)
_EXPRESSION = st.recursive(_leaves | st.sampled_from([Num(0.0), Num(1e300)]), _grow, max_leaves=6)


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    edgy = draw(st.booleans())  # whether any flag may take an edge value
    # half of the intervals start at 0
    a = 0.0 if "--a" not in _FLAGS[command] or draw(st.booleans()) else draw(st.floats(-10.0, 10.0))
    span = draw(st.floats(1e-3, 10.0))
    wild = edgy and draw(st.integers(0, 3)) == 3
    flags = {}
    for flag, values in _FLAGS[command].items():
        if values is _REAL and not wild:
            values = _Flag(st.floats(0.1, 0.9).map(lambda u, within=_WITHIN[flag]: within(a, span, u)), _REAL.edges)
        flags[flag] = _value(draw, values, edgy)
    base = flags.get("--a", 0.0)
    root = draw(_EXPRESSION)
    if command == "ralpha" and draw(st.integers(0, 3)) < 3:
        # times t - a below, a parabola with one stationary point, x0, and one root
        root = BinOp("-", Var(), Num(2.0 * flags["--x0"] - base))
    if command != "periodic" and draw(st.integers(0, 3)) < 3:  # three in four vanish at the base
        root = BinOp("*", BinOp("-", Var(), Num(base)), root)
    source = Expression(root).pretty()
    argv = [command] + ([f"--f={source}"] if source.startswith("-") else ["--f", source])
    if command in _SWEEPS and draw(st.booleans()):
        start, stop, count = (_value(draw, flag, edgy) for flag in (_ORDER, _ORDER, _SWEEP_COUNT))
        argv.append(f"--alpha={start!r}:{stop!r}:{count}")
    else:
        argv.append(f"--alpha={_value(draw, _ORDER, edgy)!r}")
    argv += [f"{flag}={value!r}" for flag, value in flags.items()]
    if command in ("fracderiv", "critpoints") and draw(st.booleans()):
        argv.append("--allow-nonzero-base")  # a nonzero f(a) then warns, on one line
    return argv + ["--output", "csv"]


# the usual flags of the edge examples: f = t*(t - 2) on [0, 2] vanishes at
# the base and has one stationary point, x0 = 1, and one root, b
_PLAIN = {"--alpha": 0.5, "--a": 0.0, "--b": 2.0, "--x": 2.0, "--x0": 1.0, "--eps": 0.5, "--tau": 0.5,
          "--delta": 0.5, "--grid-n": 16, "--scan-n": 16, "--n": 4, "--pairs": 2, "--seed": 0}


def _edge_examples(test):
    # every edge value of every flag once, however the random examples fall:
    # in the first command that takes the flag with that edge, its other
    # flags plain
    done = set()
    for command, flags in _FLAGS.items():
        counts = _SWEEP_COUNT.edges if command in _SWEEPS else []
        edges = {"--alpha": [repr(a) for a in _ORDER.edges] + [f"0.2:0.8:{n}" for n in counts]}
        edges |= {flag: [repr(v) for v in values.edges] for flag, values in flags.items()}
        for flag, edge in [(flag, edge) for flag in edges for edge in edges[flag] if (flag, edge) not in done]:
            plain = {k: repr(_PLAIN[k]) for k in edges} | {flag: edge}
            test = example([command, "--f", "t*(t - 2.0)"] + [f"{k}={v}" for k, v in plain.items()])(test)
            done.add((flag, edge))
    return test


@settings(max_examples=500, deadline=5000, derandomize=True, database=None)
@given(_cli_argv())
@example(["meanvalue", "--f", "t", "--alpha", "0.5", "--a", "0", "--x", "1", "--scan-n", "8"])  # argparse refuses it
@_edge_examples
def test_every_command_fails_cleanly_on_random_input(argv):
    # exit 0, 1 or 2 with at most one line on stderr, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = capture(argv)
    assert code in (0, 1, 2)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err
