import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraccalc.expr as expr_module
from fraccalc import (
    DomainError,
    FracCalcError,
    ParseError,
    UnknownIdentifierError,
    convexity_equivalence,
    derivative_values,
    derivatives,
    parse,
    sample_window_pairs,
)
from fraccalc.expr import MAX_ORDER, BinOp, Call, Const, Expression, Neg, Num, Var


def test_identity_expression():
    e = parse("t")
    assert e.eval(3.7) == 3.7


def test_the_value_of_t_is_a_fresh_array_and_a_scalar_at_a_0d_t():
    # like every other expression: writing into the result leaves the input
    # alone, and a 0-d t gives a numpy scalar
    y = np.linspace(0.0, 1.0, 5)
    for source in ("t", "t^1", "(t)"):
        e = parse(source)
        out = e.eval(y)
        assert out is not y and not np.shares_memory(out, y) and out.tobytes() == y.tobytes()
        for sample in (e.eval(np.array(0.5)), derivative_values(e, np.array(0.5), 0)):
            assert type(sample) is type(parse("t+1").eval(np.array(0.5))) is np.float64 and sample == 0.5


def test_pythagorean_identity():
    e = parse("sin(t)^2 + cos(t)^2")
    assert abs(e.eval(0.3) - 1.0) < 5e-16


def test_root_by_construction():
    e = parse("t*(pi - t)")
    assert e.eval(math.pi) == 0.0


def test_eval_simple_powers():
    assert parse("t^2").eval(3.0) == 9.0
    assert parse("exp(t)").eval(0.0) == 1.0


def _newton_sqrt(x, iters=60):
    # independent square-root oracle: Newton iteration from a crude seed
    r = x if x > 1 else 1.0
    for _ in range(iters):
        r = 0.5 * (r + x / r)
    return r


def test_eval_fractional_power_against_newton():
    got = parse("t^0.5").eval(2.0)
    assert abs(got - _newton_sqrt(2.0)) < 1e-14


def test_precedence_and_associativity():
    assert parse("2^3^2").eval(0.0) == 512.0  # right associative
    assert parse("-t^2").eval(3.0) == -9.0    # power binds tighter than unary minus
    assert parse("2 - 3 - 4").eval(0.0) == -5.0
    assert parse("2*t + 1").eval(2.0) == 5.0
    assert parse("t^-1").eval(4.0) == 0.25


def test_array_evaluation_matches_scalar():
    e = parse("sin(t)*exp(-t) + t^2")
    ts = np.linspace(0.1, 2.0, 7)
    vec = e.eval(ts)
    for i, t in enumerate(ts):
        assert vec[i] == pytest.approx(e.eval(float(t)), abs=0.0)


def test_parse_errors_carry_offset():
    with pytest.raises(ParseError) as err:
        parse("t + * 2")
    assert err.value.offset == 4
    with pytest.raises(UnknownIdentifierError):
        parse("foo(t)")
    with pytest.raises(ParseError):
        parse("sin(t")
    # an e without exponent digits is the constant, which needs an operator before it
    with pytest.raises(ParseError) as err:
        parse("2e")
    assert err.value.offset == 1
    assert parse("2e1").eval(0.0) == 20.0
    with pytest.raises(ParseError, match="bad number literal '.'") as err:
        parse(".")
    assert err.value.offset == 0


def test_domain_errors_name_the_node():
    with pytest.raises(DomainError, match="log"):
        parse("log(t)").eval(-1.0)
    with pytest.raises(DomainError, match="sqrt"):
        parse("sqrt(t)").eval(-1.0)
    with pytest.raises(DomainError, match="division"):
        parse("1/t").eval(0.0)
    with pytest.raises(DomainError):
        parse("t^0.5").eval(-2.0)
    with pytest.raises(DomainError):
        parse("t^-2").eval(0.0)


def test_derivative_that_overflows_only_through_the_factorial_is_one_domain_error():
    # f'''(t) / 3! of 1e300^t is a finite float, f'''(t) itself is not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for ts in (np.array([0.0, 0.5, 1.0]), 1.0):
            with pytest.raises(DomainError, match="non-finite derivative"):
                derivative_values(parse("1e300^t"), ts, 3)


def test_negative_base_integer_exponent_ok():
    assert parse("t^3").eval(-2.0) == -8.0
    assert parse("t^2").eval(-2.0) == 4.0
    # zero base with positive fractional exponent is fine
    assert parse("t^0.5").eval(0.0) == 0.0


# --- jets ---------------------------------------------------------------


def test_jet_of_identity():
    jet = derivatives(parse("t"), 1.3, 4)
    assert jet.coefficients == (1.3, 1.0, 0.0, 0.0, 0.0)


def test_binomial_jet():
    jet = derivatives(parse("t^3"), 1.0, 3)
    assert jet.coefficients == pytest.approx((1.0, 3.0, 3.0, 1.0), abs=1e-14)


def test_sine_maclaurin_jet():
    jet = derivatives(parse("sin(t)"), 0.0, 4)
    assert jet.coefficients == pytest.approx((0.0, 1.0, 0.0, -1.0 / 6.0, 0.0), abs=1e-15)


def test_exp_2t_jet_against_finite_differences():
    e = parse("exp(2*t)")
    jet = derivatives(e, 0.5, 2)
    # oracle: central differences over a step sweep
    for order, exact in ((1, jet.derivative(1)), (2, jet.derivative(2))):
        best = math.inf
        for h in (1e-4, 3e-5, 1e-5, 3e-6, 1e-6):
            if order == 1:
                fd = (e.eval(0.5 + h) - e.eval(0.5 - h)) / (2 * h)
            else:
                fd = (e.eval(0.5 + h) - 2 * e.eval(0.5) + e.eval(0.5 - h)) / (h * h)
            best = min(best, abs(fd - exact) / abs(exact))
        assert best < 1e-6
    assert jet.coefficients == pytest.approx(
        (math.e, 2 * math.e, 2 * math.e), rel=1e-14
    )


@pytest.mark.parametrize(
    "source",
    ["sin(t)", "cos(t)", "exp(t)", "log(t)", "sqrt(t)", "abs(t)", "t^2.5", "t^3", "1/t",
     "exp(t)*sin(t) - t/(1 + t^2)"],
)
def test_first_derivative_matches_central_difference(source):
    e = parse(source)
    c = 0.7
    exact = derivatives(e, c, 1).derivative(1)
    best = math.inf
    for h in (1e-4, 1e-5, 1e-6):
        fd = (e.eval(c + h) - e.eval(c - h)) / (2 * h)
        best = min(best, abs(fd - exact) / max(1.0, abs(exact)))
    assert best <= 1e-6


def test_polynomial_jets_are_exact():
    rng = np.random.RandomState(7)
    for _ in range(20):
        coeffs = rng.uniform(-3, 3, 6)  # degree 5
        src = " + ".join(f"{float(c)!r}*t^{k}" for k, c in enumerate(coeffs))
        e = parse(src)
        c = float(rng.uniform(-1.5, 1.5))
        jet = derivatives(e, c, 7)
        # oracle: binomial re-expansion of the polynomial about c
        expected = np.zeros(8)
        for k, ck in enumerate(coeffs):
            for j in range(k + 1):
                expected[j] += ck * math.comb(k, j) * c ** (k - j)
        scale = np.max(np.abs(expected)) + 1.0
        assert np.max(np.abs(np.asarray(jet.coefficients) - expected)) <= 1e-12 * scale


def test_abs_derivative_at_zero_refused():
    with pytest.raises(DomainError, match="abs"):
        derivatives(parse("abs(t)"), 0.0, 1)
    jet = derivatives(parse("abs(t)"), -2.0, 2)
    assert jet.derivative(1) == -1.0


def test_sqrt_jet_at_zero_refused():
    with pytest.raises(DomainError):
        derivatives(parse("sqrt(t)"), 0.0, 1)
    with pytest.raises(DomainError):
        derivatives(parse("t^0.5"), 0.0, 1)


def test_fractional_power_jet_at_zero_base():
    # below the exponent every Taylor coefficient of t^c at 0 is 0; at or
    # above it the derivative is unbounded
    assert [float(c) for c in derivatives(parse("t^2.5"), 0.0, 2).coefficients] == [0.0, 0.0, 0.0]
    vals = derivative_values(parse("t^1.5"), np.array([0.0, 1.0, 4.0]), 1)
    np.testing.assert_allclose(vals, [0.0, 1.5, 3.0], rtol=1e-15)
    with pytest.raises(DomainError, match="unbounded derivative at zero base"):
        derivatives(parse("t^1.5"), 0.0, 2)
    with pytest.raises(DomainError, match="unbounded derivative at zero base"):
        derivative_values(parse("t^0.5"), np.array([0.0, 1.0]), 1)
    with pytest.raises(DomainError, match="negative base"):
        derivatives(parse("t^1.5"), -1.0, 1)


def test_variable_exponent_uses_exp_log():
    e = parse("t^t")
    c = 1.7
    exact = derivatives(e, c, 1).derivative(1)
    ref = c**c * (math.log(c) + 1.0)
    assert exact == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        derivatives(e, -1.0, 1)


def test_derivative_values_vectorised():
    e = parse("sin(t)*t")
    ts = np.linspace(0.2, 2.0, 9)
    vals = derivative_values(e, ts, 1)
    for i, c in enumerate(ts):
        assert vals[i] == pytest.approx(derivatives(e, float(c), 1).derivative(1), rel=1e-13)
    second = derivative_values(e, ts, 2)
    ref = 2 * np.cos(ts) - ts * np.sin(ts)
    assert np.allclose(second, ref, rtol=1e-12)


def test_jet_order_limit_is_a_value_error():
    # 171! overflows a float, so order 170 is the highest jet
    e = parse("sin(t)")
    assert derivatives(e, 0.3, MAX_ORDER).derivative(MAX_ORDER) == pytest.approx(-math.sin(0.3), rel=1e-12)
    assert derivative_values(e, np.array([0.3, 0.4]), MAX_ORDER) == pytest.approx(-np.sin([0.3, 0.4]), rel=1e-12)
    with pytest.raises(ValueError, match="170"):
        derivatives(e, 0.3, MAX_ORDER + 1)
    with pytest.raises(ValueError, match="170"):
        derivative_values(e, np.array([0.3, 0.4]), MAX_ORDER + 1)
    with pytest.raises(ValueError, match="170"):
        derivative_values(e, np.array([0.3]), MAX_ORDER + 1)


# --- one-point jets against many-point jets --------------------------------

_leaves = st.one_of(
    st.just(Var()),
    st.sampled_from([Const("pi"), Const("e")]),
    st.floats(0.0, 3.0).map(lambda v: Num(round(v, 2))),
)


def _grow(sub):
    exponent = st.one_of(
        st.integers(-3, 4).map(lambda k: Num(float(k))),
        st.sampled_from([0.5, 1.5, 2.5, 3.25]).map(Num),
        sub,  # variable, or a constant subtree
    )
    return st.one_of(
        sub.map(Neg),
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda a: BinOp(*a)),
        st.tuples(sub, exponent).map(lambda a: BinOp("^", *a)),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt", "abs"]), sub).map(lambda a: Call(*a)),
    )


def _outcome(e, ts, order):
    try:
        return derivative_values(e, np.array(ts, dtype=float), order)
    except FracCalcError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=500, derandomize=True, database=None)
@given(
    st.recursive(_leaves, _grow, max_leaves=8),
    st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=5),
    st.integers(1, 3),
)
def test_one_point_jet_matches_many_point_jet_bit_for_bit(root, ts, order):
    # on a grid, on a 1-element array and on a float
    e = Expression(root)
    many = _outcome(e, ts, order)
    ones = [_outcome(e, [t], order) for t in ts]
    if isinstance(many, tuple):
        # the first check that fails on the grid fails alone on a point of it
        assert many in [one for one in ones if isinstance(one, tuple)]
    else:
        for i, one in enumerate(ones):
            assert isinstance(one, np.ndarray) and one.tobytes() == many[i : i + 1].tobytes()
    for t, one in zip(ts, ones):
        try:
            point = derivative_values(e, float(t), order)
        except FracCalcError as exc:
            # a non-finite result names the point instead of the grid
            assert (type(exc), str(exc).replace(f" at t={float(t)!r}", " on sample grid")) == one
        else:
            assert type(point) is float and np.float64(point).tobytes() == one.tobytes()


def _bits(sample):
    try:
        return np.asarray(sample(), dtype=float).tobytes()
    except FracCalcError as exc:
        return type(exc)


@settings(max_examples=200, deadline=500, derandomize=True, database=None)
@given(st.recursive(_leaves, _grow, max_leaves=8), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
@example(BinOp("^", Var(), Num(3.0)), [0.3, 1.3, 2.3, 2.9])  # np.power(t, 3.0) rounds differently from t*(t*t)
def test_values_are_the_order_zero_jet_bit_for_bit(root, ts):
    # one interpreter: a value is the order-0 coefficient of the jet, on a
    # grid, on one float, on a 1-element array and from derivatives(e, t, 0)
    e = Expression(root)
    grid = _bits(lambda: e.eval(np.array(ts)))
    points = []
    for t in ts:
        outcomes = {
            _bits(lambda: e.eval(float(t))),
            _bits(lambda: e.eval(np.array([t]))),
            _bits(lambda: derivatives(e, t, 0).coefficients[0]),
        }
        assert len(outcomes) == 1
        points += outcomes
    if isinstance(grid, bytes):
        assert points == [grid[8 * i : 8 * i + 8] for i in range(len(ts))]
    else:
        assert grid is DomainError and grid in points


@settings(max_examples=200, deadline=500, derandomize=True, database=None)
@given(st.recursive(_leaves, _grow, max_leaves=8), st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
@example(parse("sin(t)*exp(-t/4) - cos(t)/(1 + t^2) + 2.5/t").root, [0.3, 1.3, -2.9])
@example(parse("(t^2 + 1)^t + 2^t - 3*sqrt(t)*log(t) + t^2.5 - abs(t)/3").root, [0.3, 1.3, 2.9])
def test_first_order_jets_match_the_recurrences(root, ts):
    # values and slopes run as straight-line (value, slope) code, orders >= 2
    # as the Taylor recurrences: wherever the order-2 jet exists, its first
    # two coefficients are the value and the slope, on floats and on arrays
    e = Expression(root)
    jets = {}
    for t in ts:
        try:
            jets[t] = derivatives(e, t, 2).coefficients
        except FracCalcError:
            continue
        assert e.eval(t) == jets[t][0] and derivative_values(e, t, 1) == jets[t][1]
    if jets:
        grid = np.array(list(jets))
        assert e.eval(grid).tolist() == [c[0] for c in jets.values()]
        assert derivative_values(e, grid, 1).tolist() == [c[1] for c in jets.values()]


def _float_sample(e, t, order):
    try:
        return np.float64(e.eval(t) if order == 0 else derivative_values(e, t, 1)).tobytes()
    except FracCalcError as exc:
        return type(exc), str(exc)


def _inside_and_outside_a_scalar_loop(root, t, order):
    """A float sample in a ``_scalar_loop`` and outside one, with every
    RuntimeWarning an error; each expression is compiled where it samples."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outside = _float_sample(Expression(root), t, order)
        with expr_module._scalar_loop():
            inside = _float_sample(Expression(root), t, order)
    return inside, outside


@settings(max_examples=300, deadline=500, derandomize=True, database=None)
@given(st.recursive(_leaves, _grow, max_leaves=8), st.floats(-3.0, 3.0), st.integers(0, 1))
@example(parse("exp(800*t)").root, 2.0, 0)
@example(parse("exp(-exp(800*t))").root, 2.0, 1)
def test_a_float_sample_in_a_scalar_loop_equals_one_outside_it(root, t, order):
    # the loop's errstate stands in for the sample's own: the same bits, or
    # the same DomainError with the same message
    inside, outside = _inside_and_outside_a_scalar_loop(root, t, order)
    assert inside == outside


def test_a_scalar_loop_left_by_an_exception_restores_the_errstate_and_the_flag():
    before = np.geterr()
    with pytest.raises(DomainError, match=r"^non-finite value from exp\(800\.0\*t\) at t=2\.0$"):
        with expr_module._scalar_loop():
            assert expr_module._IN_SCALAR_LOOP.get() and np.geterr() == dict.fromkeys(before, "ignore")
            with expr_module._scalar_loop():  # nested: the outer loop's state comes back
                pass
            assert expr_module._IN_SCALAR_LOOP.get() and np.geterr() == dict.fromkeys(before, "ignore")
            parse("exp(800*t)").eval(2.0)
    assert not expr_module._IN_SCALAR_LOOP.get() and np.geterr() == before
    # a float sample after it enters its own errstate again: the overflow stays silent
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert parse("exp(-exp(800*t))").eval(2.0) == 0.0


@pytest.mark.parametrize("source, order, outcome", [
    ("exp(800*t)", 0, (DomainError, "non-finite value from exp(800.0*t) at t=2.0")),
    ("exp(800*t)", 1, (DomainError, "non-finite derivative of exp(800.0*t) at t=2.0")),
    ("exp(-exp(800*t))", 0, np.float64(0.0).tobytes()),  # exp(-inf): no warning
    ("exp(-exp(800*t))", 1, (DomainError, "non-finite derivative of exp(-exp(800.0*t)) at t=2.0")),
])
def test_an_overflow_inside_a_sample_is_silent_in_and_out_of_a_scalar_loop(source, order, outcome):
    assert _inside_and_outside_a_scalar_loop(parse(source).root, 2.0, order) == (outcome, outcome)


@pytest.mark.parametrize("t", [2.0, np.float64(2.0), 2])
def test_a_failing_float_sample_names_its_point_as_a_float(t):
    # whatever scalar type the caller passes, as the callable sampler does
    e = parse("exp(800*t)")
    for sample, what in ((e.eval, "value from"), (lambda t: derivative_values(e, t, 1), "derivative of")):
        with pytest.raises(DomainError, match=rf"^non-finite {what} exp\(800\.0\*t\) at t=2\.0$"):
            sample(t)


@pytest.mark.parametrize(
    "source, value",
    [("sqrt(t)", 0.0), ("abs(t)", 0.0), ("t^0.5", 0.0), ("t^-0.5", None), ("t^-2", None), ("log(t)", None)],
)
def test_domain_rules_at_zero(source, value):
    # a value at 0 needs only the function; a derivative there needs more
    e = parse(source)
    if value is None:
        for sample in (lambda: e.eval(0.0), lambda: e.eval(np.zeros(3)), lambda: derivatives(e, 0.0, 0)):
            with pytest.raises(DomainError):
                sample()
        return
    assert e.eval(0.0) == value and e.eval(np.zeros(3)).tolist() == [value] * 3
    assert derivatives(e, 0.0, 0).coefficients == (value,)
    with pytest.raises(DomainError):
        derivatives(e, 0.0, 1)
    with pytest.raises(DomainError):
        derivative_values(e, np.zeros(3), 1)


def test_bad_constant_exponent_is_raised_after_the_base_checks():
    # the exponent is resolved once, when the jet is compiled; its error is
    # still raised on use, and only if the base passes its own checks
    e = parse("log(t)^(1/0)")
    for sample in (lambda t: derivatives(e, t, 1), lambda t: derivative_values(e, np.array([t]), 1)):
        with pytest.raises(DomainError, match=r"log of non-positive value in log\(t\)"):
            sample(-1.0)
        for _ in range(2):
            with pytest.raises(DomainError, match="division by zero"):
                sample(1.0)


_DIFF_SQRT = "sqrt not differentiable at non-positive value in "

# (source, t, what orders 0, 1 and 2 give there): a float, or the DomainError message
_ERROR_ORDER = [
    ("t + log(-1)", 1.0, ["log of non-positive value in log(-1.0)"] * 3),
    ("log(t) + log(-1)", -1.0, ["log of non-positive value in log(t)"] * 3),
    ("t*(1/0)", 1.0, ["division by zero in 1.0/0.0"] * 3),
    ("log(t)/0", -1.0, ["log of non-positive value in log(t)"] * 3),
    ("log(t)/0", 1.0, ["division by zero in log(t)/0.0"] * 3),
    ("1/(t-t)", 1.0, ["division by zero in 1.0/(t - t)"] * 3),
    ("(-1)^t", 1.0, ["log of non-positive value in (-1.0)^t"] * 3),
    ("(0-1)^log(t)", -1.0, ["log of non-positive value in log(t)"] * 3),  # the exponent first
    ("(0-1)^log(t)", 2.0, ["log of non-positive value in (0.0 - 1.0)^log(t)"] * 3),
    ("sqrt(0-1)", 1.0, ["sqrt of negative value in sqrt(0.0 - 1.0)"] + [_DIFF_SQRT + "sqrt(0.0 - 1.0)"] * 2),
    ("sqrt(0)*t", 1.0, [0.0] + [_DIFF_SQRT + "sqrt(0.0)"] * 2),
    ("t^sqrt(-1)", 1.0, ["sqrt of negative value in sqrt(-1.0)"] * 3),  # a constant exponent is order 0
    # where t is not finite, a failing constant is refused by the same check
    ("t + log(-1)", math.nan, ["log of non-positive value in log(-1.0)"] * 3),
    ("t*(1/0)", math.inf, ["division by zero in 1.0/0.0"] * 3),
    ("sqrt(0-1)*t", math.nan, ["sqrt of negative value in sqrt(0.0 - 1.0)"] + [_DIFF_SQRT + "sqrt(0.0 - 1.0)"] * 2),
]


@pytest.mark.parametrize("source, t, outcomes", _ERROR_ORDER)
def test_a_constant_subtree_raises_its_domain_error_where_a_sample_reaches_it(monkeypatch, source, t, outcomes):
    compiled = []
    compile_ = expr_module._compile
    monkeypatch.setattr(expr_module, "_compile", lambda node, order: compiled.append(order) or compile_(node, order))
    e = parse(source)
    for order, outcome in enumerate(outcomes):
        for x in (t, np.array([t])):
            if isinstance(outcome, float):
                assert derivative_values(e, x, order) == outcome
                continue
            with pytest.raises(DomainError) as err:
                derivative_values(e, x, order)
            assert str(err.value) == outcome
    assert compiled == [0, 1, 2]  # once per order, also where every sample fails


def test_jet_is_compiled_once_per_expression(monkeypatch):
    # once per order and per form: eval and derivative_values run a map to
    # the one coefficient they return (at order 1 the slope alone), and
    # derivatives() the whole jet; at orders 0 and >= 2 the two are one map,
    # and the whole order-1 jet is derivatives()' own, under "duals"
    compiled = []
    compile_ = expr_module._compile

    def counting(node, order):
        compiled.append((node, order))
        return compile_(node, order)

    monkeypatch.setattr(expr_module, "_compile", counting)
    f = parse("exp(0.6*t)")
    pairs = sample_window_pairs(0.0, 4.0, 0.45, n_pairs=8)
    rc = convexity_equivalence(f, 0.75, 0.45, pairs)  # thousands of oracle callbacks
    assert rc.equivalence is True
    assert [order for node, order in compiled if node is f.root] == [1, 0]  # f' callbacks, then f
    assert list(f._jets) == [1, 0]
    g = parse("t*sin(t)")
    derivatives(g, 0.5, 1)
    derivatives(g, 0.5, 2)
    jets = dict(g._jets)
    for _ in range(2):
        derivative_values(g, np.linspace(0.0, 1.0, 5), 1)
        derivative_values(g, np.array([0.5]), 2)
        derivative_values(g, 0.5, 1)
        derivatives(g, 0.7, 1)
        derivatives(g, 0.7, 2)
    assert list(g._jets) == ["duals", 2, 1]
    assert all(g._jets[key] is run for key, run in jets.items())
    assert [order for node, order in compiled if node is g.root] == [2, 1]
    assert derivatives(g, 0.5, 1).coefficients[1] == derivative_values(g, 0.5, 1)


@pytest.mark.parametrize("x", [0.7, np.linspace(-2.0, 3.0, 9)], ids=["float", "array"])
def test_an_f_prime_sample_computes_the_slope_alone(monkeypatch, x):
    # sin's slope term reads u and u' only, so f' never computes sin itself
    def no_value(u):
        raise AssertionError("an f' sample computed sin's value")

    monkeypatch.setitem(expr_module._CALLS, "sin", (no_value, expr_module._CALLS["sin"][1]))
    slope = derivative_values(parse("sin(1.2*t)"), x, 1)
    assert type(slope) is type(x)
    assert np.asarray(slope).tobytes() == np.asarray(1.2 * np.cos(1.2 * x)).tobytes()


_NONFINITE_T = [math.inf, -math.inf, math.nan, 1.0]

# (source, f' at each point of _NONFINITE_T, None where it raises)
_SLOPES_WHERE_T_IS_NOT_FINITE = [
    ("3", [None, None, None, 0.0]),  # a constant's slope is t*0.0
    ("2*t", [2.0] * 4),  # a slope that reads no t holds at every t
    ("2*t+3", [2.0] * 4),
    ("0*t", [0.0] * 4),
    ("t-t", [0.0] * 4),
    ("t", [1.0] * 4),
    ("sin(t)", [None, None, None, float(np.cos(1.0))]),
    ("t^2", [None, None, None, 2.0]),
]


@pytest.mark.parametrize("source, slopes", _SLOPES_WHERE_T_IS_NOT_FINITE)
def test_slopes_where_t_is_not_finite(source, slopes):
    e = parse(source)
    for t, slope in zip(_NONFINITE_T, slopes):
        if slope is None:
            with pytest.raises(DomainError, match=f"non-finite derivative of .* at t={t!r}$"):
                derivative_values(e, t, 1)
        else:
            assert derivative_values(e, t, 1) == slope
    if None in slopes:
        with pytest.raises(DomainError, match="non-finite derivative of .* on sample grid$"):
            derivative_values(e, np.array(_NONFINITE_T), 1)
    else:
        assert derivative_values(e, np.array(_NONFINITE_T), 1).tolist() == slopes


# --- round-trip stability -----------------------------------------------


def _random_expr(rng, depth):
    if depth == 0:
        return rng.choice(["t", "pi", "e", repr(float(rng.uniform(0.1, 5.0)))])
    kind = rng.randint(0, 6)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a})*({b})"
    if kind == 3:
        return f"({a})/(1 + ({b})^2)"
    if kind == 4:
        fn = rng.choice(["sin", "cos", "exp"])
        return f"{fn}({a})"
    return f"-({a})"


def test_parse_pretty_parse_roundtrip_random_corpus():
    rng = np.random.RandomState(1234)
    for _ in range(60):
        src = _random_expr(rng, 3)
        tree = parse(src)
        again = parse(tree.pretty())
        assert again == tree, f"round trip failed for {src!r} -> {tree.pretty()!r}"


def test_pretty_roundtrip_handcrafted():
    for src in ["-t^2 + 3*(t - 1)/t", "t^-0.5", "2^3^2", "-(-t)", "t*(pi - t)",
                "sin(cos(exp(t)))", "(t + 1)*(t - 1)", "1 - (2 - t)", "t/(2*t)/3"]:
        tree = parse(src)
        assert parse(tree.pretty()) == tree
