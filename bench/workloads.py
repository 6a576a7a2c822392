"""Seeded workloads: the argv of every operation and how its output is checked.

A workload is a round: a fixed list of operations whose kinds, counts and
grid sizes do not depend on the seed, so the cost of a round barely moves
between seeds.  The seed draws the functions, orders and points, and
permutes which grid size goes with which operation.  fraccalc sees only
the generated argv.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import checks
import reference as ref

WORKLOADS = ("order_sweep", "point_queries", "grid_shape")


@dataclass(frozen=True)
class Op:
    kind: str
    argv: List[str]
    check: Callable[[checks.Verdict, checks.Csv], None]


def _num(x: float) -> str:
    """Shortest text that parses back to exactly x."""
    return repr(float(x))


def _sweep(rng: random.Random) -> tuple:
    """An alpha sweep start:stop:5 and the orders the CLI derives from it."""
    start, stop = round(rng.uniform(0.05, 0.2), 3), round(rng.uniform(0.8, 0.95), 3)
    alphas = [float(a) for a in np.linspace(start, stop, 5)]
    return f"{start!r}:{stop!r}:5", alphas


# ---------------------------------------------------------------------------
# order_sweep: critpoints and ralpha over order sweeps


def _poly_family(rng: random.Random, cubic: bool) -> dict:
    """f = t^2 - 2ct (r = c(2-alpha)) or f = t^3 - 3ct^2 (r = c(3-alpha))."""
    if cubic:
        c = round(rng.uniform(0.4, 1.5), 4)
        return dict(f=f"t^3-{_num(3 * c)}*t^2", b=3.6 * c, stationary=2 * c, root=3 * c,
                    eps=c, roots=lambda al: [c * (3.0 - al)])
    c = round(rng.uniform(0.5, 2.0), 4)
    return dict(f=f"t^2-{_num(2 * c)}*t", b=2.5 * c, stationary=c, root=2 * c,
                eps=c, roots=lambda al: [c * (2.0 - al)])


def _sin_family(rng: random.Random) -> dict:
    """f = sin(w t) on (0, b], b just below 3 pi / (2 w)."""
    w = round(rng.uniform(0.6, 1.6), 4)
    b = 4.712 / w
    return dict(f=f"sin({_num(w)}*t)", b=b, stationary=math.pi / (2 * w), root=math.pi / w,
                eps=1.6 / w, roots=lambda al: ref.sin_critical_points(al, w, b))


def order_sweep(seed: int) -> List[Op]:
    rng = random.Random(f"order_sweep/{seed}")
    ops: List[Op] = []
    for _ in range(2):
        for fam in (_poly_family(rng, False), _poly_family(rng, True), _sin_family(rng)):
            sweep, alphas = _sweep(rng)
            b = fam["b"]
            base = ["--f", fam["f"], "--alpha", sweep, "--a", "0", "--b", _num(b)]
            roots = fam["roots"]

            def check_cp(v, csv, alphas=alphas, b=b, roots=roots):
                checks.check_critpoints(v, csv, alphas, b, {al: roots(al) for al in alphas})

            ops.append(Op("critpoints", ["critpoints"] + base, check_cp))
            x0 = round(fam["stationary"], 6)
            eps = fam["eps"]

            def check_ra(v, csv, alphas=alphas, b=b, roots=roots, fam=fam, x0=x0, eps=eps):
                per = {al: roots(al) for al in alphas}
                in_ball = {al: [r for r in rs if abs(r - x0) <= eps] for al, rs in per.items()}
                checks.check_ralpha(
                    v, csv, alphas, b,
                    {al: max(rs) if rs else None for al, rs in in_ball.items()},
                    {al: max(rs) for al, rs in per.items()},
                    fam["stationary"], fam["root"],
                )

            ops.append(Op("ralpha", ["ralpha"] + base + ["--x0", _num(x0), "--eps", _num(eps)], check_ra))
    return ops


# ---------------------------------------------------------------------------
# point_queries: single-point operators, mean values and polyxi

#: grid sizes a user would pass; five of them are not multiples of 4
POINT_GRIDS = (500, 750, 1000, 1001, 1500, 2000, 2047, 2048, 3000, 3001, 4000, 4095)


def _power(rng: random.Random, integer: bool) -> float:
    return float(rng.choice((1, 2, 3))) if integer else round(rng.uniform(1.1, 3.5), 2)


def _f_power(beta: float) -> str:
    return f"t^{int(beta)}" if beta == int(beta) else f"t^{_num(beta)}"


def point_queries(seed: int) -> List[Op]:
    rng = random.Random(f"point_queries/{seed}")
    ops: List[Op] = []
    for cmd in ("fracint", "fracderiv", "meanvalue", "polyxi"):
        grids = list(POINT_GRIDS)
        rng.shuffle(grids)
        for i, n in enumerate(grids):
            alpha = round(rng.uniform(0.05, 0.95), 3)
            x = round(rng.uniform(0.3, 2.5), 3)
            common = ["--alpha", _num(alpha), "--a", "0", "--grid-n", str(n)]
            kind = i % 3  # 0: t^beta, non-integer beta where allowed; 1: integer beta; 2: e^t - 1
            if cmd == "polyxi":
                degree = 1 + i % 3
                poly = [0.0] + [round(rng.uniform(0.2, 2.0), 3) for _ in range(degree)]
                f = "+".join(f"{_num(p)}*t^{j}" for j, p in enumerate(poly) if j)
                delta = round(rng.uniform(0.3, 2.5), 3)

                def check(v, csv, poly=poly, alpha=alpha, delta=delta):
                    coeffs = ref.polyxi_coefficients(poly + [0.0] * (4 - len(poly)), alpha, delta)
                    checks.check_polyxi(v, csv, delta, coeffs, ref.polynomial_roots(coeffs, 0.0, delta))

                ops.append(Op(cmd, [cmd, "--f", f, "--alpha", _num(alpha), "--a", "0",
                                    "--delta", _num(delta), "--n", "3", "--grid-n", str(n)], check))
                continue
            # D^alpha of t^beta with non-integer beta fails on the default path: see README.md
            beta = _power(rng, integer=(kind == 1 or cmd == "fracderiv"))
            f = "exp(t)-1" if kind == 2 else _f_power(beta)
            if cmd == "fracint":
                want = ref.expm1_integral(alpha, x) if kind == 2 else ref.power_integral(beta, alpha, x)
            elif cmd == "fracderiv":
                want = ref.expm1_derivative(alpha, x) if kind == 2 else ref.power_derivative(beta, alpha, x)
            else:
                want = ref.expm1_mean_value(alpha, x) if kind == 2 else ref.power_mean_value(beta, alpha, x)

            if cmd == "meanvalue":
                def check(v, csv, x=x, want=want):
                    checks.check_meanvalue(v, csv, x, want)
            else:
                def check(v, csv, alpha=alpha, x=x, want=want):
                    checks.check_operator(v, csv, alpha, x, want)

            ops.append(Op(cmd, [cmd, "--f", f] + common + ["--x", _num(x)], check))
    return ops


# ---------------------------------------------------------------------------
# grid_shape: whole-grid convolutions (mono, periodic) and the oracle (convexity)

MONO_GRIDS = (4096, 5461, 6827, 8192)
PERIODIC_GRIDS = (6144, 6827, 7509, 8192)


def _mono(rng: random.Random, n: int) -> Op:
    c = round(rng.uniform(0.2, 1.5), 3)
    f, fn = rng.choice((
        (f"t^2+{_num(c)}*t", lambda t: t * t + c * t),
        (f"t^3+{_num(c)}*t", lambda t: t**3 + c * t),
        (f"exp({_num(c)}*t)-1", lambda t: math.expm1(c * t)),
    ))
    alpha = round(rng.uniform(0.1, 0.9), 3)
    b = round(rng.uniform(2.0, 4.0), 3)
    tau = round(rng.uniform(0.2, 0.8), 3)
    df0 = fn(tau) - fn(0.0)
    step_scale = max(fn(b) - fn(b - tau), df0)

    def check(v, csv):
        checks.check_mono(v, csv, df0, step_scale)

    return Op("mono", ["mono", "--f", f, "--alpha", _num(alpha), "--b", _num(b),
                       "--tau", _num(tau), "--grid-n", str(n)], check)


def _periodic(rng: random.Random, n: int) -> Op:
    w = round(rng.uniform(1.0, 2.0), 4)
    alpha = round(rng.uniform(0.1, 0.9), 3)
    tau = 2.0 * math.pi / w
    b = round(tau * rng.uniform(1.5, 2.5), 4)
    ts = [float(t) for t in np.linspace(tau, b, 17)]

    def check(v, csv):
        d = [ref.sin_derivative(alpha, w, t) for t in ts]
        d_shift = [ref.sin_derivative(alpha, w, t + tau) for t in ts]
        scale = max(abs(x) for x in d + d_shift)
        checks.check_periodic(v, csv, ts, [abs(p - q) for p, q in zip(d_shift, d)], scale)

    return Op("periodic", ["periodic", "--f", f"sin({_num(w)}*t)", "--alpha", _num(alpha),
                           "--b", _num(b), "--tau", _num(tau), "--grid-n", str(n)], check)


#: convexity inputs: (f, convex, alpha).  They are fixed because the
#: oracle's adaptive cost moves by 10-20% with any change of the function
#: or the order, which would make the cost of a round depend on the seed.
#: Both cost regimes of the oracle (alpha below and above 1/2) are present.
CONVEXITY = (
    ("0.6*t^2+1.5*t", True, 0.25),
    ("exp(0.6*t)", True, 0.75),
    ("1.5*t-0.6*t^2", False, 0.75),
    ("-exp(-0.6*t)", False, 0.25),
)


def _convexity(f: str, convex: bool, alpha: float) -> Op:
    def check(v, csv):
        checks.check_convexity(v, csv, convex)

    return Op("convexity", ["convexity", f"--f={f}", "--alpha", _num(alpha), "--a", "0", "--b", "4",
                            "--delta", "0.45", "--pairs", "8"], check)


def grid_shape(seed: int) -> List[Op]:
    rng = random.Random(f"grid_shape/{seed}")
    mono_grids, per_grids = list(MONO_GRIDS), list(PERIODIC_GRIDS)
    rng.shuffle(mono_grids)
    rng.shuffle(per_grids)
    ops = [_mono(rng, n) for n in mono_grids]
    ops += [_periodic(rng, n) for n in per_grids]
    ops += [_convexity(*spec) for spec in CONVEXITY]
    return ops


ROUNDS: Dict[str, Callable[[int], List[Op]]] = {
    "order_sweep": order_sweep,
    "point_queries": point_queries,
    "grid_shape": grid_shape,
}
