"""Checks of fraccalc CSV output against independent references.

Every value check compares one output number with a reference number on
a stated scale: the relative error is |got - ref| / scale.  The scale is
|ref| for operator values, the interval length for roots and mean values
(b - a, x - a or delta), and max |D^alpha f| on the sampled range for
periodicity defects, which are differences of two such values.  A value
passes when its relative error is at most TOL, so an output moved by
1e-6 on its scale is rejected.  Property checks are plain predicates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: largest accepted relative error of a checked value
TOL = 5e-7


@dataclass
class Csv:
    header: List[str]
    rows: List[List[str]]
    comments: List[str]

    def column(self, name: str) -> List[str]:
        i = self.header.index(name)
        return [r[i] for r in self.rows]

    def comment_value(self, key: str) -> str:
        """Value after ``key`` in the first comment line that starts with it."""
        for c in self.comments:
            parts = c.split()
            if parts and parts[0] == key:
                return parts[1]
        raise KeyError(key)


def parse_csv(text: str) -> Csv:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln[2:] for ln in lines[1:] if ln.startswith("# ")]
    return Csv(lines[0].split(","), [ln.split(",") for ln in body], comments)


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    errors: List[Tuple[str, float]] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    def value(self, name: str, got: float, ref: float, scale: float, tol: float = TOL) -> None:
        err = abs(got - ref) / scale
        if not math.isfinite(err):
            err = math.inf
        self.errors.append((name, err))
        if not err <= tol:
            self.failures.append(f"{name}: got {got!r}, reference {ref!r}, relative error {err:.3g} > {tol:.3g}")

    def prop(self, name: str, ok: bool) -> None:
        if not ok:
            self.failures.append(f"{name} does not hold")

    @property
    def worst(self) -> float:
        return max((e for _, e in self.errors), default=0.0)


# ---------------------------------------------------------------------------
# point operators


def check_operator(v: Verdict, csv: Csv, alpha: float, x: float, ref: float) -> None:
    """fracint / fracderiv: one row alpha, x, value, est_error."""
    v.prop("one row", len(csv.rows) == 1)
    row = dict(zip(csv.header, csv.rows[0]))
    v.prop("alpha echoed", float(row["alpha"]) == alpha and float(row["x"]) == x)
    v.value("value", float(row["value"]), ref, abs(ref))


def check_meanvalue(v: Verdict, csv: Csv, x: float, ref_xi: float) -> None:
    """meanvalue of a strictly increasing f: exactly one root, which is xi_sup."""
    xis = [float(s) for s in csv.column("xi")]
    v.prop("exactly one mean value", len(xis) == 1)
    v.prop("xi marked as supremum", csv.column("is_sup") == ["true"])
    v.prop("xi inside (0, x)", all(0.0 < xi < x for xi in xis))
    if xis:
        v.value("xi", xis[-1], ref_xi, x)


def check_polyxi(v: Verdict, csv: Csv, delta: float, ref_coeffs: Sequence[float], ref_roots: Sequence[float]) -> None:
    """polyxi of a polynomial of degree <= n: the surrogate is exact."""
    kinds = csv.column("kind")
    vals = csv.column("value")
    coeffs = [float(s) for k, s in zip(kinds, vals) if k == "coefficient"]
    roots = [float(s) for k, s in zip(kinds, vals) if k == "root"]
    remainder = [float(s) for k, s in zip(kinds, vals) if k == "remainder"]
    v.prop("coefficient count", len(coeffs) == len(ref_coeffs))
    scale = max(abs(c) for c in ref_coeffs)
    for j, (got, ref) in enumerate(zip(coeffs, ref_coeffs)):
        v.value(f"coefficient {j}", got, ref, scale)
    v.prop("remainder vanishes", remainder == [0.0])
    v.prop("root count", len(roots) == len(ref_roots))
    for i, (got, ref) in enumerate(zip(roots, ref_roots)):
        v.value(f"root {i}", got, ref, delta)
    v.prop("reliable", csv.comment_value("reliable") == "true")


# ---------------------------------------------------------------------------
# order sweeps


def _by_alpha(csv: Csv, col: str) -> Dict[float, List[float]]:
    out: Dict[float, List[float]] = {}
    for a, r in zip(csv.column("alpha"), csv.column(col)):
        out.setdefault(float(a), []).append(float(r))
    return out


def check_critpoints(v: Verdict, csv: Csv, alphas: Sequence[float], span: float, ref_roots: Dict[float, List[float]]) -> None:
    """critpoints over an alpha sweep: every root of D^alpha f on (a, b]."""
    got = _by_alpha(csv, "root")
    v.prop("alpha sweep echoed", sorted(got) == sorted(alphas))
    for al in alphas:
        roots, ref = sorted(got.get(al, [])), ref_roots[al]
        v.prop(f"root count at alpha={al}", len(roots) == len(ref))
        for r, rr in zip(roots, ref):
            v.value(f"root at alpha={al}", r, rr, span)


def check_ralpha(
    v: Verdict,
    csv: Csv,
    alphas: Sequence[float],
    span: float,
    ref_r: Dict[float, Optional[float]],
    ref_sup: Dict[float, float],
    stationary: float,
    root: float,
) -> None:
    """ralpha: r(alpha) and the global supremum, plus the migration properties."""
    got_alphas = [float(s) for s in csv.column("alpha")]
    v.prop("alpha sweep echoed", got_alphas == sorted(alphas))
    r_vals = csv.column("r_alpha")
    sups = csv.column("global_sup")
    curve = []
    for al, r, s in zip(got_alphas, r_vals, sups):
        ref = ref_r[al]
        v.prop(f"r(alpha) present at alpha={al}", (r == "") == (ref is None))
        if r and ref is not None:
            v.value(f"r(alpha) at alpha={al}", float(r), ref, span)
            curve.append(float(r))
        v.value(f"global sup at alpha={al}", float(s), ref_sup[al], span)
    v.prop("r(alpha) decreases in alpha", all(b < a for a, b in zip(curve, curve[1:])))
    v.prop("r(alpha) lies between stationary point and root",
           all(stationary < r < root for r in curve))
    v.prop("detected root near root of f", abs(float(csv.comment_value("detected_root")) - root) <= span / 1000.0)


# ---------------------------------------------------------------------------
# grid shape checks


def check_mono(v: Verdict, csv: Csv, df0: float, step_scale: float) -> None:
    """mono on an increasing input whose D^alpha steps are nonnegative."""
    info = dict(zip(csv.column("quantity"), csv.column("value")))
    v.prop("monotonicity certified", info.get("holds") == "true")
    v.value("df0", float(info["df0"]), df0, step_scale)
    v.prop("reconstruction error small", float(info["reconstruction_error"]) <= 1e-3 * step_scale)


def check_periodic(v: Verdict, csv: Csv, ts: Sequence[float], ref_defects: Sequence[float], scale: float) -> None:
    """periodic on sin(w t): defects against mpmath.quad derivatives."""
    got_t = [float(s) for s in csv.column("t")]
    v.prop("sample times echoed", len(got_t) == len(ts) and all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got_t, ts)))
    defects = [float(s) for s in csv.column("defect")]
    for t, d, ref in zip(ts, defects, ref_defects):
        v.value(f"defect at t={t:.6g}", d, ref, scale)
    v.value("max defect", float(csv.comment_value("max_defect")), max(ref_defects), scale)


def check_convexity(v: Verdict, csv: Csv, convex: bool) -> None:
    """convexity on a convex or concave input whose f' has property (P)."""
    rows = {r[0]: r[1:] for r in csv.rows}
    as_bool = {"true": True, "false": False}
    v.prop("convex_sampled", as_bool.get(rows["convex_sampled"][0]) is convex)
    v.prop("delta_increasing agrees", as_bool.get(rows["delta_increasing"][0]) is convex)
    v.prop("fprime_xi_monotone agrees", as_bool.get(rows["fprime_xi_monotone"][0]) is convex)
    v.prop("property P gate holds", rows["property_P_fprime"][0] == "true")
    v.prop("equivalence", rows["equivalence"][0] == "true")
    v.prop("bridge residual small", float(rows["bridge_residual_max"][1]) <= 1e-9)
