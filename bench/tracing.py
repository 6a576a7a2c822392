"""Per-layer spans and counts, recorded from outside the fraccalc package.

``Tracer.install`` wraps each traced function at every place it is looked
up: the defining module, every fraccalc module that imported it by name,
and, for ``Expression.eval``, the class attribute and its ``__call__``
alias.  Each call becomes a span (layer, start, end, parent, operation)
kept in memory; ``save`` writes them when the run ends.  A layer's self
time is its span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

#: (layer name, module, attribute); the module is where the function is defined
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.run", "fraccalc.cli", "run"),
    ("expr.eval", "fraccalc.expr", "Expression.eval"),
    ("expr.derivative_values", "fraccalc.expr", "derivative_values"),
    ("fracops.kernel_quad_grid", "fraccalc.fracops", "_kernel_quad_grid"),
    ("fracops.l1_weights", "fraccalc.fracops", "_l1_weights"),
    ("fracops.integral_on_grid", "fraccalc.fracops", "integral_on_grid"),
    ("fracops.kernel_quad_oracle", "fraccalc.fracops", "_kernel_quad_oracle"),
    ("meanval.bisect", "fraccalc.meanval", "_bisect"),
    ("meanval.mean_value", "fraccalc.meanval", "mean_value"),
    ("critical.critical_points", "fraccalc.critical", "critical_points"),
    ("critical.r_alpha_curve", "fraccalc.critical", "r_alpha_curve"),
    ("shape.monotonicity_certificate", "fraccalc.shape", "monotonicity_certificate"),
    ("shape.periodicity_defect", "fraccalc.shape", "periodicity_defect"),
    ("shape.convexity_equivalence", "fraccalc.shape", "convexity_equivalence"),
)

#: per-layer metrics reported by a traced run: (metric, unit)
METRICS: Tuple[Tuple[str, str], ...] = (
    ("cli.run.self_ms", "ms"),
    ("expr.eval.calls", "count"),
    ("expr.eval.points", "count"),
    ("expr.eval.self_ms", "ms"),
    ("expr.derivative_values.calls", "count"),
    ("expr.derivative_values.points", "count"),
    ("expr.derivative_values.self_ms", "ms"),
    ("fracops.kernel_quad_grid.calls", "count"),
    ("fracops.kernel_quad_grid.self_ms", "ms"),
    ("fracops.l1_weights.calls", "count"),
    ("fracops.l1_weights.misses", "count"),
    ("fracops.integral_on_grid.calls", "count"),
    ("fracops.integral_on_grid.points", "count"),
    ("fracops.integral_on_grid.self_ms", "ms"),
    ("fracops.kernel_quad_oracle.calls", "count"),
    ("fracops.kernel_quad_oracle.self_ms", "ms"),
    ("meanval.bisect.calls", "count"),
    ("meanval.bisect.evals", "count"),
    ("meanval.bisect.self_ms", "ms"),
    ("meanval.mean_value.self_ms", "ms"),
    ("critical.critical_points.calls", "count"),
    ("critical.critical_points.self_ms", "ms"),
    ("critical.r_alpha_curve.self_ms", "ms"),
    ("shape.monotonicity_certificate.self_ms", "ms"),
    ("shape.periodicity_defect.self_ms", "ms"),
    ("shape.convexity_equivalence.self_ms", "ms"),
)


def _points(layer: str, args: tuple) -> int:
    """Sample points handled by one call, for layers that count them."""
    if layer in ("expr.eval", "expr.derivative_values"):
        return int(np.size(args[1]))
    if layer == "fracops.integral_on_grid":
        return int(np.size(args[0]))
    return 0


class Tracer:
    def __init__(self) -> None:
        self.layers = [name for name, _, _ in LAYERS]
        self.layer_of = {name: i for i, name in enumerate(self.layers)}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: List[List[float]] = []  # [span index, child seconds]
        self._restore: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        tracer = self
        index = self.layer_of[layer]
        counts = self.counts
        cache = None
        if layer == "fracops.l1_weights":
            cache = sys.modules["fraccalc.fracops"]._WEIGHT_CACHE

        def wrapper(*args, **kwargs):
            counts[layer + ".calls"] += 1
            pts = _points(layer, args)
            if pts:
                counts[layer + ".points"] += pts
            if cache is not None and (args[0], args[1]) not in cache:
                counts[layer + ".misses"] += 1
            if layer == "meanval.bisect":
                inner = args[0]

                def counted(x):
                    counts["meanval.bisect.evals"] += 1
                    return inner(x)

                args = (counted,) + args[1:]
            span = len(tracer.span_layer)
            tracer.span_layer.append(index)
            tracer.span_parent.append(int(tracer._stack[-1][0]) if tracer._stack else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.span_self.append(0.0)
            frame = [span, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.span_start[span] = start
                tracer.span_end[span] = end
                tracer.span_self[span] = dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever fraccalc modules look it up."""
        expr = sys.modules["fraccalc.expr"]
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "fraccalc"]
        for layer, modname, attr in LAYERS:
            if attr == "Expression.eval":
                cls = expr.Expression
                wrapped = self._wrap(layer, cls.eval)
                for alias in ("eval", "__call__"):
                    self._restore.append((cls, alias, cls.__dict__[alias]))
                    setattr(cls, alias, wrapped)
                continue
            original = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(layer, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, name, value))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def metrics(self, factor: Sequence[float]) -> Dict[str, float]:
        """Per-layer metrics; self times are scaled by each operation's
        speed-correction ``factor[op]`` and reported in ms."""
        ops = np.array(self.span_op, dtype=np.int32)
        lay = np.array(self.span_layer, dtype=np.int32)
        selfs = np.array(self.span_self, dtype=np.float64) * np.asarray(factor, dtype=float)[ops]
        self_ms = np.bincount(lay, weights=selfs, minlength=len(self.layers)) * 1000.0
        out: Dict[str, float] = {}
        for name, unit in METRICS:
            layer, _, what = name.rpartition(".")
            if what == "self_ms":
                out[name] = float(self_ms[self.layer_of[layer]])
            else:
                out[name] = int(self.counts[name])
        return out

    def save(self, path: str) -> None:
        """Write all spans: layer names, then one entry per span."""
        np.savez_compressed(
            path,
            layers=np.asarray(self.layers),
            layer=np.array(self.span_layer, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            op=np.array(self.span_op, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
        )
