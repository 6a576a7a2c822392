"""Tracing wraps every lookup site, restores them, and repeats its counts;
run.py refuses to run without the program sources."""

import os
import shutil
import subprocess
import sys

import numpy as np

import fraccalc.cli as cli
import fraccalc.critical as critical
import fraccalc.expr as expr
import fraccalc.fracops as fracops
import fraccalc.shape as shape

import run
import tracing
import workloads


def _reduced_ops():
    """Two short operations of each workload, on small grids."""
    ops = [op for op in workloads.point_queries(3) if op.kind in ("meanvalue", "polyxi")][:2]
    ops.append(workloads.Op("critpoints", ["critpoints", "--f", "t^2-2*t", "--alpha", "0.2:0.8:3",
                                           "--a", "0", "--b", "2.5", "--grid-n", "256"], None))
    ops.append(workloads.Op("mono", ["mono", "--f", "t^2+t", "--alpha", "0.4", "--b", "2",
                                     "--tau", "0.5", "--grid-n", "512"], None))
    ops.append(workloads.Op("convexity", ["convexity", "--f", "exp(0.5*t)", "--alpha", "0.7", "--a", "0",
                                          "--b", "3", "--delta", "0.4", "--pairs", "2"], None))
    return ops


def test_install_reaches_every_lookup_site_and_uninstall_restores():
    before = (critical._kernel_quad_grid, shape.integral_on_grid, fracops.derivative_values,
              expr.Expression.__dict__["eval"], expr.Expression.__dict__["__call__"], cli.run)
    t = tracing.Tracer()
    t.install()
    try:
        assert critical._kernel_quad_grid is fracops._kernel_quad_grid
        assert critical._kernel_quad_grid.__wrapped__ is before[0]
        assert shape.integral_on_grid.__wrapped__ is before[1]
        for mod in (fracops, critical, shape):
            assert mod.derivative_values.__wrapped__ is before[2]
        assert expr.Expression.__dict__["__call__"] is expr.Expression.__dict__["eval"]
        assert cli.run.__wrapped__ is before[5]
    finally:
        t.uninstall()
    after = (critical._kernel_quad_grid, shape.integral_on_grid, fracops.derivative_values,
             expr.Expression.__dict__["eval"], expr.Expression.__dict__["__call__"], cli.run)
    assert all(a is b for a, b in zip(after, before))


def test_counts_repeat_in_two_traced_runs(tmp_path):
    ops = _reduced_ops()
    expected = [run.call(cli, op.argv)[1] for op in ops]
    counts = []
    for _ in range(2):
        t = tracing.Tracer()
        t.install()
        try:
            raw, refs, failed, mismatches = run.timed_rounds(cli, ops, expected, rounds=1, tracer=t)
        finally:
            t.uninstall()
        assert failed == 0 and mismatches == 0
        m = t.metrics([1.0] * len(raw))
        counts.append({k: v for k, v in m.items() if not k.endswith("self_ms")})
        for layer in ("cli.run", "meanval.bisect", "fracops.integral_on_grid", "fracops.kernel_quad_oracle"):
            assert m[layer + ".self_ms"] > 0.0
        path = tmp_path / "spans.npz"
        t.save(str(path))
        with np.load(path) as z:
            assert list(z["layers"]) == t.layers
            assert len(z["layer"]) == len(z["parent"]) == len(z["start"]) == len(t.span_layer)
            n_runs = int(np.sum(z["layer"] == t.layer_of["cli.run"]))
        assert n_runs == len(ops)
    assert counts[0] == counts[1]
    assert counts[0]["expr.eval.calls"] > 0 and counts[0]["meanval.bisect.evals"] > 0


def test_run_refuses_without_program_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "checks.py", "reference.py", "timing.py", "tracing.py", "workloads.py"):
        shutil.copy(os.path.join(run.HERE, name), bench / name)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid_shape", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
