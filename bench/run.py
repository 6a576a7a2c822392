"""fraccalc benchmark: one workload, one run.

    python3 bench/run.py --workload order_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; fraccalc is imported from ./src.
The load is a closed loop with one client, one process and one thread:
each operation is an in-process ``fraccalc.cli.run(argv)`` call with
``--output csv`` and captured stdout.  Every distinct operation first runs
once untimed; its output is checked against independent references and
kept, and every timed repetition must reproduce it byte for byte.  The
timed loop runs whole rounds of the workload until ``--seconds`` have
passed and the workload's minimum operation count is reached.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of rounds untraced and then traced, and prints per-layer metrics.
The last line of stdout is one JSON object; a fuller result file, with
raw figures, goes to bench/out/.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is imported here or in a child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from typing import List, Tuple  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402
import timing  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: minimum timed operations per run; the tail percentile is the highest one
#: that leaves at least 10 of them beyond it
MIN_OPS = {"order_sweep": 100, "point_queries": 400, "grid_shape": 100}
#: rounds traced (and run untraced for the overhead) in a --trace 1 run
TRACE_ROUNDS = {"order_sweep": 2, "point_queries": 10, "grid_shape": 3}
#: timed fresh-interpreter starts per run for setup_s (after one untimed start)
SETUP_STARTS = 4
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import fraccalc.cli as c; "
    "sys.exit(c.run(['fracderiv', '--f', 't', '--alpha', '0.5', '--a', '0', '--x', '1', "
    "'--output', 'csv']))"
)


def tail_quantile(workload: str) -> float:
    return 1.0 - 10.0 / MIN_OPS[workload]


def call(cli, argv: List[str]) -> Tuple[int, str, str]:
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv + ["--output", "csv"])
    return code, out.getvalue(), err.getvalue()


def _speed() -> float:
    """Median of a few reference loops: the machine's speed just now."""
    return statistics.median([timing.reference_loop() for _ in range(5)])


def measure_setup() -> Tuple[float, float]:
    """Median corrected and raw seconds from fresh interpreter to one fracderiv."""
    cmd = [sys.executable, "-c", SETUP_CODE, SRC]
    raw, corr = [], []
    for i in range(SETUP_STARTS + 1):
        before = _speed()
        start = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - start
        after = _speed()
        if proc.returncode != 0:
            raise RuntimeError(f"setup command failed: {proc.stderr.decode(errors='replace')}")
        if i:  # the first start compiles bytecode and fills the file cache
            raw.append(elapsed)
            corr.extend(timing.corrected([elapsed], [before], [after]))
    return statistics.median(corr), statistics.median(raw)


def warm_up(cli, ops) -> Tuple[List[str], List[float], List[str]]:
    """Run each operation once untimed and check it; return expected outputs,
    each operation's worst relative error and the check failures.  An
    operation that exits non-zero fails its check with an infinite error."""
    expected, errors, failures = [], [], []
    for op in ops:
        code, out, err = call(cli, op.argv)
        expected.append(out if code == 0 else None)
        verdict = checks.Verdict()
        if code != 0:
            verdict.errors.append(("exit code", math.inf))
            verdict.failures.append(f"exit {code}: {err.strip()}")
        else:
            try:
                op.check(verdict, checks.parse_csv(out))
            except (KeyError, ValueError, IndexError) as exc:
                verdict.failures.append(f"unreadable output: {exc!r}")
        errors.append(verdict.worst)
        failures += [f"{' '.join(op.argv)}: {msg}" for msg in verdict.failures]
    return expected, errors, failures


def by_kind(ops, raw: List[float], corr: List[float], errors: List[float]) -> dict:
    """Median raw and corrected time and worst error per operation kind."""
    out = {}
    for kind in dict.fromkeys(op.kind for op in ops):
        idx = [i for i in range(len(raw)) if ops[i % len(ops)].kind == kind]
        out[kind] = {
            "timed": len(idx),
            "raw_p50_ms": 1000 * statistics.median([raw[i] for i in idx]),
            "p50_ms": 1000 * statistics.median([corr[i] for i in idx]),
            "worst_relative_error": max(e for op, e in zip(ops, errors) if op.kind == kind),
        }
    return out


def timed_rounds(cli, ops, expected, *, seconds=None, rounds=None, min_ops=0, tracer=None):
    """Whole rounds of the operations, each bracketed by reference loops.

    Returns raw op times, reference times (one more than ops), failed count
    and output mismatches.
    """
    raw, refs, failed, mismatches = [], [timing.reference_loop()], 0, 0
    start = time.perf_counter()
    done = 0
    while True:
        for op, want in zip(ops, expected):
            if tracer is not None:
                tracer.op = len(raw)
            t0 = time.perf_counter()
            code, out, _ = call(cli, op.argv)
            t1 = time.perf_counter()
            refs.append(timing.reference_loop())
            raw.append(t1 - t0)
            if code != 0:
                failed += 1
            elif out != want:
                mismatches += 1
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds and len(raw) >= min_ops:
            break
    return raw, refs, failed, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fraccalc", "cli.py")):
        print(f"error: no fraccalc sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fraccalc.cli as cli

    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "fraccalc"):
        print(f"error: imported fraccalc from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    w = args.workload
    result = {"workload": w, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "nominal_ref_s": timing.NOMINAL_REF_S}
    if not args.trace:
        setup_corr, setup_raw = measure_setup()
        result["setup"] = {"corrected_s": setup_corr, "raw_s": setup_raw, "starts": SETUP_STARTS}

    ops = workloads.ROUNDS[w](args.seed)
    expected, errors, failures = warm_up(cli, ops)
    worst = max(errors)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)

    tracer = None
    if args.trace:
        n = TRACE_ROUNDS[w]
        raw0, refs0, _, _ = timed_rounds(cli, ops, expected, rounds=n)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            raw, refs, failed, mismatches = timed_rounds(cli, ops, expected, rounds=n, tracer=tracer)
        finally:
            tracer.uninstall()
    else:
        raw, refs, failed, mismatches = timed_rounds(
            cli, ops, expected, seconds=args.seconds, min_ops=MIN_OPS[w])

    corr = timing.corrected(raw, refs[:-1], refs[1:])
    correct = not failures and mismatches == 0
    result.update({
        "correct": correct, "attempted": len(raw), "failed": failed, "mismatches": mismatches,
        "check_failures": failures, "worst_relative_error": worst,
        "ref_median_s": statistics.median(refs),
        "by_kind": by_kind(ops, raw, corr, errors),
        "raw": {"ops_per_s": len(raw) / sum(raw), "op_p50_ms": 1000 * statistics.median(raw),
                "op_tail_ms": 1000 * float(np.quantile(raw, tail_quantile(w)))},
    })

    if args.trace:
        corr0 = timing.corrected(raw0, refs0[:-1], refs0[1:])
        factor = [c / r for c, r in zip(corr, raw)]
        metrics = tracer.metrics(factor)
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"spans-{w}-seed{args.seed}.npz")
        tracer.save(spans)
        result.update({"rounds": TRACE_ROUNDS[w], "spans_file": os.path.relpath(spans, ROOT),
                       "untraced_s": sum(corr0), "traced_s": sum(corr),
                       "tracing_overhead": sum(corr) / sum(corr0) - 1.0, "per_layer": metrics})
        units = dict(tracing.METRICS)
        out_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        # clamped so that a failed check (infinite error) still reads as a number
        digits = -math.log10(min(max(worst, 1e-17), 1e17))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = {
            "setup_s": (setup_corr, "s"),
            "ops_per_s": (len(corr) / sum(corr), "1/s"),
            "op_p50_ms": (1000 * statistics.median(corr), "ms"),
            "op_tail_ms": (1000 * float(np.quantile(corr, tail_quantile(w))), "ms"),
            "accuracy_digits": (digits, "digits"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        result["tail_percentile"] = 100 * tail_quantile(w)
        result["metrics"] = {k: v for k, (v, _) in e2e.items()}
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{w}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(raw), "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
