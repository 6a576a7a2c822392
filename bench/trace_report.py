"""Traced-run report: per-layer counts and self times for each workload.

    python3 bench/trace_report.py

Runs ``run.py --trace 1`` twice per workload with seed 1, prints a
table of every per-layer metric from both runs, says whether the counts
repeat exactly, and gives the tracing overhead (traced against untraced
time of the same rounds) and the spans file of each run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def traced(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{seed}-trace1.json")) as fh:
        return json.load(fh)


def main() -> int:
    same = True
    for w in workloads.WORKLOADS:
        runs = [traced(w, SEED) for _ in range(2)]
        counts = [{k: v for k, v in r["per_layer"].items() if not k.endswith("self_ms")} for r in runs]
        same &= counts[0] == counts[1]
        print(f"## {w} (seed {SEED}, {runs[0]['rounds']} rounds, {runs[0]['attempted']} operations)\n")
        print("| metric | unit | run 1 | run 2 |")
        print("|---|---|---|---|")
        for name, unit in tracing.METRICS:
            a, b = runs[0]["per_layer"][name], runs[1]["per_layer"][name]
            fmt = (lambda v: f"{v:.1f}") if unit == "ms" else str
            print(f"| `{name}` | {unit} | {fmt(a)} | {fmt(b)} |")
        print(f"\ncounts identical: {counts[0] == counts[1]}")
        for i, r in enumerate(runs, 1):
            print(f"run {i}: untraced {r['untraced_s']:.3f} s, traced {r['traced_s']:.3f} s, "
                  f"overhead {100 * r['tracing_overhead']:+.1f}%, spans in {r['spans_file']}")
        print()
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
