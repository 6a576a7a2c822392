"""Steadiness check: run each workload k times in each of two sets and
report every end-to-end metric's median, quartiles and spread against its
bound.

    python3 bench/steady.py --runs 10

The first set uses seeds 1..k, the second 101..100+k.  The spread is
(Q3 - Q1) / median with Python's statistics.quantiles(values, n=4); the
bound comes from BENCHMARK.json.  The second set's median is also
compared with the first.  A summary JSON goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - start
    return out


def summarise(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    report = {}
    for w in names:
        sets = []
        for s in range(2):
            runs = [run_once(spec, w, 1 + 100 * s + i) for i in range(args.runs)]
            shares = {r["failed"] / r["attempted"] for r in runs}
            stats = {m: summarise([r["metrics"][m]["value"] for r in runs], bounds[m]) for m in bounds}
            sets.append({"stats": stats, "correct": all(r["correct"] for r in runs),
                         "failed_shares": sorted(shares), "wall_s": [r["wall_s"] for r in runs]})
            print(f"{w} set {s + 1}: correct={sets[-1]['correct']} failed shares={sorted(shares)} "
                  f"run wall {min(sets[-1]['wall_s']):.1f}-{max(sets[-1]['wall_s']):.1f} s")
            for m, st in stats.items():
                flag = "" if st["spread"] <= st["bound"] / 3 or m == "setup_s" else "  <-- above bound/3"
                print(f"  {m:16s} median {st['median']:12.5g}  q1 {st['q1']:12.5g}  q3 {st['q3']:12.5g}"
                      f"  spread {st['spread']:.4f} (bound {st['bound']}){flag}")
        print(f"{w} second set against first:")
        for m in bounds:
            a, b = sets[0]["stats"][m]["median"], sets[1]["stats"][m]["median"]
            worse = (b - a) / a if better[m] == "lower" else (a - b) / a
            flag = "  <-- worse than bound" if worse > bounds[m] else ""
            print(f"  {m:16s} {a:12.5g} -> {b:12.5g}  worse by {worse:+.4f} (bound {bounds[m]}){flag}")
        report[w] = sets
        sys.stdout.flush()

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"summary written to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
