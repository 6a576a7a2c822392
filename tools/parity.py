"""Parity harness: one input set run against two source trees, compared byte for byte.

    python tools/parity.py --parent DIR [--threads 1,2]

Runs every input against the tree this script lives in and against DIR, a
checkout of another commit (``--parent .`` from the root of this tree runs
it once), at each BLAS thread count of ``--threads``.  Each (tree, thread
count) pair is one child process with RuntimeWarnings as errors and
fraccalc imported from that tree's ``src``.  The inputs are:

- the benchmark operations at seeds 1-3 (``bench/workloads.py``),
  run as the benchmark runs them: in-process ``cli.run(argv + ["--output", "csv"])``;
- the commands of the README "Command line" block, read as CI reads them,
  plus the leading-minus example;
- CI's five inputs that must exit 2;
- two inputs on grids above 8,192 panels, whose last digits once depended
  on the BLAS thread count;
- the 4 demos of this tree, each run as its own child process.

Every run is compared with the first one (this tree at the first thread
count) on stdout, stderr and exit code.  Each input that differs is printed
with the streams that differ, and the last line counts the runs; the exit
code is 1 when any input differs.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import shlex
import subprocess
import sys
import time
from typing import List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)

#: CI's runs that must exit 2 with one stderr line
EXIT_2 = (
    'mono --f "1e307*t^2" --alpha 0.5 --b 1.5 --tau 0.5',
    'convexity --f="exp(800*t)" --alpha 0.5 --a 0 --b 4 --delta 0.45 --pairs 8',
    'convexity --f="exp(-((t-2.6)/0.01)^2)" --alpha 0.5 --a 0 --b 4 --delta 0.45 --pairs 8 --scan-n 16',
    'fracint --f "log(0.5-t)" --alpha 0.5 --a 0 --x 1',
    'dilation --f "t^0.5" --alpha 0.5 --a 0 --b 3 --grid-n 1048576',
)
#: pointwise sums of more than 8,193 terms, which OpenBLAS splits across threads
LARGE_GRIDS = (
    'fracint --f "sin(3*t)+t^2" --alpha 0.5 --a 0 --x 2 --grid-n 1048576',
    'critpoints --f "sin(60*t)" --alpha 0.5 --a 0 --b 4.5 --scan-n 4096 --grid-n 65536',
)


def readme_commands() -> List[List[str]]:
    """The argv of each ``fraccalc`` line in the README "Command line" bash block, comments cut."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("\n## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines() if line.startswith("fraccalc ")]


def benchmark_argvs() -> List[Tuple[str, List[str]]]:
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    return [(f"{name} seed {seed} #{i}", op.argv + ["--output", "csv"])
            for seed in SEEDS for name in workloads.WORKLOADS
            for i, op in enumerate(workloads.ROUNDS[name](seed))]


def inputs() -> List[Tuple[str, object]]:
    """(label, item) of every input: an item is a CLI argv, or the path of a demo script."""
    cli = [shlex.split(args) for args in EXIT_2 + LARGE_GRIDS]
    cli = readme_commands() + [["fracderiv", "--f=-t^2", "--alpha", "0.5", "--a", "0", "--x", "1"]] + cli
    demos = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
    return (benchmark_argvs() + [(shlex.join(argv), argv) for argv in cli]
            + [("demo " + os.path.basename(path), path) for path in demos])


def run_items(items: list) -> list:
    """[exit code, stdout, stderr] of each item, in this process (a demo in a child)."""
    from fraccalc.cli import run

    out = []
    for item in items:
        if isinstance(item, str):
            proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", item],
                                  capture_output=True, text=True)
            out.append([proc.returncode, proc.stdout, proc.stderr])
            continue
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = run(item)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an escape from run() is a result too
                code = f"raised {type(exc).__name__}: {exc}"
        out.append([code, stdout.getvalue(), stderr.getvalue()])
    return out


def run_tree(tree: str, threads: int, items: list) -> list:
    """:func:`run_items` in one child process on ``tree``'s src at ``threads`` BLAS threads."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", os.path.abspath(__file__), "--child"],
                          input=json.dumps(items), capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"the run on {tree} at {threads} thread(s) failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(trees: List[str], threads: List[int], labelled: List[Tuple[str, object]]) -> Tuple[List[str], int]:
    """One line per input whose result differs between the runs of every
    (tree, thread count), and the number of runs."""
    runs = [(f"{tree} at {t} thread(s)", run_tree(tree, t, [item for _, item in labelled]))
            for tree in trees for t in threads]
    (first, want), diffs = runs[0], []
    for k, (label, _) in enumerate(labelled):
        for name, got in runs[1:]:
            streams = [s for s, a, b in zip(("exit code", "stdout", "stderr"), want[k], got[k]) if a != b]
            if streams:
                diffs.append(f"differs: {label}: {', '.join(streams)} ({first} vs {name})")
                break
    return diffs, len(runs)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:] == ["--child"]:
        print(json.dumps(run_items(json.loads(sys.stdin.read()))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--parent", required=True, help="the other source tree")
    parser.add_argument("--threads", type=lambda s: [int(t) for t in s.split(",")], default=[1],
                        help="BLAS thread counts, comma-separated (default 1)")
    args = parser.parse_args(argv)
    trees = list(dict.fromkeys(os.path.realpath(tree) for tree in (ROOT, args.parent)))
    start, labelled = time.perf_counter(), inputs()
    diffs, runs = compare(trees, args.threads, labelled)
    for line in diffs:
        print(line)
    print(f"parity: {len(labelled) - len(diffs)} of {len(labelled)} inputs identical in stdout, stderr and "
          f"exit code over {runs} runs ({len(trees)} tree(s) x threads {','.join(map(str, args.threads))}), "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
