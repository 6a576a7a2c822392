"""Every demo script runs to completion, silently on stderr; the first three,
and every README command, without scipy too."""

import glob
import json
import os
import subprocess
import sys

import pytest
from parity import readme_commands

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_all_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs_clean(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, path], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# runs each item in one process and prints [item, exit code, stdout] per item;
# with "without", scipy cannot be imported
_RUN_ALL = r"""
import contextlib, io, json, runpy, sys
if sys.argv[1] == "without":
    sys.modules["scipy"] = None
from fraccalc.cli import run
out = []
for item in json.loads(sys.argv[2]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            if isinstance(item, list):
                code = run(item)
            else:
                runpy.run_path(item, run_name="__main__")
                code = 0
        except Exception as exc:
            code = repr(exc)
    out.append([item, code, buf.getvalue()])
print(json.dumps(out))
"""


def test_demos_and_readme_commands_run_without_scipy():
    # scipy serves only the QUADPACK oracle of convexity: the first three
    # demos and every README command print the same without it
    items = DEMOS[:3] + readme_commands()
    assert len(items) == 13 and ["selftest"] in items
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    runs = {}
    for mode in ("with", "without"):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _RUN_ALL, mode, json.dumps(items)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        runs[mode] = json.loads(proc.stdout)
    for (item, code, out), got in zip(runs["with"], runs["without"]):
        assert code == 0 and out, item
        assert got == [item, 0, out], item
