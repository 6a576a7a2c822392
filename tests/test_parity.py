"""Output bytes through ``tools/parity.py``: the harness sees a planted
difference, and the large-grid inputs print the same at one and two BLAS
threads."""

import os
import shlex
import shutil

import parity

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def test_the_harness_reports_a_planted_difference(tmp_path):
    # a copy of the tree whose CSV prints 16 significant digits, not 17: the
    # value row differs, and a usage error, which prints no number, does not
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    cli = tmp_path / "src" / "fraccalc" / "cli.py"
    text = cli.read_text()
    assert text.count(':.17g}') == 1
    cli.write_text(text.replace(':.17g}', ':.16g}'))
    labelled = [("fracint", shlex.split('fracint --f "sin(t)" --alpha 0.5 --a 0 --x 2 --output csv')),
                ("usage error", ["fracint", "--alpha", "0.5"])]
    diffs, runs = parity.compare([ROOT, str(tmp_path)], [1], labelled)
    assert runs == 2
    assert diffs == [f"differs: fracint: stdout ({ROOT} at 1 thread(s) vs {tmp_path} at 1 thread(s))"]


def test_large_grids_print_the_same_at_one_and_two_blas_threads():
    """The pointwise sums of these inputs have more than 8,193 terms, which
    OpenBLAS would split across threads in one dot product.  On a machine
    with one core OpenBLAS runs one thread either way, and this test passes
    trivially."""
    labelled = [(args, shlex.split(args) + ["--output", "csv"]) for args in parity.LARGE_GRIDS]
    assert parity.compare([ROOT], [1, 2], labelled) == ([], 2)
