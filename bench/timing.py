"""Speed-corrected timing.

The machine this benchmark was built on changes speed from one second to
the next, and slow phases hit interpreter-bound code harder than numpy
kernels.  Every operation is therefore timed next to a fixed reference
loop that never calls fraccalc and mixes both kinds of work.  A corrected
time is

    raw time * NOMINAL_REF_S / (mean of the reference times measured just
    before and just after the operation),

so a phase that slows the reference loop and the operation alike drops
out.  Only corrected figures are bounded; raw figures and the reference
loop's own median go into each run's result file.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

#: median reference_loop() time in seconds on the machine the bounds were
#: set on (2-core VM, Python 3.11.7, numpy 2.4.6); see README.md
NOMINAL_REF_S = 0.004

_SMALL = np.linspace(0.0, 1.0, 64)
_MID_A = np.linspace(0.0, 1.0, 3000)
_MID_B = np.linspace(1.0, 2.0, 3000)
_LONG = np.linspace(0.0, 1.0, 16000)
_TAPS = np.linspace(1.0, 2.0, 400)


def reference_loop() -> float:
    """Run the fixed reference work once and return its wall time in seconds.

    Four parts of roughly equal time: a pure-Python loop, small-array numpy
    calls (both interpreter-bound), a 3000 x 3000 np.convolve and a
    16000 x 400 np.convolve (numpy-bound).
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        acc += (i % 7) * 0.5
    for _ in range(250):
        acc += float(np.sin(_SMALL).sum())
    acc += float(np.convolve(_MID_A, _MID_B)[-1])
    acc += float(np.convolve(_LONG, _TAPS)[-1])
    elapsed = time.perf_counter() - start
    if acc != acc:  # keeps the work observable
        raise RuntimeError("reference loop produced NaN")
    return elapsed


def corrected(raw: Sequence[float], ref_before: Sequence[float], ref_after: Sequence[float]) -> List[float]:
    """Corrected times for operations bracketed by reference measurements."""
    return [r * NOMINAL_REF_S / (0.5 * (b + a)) for r, b, a in zip(raw, ref_before, ref_after)]
