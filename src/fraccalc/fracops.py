"""Left-sided fractional integrals and derivatives on [a, x].

One quadrature rule computes the convolution

    I^mu f(x) = (1/Gamma(mu)) * integral_a^x f(t) (x - t)^(mu - 1) dt

for any order mu > 0 (weakly singular below 1): the piecewise-linear
interpolant of f on a uniform grid is integrated exactly against the kernel
(an L1-type product rule).  f is sampled once, on grid_n panels rounded up
to a multiple of 4; ``_extrapolate`` refines the sums on that grid and its
half and quarter slices at their measured order (one Richardson step) and
estimates the error.  Every public operator runs this rule.

``_kernel_quad_oracle`` is an independent reference: adaptive QUADPACK
quadrature with the kernel as an algebraic end-point weight (QAWS, modified
Clenshaw-Curtis rules), f alone integrated against (x - t)^(mu - 1), with no
substitution.  QUADPACK asks for one point per callback and is handed the
sampler itself, so each callback is one float in and one float out.  The
call holds one ``np.errstate`` (``expr._scalar_loop``) for all of its
callbacks, so an expression's callback runs its compiled jet and its
finiteness check and enters no errstate of its own.  Its one caller in the
package is ``shape.convexity_equivalence``, which integrates every window
with it; the tests cross-check the product rule against it.

Derivatives come in three flavours:

* ``rl_derivative(..., method="caputo_form")`` computes I^(1-alpha) f'
  which equals the Riemann-Liouville derivative when f(a) = 0.  The base
  value is checked; pass ``allow_nonzero_base=True`` to downgrade the
  check to a warning (the value returned is then the Caputo derivative).
* ``rl_derivative(..., method="direct")`` differentiates x -> I^(1-alpha) f(x)
  by a one-sided difference at the last three nodes of the grid on [a, x],
  refined on nested grids like the integral.  It never samples f outside
  [a, x], never needs f', and is the verification path (slightly less
  accurate, differently wrong).
* ``caputo_derivative`` is I^(1-alpha) f' with no base-value requirement.
  The derivative over a window [x0, x0 + delta], restarted at its start,
  is ``caputo_derivative`` with base x0 evaluated at x0 + delta.

Every pointwise value, one or many, is ``_kernel_quad_grid``: the grids of
pairs (x, mu) are the rows of one array of at most ``_BATCH_MAX_POINTS``
nodes, sampled in one call, and each row's sums and Richardson step are
those of that pair alone, bit for bit.  Work in batches follows one rule,
``_in_batches``: a batch that raises is run again item by item, so the
first failing item raises what its own call raises and no later batch
starts.  Order sweeps and window tables use the same rule.

``integral_on_grid`` gives I^mu at every node of a grid at once, by a
blocked FFT convolution.  The product-trapezoid weights of each (n, mu),
and the spectra of the weights of every FFT block of that sweep, live in
one cache bounded by bytes.  The spectra are kept only in the room the
cache has left, never by evicting an entry, and are the first to go when
a weight table needs room, so the weights cached are those of a cache
without spectra; when the spectra do not fit, each sweep rebuilds them,
with the same result.  Only a sweep that repeats an (n, mu) in the same
process gains from them.

A function argument is an :class:`~fraccalc.expr.Expression` or a
callable that maps a numpy array of points to an array of their shape.
Internally both become a ``Sampler``, built only by ``_sampler`` and
``_prime_sampler``: it maps a float to a float and an array to an array.
An expression's sampler is ``eval`` or ``derivative_values``, which take
either; a callable's sampler hands it a single point as a 1-element array,
the one place where a point is wrapped, refuses values of another shape
with a ValueError and a non-finite value with a DomainError that names the
first point where it was sampled, as an expression's sample does.  Code
below a public function passes its sampler on and never wraps it again.

f' comes only from an expression's Taylor jets (``derivative_values``), so
every function that samples f' refuses a callable f with a TypeError.  A
callable is integrated by ``rl_integral`` (a derivative the caller holds
too) and differentiated by ``rl_derivative(..., method="direct")``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import AssumptionError, DomainError
from .expr import Expression, Scalar, _scalar_loop, derivative_values

__all__ = [
    "FractionalParams",
    "OperatorValue",
    "gamma",
    "rl_integral",
    "rl_derivative",
    "caputo_derivative",
    "f_lower",
    "integral_on_grid",
    "base_value",
]

#: float -> float and array -> array (see the module docstring)
Sampler = Callable[[Scalar], Scalar]
#: what the public functions accept: an expression or an array -> array callable
FuncLike = Union[Expression, Callable[[np.ndarray], np.ndarray]]

#: absolute and relative tolerance of the adaptive oracle
_ORACLE_TOL = 1e-10


def gamma(z: float) -> float:
    """Gamma(z) for z > 0."""
    z = float(z)
    if not z > 0.0:
        raise ValueError(f"gamma requires z > 0, got {z!r}")
    try:
        return math.gamma(z)
    except OverflowError:
        raise DomainError(f"gamma({z!r}) overflows a float") from None


# ---------------------------------------------------------------------------
# Parameter and result containers


def _check_alpha(alpha: float) -> None:
    """Refuse a derivative order outside (0, 1)."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must satisfy 0 < alpha < 1, got {alpha!r}")


def _check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int; a ValueError naming it unless it is an integer >= minimum."""
    if not (minimum <= value < math.inf and int(value) == value):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FractionalParams:
    """Order, base point and grid resolution for the operators.

    ``alpha`` must lie strictly inside (0, 1); behaviour at the endpoints
    is only ever probed through limits, never evaluated.  ``grid_n`` is
    kept as an int, so an integral float such as 256.0 acts as 256.
    """

    alpha: float
    a: float
    grid_n: int = 2048

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not math.isfinite(self.a):
            raise ValueError("base point a must be finite")
        object.__setattr__(self, "grid_n", _check_count("grid_n", self.grid_n, 2))


@dataclass(frozen=True)
class OperatorValue:
    """``est_error`` is |fine - half| of the unrefined grid pair plus
    ``_extrapolate``'s floor, next to the refined value: loose, a median
    1,674 times the true error on a power-law corpus."""

    value: float
    est_error: float


# ---------------------------------------------------------------------------
# Sampling helpers


def _sampler(f: FuncLike) -> Sampler:
    if isinstance(f, Expression):
        return f.eval

    def sample(ts: Scalar) -> Scalar:
        points = ts if isinstance(ts, np.ndarray) else np.array([ts], dtype=float)
        values = np.asarray(f(points), dtype=float)
        if values.shape != points.shape:
            raise ValueError(f"the callable f must map an array of points to an array of the same shape: "
                             f"points of shape {points.shape} gave values of shape {values.shape}")
        finite = np.isfinite(values)
        if not finite.all():
            t = float(points.flat[np.argmin(finite)])  # the first point whose value is not finite
            raise DomainError(f"non-finite value from the callable f at t={t!r}")
        return values if points is ts else float(values[0])

    return sample


def _prime_sampler(f: FuncLike) -> Sampler:
    if isinstance(f, Expression):
        return lambda ts: derivative_values(f, ts, 1)
    raise TypeError(
        "f' is sampled from an Expression's jets, and a callable f has none: "
        "use rl_derivative(..., method='direct'), or rl_integral of a derivative you hold"
    )


def base_value(f: FuncLike, a: float, *, allow_nonzero: Optional[bool] = None) -> float:
    """Return f(a), enforcing |f(a)| <= 1e-12 unless ``allow_nonzero``.

    A caller that takes ``allow_nonzero_base`` passes it on, True or False;
    only then does the refusal name that remedy.  None refuses without it."""
    fa = _sampler(f)(a)
    if not abs(fa) <= 1e-12:  # "not <=", so a nan f(a) is refused too
        if not allow_nonzero:
            remedy = "" if allow_nonzero is None else (
                "; pass allow_nonzero_base=True (CLI --allow-nonzero-base) to downgrade to Caputo semantics")
            raise AssumptionError(f"f(a) must be 0 for this operation (got f({a!r}) = {fa!r}){remedy}")
        warnings.warn(
            f"f(a) = {fa!r} != 0: result has Caputo (not Riemann-Liouville) semantics",
            stacklevel=_outside_package(),
        )
    return fa


def _outside_package() -> int:
    """The ``stacklevel`` that attributes a warning raised by this
    function's caller to the first frame outside the package: the line that
    called the public function, however deep below it the warning starts."""
    level, frame = 2, sys._getframe(2)
    while frame is not None and frame.f_globals.get("__name__", "").startswith("fraccalc."):
        level, frame = level + 1, frame.f_back
    return level


# ---------------------------------------------------------------------------
# Product-trapezoid (L1-type) rule

class _ArrayCache(dict):
    """A dict of numpy arrays that keeps the total of their ``nbytes``, so
    the free budget costs no pass over the entries (a sweep of 1,000 orders
    holds about 2,000 weight tables).  Entries are set, deleted or cleared."""

    nbytes = 0

    def __setitem__(self, key, value: np.ndarray) -> None:
        if key in self:
            del self[key]
        super().__setitem__(key, value)
        self.nbytes += value.nbytes

    def __delitem__(self, key) -> None:
        self.nbytes -= self[key].nbytes
        super().__delitem__(key)

    def clear(self) -> None:
        super().clear()
        self.nbytes = 0


_WEIGHT_CACHE = _ArrayCache()
#: total bytes of arrays the cache may hold; a larger array is never cached
_WEIGHT_CACHE_MAX_BYTES = 64 << 20
#: grid nodes that one batch of pointwise quadratures samples at most; a
#: larger batch is split in order, down to one quadrature per batch.  Five
#: grids of 2,049 nodes: per quadrature, batches of 2-6 such grids ran 20-30%
#: faster than one at a time, and batches of 12 barely faster (2-core VM)
_BATCH_MAX_POINTS = 12288


def _cache_room() -> int:
    """Bytes the weight cache can still take without evicting anything."""
    return _WEIGHT_CACHE_MAX_BYTES - _WEIGHT_CACHE.nbytes


def _cache_put(key: tuple, value: np.ndarray) -> None:
    """Keep ``value`` in the weight cache; an array larger than the whole
    budget is not kept.  When the free budget is too small, the cached
    spectra go first and the whole cache only if that is not enough, so the
    weights kept are the same as in a cache that never held spectra.  That
    rule, with spectra cached only in free room, bounds the peak memory:
    ``mono --grid-n 1048576`` peaks at 210.5 MB RSS, and at 238 MB when
    spectra may evict weights through this function like any entry (2-core
    Linux VM), over the 231.6 MB bound the test workflow sets."""
    if value.nbytes > _WEIGHT_CACHE_MAX_BYTES:
        return
    if value.nbytes > _cache_room():
        for k in [k for k in _WEIGHT_CACHE if k[-1] == "spectra"]:
            del _WEIGHT_CACHE[k]
    if value.nbytes > _cache_room():
        _WEIGHT_CACHE.clear()
    _WEIGHT_CACHE[key] = value


def _l1_weights(n: int, mu: float) -> np.ndarray:
    """Packed product-trapezoid weights for n panels: 2n + 1 entries w.

    ``w[:n+1]`` are the node weights c[0..n] of the n-panel rule,
    integral ~ h^mu / Gamma(mu+2) * c . f.  ``w[n+j]`` (j = 1..n) is the
    node-0 weight of the j-panel prefix, whose weights on nodes 1..j are
    the contiguous tail c[n-j+1:], so every prefix sum reads one slice:
    I^mu at node j ~ h^mu / Gamma(mu+2) * (w[n+j] f[0] + w[n-j+1:n+1] . f[1:j+1]).
    """
    key = (n, mu)
    cached = _WEIGHT_CACHE.get(key)
    if cached is not None:
        return cached
    p = mu + 1.0
    m = np.arange(n + 1, dtype=float)
    w = np.empty(2 * n + 1)
    w[n] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mp = m**p
        # node j is shared by panels j-1 and j; its weight is the second
        # difference of m^(mu+1) at distance m = n - j
        w[1:n] = (mp[2:] - 2.0 * mp[1:n] + mp[: n - 1])[::-1]
        w[n + 1 :] = mp[:n] - mp[1:] + p * m[1:] ** mu
        # equal to w[2n] but for the last bit in a few % of (n, mu): a scalar
        # power rounds differently from an array one
        w[0] = mp[n - 1] - mp[n] + p * m[n] ** mu
    if not np.isfinite(w).all():
        raise DomainError(f"product-trapezoid weights overflow a float: m^(mu+1) with mu={mu!r} for m up to n={n}")
    _cache_put(key, w)
    return w


def _smooth_length(m: int) -> int:
    """The least 5-smooth integer >= m >= 1: a length whose FFT splits into
    radices 2, 3 and 5 alone."""
    best, p5 = 1 << (m - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _block_spectra(n: int, mu: float, v: np.ndarray):
    """Yield ``lo``, the transform length ``size`` and the weight spectrum
    ``rfft(v[:2*lo], size)`` for each FFT block [lo, min(2*lo, n)) of the
    n-panel sweep, lo = 64, 128, ... < n: size 3*lo, but for a last block
    with n < 2*lo its own size, the least 5-smooth integer >= 2*n - 1 - lo.
    At either size nothing wraps onto the block's nodes (see
    ``integral_on_grid``).

    The spectra depend only on (n, mu) and are built once into one packed
    complex array, cached under (n, mu, "spectra") when it fits in the free
    budget of the weight cache: caching them never evicts anything, and
    ``_cache_put`` drops them before any weights.  When it does not fit,
    each block's spectrum is built as it is read, bit for bit the same."""
    blocks = []  # (lo, size, the slice of the packed array that holds block lo)
    total, lo = 0, 64
    while lo < n:
        size = 3 * lo if 2 * lo <= n else _smooth_length(2 * n - 1 - lo)
        blocks.append((lo, size, slice(total, total + size // 2 + 1)))
        total += size // 2 + 1
        lo *= 2
    key = (n, mu, "spectra")
    packed = _WEIGHT_CACHE.get(key)
    if packed is None and 0 < 16 * total <= _cache_room():
        packed = np.empty(total, dtype=complex)
        for lo, size, at in blocks:
            packed[at] = np.fft.rfft(v[: 2 * lo], size)
        _cache_put(key, packed)
    for lo, size, at in blocks:
        yield lo, size, np.fft.rfft(v[: 2 * lo], size) if packed is None else packed[at]


def _power(x: float, p: float) -> float:
    """x^p for x >= 0, raising DomainError where it overflows a float."""
    try:
        return math.pow(x, p)
    except OverflowError:
        raise DomainError(f"{x!r}^{p!r} overflows a float") from None


def _l1_sum(samples: np.ndarray, h: float, mu: float) -> float:
    n = len(samples) - 1
    return _power(h, mu) / gamma(mu + 2.0) * float(_l1_weights(n, mu)[: n + 1] @ samples)


def integral_on_grid(samples: np.ndarray, h: float, mu: float) -> np.ndarray:
    """I^mu of gridded data at every node of its own uniform grid.

    ``samples[j]`` are function values at a + j*h; entry i of the result
    is the product-trapezoid value of I^mu at a + i*h (entry 0 is 0).
    The inner sum is a discrete convolution: direct for the first 64 nodes,
    then for each block of nodes [lo, 2*lo) a product of spectra, one real
    FFT of the data up to index 2*lo and one of the block's weights, and one
    inverse FFT, all of length 3*lo: the linear convolution of two arrays of
    2*lo entries ends at index 4*lo - 2, so a circular one of length 3*lo
    folds nothing onto the indices lo..2*lo-1 that the block keeps.  A last
    block [lo, n) with n < 2*lo has its own length, the least 5-smooth one
    >= 2*n - 1 - lo: its arrays hold n entries, so their convolution ends at
    2*n - 2 and nothing folds onto lo..n-1.  A sweep just past a power of
    two then costs about what the one at it does, not twice as much.
    The sweep costs O(n log n), and each node's round-off is relative to
    the data up to twice its index, not to the whole array.
    The weight spectra of all blocks are cached with the weights, so a
    repeated (n, mu) costs two FFTs per block, unless they do not fit in the
    cache's free budget; then they are rebuilt on every sweep, with the same
    result.  Scans read their nodes through ``_strided_integral``.
    """
    if not (0.0 < mu < math.inf):
        raise ValueError(f"integral_on_grid order mu must be finite and > 0, got {mu!r}")
    if not (0.0 < h < math.inf):
        raise ValueError(f"integral_on_grid step h must be finite and > 0, got {h!r}")
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError(f"integral_on_grid samples must be a one-dimensional array, got shape {samples.shape}")
    n = len(samples) - 1
    if n < 0:
        raise ValueError("integral_on_grid samples must hold at least one value, got an empty array")
    if n == 0:
        _check_finite(samples)
        return np.zeros(1)
    w = _l1_weights(n, mu)
    scale = _power(h, mu) / gamma(mu + 2.0)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        v = w[n:0:-1]  # v[d]: weight of the node at distance d from the endpoint
        # out[j] first holds the inner sum over nodes 1..j; a block's
        # entries past n read truncated data and are not written
        out = np.empty(n + 1)
        out[0] = 0.0
        m = min(n, 64)
        out[1 : m + 1] = np.convolve(samples[1:65], v[:64])[:m]
        for lo, size, wspec in _block_spectra(n, mu, v):
            spec = np.fft.rfft(samples[1 : 2 * lo + 1], size)
            spec *= wspec
            del wspec  # a spectrum built for this sweep alone is freed before the inverse FFT
            hi = min(2 * lo, n)
            out[lo + 1 : hi + 1] = np.fft.irfft(spec, size)[lo:hi]
            del spec  # freed before the next block's transforms claim their scratch
        out[1:] += w[n + 1 :] * samples[0]
        out[1:] *= scale
    if not np.isfinite(out).all():
        _check_finite(samples)  # a non-finite sample makes its own sum non-finite
        raise DomainError(f"product-trapezoid sums for I^{mu!r} overflow a float")
    return out


def _check_finite(samples: np.ndarray) -> None:
    """Refuse the first non-finite entry of ``integral_on_grid``'s samples, by index."""
    i = int(np.argmin(np.isfinite(samples)))
    if not math.isfinite(samples[i]):
        raise ValueError(f"integral_on_grid samples must be finite, got {float(samples[i])!r} at index {i}")


def _strided_integral(samples: np.ndarray, h: float, mu: float, k: int) -> np.ndarray:
    """I^mu of gridded data at the nodes k, 2k, ..., n of its own grid (k divides n).

    Entries equal those of ``integral_on_grid(samples, h, mu)[k::k]`` up to
    round-off.  The data and the weights are cut into M <= 65 chunks of
    L = k*p points, p = ceil(m/64) for the m nodes.  The nodes j = Q*L + rho
    of one phase rho in 0, k, ..., L - k meet the same weight chunks, so
    one product C of the weight chunks and the data chunks holds every
    chunk-by-chunk sum of the phase, and one np.bincount adds up the
    diagonal of C that belongs to each node.  That is O(m n) work in p
    BLAS calls, with temporaries of O(n) plus an M x M matrix.
    """
    n = len(samples) - 1
    m = n // k
    w = _l1_weights(n, mu)
    p = -(-m // 64)
    L = k * p
    M = n // L + 1  # the last chunk is part padding
    data = np.zeros((M, L))
    data.ravel()[:n] = samples[1:]
    # g[M*L - 1 - d] is the weight of the point at distance d from the
    # node, 0 for d < 0 and d >= n
    g = np.zeros((M + 1) * L)
    g[M * L - n : M * L] = w[1 : n + 1]
    # row i of the phase's weight chunks meets data chunk c at node chunk c + M - 1 - i
    diag = (np.arange(M) - np.arange(M)[:, None] + (M - 1)).ravel()
    sums = np.empty((M, p))  # sums[Q, r]: node Q*L + r*k
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for r in range(p):
            rho = r * k
            c = g[L - rho : (M + 1) * L - rho].reshape(M, L) @ data.T
            sums[:, r] = np.bincount(diag, c.ravel())[:M]
        out = sums.ravel()[1 : m + 1] + w[n + k :: k] * samples[0]
        out *= _power(h, mu) / gamma(mu + 2.0)
    if not np.isfinite(out).all():
        raise DomainError(f"product-trapezoid sums for I^{mu!r} overflow a float")
    return out


def _grid(a: float, x: float, n: int) -> tuple:
    """The n + 1 nodes a + j*h of [a, x], h = (x - a)/n, the last exactly x; and h.

    Every uniform point set of the package is built here, or as here by
    ``_fill_grid`` (the rows of ``_nested``), or sliced from one; the nodes equal ``np.linspace(a, x, n + 1)`` bit for bit.  An interval
    whose step overflows a float is a DomainError, and the last node is not
    computed, so a grid ending near the largest float does not overflow."""
    ts = np.empty(n + 1)
    return ts, _fill_grid(ts, a, x, n)


def _fill_grid(ts: np.ndarray, a: float, x: float, n: int) -> float:
    """Write the nodes of ``_grid(a, x, n)`` into ts, which may be a row of a
    larger array; return the step."""
    a, x = float(a), float(x)
    h = (x - a) / n
    if not math.isfinite(h):
        raise DomainError(f"the interval [{a!r}, {x!r}] is wider than a float")
    body = ts[:n]
    np.multiply(np.arange(n, dtype=float), h, out=body)
    body += a
    ts[n] = x
    return h


def _panels(grid_n: int) -> int:
    """grid_n rounded up to a multiple of 4, so the half and quarter grids nest."""
    return -(-int(grid_n) // 4) * 4


def _extrapolate(v1: float, v2: float, v4: float) -> tuple:
    """(value, estimate) from the fine, half and quarter grid values: v1 refined at the measured
    order in [0.9, 2.5] if |v1 - v2| > floor = 1e-15*max(|v1|, |v2|, 1), else v1; |v1 - v2| + floor."""
    d1, d2 = v1 - v2, v2 - v4
    floor = 1e-15 * max(abs(v1), abs(v2), 1.0)
    est = abs(d1) + floor
    if abs(d1) <= floor or abs(d2) <= abs(d1):
        return v1, est
    order = math.log(abs(d2) / abs(d1)) / math.log(2.0)
    return (v1 + d1 / (2.0**order - 1.0) if 0.9 <= order <= 2.5 else v1), est


def _nested(sample: Sampler, a: float, xs: list, grid_n: int, rules: list) -> list:
    """``_extrapolate`` of ``rule(samples, h)`` at strides 1, 2 and 4 of one ``_panels(grid_n)`` grid
    on [a, x], for each pair of ``xs`` and ``rules``: the grids are the rows of
    one array, each filled as ``_grid`` fills it and all sampled in one call,
    and each row's sums are those of a call with that row alone, bit for bit.
    A non-finite sum, or a refined value that is not finite, is a DomainError."""
    for x in xs:
        if not x > a:
            raise ValueError(f"need x > a, got x={x!r}, a={a!r}")
    n = _panels(grid_n)
    ts = np.empty((len(xs), n + 1))
    hs = [_fill_grid(row, a, x, n) for row, x in zip(ts, xs)]
    fv = sample(ts.ravel()).reshape(ts.shape)
    out = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for x, h, rule, row in zip(xs, hs, rules, fv):
            # contiguous copies give the same sums as separately sampled half
            # and quarter grids, bit for bit
            v1, v2, v4 = rule(row, h), rule(row[::2].copy(), 2 * h), rule(row[::4].copy(), 4 * h)
            if not all(map(math.isfinite, (v1, v2, v4))):
                raise DomainError(f"product-trapezoid sum over [{a!r}, {x!r}] overflows a float")
            value, est = _extrapolate(v1, v2, v4)
            if not math.isfinite(value):  # the refinement of finite sums can overflow
                raise DomainError(f"non-finite quadrature value over [{a!r}, {x!r}]")
            out.append((value, est))
    return out


def _in_batches(items: list, nodes: int, together: Callable, alone: Callable) -> list:
    """``together(batch)`` of consecutive batches of ``items``, concatenated;
    a batch holds max(1, ``_BATCH_MAX_POINTS`` // nodes) items, the budget
    read at each call.  A batch that raises runs again as ``alone(item)``
    item by item, so its first failing item raises what it raises alone,
    and later batches do not start."""
    per, out = max(1, _BATCH_MAX_POINTS // nodes), []
    for i in range(0, len(items), per):
        batch = items[i : i + per]
        try:
            done = together(batch)
        except Exception:  # the item-by-item loop defines which failure is raised
            done = None  # it runs once the exception, and the arrays its frames hold, are freed
        out.extend(map(alone, batch) if done is None else done)
    return out


def _kernel_quad_grid(sample: Sampler, a: float, xs: list, mus: list, grid_n: int) -> list:
    """Refined product-trapezoid value of I^mu over [a, x] and its error bound
    at each pair of ``xs`` and ``mus``, in order, as ``_nested`` rows in
    ``_in_batches``.  The fine grid's weights are built before f is sampled:
    at a high order on many panels they overflow a float, found at once."""
    n = _panels(grid_n)

    def together(pairs):
        for _, mu in pairs:
            _l1_weights(n, mu)
        rules = [lambda fv, h, mu=mu: _l1_sum(fv, h, mu) for _, mu in pairs]
        return _nested(sample, a, [x for x, _ in pairs], grid_n, rules)

    return _in_batches(list(zip(xs, mus)), n + 1, together, lambda pair: together([pair])[0])


# ---------------------------------------------------------------------------
# Adaptive oracle (QUADPACK's QAWS rule: the kernel is an algebraic weight)


def _kernel_quad_oracle(sample: Sampler, a: float, x: float, mu: float) -> tuple:
    """(1/Gamma(mu)) * integral_a^x f(t)(x-t)^(mu-1) dt, adaptively."""
    if not x > a:
        raise ValueError(f"need x > a, got x={x!r}, a={a!r}")
    from scipy import integrate as _scipy_integrate  # only the oracle needs scipy

    g = gamma(mu)
    with warnings.catch_warnings(), _scalar_loop():
        warnings.simplefilter("ignore", _scipy_integrate.IntegrationWarning)
        v, e = _scipy_integrate.quad(
            sample, a, x, weight="alg", wvar=(0.0, mu - 1.0), epsabs=_ORACLE_TOL, epsrel=_ORACLE_TOL, limit=200
        )
    total = v / g
    err = e / abs(g) + 1e-16 * abs(total)
    return total, err


# ---------------------------------------------------------------------------
# Public operators


def rl_integral(f: FuncLike, p: FractionalParams, order: float, x: float) -> OperatorValue:
    """Left fractional integral I^order of f over [p.a, x], for any finite order > 0."""
    if not (0.0 < order < math.inf):
        raise ValueError(f"rl_integral order must be finite and > 0, got {order!r}")
    return OperatorValue(*_kernel_quad_grid(_sampler(f), p.a, [x], [order], p.grid_n)[0])


def caputo_derivative(f: Expression, p: FractionalParams, x: float) -> OperatorValue:
    """Caputo derivative I^(1-alpha) f' at x.  Constants differentiate to 0."""
    return OperatorValue(*_kernel_quad_grid(_prime_sampler(f), p.a, [x], [1.0 - p.alpha], p.grid_n)[0])


def rl_derivative(
    f: FuncLike,
    p: FractionalParams,
    x: float,
    method: str = "caputo_form",
    *,
    allow_nonzero_base: Optional[bool] = False,
) -> OperatorValue:
    """Riemann-Liouville derivative D^alpha f at x.

    ``caputo_form`` evaluates I^(1-alpha) f', which equals the RL
    derivative under the f(a) = 0 convention (enforced; a caller that
    offers no ``allow_nonzero_base`` of its own passes None, so the
    refusal does not name it).  ``direct``
    differentiates the (1-alpha)-order integral by the one-sided difference
    (3 u_n - 4 u_(n-1) + u_(n-2)) / (2h) at the last three grid nodes,
    samples f only on [a, x] and needs no derivative of f at all.
    """
    if method == "caputo_form":
        base_value(f, p.a, allow_nonzero=allow_nonzero_base)
        return caputo_derivative(f, p, x)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")

    mu = 1.0 - p.alpha

    def slope(fv: np.ndarray, h: float) -> float:
        # one-sided second-order difference of I^mu f at the last three nodes
        n = len(fv) - 1
        u0, u1, u2 = (_l1_sum(fv[: j + 1], h, mu) for j in (n - 2, n - 1, n))
        return (3.0 * u2 - 4.0 * u1 + u0) / (2.0 * h)

    # the quarter grid needs three nodes past a
    return OperatorValue(*_nested(_sampler(f), p.a, [x], max(12, p.grid_n), [slope])[0])


def f_lower(f: Expression, p: FractionalParams, x: float) -> OperatorValue:
    """The auxiliary lowered function

        f_(1-alpha)(x) = ( f(a) (x-a)^(1-alpha)
                           + integral_a^x f'(t) (x-t)^(1-alpha) dt ) / Gamma(2-alpha)

    which coincides with I^(1-alpha) f; the coincidence is the library's
    primary cross-check for this routine.
    """
    if x == p.a:
        return OperatorValue(0.0, 0.0)
    fa = _sampler(f)(p.a)
    mu = 2.0 - p.alpha  # kernel (x-t)^(1-alpha) = (x-t)^(mu-1)
    ((inner, est),) = _kernel_quad_grid(_prime_sampler(f), p.a, [x], [mu], p.grid_n)
    # the rule folds in 1/Gamma(mu); the target formula wants 1/Gamma(2-alpha)
    boundary = fa * (x - p.a) ** (1.0 - p.alpha) / gamma(2.0 - p.alpha)
    return OperatorValue(boundary + inner, est)
