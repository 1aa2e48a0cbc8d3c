"""Bessel functions of the first kind for integer orders.

Self-contained evaluation of J_m(x) and its zeros, vectorized over numpy
arrays; Python floats take the same array path.  Two regimes: an ascending
power series where its terms are non-increasing (no cancellation), and
Miller's downward recurrence with normalization J_0(x) + 2*sum_t J_{2t}(x) = 1
elsewhere.  Accuracy is ~1e-12 absolute for J_m over the supported order
range, and ~1e-14 for its zeros, which are found for a whole array of
indices in one call.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ORDER = 16

# Renormalization guard for the downward recurrence: rescale the running
# state whenever it exceeds this to avoid overflow at small x / high start.
_RENORM_AT = 1e250
_SERIES_TOL = 1e-18


class UnsupportedOrderError(ValueError):
    """Order outside [0, MAX_ORDER]."""


def _check_order(m):
    if not isinstance(m, (int, np.integer)):
        raise UnsupportedOrderError(f"order must be an integer, got {m!r}")
    if m < 0 or m > MAX_ORDER:
        raise UnsupportedOrderError(f"order {m} outside supported range [0, {MAX_ORDER}]")
    return int(m)


def _series(m, x):
    # J_m(x) = sum_t (-1)^t (x/2)^{m+2t} / (t! (m+t)!), with non-increasing
    # terms for x <= 2*sqrt(m+1) so the sum is cancellation-free.
    half = 0.5 * x
    term = half**m / math.factorial(m)
    out = term.copy()
    q = half * half
    for t in range(400):
        term = -term * q / ((t + 1.0) * (m + t + 1.0))
        out += term
        if np.all(np.abs(term) <= _SERIES_TOL * (np.abs(out) + 1e-300)):
            break
    return out


def _miller(m, x):
    # Downward recurrence J_{n-1} = (2n/x) J_n - J_{n+1} from a start order
    # well above both m and x, normalized by J_0 + 2*sum J_{2t} = 1.
    xmax = float(np.max(x))
    nstart = max(m, int(np.ceil(xmax))) + 60 + int(np.ceil(0.5 * xmax))
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    ssum = np.zeros_like(x)
    want = np.zeros_like(x)
    for n in range(nstart, 0, -1):
        jm = (2.0 * n / x) * jc - jp
        jp, jc = jc, jm
        if n - 1 == m:
            want = jc.copy()
        if (n - 1) >= 2 and (n - 1) % 2 == 0:
            ssum = ssum + 2.0 * jc
        big = np.abs(jc) > _RENORM_AT
        if np.any(big):
            scale = np.where(big, 1e-250, 1.0)
            jp = jp * scale
            jc = jc * scale
            ssum = ssum * scale
            want = want * scale
    ssum = ssum + jc  # jc is now J_0
    return want / ssum


def bessel_j(order, x):
    """J_order(x) for integer 0 <= order <= MAX_ORDER and x >= 0.

    Accepts scalars or arrays; returns a matching float64 result.  A value
    can depend on the other points of the array by about 1e-16: _miller
    starts its recurrence at an order set by the array's largest x, and
    _series runs until every point has converged.  So bessel_j(1, [7.5])
    and bessel_j(1, [7.5, 60.0])[0] can differ in the last bit, and results
    agree bit for bit only for the same set of values.  Nothing else about
    the array matters (every other step is elementwise), so repeats and
    order do not: evaluating on np.unique(x) and indexing the result back
    gives the same bits as evaluating on x.
    """
    m = _check_order(order)
    xa = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(xa)):
        raise ValueError("bessel_j requires finite x")
    if np.any(xa < 0):
        raise ValueError("bessel_j requires x >= 0")
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa).ravel()
    out = np.empty_like(xa)
    cut = 2.0 * np.sqrt(m + 1.0)
    lo = xa <= cut
    if np.any(lo):
        out[lo] = _series(m, xa[lo])
    hi = ~lo
    if np.any(hi):
        out[hi] = _miller(m, xa[hi])
    return float(out[0]) if scalar else out.reshape(np.shape(x))


def bessel_j_slopes(order, x, jm):
    """(J_order'(x), order * J_order(x) / x) for an array x >= 0 and jm = J_order(x).

    J_0' = -J_1 and J_m' = J_{m-1} - m J_m / x, so no order above m is
    evaluated.  m J_m(x) / x stays finite as x -> 0 (limit 1/2 for m = 1,
    else 0): below x = 1e-8 the leading series term of J_m(x) / x,
    (x/2)^{m-1} / (2 m!), replaces the division.
    """
    m = _check_order(order)
    if m == 0:
        return -bessel_j(1, x), np.zeros_like(x)
    j_over = np.empty_like(x)
    tiny = x < 1e-8
    j_over[tiny] = m * (0.5 * x[tiny]) ** (m - 1) / (2.0 * math.factorial(m))
    j_over[~tiny] = m * jm[~tiny] / x[~tiny]
    return bessel_j(m - 1, x) - j_over, j_over


def bessel_j_derivative(order, x):
    """d/dx J_order(x) for scalars or arrays; see bessel_j_slopes."""
    return _slope(order, x, 0)


def bessel_j_over_x(order, x):
    """order * J_order(x) / x for scalars or arrays; see bessel_j_slopes."""
    return _slope(order, x, 1)


def _slope(order, x, which):
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = bessel_j_slopes(order, xa, bessel_j(order, xa))[which]
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def bessel_zero(order, q):
    """q-th positive zero of J_order (q >= 1), accurate to ~1e-14.

    q is an int (returns a float) or an integer array (returns an array of
    the same shape).  One bessel_j call on a 0.2-step grid that runs one pi
    past McMahon's estimate (q + order/2 - 1/4)*pi of the largest requested
    zero, and so past that zero, brackets them all: consecutive zeros of J_m
    are separated by more than 2.9, so the scan cannot skip a pair.  Six
    Newton steps from the bracket midpoints, each clipped to its bracket so
    it cannot reach a neighbouring zero, then refine every zero at once.
    """
    m = _check_order(order)
    qa = np.asarray(q)
    if not np.issubdtype(qa.dtype, np.integer) or np.any(qa < 1):
        raise ValueError(f"zero index q must be an integer >= 1, got {q!r}")
    step = 0.2
    start = 1e-9 if m == 0 else 0.5 * m
    stop = (int(qa.max()) + 0.5 * m + 0.75) * math.pi
    xs = start + step * np.arange(int((stop - start) / step) + 2)
    f = bessel_j(m, xs)
    left = np.flatnonzero((f[:-1] * f[1:] < 0) | (f[1:] == 0.0))
    lo, hi = xs[left[qa - 1]], xs[left[qa - 1] + 1]
    root = np.atleast_1d(0.5 * (lo + hi))
    for _ in range(6):
        j = bessel_j(m, root)
        root = np.clip(root - j / bessel_j_slopes(m, root, j)[0], lo, hi)
    return float(root[0]) if qa.ndim == 0 else root
