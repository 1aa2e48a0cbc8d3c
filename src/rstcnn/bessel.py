"""Bessel functions of the first kind for integer orders.

Self-contained evaluation of J_m(x) and its zeros, vectorized over numpy
arrays.  Two regimes: an ascending power series where its terms are
non-increasing (no cancellation), and Miller's downward recurrence with
normalization J_0(x) + 2*sum_t J_{2t}(x) = 1 elsewhere.  Accuracy is
~1e-12 absolute over the supported order range, which is what the filter
bank construction needs; nothing here chases the last ulp.
"""

from __future__ import annotations

import functools
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


def _series_scalar(m, x):
    # Same recurrence as _series, in plain floats: the zero finder calls this
    # thousands of times and per-call ndarray overhead dominates otherwise.
    half = 0.5 * x
    term = half**m / math.factorial(m)
    out = term
    q = half * half
    for t in range(400):
        term = -term * q / ((t + 1.0) * (m + t + 1.0))
        out += term
        if abs(term) <= _SERIES_TOL * (abs(out) + 1e-300):
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


def _miller_scalar(m, x):
    # Same recurrence as _miller, in plain floats (same operation order, so
    # the result is bit-identical to the one-element-array path).
    nstart = max(m, int(math.ceil(x))) + 60 + int(math.ceil(0.5 * x))
    jp = 0.0
    jc = 1e-30
    ssum = 0.0
    want = 0.0
    for n in range(nstart, 0, -1):
        jm = (2.0 * n / x) * jc - jp
        jp, jc = jc, jm
        if n - 1 == m:
            want = jc
        if (n - 1) >= 2 and (n - 1) % 2 == 0:
            ssum = ssum + 2.0 * jc
        if abs(jc) > _RENORM_AT:
            jp = jp * 1e-250
            jc = jc * 1e-250
            ssum = ssum * 1e-250
            want = want * 1e-250
    return want / (ssum + jc)


def bessel_j(order, x):
    """J_order(x) for integer 0 <= order <= MAX_ORDER and x >= 0.

    Accepts scalars or arrays; returns a matching float64 result.
    """
    m = _check_order(order)
    if isinstance(x, (float, int)) and not isinstance(x, bool):
        xf = float(x)
        if not math.isfinite(xf):
            raise ValueError("bessel_j requires finite x")
        if xf < 0.0:
            raise ValueError("bessel_j requires x >= 0")
        if xf <= 2.0 * math.sqrt(m + 1.0):
            return float(_series_scalar(m, xf))
        return float(_miller_scalar(m, xf))
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
    shaped = out.reshape(np.shape(x)) if not scalar else out[0]
    return float(shaped) if scalar else shaped


def bessel_j_derivative(order, x):
    """d/dx J_order(x), from J_0' = -J_1 and 2 J_m' = J_{m-1} - J_{m+1}."""
    m = _check_order(order)
    if m == 0:
        return -bessel_j(1, x)
    if m + 1 > MAX_ORDER:
        raise UnsupportedOrderError(f"derivative of order {m} needs order {m + 1} > MAX_ORDER")
    return 0.5 * (bessel_j(m - 1, x) - bessel_j(m + 1, x))


def bessel_j_over_x(order, x):
    """order * J_order(x) / x, finite as x -> 0 (limit 1/2 for order 1, else 0)."""
    m = _check_order(order)
    xa = np.asarray(x, dtype=np.float64)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa).astype(np.float64)
    out = np.zeros_like(xa)
    tiny = xa < 1e-8
    if m >= 1 and np.any(tiny):
        # leading term of J_m(x)/x = (x/2)^{m-1} / (2 m!)
        out[tiny] = m * (0.5 * xa[tiny]) ** (m - 1) / (2.0 * math.factorial(m))
    if np.any(~tiny):
        out[~tiny] = m * bessel_j(m, xa[~tiny]) / xa[~tiny]
    return float(out[0]) if scalar else out.reshape(np.shape(x))


@functools.lru_cache(maxsize=4096)
def bessel_zero(order, q):
    """q-th positive zero of J_order (q >= 1), accurate to ~1e-10.

    Bracket by scanning for sign changes, then bisect and polish with two
    Newton steps.  Consecutive zeros of J_m are separated by more than 2.9,
    so a 0.2 scan step cannot skip a pair.
    """
    m = _check_order(order)
    if q < 1:
        raise ValueError(f"zero index q must be >= 1, got {q}")
    step = 0.2
    x_prev = 1e-9 if m == 0 else max(m * 0.5, 1e-9)
    f_prev = bessel_j(m, x_prev)
    found = 0
    x = x_prev
    for _ in range(100000):
        x = x + step
        f = bessel_j(m, x)
        if f_prev * f < 0 or f == 0.0:
            found += 1
            if found == q:
                lo, hi = x - step, x
                break
        f_prev = f
    else:  # pragma: no cover
        raise RuntimeError(f"zero scan failed for J_{m}, q={q}")
    flo = bessel_j(m, lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = bessel_j(m, mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    root = 0.5 * (lo + hi)
    for _ in range(2):
        d = bessel_j_derivative(m, root)
        if d != 0.0:
            root = root - bessel_j(m, root) / d
    return float(root)
