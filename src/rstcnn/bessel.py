"""Bessel functions of the first kind for integer orders.

Self-contained evaluation of J_m(x) and its zeros, elementwise over numpy
arrays: the order is an int or an integer array broadcast against the
points, and Python floats take the same array path.  Orders run 0 to
MAX_ORDER and points 0 to X_MAX = 500, far past the largest argument a
basis reaches: its radial modes stay below j_{16,1} = 21.1 inside the
unit disk, and the scans for their zeros end below 80.  Two regimes: an ascending power series where its terms
are non-increasing (no cancellation), and Miller's downward recurrence
with normalization J_0(x) + 2*sum_t J_{2t}(x) = 1 elsewhere.  Accuracy is
~1e-12 absolute for J_m over that domain, and ~1e-14 for its zeros.

Every value depends on its (order, x) alone, never on the other entries of
a call.  A recurrence point starts from an order set by its own x, and the
series runs until every point has converged: a term that passes the
convergence test is below half an ulp of a normal partial sum, so the
later terms a converged point still takes change no bit.  Each distinct x
runs one recurrence, which captures every order wanted there as the state
passes it, so J_m and J_{m-1} cost one recurrence, not two.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ORDER = 16

# The largest point bessel_j accepts.  A recurrence step from order n grows
# the running state by at most 2n/x + 1, so from its start value 1e-30 the
# state of any point x <= X_MAX stays below 1e287 (at most 1e284, near
# X_MAX), and its normalization sum below the float64 maximum.
X_MAX = 500.0
_SERIES_TOL = 1e-18
# recurrence points per block, whose state stays in cache
_BLOCK = 32768
_FACTORIAL = np.array([math.factorial(k) for k in range(MAX_ORDER + 1)], dtype=np.float64)
# order m's series runs on x <= 2*sqrt(m+1), its recurrence above
_SERIES_CUT = 2.0 * np.sqrt(np.arange(MAX_ORDER + 1) + 1.0)


class UnsupportedOrderError(ValueError):
    """Order outside [0, MAX_ORDER]."""


def _orders(order):
    # an int or integer array of orders in [0, MAX_ORDER], as an int array
    m = np.asarray(order)
    if m.dtype.kind not in "biu":
        raise UnsupportedOrderError(f"order must be an integer, got {order!r}")
    bad = (m < 0) | (m > MAX_ORDER)
    if np.any(bad):
        raise UnsupportedOrderError(f"order {m[bad].flat[0]} outside supported range [0, {MAX_ORDER}]")
    return m.astype(np.intp)


def _series(m, x):
    # J_m(x) = sum_t (-1)^t (x/2)^{m+2t} / (t! (m+t)!), with non-increasing
    # terms for x <= 2*sqrt(m+1) so the sum is cancellation-free.  It runs
    # until every term is below _SERIES_TOL of its partial sum.
    h = 0.5 * x
    term = h**m / _FACTORIAL[m]
    out = term.copy()
    q = h * h
    m1 = m + 1.0
    for t in range(400):
        term = -term * q / ((t + 1.0) * (m1 + t))
        out += term
        if np.all(np.abs(term) <= _SERIES_TOL * (np.abs(out) + 1e-300)):
            break
    return out


def _miller(m, x):
    # Downward recurrence J_{n-1} = n (2/x) J_n - J_{n+1}, normalized by
    # J_0 + 2*sum J_{2t} = 1.  The entries are sorted by descending x, and
    # each distinct x runs once, from the start order
    # max(MAX_ORDER, ceil(x)) + 60 + ceil(x/2), so the running points are
    # always a prefix; each entry (m, x) is captured as its x's state passes
    # m.  The points run in blocks of _BLOCK, whose state stays in cache.
    order = np.argsort(-x)
    m, x = m[order], x[order]
    first = np.ones(x.size, dtype=bool)
    first[1:] = x[1:] != x[:-1]
    xs, at = x[first], np.cumsum(first) - 1
    out = np.empty(x.size)
    edges = np.searchsorted(at, np.arange(0, xs.size + _BLOCK, _BLOCK))
    for lo, hi in zip(edges[:-1], edges[1:]):
        p = at[lo]
        out[order[lo:hi]] = _recurrence(m[lo:hi], xs[p : at[hi - 1] + 1], at[lo:hi] - p)
    return out


def _recurrence(m, xs, at):
    # _miller on one block: entry i is order m[i] at the point xs[at[i]], xs decreasing
    starts = (np.maximum(MAX_ORDER, np.ceil(xs)) + 60 + np.ceil(0.5 * xs)).astype(np.intp)
    top = int(starts[0])
    # the number of points running at each order n
    running = np.searchsorted(-starts, -np.arange(top + 1), side="right")
    # half holds sum_t J_{2t} for t >= 1: doubling is exact, so 2 * half + J_0
    # has the bits of summing the 2 J_{2t}
    jp, jc, half, tmp = np.zeros(xs.size), np.zeros(xs.size), np.zeros(xs.size), np.empty(xs.size)
    # row n holds J_n once the state has passed n
    captured = np.zeros((MAX_ORDER + 1, xs.size))
    two_over_x = 2.0 / xs
    joined = 0
    for n in range(top, 0, -1):
        k = running[n]
        if k > joined:
            jp[joined:k], jc[joined:k] = 0.0, 1e-30
            joined = k
        # the new J_{n-1} replaces J_{n+1}, then the two swap names
        t = tmp[:k]
        np.multiply(two_over_x[:k], n, out=t)
        t *= jc[:k]
        np.subtract(t, jp[:k], out=jp[:k])
        jp, jc = jc, jp
        if n - 1 <= MAX_ORDER:
            captured[n - 1] = jc
        if (n - 1) >= 2 and (n - 1) % 2 == 0:
            half[:k] += jc[:k]
    norm = 2.0 * half + jc  # jc is now J_0
    return captured[m, at] / norm[at]


def bessel_j(order, x):
    """J_order(x) for integer 0 <= order <= MAX_ORDER and 0 <= x <= X_MAX, elementwise.

    order is an int or an integer array, broadcast against x; the result
    is a float when both are scalars and a float64 array of the broadcast
    shape otherwise.  Each value depends on its (order, x) alone, so an
    entry keeps its bits whatever else the call evaluates.
    """
    m = _orders(order)
    xa = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(xa)):
        raise ValueError("bessel_j requires finite x")
    if np.any(xa < 0):
        raise ValueError("bessel_j requires x >= 0")
    if np.any(xa > X_MAX):
        raise ValueError(f"bessel_j requires x <= X_MAX = {X_MAX:g}, got {float(xa.max())!r}")
    shape = np.broadcast_shapes(m.shape, xa.shape)
    ms, xs = (np.broadcast_to(a, shape).ravel() for a in (m, xa))
    out = np.empty(xs.size)
    low = xs <= _SERIES_CUT[ms]
    out[low] = _series(ms[low], xs[low])
    high = ~low
    out[high] = _miller(ms[high], xs[high])
    return float(out[0]) if shape == () else out.reshape(shape)


def bessel_j_slopes(order, x, jm, jbelow):
    """(J_order'(x), order * J_order(x) / x) for x >= 0, jm = J_order(x) and jbelow = J_{order-1}(x).

    Elementwise like bessel_j: order is an int or an integer array,
    broadcast against the arrays x, jm and jbelow, where jbelow is J_1(x)
    for order 0.  J_0' = -J_1 and J_m' = J_{m-1} - m J_m / x, so no order
    above m is evaluated.  m J_m(x) / x stays finite as x -> 0 (limit 1/2
    for m = 1, else 0): below x = 1e-8 the leading series term of
    J_m(x) / x, (x/2)^{m-1} / (2 m!), replaces the division.
    """
    m, x, jm, jbelow = np.broadcast_arrays(_orders(order), x, jm, jbelow)
    j_over = np.zeros(x.shape)
    tiny = (x < 1e-8) & (m > 0)
    rest = (x >= 1e-8) & (m > 0)
    mt = m[tiny]
    j_over[tiny] = mt * (0.5 * x[tiny]) ** (mt - 1) / (2.0 * _FACTORIAL[mt])
    j_over[rest] = m[rest] * jm[rest] / x[rest]
    return np.where(m == 0, -jbelow, jbelow - j_over), j_over


def bessel_zero(order, q):
    """q-th positive zero of J_order (q >= 1), accurate to ~1e-14, elementwise.

    order is an int or an integer array and q an int or an integer array,
    broadcast against each other; the result is a float when both are
    scalars and an array of the broadcast shape otherwise.  One bessel_j
    call scans every order's 0.2-step grid, which runs one pi past
    McMahon's estimate (q + order/2 - 1/4)*pi of the largest requested
    zero, and so past that zero, and brackets them all: consecutive zeros
    of J_m are separated by more than 2.9, so the scan cannot skip a pair.
    A grid point is start + 0.2 i, so a longer grid brackets each zero
    alike.  Six Newton steps from the bracket midpoints, each one bessel_j
    call for J_m and J_{m-1} at every zero and clipped to its bracket so it
    cannot reach a neighbouring zero, then refine every zero at once.  A q
    whose scan would pass X_MAX raises ValueError.
    """
    m = _orders(order)
    qa = np.asarray(q)
    if not np.issubdtype(qa.dtype, np.integer) or np.any(qa < 1):
        raise ValueError(f"zero index q must be an integer >= 1, got {q!r}")
    shape = np.broadcast_shapes(m.shape, qa.shape)
    m, qa = (np.broadcast_to(a, shape).ravel() for a in (m, qa))
    orders, row = np.unique(m, return_inverse=True)
    step = 0.2
    starts = np.where(orders == 0, 1e-9, 0.5 * orders)
    stop = (int(qa.max()) + 0.5 * orders.max() + 0.75) * math.pi
    count = int((stop - starts.min()) / step) + 2
    if starts.max() + step * (count - 1) > X_MAX:
        raise ValueError(f"zero index q = {int(qa.max())} needs a scan past X_MAX = {X_MAX:g}")
    grid = starts[:, None] + step * np.arange(count)
    f = bessel_j(orders[:, None], grid)
    changes = np.cumsum((f[:, :-1] * f[:, 1:] < 0) | (f[:, 1:] == 0.0), axis=1)
    # the q-th sign change of each entry's order is where its count reaches q
    left = np.sum(changes[row] < qa[:, None], axis=1)
    lo, hi = grid[row, left], grid[row, left + 1]
    roots = 0.5 * (lo + hi)
    below = np.where(m == 0, 1, m - 1)
    for _ in range(6):
        j, jb = bessel_j(np.stack([m, below]), roots)
        roots = np.clip(roots - j / bessel_j_slopes(m, roots, j, jb)[0], lo, hi)
    return float(roots[0]) if shape == () else roots.reshape(shape)
