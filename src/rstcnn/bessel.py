"""Bessel functions of the first kind for integer orders.

Self-contained evaluation of J_m(x) and its zeros, vectorized over numpy
arrays; Python floats take the same array path.  Two regimes: an ascending
power series where its terms are non-increasing (no cancellation), and
Miller's downward recurrence with normalization J_0(x) + 2*sum_t J_{2t}(x) = 1
elsewhere.  Accuracy is ~1e-12 absolute for J_m over the supported order
range, and ~1e-14 for its zeros, which are found for a whole array of
indices in one call.

Both regimes run many (order, point set) groups in one pass, and grouping
keeps each group's bits: every point runs the recurrence from its own
group's start order, and each group leaves the series loop when its own
points have converged.  So bessel_j_groups and bessel_zero_groups give bit
for bit what one bessel_j or bessel_zero call per group gives, and those
two are their one-group views.  Only the start order carries bits: a
series term that passes the convergence test is below half an ulp of a
normal partial sum, so leaving later would change nothing but the cost.
A group may carry several orders on one point set: orders whose start
orders agree share one recurrence, which captures each of them as the
state passes it, so J_m and J_{m-1} cost one recurrence, not two.
"""

from __future__ import annotations

import math

import numpy as np

MAX_ORDER = 16

# Renormalization guard for the downward recurrence, checked every
# _RENORM_EVERY orders.  Recurrence points have x > 2 (the series cut
# 2*sqrt(m+1) is at least 2), so a step from order n grows the running state
# by at most 2n/x + 1 <= n + 1: a state below _RENORM_ROOM / (n + 1)^_RENORM_EVERY
# at a check cannot overflow before the next one.  Rescaling by an exact
# power of two changes no bit of the result, whenever it happens.
_RENORM_EVERY = 8
_RENORM_ROOM = 2.0**1000
_RENORM_SCALE = 2.0**-1000
_SERIES_TOL = 1e-18


class UnsupportedOrderError(ValueError):
    """Order outside [0, MAX_ORDER]."""


def _check_order(m):
    if not isinstance(m, (int, np.integer)):
        raise UnsupportedOrderError(f"order must be an integer, got {m!r}")
    if m < 0 or m > MAX_ORDER:
        raise UnsupportedOrderError(f"order {m} outside supported range [0, {MAX_ORDER}]")
    return int(m)


def _series(orders, xs):
    # J_m(x) = sum_t (-1)^t (x/2)^{m+2t} / (t! (m+t)!), with non-increasing
    # terms for x <= 2*sqrt(m+1) so the sum is cancellation-free.  The groups
    # run side by side, and a group leaves at the first step where every one
    # of its terms is below _SERIES_TOL of its partial sum.
    halves = [0.5 * x for x in xs]
    term = np.concatenate([h**m / math.factorial(m) for m, h in zip(orders, halves)])
    out = term.copy()
    q = np.concatenate([h * h for h in halves])
    sizes = np.array([x.size for x in xs])
    # m + 1 per point, or one Python float when every group has the same order
    m1 = orders[0] + 1.0 if len(set(orders)) == 1 else np.repeat(np.array(orders) + 1.0, sizes)
    running = list(range(len(xs)))
    ends = np.cumsum(sizes)
    results = [None] * len(xs)
    for t in range(400):
        term = -term * q / ((t + 1.0) * (m1 + t))
        out += term
        converged = np.abs(term) <= _SERIES_TOL * (np.abs(out) + 1e-300)
        done = np.logical_and.reduceat(converged, ends - sizes)
        if not np.any(done):
            continue
        for g, d, e, s in zip(running, done, ends, sizes):
            if d:
                results[g] = out[e - s : e]
        if np.all(done):
            return results
        # the finished groups leave: the next steps run on the others only
        keep = np.repeat(~done, sizes)
        term, out, q = term[keep], out[keep], q[keep]
        if isinstance(m1, np.ndarray):
            m1 = m1[keep]
        running = [g for g, d in zip(running, done) if not d]
        sizes = sizes[~done]
        ends = np.cumsum(sizes)
    for g, e, s in zip(running, ends, sizes):
        results[g] = out[e - s : e]
    return results


def _start(m, xmax):
    # the order the recurrence for J_m starts from, on points up to xmax
    return max(m, math.ceil(xmax)) + 60 + math.ceil(0.5 * xmax)


def _miller(orders, xs):
    # Downward recurrence J_{n-1} = (2n/x) J_n - J_{n+1} from a start order
    # well above both m and the group's largest x, normalized by
    # J_0 + 2*sum J_{2t} = 1.  A group is a tuple of orders whose start
    # orders agree, each captured as the state passes it.  A group's points
    # join the running state at its start order; groups are laid out latest
    # joiner last, so the running points are always a prefix of x.
    starts = [_start(max(o), float(np.max(x))) for o, x in zip(orders, xs)]
    rank = sorted(range(len(xs)), key=lambda g: -starts[g])
    x = np.concatenate([xs[g] for g in rank])
    ends = np.cumsum([xs[g].size for g in rank])
    joins = {}  # start order -> number of points running from there on
    captures = {}  # n -> (slot, slice) of the group orders whose J is the state after step n
    for g, e in zip(rank, ends):
        joins[starts[g]] = e
        for k, m in enumerate(orders[g]):
            captures.setdefault(m + 1, []).append((k, slice(e - xs[g].size, e)))
    jp = jc = ssum = np.empty(0)
    want = [np.empty(0)] * max(len(o) for o in orders)  # one slot per order of a group
    for n in range(starts[rank[0]], 0, -1):
        if n in joins:
            new = joins[n] - jc.size
            jp = np.concatenate([jp, np.zeros(new)])
            jc = np.concatenate([jc, np.full(new, 1e-30)])
            ssum = np.concatenate([ssum, np.zeros(new)])
            want = [np.concatenate([w, np.zeros(new)]) for w in want]
            xn = x[: joins[n]]
        jm = (2.0 * n / xn) * jc - jp
        jp, jc = jc, jm
        for k, s in captures.get(n, ()):
            want[k][s] = jc[s]
        if (n - 1) >= 2 and (n - 1) % 2 == 0:
            ssum = ssum + 2.0 * jc
        if n % _RENORM_EVERY == 0:
            big = np.maximum(np.abs(jc), np.abs(jp)) > _RENORM_ROOM / (n + 1.0) ** _RENORM_EVERY
            if np.any(big):
                scale = np.where(big, _RENORM_SCALE, 1.0)
                jp = jp * scale
                jc = jc * scale
                ssum = ssum * scale
                want = [w * scale for w in want]
    ssum = ssum + jc  # jc is now J_0
    vals = [w / ssum for w in want]
    results = [None] * len(xs)
    for g, e in zip(rank, ends):
        s = slice(e - xs[g].size, e)
        results[g] = [vals[k][s] for k in range(len(orders[g]))]
    return results


def bessel_j_groups(orders, xs):
    """[bessel_j(m, x) for m, x in zip(orders, xs)], bit for bit, in one pass.

    All groups' series points share one series loop and all their
    recurrence points one downward recurrence, so the per-step cost is paid
    once for the lot instead of once per group.  An entry of orders may be
    a tuple of orders on its point set, whose result is the tuple of their
    values: its orders whose recurrences would start from the same order
    (every order up to the points' largest x) are captured from one state,
    and each value still keeps the bits of its own bessel_j call, because
    every recurrence step is elementwise per point.
    """
    if len(orders) != len(xs):
        raise ValueError(f"{len(orders)} orders for {len(xs)} point sets")
    tuples = [tuple(map(_check_order, o)) if isinstance(o, tuple) else (_check_order(o),) for o in orders]
    flat = []
    for x in xs:
        xa = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(xa)):
            raise ValueError("bessel_j requires finite x")
        if np.any(xa < 0):
            raise ValueError("bessel_j requires x >= 0")
        flat.append(np.atleast_1d(xa).ravel())
    # series groups: one per (order, point set); recurrence groups: one per
    # start order of a point set, on the points any of its orders needs.  A
    # point set's largest x is a recurrence point of each order that has
    # any, so it sets every such order's start order; a lone order needs none.
    outs, series, series_at, miller, miller_at = [], [], [], [], []
    for g, (o, xa) in enumerate(zip(tuples, flat)):
        outs.append([np.empty_like(xa) for _ in o])
        xmax = float(xa.max()) if len(o) > 1 and xa.size else None
        by_start = {}
        for k, m in enumerate(o):
            low = xa <= 2.0 * math.sqrt(m + 1.0)
            high = ~low
            if low.any():
                series.append((m, xa[low]))
                series_at.append((g, k, low))
            if high.any():
                by_start.setdefault(None if xmax is None else _start(m, xmax), []).append((k, high))
        for members in by_start.values():
            union = members[0][1] if len(members) == 1 else np.logical_or.reduce([h for _, h in members])
            miller.append((tuple(o[k] for k, _ in members), xa[union]))
            miller_at.append([(g, k, union, h) for k, h in members])
    if series:
        for (g, k, pick), v in zip(series_at, _series(*zip(*series))):
            outs[g][k][pick] = v
    if miller:
        for at, vs in zip(miller_at, _miller(*zip(*miller))):
            for (g, k, union, pick), v in zip(at, vs):
                outs[g][k][pick] = v if pick is union else v[pick[union]]
    results = []
    for o, group, x in zip(orders, outs, xs):
        values = [float(out[0]) for out in group] if np.ndim(x) == 0 else [out.reshape(np.shape(x)) for out in group]
        results.append(tuple(values) if isinstance(o, tuple) else values[0])
    return results


def bessel_j(order, x):
    """J_order(x) for integer 0 <= order <= MAX_ORDER and x >= 0.

    Accepts scalars or arrays; returns a matching float64 result.  A value
    can depend on the other points of the array by about 1e-16: _miller
    starts its recurrence at an order set by the array's largest x.  So
    bessel_j(1, [7.5]) and bessel_j(1, [7.5, 60.0])[0] can differ in the
    last bit, and results agree bit for bit only for the same set of
    values.  Nothing else about the array matters (every other step is
    elementwise), so repeats and order do not: evaluating on np.unique(x)
    and indexing the result back gives the same bits as evaluating on x.
    Nor do other groups of a bessel_j_groups call, of which this is the
    one-group view.
    """
    return bessel_j_groups([order], [x])[0]


def bessel_j_slopes(order, x, jm, jbelow=None):
    """(J_order'(x), order * J_order(x) / x) for an array x >= 0 and jm = J_order(x).

    J_0' = -J_1 and J_m' = J_{m-1} - m J_m / x, so no order above m is
    evaluated.  jbelow is J_{m-1}(x), or J_1(x) for m = 0; a caller that
    already holds it (from the bessel_j_groups pass that gave jm, say)
    passes it, and otherwise one bessel_j call computes it.  m J_m(x) / x
    stays finite as x -> 0 (limit 1/2 for m = 1, else 0): below x = 1e-8
    the leading series term of J_m(x) / x, (x/2)^{m-1} / (2 m!), replaces
    the division.
    """
    m = _check_order(order)
    if jbelow is None:
        jbelow = bessel_j(1 if m == 0 else m - 1, x)
    if m == 0:
        return -jbelow, np.zeros_like(x)
    j_over = np.empty_like(x)
    tiny = x < 1e-8
    j_over[tiny] = m * (0.5 * x[tiny]) ** (m - 1) / (2.0 * math.factorial(m))
    j_over[~tiny] = m * jm[~tiny] / x[~tiny]
    return jbelow - j_over, j_over


def bessel_zero_groups(orders, qs):
    """[bessel_zero(m, q) for m, q in zip(orders, qs)], bit for bit.

    The bracketing scans of all orders are one bessel_j_groups pass, and
    each Newton step is another over the J_m and J_{m-1} groups of every
    order together.
    """
    if len(orders) != len(qs):
        raise ValueError(f"{len(orders)} orders for {len(qs)} index sets")
    orders = [_check_order(m) for m in orders]
    qas = []
    for q in qs:
        qa = np.asarray(q)
        if not np.issubdtype(qa.dtype, np.integer) or np.any(qa < 1):
            raise ValueError(f"zero index q must be an integer >= 1, got {q!r}")
        qas.append(qa)
    step = 0.2
    grids = []
    for m, qa in zip(orders, qas):
        start = 1e-9 if m == 0 else 0.5 * m
        stop = (int(qa.max()) + 0.5 * m + 0.75) * math.pi
        grids.append(start + step * np.arange(int((stop - start) / step) + 2))
    brackets = []
    for xs, f, qa in zip(grids, bessel_j_groups(orders, grids), qas):
        left = np.flatnonzero((f[:-1] * f[1:] < 0) | (f[1:] == 0.0))
        brackets.append((xs[left[qa - 1]], xs[left[qa - 1] + 1]))
    roots = [np.atleast_1d(0.5 * (lo + hi)) for lo, hi in brackets]
    below = [1 if m == 0 else m - 1 for m in orders]
    for _ in range(6):
        js = bessel_j_groups(orders + below, roots + roots)
        roots = [
            np.clip(root - j / bessel_j_slopes(m, root, j, jb)[0], lo, hi)
            for m, root, j, jb, (lo, hi) in zip(orders, roots, js, js[len(orders) :], brackets)
        ]
    return [float(root[0]) if qa.ndim == 0 else root for root, qa in zip(roots, qas)]


def bessel_zero(order, q):
    """q-th positive zero of J_order (q >= 1), accurate to ~1e-14.

    q is an int (returns a float) or an integer array (returns an array of
    the same shape).  One bessel_j call on a 0.2-step grid that runs one pi
    past McMahon's estimate (q + order/2 - 1/4)*pi of the largest requested
    zero, and so past that zero, brackets them all: consecutive zeros of J_m
    are separated by more than 2.9, so the scan cannot skip a pair.  Six
    Newton steps from the bracket midpoints, each clipped to its bracket so
    it cannot reach a neighbouring zero, then refine every zero at once.
    This is the one-group view of bessel_zero_groups.
    """
    return bessel_zero_groups([order], [q])[0]
