import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import rstcnn.bessel
from rstcnn.bessel import (
    UnsupportedOrderError,
    bessel_j,
    bessel_j_groups,
    bessel_j_slopes,
    bessel_zero,
    bessel_zero_groups,
)

# 17-digit values computed with mpmath at 25-digit precision.
J_TABLE = [
    (0, 0.5, 0.9384698072408129),
    (1, 1.0, 0.44005058574493352),
    (2, 7.3, -0.26559491188343691),
    (3, 0.1, 2.0820315754756265e-5),
    (5, 3.2, 0.056238012615117927),
    (8, 20.0, -0.073868928840750341),
    (0, 30.0, -0.086367983581040211),
    (4, 12.5, 0.22616536886967031),
    (12, 9.0, 0.027392888670559681),
]

ZERO_TABLE = [
    (0, 1, 2.4048255576957728),
    (0, 2, 5.5200781102863106),
    (1, 1, 3.8317059702075123),
    (2, 1, 5.1356223018406826),
    (3, 4, 16.223466160318768),
    (8, 8, 36.025615063869571),
    (5, 2, 12.338604197466944),
]

DERIV_TABLE = [
    (0, 1.7, -0.57776523152902322),
    (1, 0.3, 0.48323019229461606),
    (4, 9.1, -0.040789879830195933),
]


def slopes(m, xs):
    """(J_m'(xs), m J_m(xs) / xs) for an array xs, the J_m(xs) from bessel_j."""
    return bessel_j_slopes(m, xs, bessel_j(m, xs))


@pytest.mark.parametrize("m,x,expected", J_TABLE)
def test_bessel_j_frozen_values(m, x, expected):
    assert bessel_j(m, x) == pytest.approx(expected, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("m,q,expected", ZERO_TABLE)
def test_bessel_zero_frozen_values(m, q, expected):
    assert bessel_zero(m, q) == pytest.approx(expected, rel=0, abs=1e-10)


@pytest.mark.parametrize("m,x,expected", DERIV_TABLE)
def test_bessel_j_derivative_frozen_values(m, x, expected):
    assert slopes(m, np.array([x]))[0][0] == pytest.approx(expected, rel=1e-12, abs=1e-14)


def test_scipy_cross_check():
    scipy_special = pytest.importorskip("scipy.special")
    xs = np.linspace(0.01, 40.0, 173)
    for m in range(0, 13):
        ours = np.array([bessel_j(m, x) for x in xs])
        theirs = scipy_special.jv(m, xs)
        assert np.abs(ours - theirs).max() < 1e-12
    for m in range(9):
        theirs = scipy_special.jn_zeros(m, 8)
        ours = np.array([bessel_zero(m, q) for q in range(1, 9)])
        assert np.abs(ours - theirs).max() < 1e-9


def test_special_points():
    assert bessel_j(0, 0.0) == 1.0
    for m in range(1, 9):
        assert bessel_j(m, 0.0) == 0.0
    # J_m(x)/x at 0: 1/2 for m = 1, 0 otherwise
    assert slopes(1, np.array([0.0]))[1][0] == pytest.approx(0.5, abs=1e-14)
    assert slopes(2, np.array([0.0]))[1][0] == 0.0


def test_zeros_interleave_and_increase():
    for m in range(9):
        zs = [bessel_zero(m, q) for q in range(1, 9)]
        assert all(a < b for a, b in zip(zs, zs[1:]))
        if m < 8:
            zs_next = [bessel_zero(m + 1, q) for q in range(1, 9)]
            # classical interlacing: j_{m,q} < j_{m+1,q} < j_{m,q+1}
            assert all(a < b < c for a, b, c in zip(zs, zs_next, zs[1:]))


def test_vectorized_matches_scalar():
    xs = np.linspace(0.0, 25.0, 57)
    vec = bessel_j(3, xs)
    assert vec.shape == xs.shape
    for i, x in enumerate(xs):
        # array and scalar paths may differ in the last ulp
        assert vec[i] == pytest.approx(bessel_j(3, float(x)), rel=1e-14, abs=1e-300)


def test_derivative_matches_finite_difference():
    h = 1e-6
    for m in range(7):
        for x in (0.7, 3.3, 11.2):
            fd = (bessel_j(m, x + h) - bessel_j(m, x - h)) / (2 * h)
            assert slopes(m, np.array([x]))[0][0] == pytest.approx(fd, abs=5e-9)


def test_derivative_matches_scipy_through_max_order():
    # J_m' = J_{m-1} - m J_m / x needs no order above m, so MAX_ORDER = 16 works too
    scipy_special = pytest.importorskip("scipy.special")
    xs = np.linspace(0.0, 12.0, 241)
    for m in range(17):
        assert np.abs(slopes(m, xs)[0] - scipy_special.jvp(m, xs)).max() < 1e-12


def test_slopes_obey_the_neighbour_identities():
    # with jm = J_m(x): J_m' = (J_{m-1} - J_{m+1}) / 2 and m J_m / x = (J_{m-1} + J_{m+1}) / 2
    xs = np.concatenate([[0.0, 1e-9], np.linspace(0.05, 20.0, 200)])
    for m in range(16):
        jm = bessel_j(m, xs)
        jprime, j_over = bessel_j_slopes(m, xs, jm)
        below = -bessel_j(1, xs) if m == 0 else bessel_j(m - 1, xs)
        above = bessel_j(m + 1, xs)
        assert np.abs(jprime - (below - above) / 2.0).max() < 1e-12
        assert np.abs(j_over - (0.0 if m == 0 else (below + above) / 2.0)).max() < 1e-12
        # the J_{m-1} (J_1 for m = 0) bessel_j_slopes computes is the one a caller would pass
        held = bessel_j_slopes(m, xs, jm, -below if m == 0 else below)
        assert np.array_equal(jprime, held[0])
        assert np.array_equal(j_over, held[1])


def test_slopes_are_the_closed_form_bit_for_bit(monkeypatch):
    # J_m' = J_{m-1} - m J_m / x and m J_m / x in the package's operation
    # order: a reordering such as m / x * jm moves a last bit and fails here.
    # Below x = 1e-8 the division gives way to the leading series term.
    xs = np.concatenate([[0.0, 1e-300, 1e-12, 9.9e-9, 1e-8, 1.1e-8], np.linspace(0.05, 20.0, 96)])
    tiny = xs < 1e-8
    for m in range(rstcnn.bessel.MAX_ORDER + 1):
        jm = bessel_j(m, xs)
        jbelow = bessel_j(1 if m == 0 else m - 1, xs)
        if m == 0:
            want_prime, want_over = -jbelow, np.zeros_like(xs)
        else:
            want_over = np.empty_like(xs)
            want_over[tiny] = m * (0.5 * xs[tiny]) ** (m - 1) / (2.0 * math.factorial(m))
            want_over[~tiny] = m * jm[~tiny] / xs[~tiny]
            want_prime = jbelow - want_over
        given = bessel_j_slopes(m, xs, jm)
        for got, want in zip(given, (want_prime, want_over)):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        # a precomputed J_{m-1} (J_1 for m = 0) gives the same bits and no bessel_j call
        with monkeypatch.context() as patch:
            patch.setattr(rstcnn.bessel, "bessel_j", None)
            held = bessel_j_slopes(m, xs, jm, jbelow)
        for got, want in zip(held, given):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        bessel_j(17, 1.0)
    with pytest.raises(UnsupportedOrderError):
        bessel_zero(17, 1)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=8),
    x=st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
)
def test_three_term_recurrence(m, x):
    # J_{m-1}(x) + J_{m+1}(x) = (2m/x) J_m(x)
    lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
    rhs = 2.0 * m / x * bessel_j(m, x)
    assert lhs == pytest.approx(rhs, abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=0.0, max_value=6.0, allow_nan=False))
def test_sum_of_squares_identity(x):
    # J_0^2 + 2 sum_{m>=1} J_m^2 = 1; the m > 16 tail is < 1e-13 for x <= 6
    total = bessel_j(0, x) ** 2 + 2.0 * sum(bessel_j(m, x) ** 2 for m in range(1, 17))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_zeros_match_scipy_through_max_order():
    # the 256 pool zeros (m <= 15, q <= 16) and order MAX_ORDER = 16, whose
    # Newton derivative J_{m-1} - (m/x) J_m needs no order above it
    scipy_special = pytest.importorskip("scipy.special")
    for m in range(17):
        ours = bessel_zero(m, np.arange(1, 17))
        assert np.abs(ours - scipy_special.jn_zeros(m, 16)).max() < 1e-12


def test_array_q_matches_int_calls():
    qs = np.array([[3, 1], [7, 2]])
    for m in (0, 5, 16):
        vec = bessel_zero(m, qs)
        assert vec.shape == qs.shape
        for q, z in zip(qs.ravel().tolist(), vec.ravel().tolist()):
            one = bessel_zero(m, q)
            assert isinstance(one, float)
            assert z == one


@pytest.mark.parametrize("q", [0, -2, np.array([1, 0, 2]), 1.5])
def test_bad_zero_index_rejected(q):
    with pytest.raises(ValueError):
        bessel_zero(3, q)


def test_fb_basis_is_the_k_lowest_disk_modes():
    # every K build_basis accepts gives the K lowest disk modes, in the sort order of the
    # SciPy zeros: an ulp change in a zero must not reorder the basis
    scipy_special = pytest.importorskip("scipy.special")
    from rstcnn.basis import FB_POOL_MAX_M, FB_POOL_MAX_Q, PoolExhaustionError, build_basis

    expected = sorted(
        (lam * lam, (m, q), h)
        for m in range(41)
        for q, lam in enumerate(scipy_special.jn_zeros(m, 40), start=1)
        for h in (("cos",) if m == 0 else ("cos", "sin"))
    )
    for K in range(1, 600):
        try:
            spatial = build_basis("fb", K).spatial
        except PoolExhaustionError:
            break
        assert [(e.indices, e.harmonic) for e in spatial] == [(mq, h) for _, mq, h in expected[:K]]
        np.testing.assert_allclose([e.eigenvalue for e in spatial], [mu for mu, *_ in expected[:K]], rtol=1e-12)
    assert K == 101
    # the pool's horizon j_{16,1} lies below every zero beyond its q box
    assert bessel_zero(0, FB_POOL_MAX_Q + 1) > bessel_zero(FB_POOL_MAX_M + 1, 1)


# (order, points): the series cut is 2*sqrt(m + 1), so 2 for m = 0 and 8.25 for m = 16
J_GROUPS = [
    (0, [0.0, 0.5, 1.9, 2.0, 2.1, 7.5, 60.0]),  # x = 0, series and recurrence points
    (16, [0.0, 3.0, 8.2, 8.3, 40.0]),  # the top order, both regimes
    (1, [7.5]),  # one point, far below the largest x of the groups around it
    (1, [0.3, 7.5, 60.0]),  # the same order and point, a later start order
    (5, [0.1, 1.0, 4.0]),  # no recurrence points
    (16, [9.0, 12.5]),  # no series points
    (3, [0.0]),
]


def test_grouped_evaluation_keeps_each_groups_bits():
    # every point runs the recurrence from its own group's start order and
    # leaves the series with its own group, so grouping changes no bit
    orders = [m for m, _ in J_GROUPS]
    xs = [np.array(x) for _, x in J_GROUPS]
    for got, m, x in zip(bessel_j_groups(orders, xs), orders, xs):
        assert np.array_equal(got, bessel_j(m, x))
    # the groups are not bit-equal to one call over their union, so the test can see a shared start
    assert bessel_j(1, [7.5])[0] != bessel_j(1, [7.5, 60.0])[0]
    assert bessel_j_groups([2, 0], [3.5, np.array([[1.0, 9.0]])])[0] == bessel_j(2, 3.5)


def _recording_miller(monkeypatch):
    # the groups of orders each _miller call receives, one list per call
    calls = []
    miller = rstcnn.bessel._miller
    monkeypatch.setattr(rstcnn.bessel, "_miller", lambda orders, xs: calls.append(list(orders)) or miller(orders, xs))
    return calls


def test_a_group_of_orders_shares_one_recurrence_bit_for_bit(monkeypatch):
    # (m, m - 1) and (0, 1) on one point set start their recurrences from
    # the same order, so one recurrence captures both, and each keeps the
    # bits of its own bessel_j call; the points lie on both sides of both
    # orders' series cuts
    calls = _recording_miller(monkeypatch)
    for m in range(17):
        for pair in ((m, 1 if m == 0 else m - 1), (0, 1)):
            cuts = [2.0 * math.sqrt(n + 1.0) for n in pair]
            x = np.array([0.0, 1.0, 40.0] + [c + d for c in cuts for d in (-0.01, 0.0, 0.01)])
            calls.clear()
            got = bessel_j_groups([pair], [x])[0]
            assert calls == [[pair]]
            assert len(got) == 2
            for values, n in zip(got, pair):
                assert np.array_equal(values, bessel_j(n, x))
    assert bessel_j_groups([(2, 1), 3], [3.5, [9.0]]) == [(bessel_j(2, 3.5), bessel_j(1, 3.5)), bessel_j(3, [9.0])]
    assert [a.shape for a in bessel_j_groups([(3, 2)], [np.empty((0, 2))])[0]] == [(0, 2), (0, 2)]
    # J_16 and J_15 on points below 15 start one order apart: two recurrences
    x = np.array([9.0, 12.5])
    calls.clear()
    got = bessel_j_groups([(16, 15)], [x])[0]
    assert sorted(calls[0]) == [(15,), (16,)]
    assert np.array_equal(got[0], bessel_j(16, x)) and np.array_equal(got[1], bessel_j(15, x))


@pytest.mark.parametrize("grad", [True, False])
def test_recipe_runs_one_recurrence_per_radial_mode(grad, monkeypatch):
    # a K = 10 recipe on the 301 grid passes each radial mode's J_m, and
    # for gradients its J_{m-1} (J_1 for m = 0), as one recurrence group:
    # each of the orders whose series cut some lam * radius passes
    from rstcnn.basis import SpatialRecipe, build_basis, unit_grid

    elements = build_basis("fb", 10).spatial
    modes = sorted({(e.indices[0], e.eigenvalue) for e in elements})
    pts = unit_grid(301)[0]
    radius = np.hypot(pts[..., 0], pts[..., 1])
    rmax = radius[radius < 1.0].max()
    calls = _recording_miller(monkeypatch)
    SpatialRecipe(elements, pts, grad)
    orders = [(m, 1 if m == 0 else m - 1)[: 2 if grad else 1] for m, _ in modes]
    want = [tuple(n for n in o if math.sqrt(mu) * rmax > 2.0 * math.sqrt(n + 1.0)) for o, (_, mu) in zip(orders, modes)]
    assert sorted(group for call in calls for group in call) == sorted(want)
    assert sum(len(group) == 2 for group in want) == (len(modes) - 1 if grad else 0)


def test_grouped_zeros_keep_each_orders_bits():
    orders = list(range(17))
    qs = [np.arange(1, 17)] * 16 + [1]
    got = bessel_zero_groups(orders, qs)
    for z, m, q in zip(got, orders, qs):
        one = bessel_zero(m, q)
        assert np.array_equal(z, one) and type(z) is type(one)
    qs2 = np.array([[3, 1], [7, 2]])
    assert np.array_equal(bessel_zero_groups([5, 0], [qs2, 4])[0], bessel_zero(5, qs2))
    with pytest.raises(UnsupportedOrderError):
        bessel_zero_groups([3, 17], [1, 1])
    with pytest.raises(ValueError):
        bessel_zero_groups([3, 4], [1, 0])
    with pytest.raises(ValueError, match="2 orders for 1"):
        bessel_zero_groups([3, 4], [1])
    with pytest.raises(ValueError, match="1 orders for 2"):
        bessel_j_groups([3], [1.0, 2.0])


@pytest.mark.parametrize("m", [0, 1, 16])
def test_recurrence_renormalizes_and_stays_accurate(m, monkeypatch):
    # A point just above the series cut, run from the start order of x = 1000,
    # grows past any float64 on the way down unless the state is rescaled.
    scipy_special = pytest.importorskip("scipy.special")
    xs = np.array([2.0 * math.sqrt(m + 1.0) + 0.01, 1000.0])
    got = bessel_j(m, xs)
    assert np.abs(got - scipy_special.jv(m, xs)).max() < 1e-12
    # the rescaling is by an exact power of two, so checking at every order gives the same bits
    monkeypatch.setattr(rstcnn.bessel, "_RENORM_EVERY", 1)
    assert np.array_equal(bessel_j(m, xs), got)
    # and without it the state does overflow
    monkeypatch.setattr(rstcnn.bessel, "_RENORM_ROOM", math.inf)
    with np.errstate(all="ignore"):
        assert not np.isfinite(bessel_j(m, xs)[0])


def test_fb_pool_equals_the_per_order_pool_bit_for_bit():
    from rstcnn.basis import _fb_pool

    def fields(pool):
        return [(e.kind, e.indices, e.harmonic, e.eigenvalue.hex(), e.normalization.hex()) for e in pool]

    assert fields(_fb_pool()) == fields(reference.per_order_fb_pool())


def test_fb_pool_makes_a_fixed_number_of_recurrence_passes(monkeypatch):
    # one grouped scan, six grouped Newton steps and one grouped
    # normalization pass, whatever the number of orders
    from rstcnn.basis import _fb_pool

    miller = rstcnn.bessel._miller
    passes = []

    def counted(orders, xs):
        passes.append(len(orders))
        return miller(orders, xs)

    monkeypatch.setattr(rstcnn.bessel, "_miller", counted)
    _fb_pool.cache_clear()
    try:
        _fb_pool()
    finally:
        _fb_pool.cache_clear()
    assert len(passes) <= 8
