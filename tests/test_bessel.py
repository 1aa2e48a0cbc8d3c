import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
import rstcnn.bessel
from rstcnn.bessel import UnsupportedOrderError, bessel_j, bessel_j_slopes, bessel_zero

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
    """(J_m'(xs), m J_m(xs) / xs) for an array xs, J_m(xs) and J_{m-1}(xs) (J_1 for m = 0) from bessel_j."""
    return bessel_j_slopes(m, xs, bessel_j(m, xs), bessel_j(1 if m == 0 else m - 1, xs))


def bits(a):
    """The float64 bit patterns of a, so that equality also tells -0.0 from 0.0."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


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
        one = bessel_j(3, float(x))
        assert isinstance(one, float) and bits(vec[i]) == bits(one)


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
        jprime, j_over = slopes(m, xs)
        below = -bessel_j(1, xs) if m == 0 else bessel_j(m - 1, xs)
        above = bessel_j(m + 1, xs)
        assert np.abs(jprime - (below - above) / 2.0).max() < 1e-12
        assert np.abs(j_over - (0.0 if m == 0 else (below + above) / 2.0)).max() < 1e-12


def test_slopes_are_the_closed_form_bit_for_bit(monkeypatch):
    # J_m' = J_{m-1} - m J_m / x and m J_m / x in the package's operation
    # order: a reordering such as m / x * jm moves a last bit and fails here.
    # Below x = 1e-8 the division gives way to the leading series term.
    xs = np.concatenate([[0.0, 1e-300, 1e-12, 9.9e-9, 1e-8, 1.1e-8], np.linspace(0.05, 20.0, 96)])
    tiny = xs < 1e-8
    orders = np.arange(rstcnn.bessel.MAX_ORDER + 1)
    jm = bessel_j(orders[:, None], xs)
    jbelow = bessel_j(np.where(orders == 0, 1, orders - 1)[:, None], xs)
    wants = []
    for m in orders.tolist():
        if m == 0:
            want_prime, want_over = -jbelow[m], np.zeros_like(xs)
        else:
            want_over = np.empty_like(xs)
            # the leading term's power with an array exponent, like the package's
            want_over[tiny] = m * (0.5 * xs[tiny]) ** np.full(tiny.sum(), m - 1) / (2.0 * math.factorial(m))
            want_over[~tiny] = m * jm[m, ~tiny] / xs[~tiny]
            want_prime = jbelow[m] - want_over
        for got, want in zip(bessel_j_slopes(m, xs, jm[m], jbelow[m]), (want_prime, want_over)):
            assert np.array_equal(bits(got), bits(want))
        wants.append((want_prime, want_over))
    # one call over every order broadcasts like bessel_j, gives the same bits, and calls no bessel_j
    with monkeypatch.context() as patch:
        patch.setattr(rstcnn.bessel, "bessel_j", None)
        given = bessel_j_slopes(orders[:, None], xs, jm, jbelow)
    for got, want in zip(given, zip(*wants)):
        assert np.array_equal(bits(got), bits(np.stack(want)))


def test_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        bessel_j(17, 1.0)
    with pytest.raises(UnsupportedOrderError):
        bessel_zero(17, 1)
    for bad in (-1, 1.0, np.array([3, 17]), np.array([1.0, 2.0]), "3"):
        with pytest.raises(UnsupportedOrderError):
            bessel_j(bad, [1.0, 2.0])
        with pytest.raises(UnsupportedOrderError):
            bessel_zero(bad, 1)
    with pytest.raises(UnsupportedOrderError):
        bessel_j_slopes(np.array([2, 17]), np.ones(2), np.ones(2), np.ones(2))


@pytest.mark.parametrize("x", [-1.0, [2.0, -0.5], math.inf, [1.0, math.nan]])
def test_bad_points_rejected(x):
    with pytest.raises(ValueError, match="finite x|x >= 0"):
        bessel_j(np.array([0, 1]), x)


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
    (1, [7.5]),  # one point, far below the largest x of the calls around it
    (1, [0.3, 7.5, 60.0]),  # the same order and point among larger ones
    (5, [0.1, 1.0, 4.0]),  # no recurrence points
    (16, [9.0, 12.5]),  # no series points
    (3, [0.0]),
]


def test_grouped_evaluation_keeps_each_groups_bits():
    # one call over every (order, point) pair of the groups gives each the
    # bits of its own group's call and of its one-point call
    orders = np.concatenate([np.full(len(x), m) for m, x in J_GROUPS])
    xs = np.concatenate([x for _, x in J_GROUPS])
    got = bessel_j(orders, xs)
    want = np.concatenate([bessel_j(m, np.array(x)) for m, x in J_GROUPS])
    assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(got), bits([bessel_j(int(m), float(x)) for m, x in zip(orders, xs)]))
    # a point's value does not depend on the larger points beside it
    assert bessel_j(1, [7.5])[0] == bessel_j(1, [7.5, 60.0])[0]
    # orders broadcast against points: [2] x [1, 2] gives [2, 2], and scalars a float
    table = bessel_j(np.array([[2], [0]]), np.array([[3.5, 9.0]]))
    assert table.shape == (2, 2) and table[0, 0] == bessel_j(2, 3.5) and table[1, 1] == bessel_j(0, 9.0)
    assert bessel_j(np.array([3, 4]), np.empty((0, 1))).shape == (0, 2)
    with pytest.raises(ValueError):
        bessel_j(np.array([3, 4]), [1.0, 2.0, 3.0])


def _recording_miller(monkeypatch):
    # the (orders, points) entries each _miller call receives, one pair per call
    calls = []
    miller = rstcnn.bessel._miller
    monkeypatch.setattr(rstcnn.bessel, "_miller", lambda m, x: calls.append((m.copy(), x.copy())) or miller(m, x))
    return calls


def test_a_group_of_orders_shares_one_recurrence_bit_for_bit(monkeypatch):
    # (m, m - 1) and (0, 1) broadcast on one point set: every recurrence
    # point starts from an order set by its x alone, so one recurrence per
    # distinct x captures both orders, and each keeps the bits of its own
    # bessel_j call; the points lie on both sides of both orders' series cuts
    calls = _recording_miller(monkeypatch)
    # the points each recurrence block runs
    runs = []
    recurrence = rstcnn.bessel._recurrence
    monkeypatch.setattr(rstcnn.bessel, "_recurrence", lambda m, xs, at: runs.append(xs.copy()) or recurrence(m, xs, at))
    for m in range(17):
        for pair in ((m, 1 if m == 0 else m - 1), (0, 1), (16, 15)):
            cuts = [2.0 * math.sqrt(n + 1.0) for n in pair]
            x = np.array([0.0, 1.0, 40.0, 40.0] + [c + d for c in cuts for d in (-0.01, 0.0, 0.01)])
            calls.clear()
            runs.clear()
            got = bessel_j(np.array(pair)[:, None], x)
            assert len(calls) == 1
            orders, points = calls[0]
            # one entry per order past its cut, and one recurrence per distinct point among them
            assert orders.size == sum(int(np.sum(x > c)) for c in cuts)
            assert np.array_equal(np.concatenate(runs), np.unique(x[x > min(cuts)])[::-1])
            for values, n in zip(got, pair):
                assert np.array_equal(bits(values), bits(bessel_j(n, x)))


@pytest.mark.parametrize("grad", [True, False])
def test_recipe_runs_one_recurrence_per_radial_mode(grad, monkeypatch):
    # a K = 10 recipe on the 301 grid passes every radial mode's J_m, and
    # for gradients its J_{m-1} (J_1 for m = 0), to one recurrence call: one
    # entry per order whose series cut lam * radius passes
    from rstcnn.basis import SpatialRecipe, build_basis, unit_grid

    elements = build_basis("fb", 10).spatial
    modes = sorted({(e.indices[0], e.eigenvalue) for e in elements})
    pts = unit_grid(301)[0]
    radius = np.hypot(pts[..., 0], pts[..., 1])
    radii = np.unique(radius[radius < 1.0])
    calls = _recording_miller(monkeypatch)
    SpatialRecipe(elements, pts, grad)
    want = []
    for m, mu in modes:
        r = math.sqrt(mu) * radii
        for n in (m, 1 if m == 0 else m - 1)[: 2 if grad else 1]:
            want.extend((n, x) for x in r[r > 2.0 * math.sqrt(n + 1.0)].tolist())
    (orders, points), = calls
    assert sorted(zip(orders.tolist(), points.tolist())) == sorted(want)
    # with gradients most distinct points carry two orders, and run one recurrence for both
    assert np.unique(points).size == len({x for _, x in want})
    assert (orders.size > 1.9 * np.unique(points).size) == grad


def test_grouped_zeros_keep_each_orders_bits():
    orders = np.arange(17)
    qs = np.arange(1, 17)
    got = bessel_zero(orders[:, None], qs)
    assert got.shape == (17, 16)
    for m in orders.tolist():
        assert np.array_equal(bits(got[m]), bits(bessel_zero(m, qs)))
        assert bits(got[m, 3]) == bits(bessel_zero(m, 4))
    qs2 = np.array([[3, 1], [7, 2]])
    assert np.array_equal(bits(bessel_zero(np.array([[5], [0]]), qs2)), bits(np.stack([bessel_zero(5, qs2[0]), bessel_zero(0, qs2[1])])))
    assert isinstance(bessel_zero(np.int64(5), np.int64(2)), float)
    with pytest.raises(UnsupportedOrderError):
        bessel_zero(np.array([3, 17]), 1)
    with pytest.raises(ValueError):
        bessel_zero(np.array([3, 4]), np.array([1, 0]))
    with pytest.raises(ValueError):
        bessel_zero(np.array([3, 4]), np.array([1, 2, 3]))


# points that draw repeats often: the series cuts of orders 0, 1 and 16, and the FOUND example's pair
PURITY_POINTS = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.sampled_from([0.0, 2.0, 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(17.0), 7.5, 60.0]),
)


@settings(max_examples=60, deadline=None)
@example(order=1, xs=[7.5, 60.0], seed=0)
@given(
    order=st.one_of(st.integers(0, 16), st.lists(st.integers(0, 16), min_size=1, max_size=5)),
    xs=st.lists(PURITY_POINTS, min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_bessel_j_is_pointwise_pure(order, xs, seed):
    # every entry is its one-element call, whatever the shape, order or
    # company of the call it is part of
    m = np.array(order)[:, None] if isinstance(order, list) else order
    x = np.array(xs)
    got = bessel_j(m, x)
    mb, xb = np.broadcast_arrays(m, x)
    assert np.array_equal(bits(got), bits([bessel_j(int(a), float(b)) for a, b in zip(mb.ravel(), xb.ravel())]).reshape(got.shape))
    perm = np.random.default_rng(seed).permutation(x.size)
    assert np.array_equal(bits(bessel_j(m, x[perm])), bits(got[..., perm]))
    assert np.array_equal(bits(bessel_j(m, x[1::2])), bits(got[..., 1::2]))
    assert np.array_equal(bits(bessel_j(mb.ravel(), xb.ravel())), bits(got.ravel()))


@settings(max_examples=30, deadline=None)
@given(
    order=st.lists(st.integers(0, 16), min_size=1, max_size=4),
    qs=st.lists(st.integers(1, 20), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_bessel_zero_is_pointwise_pure(order, qs, seed):
    m, q = np.array(order)[:, None], np.array(qs)
    got = bessel_zero(m, q)
    mb, qb = np.broadcast_arrays(m, q)
    assert np.array_equal(bits(got), bits([bessel_zero(int(a), int(b)) for a, b in zip(mb.ravel(), qb.ravel())]).reshape(got.shape))
    perm = np.random.default_rng(seed).permutation(q.size)
    assert np.array_equal(bits(bessel_zero(m, q[perm])), bits(got[:, perm]))
    assert np.array_equal(bits(bessel_zero(m[::-1], q)), bits(got[::-1]))


@pytest.mark.parametrize("m", [0, 1, 16])
def test_recurrence_stays_accurate_up_to_x_max(m):
    # X_MAX = 500 starts the largest recurrence, at order 810, whose state
    # stays finite with no rescaling
    scipy_special = pytest.importorskip("scipy.special")
    xs = np.array([2.0 * math.sqrt(m + 1.0) + 0.01, 250.0, rstcnn.bessel.X_MAX])
    got = bessel_j(m, xs)
    assert np.all(np.isfinite(got))
    assert np.abs(got - scipy_special.jv(m, xs)).max() < 1e-12


@pytest.mark.parametrize("x", [1e6, 1e19, [1.0, 1e6], np.nextafter(500.0, 600.0)])
def test_points_past_x_max_are_rejected_before_any_recurrence(x, monkeypatch):
    # 1e6 would run a 1.5 M-step recurrence, and 1e19 gave nan; neither
    # reaches the recurrence now, nor does the one zero scan that would pass X_MAX
    def no_recurrence(m, x):
        raise AssertionError("a point past X_MAX reached the recurrence")

    monkeypatch.setattr(rstcnn.bessel, "_miller", no_recurrence)
    with pytest.raises(ValueError, match="X_MAX = 500"):
        bessel_j(0, x)
    for q in (200, 10**12):
        with pytest.raises(ValueError, match=f"q = {q} needs a scan past X_MAX"):
            bessel_zero(np.array([0, 3]), q)


def test_fb_pool_equals_the_per_order_pool_bit_for_bit():
    from rstcnn.basis import _fb_pool

    def fields(pool):
        return [(e.kind, e.indices, e.harmonic, e.eigenvalue.hex(), e.normalization.hex()) for e in pool]

    assert fields(_fb_pool()) == fields(reference.per_order_fb_pool())


def test_fb_pool_makes_a_fixed_number_of_recurrence_passes(monkeypatch):
    # one broadcast scan, six broadcast Newton steps and one broadcast
    # normalization call, whatever the number of orders
    from rstcnn.basis import _fb_pool

    miller = rstcnn.bessel._miller
    passes = []

    def counted(m, x):
        passes.append(m.size)
        return miller(m, x)

    monkeypatch.setattr(rstcnn.bessel, "_miller", counted)
    _fb_pool.cache_clear()
    try:
        _fb_pool()
    finally:
        _fb_pool.cache_clear()
    assert len(passes) <= 8
