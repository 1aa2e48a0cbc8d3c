import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rstcnn.basis import (
    BasisElement,
    PoolExhaustionError,
    _fb_pool,
    _sl_pool,
    angular_matrix,
    build_basis,
    eval_spatial,
    eval_spatial_grad,
    eval_spatial_stack,
    gram_matrix,
    laplacian_residuals,
    scale_matrix,
    unit_grid,
)
from rstcnn.net import alpha_taps, theta_taps

# Squared Bessel zeros j_{m,q}^2 (17-digit zeros from mpmath).
MU_FB_FIRST = [
    2.4048255576957728**2,  # (m=0, q=1)
    3.8317059702075123**2,  # (m=1, q=1) cos
    3.8317059702075123**2,  # (m=1, q=1) sin
    5.1356223018406826**2,  # (m=2, q=1) cos
    5.1356223018406826**2,  # (m=2, q=1) sin
]


def test_fb_eigenvalues_and_ordering():
    basis = build_basis("fb", 5)
    mus = [e.eigenvalue for e in basis.spatial]
    assert mus == pytest.approx(MU_FB_FIRST, rel=1e-10)
    big = build_basis("fb", 10)
    seq = [e.eigenvalue for e in big.spatial]
    assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))


def test_sl_eigenvalues():
    basis = build_basis("sl", 4)
    # (p^2 + q^2) pi^2 / 4 for the separable sine modes, sorted
    expected = sorted((p * p + q * q) * math.pi**2 / 4.0 for p, q in [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert [e.eigenvalue for e in basis.spatial] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", ["fb", "sl"])
def test_gram_identity(kind):
    basis = build_basis(kind, 10)
    gram = gram_matrix(basis)
    assert np.abs(gram - np.eye(10)).max() < 1e-2


@pytest.mark.parametrize("kind", ["fb", "sl"])
def test_laplacian_eigen_residual(kind):
    basis = build_basis(kind, 10)
    residuals = laplacian_residuals(basis)
    assert residuals.shape == (10,)
    for k in range(10):
        assert residuals[k] < 5e-2


def whole_stack_laplacian_residuals(basis):
    """basis.laplacian_residuals with the stencil and residual over the whole [K, 401, 401] stack at once."""
    pts, _ = unit_grid(401)
    h = 2.0 / 400
    vals = eval_spatial_stack(basis.spatial, pts)
    lap = np.zeros_like(vals)
    lap[:, 1:-1, 1:-1] = (
        vals[:, 1:-1, 2:] + vals[:, 1:-1, :-2] + vals[:, 2:, 1:-1] + vals[:, :-2, 1:-1] - 4.0 * vals[:, 1:-1, 1:-1]
    ) / (h * h)
    x, y = pts[..., 0], pts[..., 1]
    if basis.spatial_kind == "fb":
        interior = np.hypot(x, y) <= 0.9
    else:
        interior = np.maximum(np.abs(x), np.abs(y)) <= 0.9
    interior[0, :] = interior[-1, :] = interior[:, 0] = interior[:, -1] = False
    mu_vals = basis.spatial_eigenvalues[:, None] * vals[:, interior]
    resid = lap[:, interior] + mu_vals
    return np.array([np.sqrt(np.sum(r**2)) / np.sqrt(np.sum(m**2)) for r, m in zip(resid, mu_vals)])


@pytest.mark.parametrize("kind", ["fb", "sl"])
def test_laplacian_residuals_run_one_element_at_a_time(kind):
    # K = 100 values on the 401 x 401 grid take 128.6 MB.  The stencil and
    # the residual run on one element's 1.3 MB plane at a time, so the peak
    # stays within the values and 20 planes, where temporaries of the whole
    # stack took it to 515 MB (fb) and 571 MB (sl).  The residuals keep the
    # bits of the whole-stack arithmetic.
    basis = build_basis(kind, 100)
    plane = 401 * 401 * 8
    tracemalloc.start()
    try:
        residuals = laplacian_residuals(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (100 + 20) * plane
    few = build_basis(kind, 12)
    assert np.array_equal(laplacian_residuals(few), whole_stack_laplacian_residuals(few))
    assert np.array_equal(residuals[:12], laplacian_residuals(few))


@pytest.mark.parametrize("kind", ["fb", "sl"])
def test_boundary_decay_exact_zero(kind):
    basis = build_basis(kind, 8)
    rng = np.random.default_rng(0)
    # points outside the support disk/square, including far field
    pts = rng.uniform(-3.0, 3.0, size=(300, 2))
    if kind == "fb":
        outside = np.hypot(pts[:, 0], pts[:, 1]) >= 1.0
    else:
        outside = np.abs(pts).max(axis=1) >= 1.0
    pts = pts[outside]
    for e in basis.spatial:
        assert np.all(eval_spatial(e, pts) == 0.0)
        assert np.all(eval_spatial_grad(e, pts) == 0.0)


def test_spatial_grad_matches_finite_difference():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.65, 0.65, size=(40, 2))
    h = 1e-6
    for kind in ("fb", "sl"):
        basis = build_basis(kind, 6)
        for e in basis.spatial:
            g = eval_spatial_grad(e, pts)
            for d in range(2):
                step = np.zeros(2)
                step[d] = h
                fd = (eval_spatial(e, pts + step) - eval_spatial(e, pts - step)) / (2 * h)
                assert np.abs(g[:, d] - fd).max() < 5e-8


def _stack_cases():
    fb = build_basis("fb", 10).spatial  # (m, q): (0,1) (1,1)x2 (2,1)x2 (0,2) (3,1)x2 (1,2)x2, cos before sin
    return {
        "fb-reversed": fb[::-1],
        "fb-sin-without-cos": (fb[9], fb[2], fb[4]),  # the m=1 sins of q=2 and q=1, then (2,1) sin
        "fb-repeated": fb[:4] + (fb[1], fb[3], fb[0]),
        "sl": build_basis("sl", 10).spatial,
    }


@pytest.mark.parametrize("case", sorted(_stack_cases()))
def test_eval_spatial_stack_equals_one_element_calls(case):
    # one call shares each radial mode (and sine factor) among its elements;
    # every row must still be bit-equal to evaluating that element alone
    elements = _stack_cases()[case]
    pts, _ = unit_grid(61)  # includes the origin and points on the domain boundary
    vals, grads = eval_spatial_stack(elements, pts, grad=True)
    assert vals.shape == (len(elements), 61, 61) and grads.shape == (2,) + vals.shape
    assert grads[0].flags.c_contiguous and grads[1].flags.c_contiguous
    assert np.array_equal(vals, np.stack([eval_spatial(e, pts) for e in elements]))
    assert np.array_equal(np.moveaxis(grads, 0, -1), np.stack([eval_spatial_grad(e, pts) for e in elements]))
    assert np.array_equal(eval_spatial_stack(elements, pts), vals)


@pytest.mark.parametrize("grid_n, K", [(301, 10), (41, 100)])
def test_fb_stack_on_distinct_radii_equals_every_point_evaluation(grid_n, K):
    # basis._FbFactors runs each radial function on the distinct radii and gathers
    # the result back; bessel_j must give those points the bits it gives
    # them among all the grid's points
    elements = build_basis("fb", K).spatial
    pts, _ = unit_grid(grid_n)
    vals, grads = eval_spatial_stack(elements, pts, grad=True)
    want_vals, want_grads = reference.fb_stack_every_point(elements, pts)
    assert np.array_equal(vals, want_vals) and np.array_equal(np.signbit(vals), np.signbit(want_vals))
    assert np.array_equal(grads, want_grads) and np.array_equal(np.signbit(grads), np.signbit(want_grads))


def test_fb_stack_gradients_match_scipy_closed_form():
    # basis._FbFactors and reference.fb_stack_every_point both take their slopes from
    # bessel_j_slopes, so a slip there passes the test above.  Here lambda,
    # the normalization and every radial factor come from SciPy, with
    # m J_m(r) / r = (J_{m-1}(r) + J_{m+1}(r)) / 2, so no package Bessel
    # call stands on the reference side (J_m' = (J_{m-1} - J_{m+1}) / 2).
    scipy_special = pytest.importorskip("scipy.special")
    pool = build_basis("fb", 100).spatial
    pts, _ = unit_grid(301)
    rho = np.hypot(pts[..., 0], pts[..., 1])
    phi = np.arctan2(pts[..., 1], pts[..., 0])
    inside = rho < 1.0
    cu, su, ph = np.cos(phi[inside]), np.sin(phi[inside]), phi[inside]
    radii, back = np.unique(rho[inside], return_inverse=True)  # SciPy runs on the distinct radii

    @functools.cache
    def radial(m, q):
        # lambda, c and c lam (J_m, J_m', m J_m / x) at lam * rho, cos and sin sharing them
        lam = scipy_special.jn_zeros(m, q)[-1]
        c = (1.0 if m == 0 else math.sqrt(2.0)) / (math.sqrt(math.pi) * abs(scipy_special.jv(m + 1, lam)))
        below, at, above = (scipy_special.jv(n, lam * radii)[back] for n in (m - 1, m, m + 1))
        return c * at, c * lam * 0.5 * (below - above), c * lam * 0.5 * (below + above)

    for lo in range(0, len(pool), 10):  # ten elements at a time keeps memory small
        chunk = pool[lo : lo + 10]
        vals, grads = eval_spatial_stack(chunk, pts, grad=True)
        for k, e in enumerate(chunk):
            m = e.indices[0]
            value, slope, over = radial(*e.indices)
            # the harmonic and its phi-derivative divided by m
            wave, dwave = (np.cos(m * ph), -np.sin(m * ph)) if e.harmonic == "cos" else (np.sin(m * ph), np.cos(m * ph))
            d_rho = slope * wave
            d_phi_over_rho = over * dwave
            want = np.zeros(vals.shape[1:] + (2,))
            want[inside, 0] = cu * d_rho - su * d_phi_over_rho
            want[inside, 1] = su * d_rho + cu * d_phi_over_rho
            assert np.abs(np.moveaxis(grads[:, k], 0, -1) - want).max() <= 1e-12 * np.abs(want).max()
            want_vals = np.zeros(vals.shape[1:])
            want_vals[inside] = value * wave
            assert np.abs(vals[k] - want_vals).max() <= 1e-12 * np.abs(want_vals).max()


@pytest.mark.parametrize("kind", ["fb", "sl"])
def test_single_point_evaluates_like_a_one_point_array(kind):
    # a points array of shape (2,) gives values [K] and gradients [2, K]
    # (the sine fill raised TypeError on it before)
    elements = build_basis(kind, 6).spatial
    for p in ([0.3, -0.2], [0.0, 0.0], [1.5, 0.2]):
        vals, grads = eval_spatial_stack(elements, p, grad=True)
        want_vals, want_grads = eval_spatial_stack(elements, [p], grad=True)
        assert vals.shape == (6,) and grads.shape == (2, 6)
        assert np.array_equal(vals, want_vals[:, 0]) and np.array_equal(np.signbit(vals), np.signbit(want_vals[:, 0]))
        assert np.array_equal(grads, want_grads[..., 0])


def test_eval_spatial_stack_rejects_other_kinds():
    basis = build_basis("fb", 2)
    circle = BasisElement("fourier-circle", (0,), "cos", 0.0, 1.0)
    with pytest.raises(ValueError, match="not a spatial element"):
        eval_spatial_stack(basis.spatial + (circle,), np.zeros((3, 2)))


def test_spatial_normalization_unit_l2():
    pts, w = unit_grid(401)
    for kind in ("fb", "sl"):
        basis = build_basis(kind, 6)
        for e in basis.spatial:
            norm_sq = float((eval_spatial(e, pts) ** 2).sum() * w)
            assert norm_sq == pytest.approx(1.0, abs=2e-2)


def test_angular_orthonormal_under_normalized_measure():
    basis = build_basis("fb", 5, max_angular=4, n_scale=2)
    thetas = 2.0 * math.pi * np.arange(256) / 256.0
    vals = angular_matrix(basis, thetas)
    assert vals.shape == (2 * 4 + 1, 256)
    gram = vals @ vals.T / 256.0  # mean over theta = d(theta)/2pi measure
    assert np.abs(gram - np.eye(2 * 4 + 1)).max() < 1e-12


def test_angular_matches_trig_formula():
    basis = build_basis("fb", 5, max_angular=3, n_scale=1)
    thetas = np.array([0.0, 0.4, 2.2, 5.0])
    for row, ours in enumerate(angular_matrix(basis, thetas)):
        ref = np.array([reference.angular_value(row, t) for t in thetas])
        assert ours == pytest.approx(ref.tolist(), abs=1e-14)


def test_scale_modes_vanish_at_endpoints():
    basis = build_basis("fb", 5, max_angular=2, n_scale=3)
    assert np.all(scale_matrix(basis, np.array([-1.0, 1.0])) == 0.0)
    # interior values match the sine formula
    alphas = np.array([-0.5, 0.0, 0.7])
    for row, ours in enumerate(scale_matrix(basis, alphas)):
        ref = [reference.scale_value(row, a) for a in alphas]
        assert ours == pytest.approx(ref, abs=1e-14)


def test_scale_modes_orthonormal():
    basis = build_basis("fb", 5, max_angular=2, n_scale=4)
    alphas = np.linspace(-1.0, 1.0, 4001)
    vals = scale_matrix(basis, alphas)
    gram = vals @ vals.T * (alphas[1] - alphas[0])
    assert np.abs(gram - np.eye(4)).max() < 1e-3


@pytest.mark.parametrize("n_scale", [1, 2, 3, 4])
@pytest.mark.parametrize("max_angular", [0, 1, 2, 3, 4])
def test_profile_matrices_equal_the_record_evaluation(max_angular, n_scale):
    # the closed forms must give the bits of the per-profile records they
    # replaced, at every tap grid a layer uses and at the 64 bounds samples
    basis = build_basis("fb", 3, max_angular=max_angular, n_scale=n_scale)
    thetas = [theta_taps(L) for L in range(1, 9)] + [theta_taps(64)]
    alphas = [alpha_taps(L) for L in range(1, 6)]
    for t in thetas:
        want, _ = reference.record_profile_matrices(max_angular, n_scale, t, alphas[0])
        assert np.array_equal(angular_matrix(basis, t), want)
    for a in alphas:
        _, want = reference.record_profile_matrices(max_angular, n_scale, thetas[0], a)
        assert np.array_equal(scale_matrix(basis, a), want)


def test_pool_exhaustion():
    with pytest.raises(PoolExhaustionError):
        build_basis("fb", 10_000)
    with pytest.raises(PoolExhaustionError):
        build_basis("sl", 10_000)


@pytest.mark.parametrize("kind, pool", [("fb", _fb_pool), ("sl", _sl_pool)])
def test_basis_is_a_prefix_of_the_pool_sorted_once(kind, pool):
    # each pool is enumerated and sorted once per process, and every build_basis takes its prefix
    assert pool() is pool()
    for K in (1, 5, 10, len(pool())):
        assert build_basis(kind, K).spatial == pool()[:K]


def test_sl_basis_is_the_k_lowest_square_modes():
    # every K build_basis accepts gives the K lowest modes of the square, ties in (p, q) order
    expected = sorted((p * p + q * q, (p, q)) for p in range(1, 41) for q in range(1, 41))
    for K in range(1, 700):
        try:
            spatial = build_basis("sl", K).spatial
        except PoolExhaustionError:
            break
        assert [e.indices for e in spatial] == [pq for _, pq in expected[:K]]
        assert [e.eigenvalue for e in spatial] == [(math.pi / 2.0) ** 2 * n for n, _ in expected[:K]]
    assert K == 466


def test_unknown_kind():
    with pytest.raises(Exception):
        build_basis("hexagonal", 5)


@settings(max_examples=25, deadline=None)
@given(angle=st.floats(min_value=0.0, max_value=2 * math.pi), r=st.floats(min_value=0.0, max_value=0.99))
def test_fb_radial_mode_rotation_invariant(angle, r):
    basis = build_basis("fb", 1)  # single element: (m=0, q=1), purely radial
    e = basis.spatial[0]
    p0 = np.array([[r, 0.0]])
    p1 = np.array([[r * math.cos(angle), r * math.sin(angle)]])
    assert eval_spatial(e, p0)[0] == pytest.approx(eval_spatial(e, p1)[0], abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    angle=st.floats(min_value=0.0, max_value=2 * math.pi),
    r=st.floats(min_value=0.05, max_value=0.95),
    phi=st.floats(min_value=0.0, max_value=2 * math.pi),
)
def test_fb_rotation_covariance(angle, r, phi):
    # rotating the argument of a frequency-m element mixes its cos/sin pair:
    # psi_cos(R_a u) = cos(m a) psi_cos(u) + sin(m a) psi_sin(u)
    basis = build_basis("fb", 3)
    e_cos, e_sin = basis.spatial[1], basis.spatial[2]  # the m=1 pair
    u = np.array([[r * math.cos(phi), r * math.sin(phi)]])
    ru = np.array(
        [[r * math.cos(phi - angle), r * math.sin(phi - angle)]]
    )  # R_{-angle} u
    lhs = eval_spatial(e_cos, ru)[0]
    rhs = math.cos(angle) * eval_spatial(e_cos, u)[0] + math.sin(angle) * eval_spatial(e_sin, u)[0]
    assert lhs == pytest.approx(rhs, abs=1e-12)
