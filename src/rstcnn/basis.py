"""Orthonormal separable bases for steerable filters.

Spatial part: either a Fourier-Bessel basis on the closed unit disk
(J_m(lambda_{m,q} r) times a circular harmonic, Dirichlet boundary) or a
Sturm-Liouville sine basis on the square [-1,1]^2.  Every spatial element
carries its (negative) Laplacian eigenvalue and evaluates to exactly zero
on and outside its domain boundary.  Rotation part: real Fourier modes on
the circle, orthonormal under the normalized measure d(theta)/2pi.  Scale
part: Dirichlet sine modes on [-1,1].  Both are fixed families given by
their sizes and evaluated in closed form by angular_matrix and scale_matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j, bessel_j_slopes, bessel_zero

FB_POOL_MAX_M = 15
FB_POOL_MAX_Q = 16
SL_POOL_MAX = 24


class PoolExhaustionError(ValueError):
    """Requested more basis elements than the enumerated candidate pool holds."""


@dataclass(frozen=True)
class BasisElement:
    """One spatial basis function: kind + integer indices + harmonic flavor.

    kind is "fb-disk" (indices (m, q), harmonic "cos" or "sin") or
    "sl-square" (indices (p, q), harmonic "").  eigenvalue is the eigenvalue
    of -Laplace; normalization is the constant that makes the element
    unit-norm on its domain.
    """

    kind: str
    indices: tuple
    harmonic: str
    eigenvalue: float
    normalization: float


@dataclass(frozen=True)
class BasisSet:
    """The spatial elements and the rotation/scale profile sizes of one layer's filters.

    max_angular is the highest circle frequency (2*max_angular + 1 angular
    profiles) and n_scale the number of scale profiles.
    """

    spatial_kind: str
    spatial: tuple
    max_angular: int
    n_scale: int

    @property
    def spatial_eigenvalues(self):
        return np.array([e.eigenvalue for e in self.spatial], dtype=np.float64)

    @property
    def n_spatial(self):
        return len(self.spatial)


def _sort_key(e):
    # ascending eigenvalue; ties broken by indices then cos before sin
    return (e.eigenvalue, e.indices, 0 if e.harmonic != "sin" else 1)


@functools.cache
def _fb_pool():
    # Every "fb" build_basis call takes a prefix of these candidates, so they
    # are enumerated and sorted once per process.  Only modes below j_{16,1}^2,
    # the smallest eigenvalue outside the (m, q) box, are kept, so the pool's
    # K lowest are the disk's.  One bessel_zero call finds the zeros of every
    # order, the horizon's among them, and one bessel_j call the J_{m+1}(lambda)
    # of the normalizations.
    orders = np.arange(FB_POOL_MAX_M + 1)
    qs = np.arange(1, FB_POOL_MAX_Q + 1)
    zeros = bessel_zero(np.arange(FB_POOL_MAX_M + 2)[:, None], qs)
    horizon = zeros[-1, 0] ** 2
    pool = []
    for m, lams, jnext in zip(orders.tolist(), zeros, bessel_j(orders[:, None] + 1, zeros[:-1])):
        harmonics = ("cos",) if m == 0 else ("cos", "sin")
        for q, lam, jn in zip(qs.tolist(), lams.tolist(), np.abs(jnext).tolist()):
            c = (1.0 if m == 0 else math.sqrt(2.0)) / (math.sqrt(math.pi) * jn)
            if lam * lam < horizon:
                pool.extend(BasisElement("fb-disk", (m, q), h, lam * lam, c) for h in harmonics)
    return tuple(sorted(pool, key=_sort_key))


@functools.cache
def _sl_pool():
    # only modes below the smallest eigenvalue outside the box, at (p, q) = (25, 1)
    horizon = (math.pi / 2.0) ** 2 * ((SL_POOL_MAX + 1) ** 2 + 1)
    pool = []
    for p in range(1, SL_POOL_MAX + 1):
        for q in range(1, SL_POOL_MAX + 1):
            mu = (math.pi / 2.0) ** 2 * (p * p + q * q)
            if mu < horizon:
                pool.append(BasisElement("sl-square", (p, q), "", mu, 1.0))
    return tuple(sorted(pool, key=_sort_key))


def build_basis(spatial_kind, K, max_angular=4, n_scale=1):
    """Assemble the K lowest-eigenvalue spatial elements plus rotation/scale profile sizes.

    spatial_kind: "fb" (unit-disk Fourier-Bessel) or "sl" (square sine basis).
    The angular part has 2*max_angular + 1 profiles (constant, then cos/sin
    pairs); the scale part has n_scale Dirichlet sine modes on [-1, 1].
    """
    if spatial_kind not in ("fb", "sl"):
        raise ValueError(f"unknown spatial kind {spatial_kind!r}")
    if K < 1:
        raise ValueError("K must be >= 1")
    pool = _fb_pool() if spatial_kind == "fb" else _sl_pool()
    if K > len(pool):
        raise PoolExhaustionError(
            f"K={K} exceeds the {len(pool)}-element {spatial_kind} candidate pool"
        )
    spatial = pool[:K]

    if max_angular < 0:
        raise ValueError("max_angular must be >= 0")
    if n_scale < 1:
        raise ValueError("n_scale must be >= 1")
    return BasisSet(spatial_kind, spatial, max_angular, n_scale)


# Values per assembled chunk, K elements x points: 4096 points at K = 10,
# 1 MB for the values and both gradient components, whose assembly stays in
# cache (on a 2-vCPU VM it took 260-300 ns a point, against 490-770 ns at
# 6144 or 8192 points).  An evaluation goes in whole chunks, the last one
# short, on the caller's thread, so its temporaries stay chunk-sized (a
# K = 100 evaluation on the 401 x 401 grid of laplacian_residuals takes 394
# chunks of 409 points).
_CHUNK_VALUES = 10 * 4096


class SpatialRecipe:
    """Spatial elements of one kind at fixed points[..., 2], held as the factors their values share.

    Elements of two kinds share no one domain and raise ValueError.  One
    bessel_j call gives every Fourier-Bessel radial mode's J_m (and,
    with grad, J_m' and m J_m / x) on the distinct radii of the points inside
    the disk, and each point keeps its phi, cos phi, sin phi and the index of
    its radius.  Sine elements keep their per-index factors on the distinct
    coordinates of each axis.  assemble and fill build any range of points
    from these with the arithmetic of one whole-array evaluation, so the
    bits do not depend on the ranges; values and gradients are zero on and
    outside each element's domain.
    """

    def __init__(self, elements, points, grad=False):
        kinds = sorted({e.kind for e in elements})
        for kind in kinds:
            if kind not in _SPATIAL_KINDS:
                raise ValueError(f"not a spatial element: {kind}")
        if len(kinds) != 1:
            raise ValueError(f"spatial elements of kinds {' and '.join(map(repr, kinds))} share no one domain")
        flat = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        x, y = flat[:, 0], flat[:, 1]
        self.n_elements, self.size, self.grad = len(elements), x.size, grad
        self.chunk = max(1, _CHUNK_VALUES // len(elements))
        domain, factors = _SPATIAL_KINDS[kinds[0]]
        self.factors = factors(elements, x, y, domain(x, y), grad)

    @property
    def chunks(self):
        """The (lo, hi) of each chunk of the points: whole chunks, the last one short."""
        return [(lo, min(lo + self.chunk, self.size)) for lo in range(0, self.size, self.chunk)]

    def fill(self, lo, hi, vals, grads=None):
        """Write points lo..hi into vals [K, hi - lo] and, with grad, grads [2, K, hi - lo]."""
        self.factors.fill(slice(lo, hi), vals, grads)

    def assemble(self, lo, hi):
        """Values [K, hi - lo] and, with grad, gradients [2, K, hi - lo] of points lo..hi."""
        vals = np.empty((self.n_elements, hi - lo))
        grads = np.empty((2,) + vals.shape) if self.grad else None
        self.fill(lo, hi, vals, grads)
        return vals, grads


def eval_spatial_stack(elements, points, grad=False):
    """Spatial elements at points[..., 2] in unit-domain coordinates: values [K, ...].

    With grad=True returns (values, gradients [2, K, ...]), the x and y
    components of the Cartesian gradients, each contiguous.  Both are zero
    on and outside each element's domain.  One SpatialRecipe of the points
    does the shared work once per call, and its chunks are filled in turn.
    """
    pts = np.asarray(points, dtype=np.float64)
    recipe = SpatialRecipe(elements, pts, grad)
    vals = np.empty((len(elements), recipe.size))
    grads = np.empty((2,) + vals.shape) if grad else None
    for lo, hi in recipe.chunks:
        recipe.fill(lo, hi, vals[:, lo:hi], None if grads is None else grads[..., lo:hi])
    vals = vals.reshape((len(elements),) + pts.shape[:-1])
    return (vals, grads.reshape((2,) + vals.shape)) if grad else vals


def _zero_outside(factors, sel, arrays):
    # a point outside the domain gets exactly +0.0
    if factors.inside is not None:
        outside = np.flatnonzero(~factors.inside[sel])
        for a in arrays:
            a[:, outside] = 0.0


class _FbFactors:
    # Every element of one fill goes through each step at once, with the
    # arithmetic of a per-element evaluation, so a chunk costs a fixed number
    # of array operations whatever K.
    def __init__(self, elements, x, y, inside, grad):
        self.inside = None if inside.all() else inside
        self.phi = np.arctan2(y, x)
        self.cu, self.su = (np.cos(self.phi), np.sin(self.phi)) if grad else (None, None)
        # Each radial function runs on the distinct radii only (191 of the
        # 16,384 nodes of the bounds quadrature).  A point outside the disk
        # reads the zero after them, so its value is c * 0.0 * (cos or
        # sin)(m phi): a zero with the sign of the harmonic, which the bank
        # bytes keep.
        radii, back = np.unique(np.hypot(x[inside], y[inside]), return_inverse=True)
        self.at = np.full(x.size, radii.size)
        self.at[inside] = back
        modes = {}
        for e in elements:
            modes.setdefault((e.indices[0], e.eigenvalue), len(modes))
        mode_m = np.array([m for m, _ in modes], dtype=np.intp)
        lams = np.sqrt([mu for _, mu in modes])
        mode = np.array([modes[e.indices[0], e.eigenvalue] for e in elements])
        is_sin = np.array([e.harmonic == "sin" for e in elements])
        c = np.array([e.normalization for e in elements])
        lam = lams[mode]
        # rows of the stacked [cos(m phi); sin(m phi)] of the distinct m: each
        # element's own harmonic and the other one
        self.m, m_at = np.unique([e.indices[0] for e in elements], return_inverse=True)
        self.own = m_at + self.m.size * is_sin
        self.other = m_at + self.m.size * ~is_sin
        self.mode, self.c = mode, c
        # c lam for J_m', and -c lam (cos) or c lam (sin) for m J_m / x
        self.c_slope, self.c_over = c * lam, np.where(is_sin, c, -c) * lam
        # per mode J_m, and for gradients J_m' and m J_m / x, each ending in the outside zero
        self.tables = np.zeros((3 if grad else 1, len(modes), radii.size + 1))
        # one bessel_j call for every mode, and with gradients for its J_{m-1}
        # (J_1 for m = 0) too, which the same recurrence gives
        r = lams[:, None] * radii
        if grad:
            jm, jbelow = bessel_j(np.stack([mode_m, np.where(mode_m == 0, 1, mode_m - 1)])[:, :, None], r)
            self.tables[1, :, :-1], self.tables[2, :, :-1] = bessel_j_slopes(mode_m[:, None], r, jm, jbelow)
        else:
            jm = bessel_j(mode_m[:, None], r)
        self.tables[0, :, :-1] = jm

    def fill(self, sel, vals, grads):
        # the radial factors at these points, [1 or 3, modes, points]
        radial = np.take(self.tables, self.at[sel], axis=2)
        mphi = self.m[:, None] * self.phi[sel]
        waves = np.empty((2,) + mphi.shape)
        np.cos(mphi, out=waves[0])
        np.sin(mphi, out=waves[1])
        waves = waves.reshape(-1, mphi.shape[1])
        own = waves[self.own]
        # each product in place, in the order c * J_m * (cos or sin)(m phi)
        value = radial[0][self.mode]
        value *= self.c[:, None]
        np.multiply(value, own, out=vals)
        if grads is None:
            return
        # m J_m(lam rho) / rho = lam * (m J_m / x)(lam rho)
        d_rho = radial[1][self.mode]
        d_rho *= self.c_slope[:, None]
        d_rho *= own
        d_phi_over_rho = radial[2][self.mode]
        d_phi_over_rho *= self.c_over[:, None]
        d_phi_over_rho *= waves[self.other]
        del radial, waves, own, value  # freed before the gradients' temporaries form
        cu, su = self.cu[sel], self.su[sel]
        # cu d_rho - su d_phi_over_rho, then su d_rho + cu d_phi_over_rho
        gx = cu * d_rho
        gx -= su * d_phi_over_rho
        grads[0] = gx
        d_rho *= su
        d_phi_over_rho *= cu
        d_rho += d_phi_over_rho
        grads[1] = d_rho
        _zero_outside(self, sel, (grads[0], grads[1]))


class _SlFactors:
    def __init__(self, elements, x, y, inside, grad):
        self.inside = None if inside.all() else inside
        # per element, its factor of each axis on that axis's distinct coordinates
        coords, at = zip(*(np.unique(c, return_inverse=True) for c in (x, y)))
        self.at = np.stack(at)
        n = [np.array([e.indices[axis] for e in elements])[:, None] for axis in (0, 1)]
        self.waves = [np.sin(n[a] * math.pi * (coords[a] + 1.0) / 2.0) for a in (0, 1)]
        self.slopes = None
        if grad:
            h = [n[a] * math.pi / 2.0 for a in (0, 1)]
            self.slopes = [(h[a], np.sin(h[a] * (coords[a] + 1.0)), np.cos(h[a] * (coords[a] + 1.0))) for a in (0, 1)]

    def fill(self, sel, vals, grads):
        bx, by = self.at[:, sel]
        vals[:] = self.waves[0][:, bx] * self.waves[1][:, by]
        if grads is not None:
            (hp, sx, cx), (hq, sy, cy) = self.slopes
            grads[0] = hp * cx[:, bx] * sy[:, by]
            grads[1] = hq * sx[:, bx] * cy[:, by]
        _zero_outside(self, sel, (vals,) if grads is None else (vals, grads[0], grads[1]))


# kind -> (its domain as a mask of x and y, the factors its elements share)
_SPATIAL_KINDS = {
    "fb-disk": (lambda x, y: np.hypot(x, y) < 1.0, _FbFactors),
    "sl-square": (lambda x, y: (np.abs(x) < 1.0) & (np.abs(y) < 1.0), _SlFactors),
}


def eval_spatial(element, points):
    """Evaluate one spatial element at points[..., 2]; a view of eval_spatial_stack."""
    return eval_spatial_stack((element,), points)[0]


def eval_spatial_grad(element, points):
    """Cartesian gradient [..., 2] of one spatial element; a view of eval_spatial_stack."""
    return np.moveaxis(eval_spatial_stack((element,), points, grad=True)[1][:, 0], 0, -1)


def angular_matrix(basis, thetas):
    """Rotation profiles at angles (radians): [2*max_angular + 1, len(thetas)].

    Rows: 1, then sqrt(2) cos(m theta) and sqrt(2) sin(m theta) for
    m = 1..max_angular, orthonormal under d(theta)/2pi.
    """
    t = np.asarray(thetas, dtype=np.float64)
    mt = np.arange(1, basis.max_angular + 1)[:, None] * t
    waves = np.stack([np.cos(mt), np.sin(mt)], axis=1).reshape(-1, t.size)
    return np.concatenate([np.ones((1, t.size)), math.sqrt(2.0) * waves])


def scale_matrix(basis, alphas):
    """Scale profiles sin(n pi (alpha + 1) / 2), n = 1..n_scale: [n_scale, len(alphas)], zero outside (-1, 1)."""
    a = np.asarray(alphas, dtype=np.float64)
    out = np.zeros((basis.n_scale, a.size))
    inside = np.abs(a) < 1.0
    out[:, inside] = np.sin(np.arange(1, basis.n_scale + 1)[:, None] * math.pi * (a[inside] + 1.0) / 2.0)
    return out


def unit_grid(n):
    """n x n grid of nodes spanning [-1, 1]^2, edges included, with the cell area h^2 per node."""
    xs = np.linspace(-1.0, 1.0, n)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    pts = np.stack([X, Y], axis=-1)
    return pts, h * h


def gram_matrix(basis):
    """Discrete Gram matrix of the spatial elements under cell-area quadrature on a 201 x 201 grid."""
    pts, w = unit_grid(201)
    vals = eval_spatial_stack(basis.spatial, pts).reshape(basis.n_spatial, -1)
    return w * (vals @ vals.T)


def laplacian_residuals(basis):
    """Relative five-point-Laplacian eigen-residuals [K] of the spatial elements.

    Each is ||Lap_h psi + mu psi|| / ||mu psi|| over grid points at least
    `margin` inside the domain boundary (where the stencil never straddles
    the Dirichlet edge).  All elements share one eval_spatial_stack pass,
    and the stencil and residual run one element at a time on its values.
    """
    grid_n, margin = 401, 0.1
    pts, _ = unit_grid(grid_n)
    h = 2.0 / (grid_n - 1)
    x = pts[..., 0]
    y = pts[..., 1]
    if basis.spatial_kind == "fb":
        interior = np.hypot(x, y) <= 1.0 - margin
    else:
        interior = np.maximum(np.abs(x), np.abs(y)) <= 1.0 - margin
    interior[0, :] = interior[-1, :] = interior[:, 0] = interior[:, -1] = False
    # interior leaves out the edge rows and columns, where the stencil has no value
    inner = interior[1:-1, 1:-1]
    residuals = []
    for v, mu in zip(eval_spatial_stack(basis.spatial, pts), basis.spatial_eigenvalues):
        lap = (v[1:-1, 2:] + v[1:-1, :-2] + v[2:, 1:-1] + v[:-2, 1:-1] - 4.0 * v[1:-1, 1:-1]) / (h * h)
        mu_v = mu * v[1:-1, 1:-1][inner]
        resid = lap[inner] + mu_v
        residuals.append(np.sqrt(np.sum(resid**2)) / np.sqrt(np.sum(mu_v**2)))
    return np.array(residuals)
