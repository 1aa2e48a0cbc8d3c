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

from .bessel import bessel_j_groups, bessel_j_slopes, bessel_zero_groups
from .parts import run_parts

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
    # K lowest are the disk's.  The zeros of every order, the horizon's among
    # them, come from one grouped search and the J_{m+1}(lambda) of the
    # normalizations from one grouped pass: per-step costs are paid once,
    # and each group keeps the bits of its own call.
    orders = list(range(FB_POOL_MAX_M + 1))
    qs = np.arange(1, FB_POOL_MAX_Q + 1)
    *zeros, edge = bessel_zero_groups(orders + [FB_POOL_MAX_M + 1], [qs] * len(orders) + [1])
    horizon = edge**2
    pool = []
    for m, lams, jnext in zip(orders, zeros, bessel_j_groups([m + 1 for m in orders], zeros)):
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


def in_domain(elements, points):
    """Mask of the points[..., 2] inside the domain of some of the spatial elements.

    Fourier-Bessel elements live on the open unit disk and sine elements on
    the open square (-1, 1)^2; each element and its gradient are exactly
    zero everywhere else.
    """
    pts = np.asarray(points, dtype=np.float64)
    x = pts[..., 0]
    y = pts[..., 1]
    inside = np.zeros(x.shape, dtype=bool)
    for kind, (domain, _fill) in _SPATIAL_FILLS.items():
        if any(e.kind == kind for e in elements):
            inside |= domain(x, y)
    return inside


def eval_spatial_stack(elements, points, grad=False):
    """Spatial elements at points[..., 2] in unit-domain coordinates: values [K, ...].

    With grad=True returns (values, gradients [2, K, ...]), the x and y
    components of the Cartesian gradients, each contiguous.  Both are zero
    on and outside each element's domain.  Shared work is done once per
    call: one Bessel pass per Fourier-Bessel radial mode gives its J_m (and,
    for gradients, its J_{m-1}) over the distinct radii of the points and
    serves its cos and sin elements, and the modes are split over the part
    pool; sine-basis elements share their per-index sine and cosine factors.
    """
    pts = np.asarray(points, dtype=np.float64)
    shape = pts.shape[:-1]
    # the fills work on the points as one flat axis, a single point included
    flat = pts.reshape(-1, 2)
    x, y = flat[:, 0], flat[:, 1]
    for e in elements:
        if e.kind not in _SPATIAL_FILLS:
            raise ValueError(f"not a spatial element: {e.kind}")
    vals = np.zeros((len(elements), x.size))
    grads = np.zeros((2,) + vals.shape) if grad else None
    for kind, (domain, fill) in _SPATIAL_FILLS.items():
        rows = [k for k, e in enumerate(elements) if e.kind == kind]
        if rows:
            fill(elements, rows, x, y, domain(x, y), vals, grads)
    vals = vals.reshape((len(elements),) + shape)
    return (vals, grads.reshape((2,) + vals.shape)) if grad else vals


def _fill_fb(elements, rows, x, y, inside, vals, grads):
    phi = np.arctan2(y[inside], x[inside])
    # Each radial function runs on the distinct radii only (16,515 of the
    # 70,663 inside points of a 301 x 301 grid) and is scattered back.  That
    # changes no bit: bessel_j sees its points only through their largest
    # value and their set of values, which the distinct radii share.
    radii, back = np.unique(np.hypot(x[inside], y[inside]), return_inverse=True)
    # Outside the disk a value is c * 0.0 * (cos or sin)(m phi): a zero with
    # the sign of the harmonic, which the bank bytes keep.
    outside = ~inside
    phi_out = np.arctan2(y[outside], x[outside]) if outside.any() else None
    if grads is not None:
        cu = np.cos(phi)
        su = np.sin(phi)
    modes = {}
    for k in rows:
        modes.setdefault((elements[k].indices[0], elements[k].eigenvalue), []).append(k)
    modes = list(modes.items())

    def part(lo, hi):
        for (m, mu), members in modes[lo:hi]:
            lam = math.sqrt(mu)
            r = lam * radii
            # one Bessel pass per mode: J_m, and for gradients J_{m-1} (J_1
            # for m = 0); each group keeps the bits of its own bessel_j call
            orders = [m] if grads is None else [m, 1 if m == 0 else m - 1]
            js = bessel_j_groups(orders, [r] * len(orders))
            radial = js[0][back]
            harmonics = {"cos", "sin"} if grads is not None else {elements[k].harmonic for k in members}
            wave = {h: np.cos(m * phi) if h == "cos" else np.sin(m * phi) for h in harmonics}
            for k in members:
                c, h = elements[k].normalization, elements[k].harmonic
                vals[k][inside] = c * radial * wave[h]
                if phi_out is not None:
                    vals[k][outside] = c * 0.0 * (np.cos(m * phi_out) if h == "cos" else np.sin(m * phi_out))
            if grads is None:
                continue
            # J_m'(r) and m J_m(r) / r, so m J_m(lam rho) / rho = lam * j_over
            jprime, j_over = (v[back] for v in bessel_j_slopes(m, r, *js))
            cphi, sphi = wave["cos"], wave["sin"]
            for k in members:
                c = elements[k].normalization
                if elements[k].harmonic == "cos":
                    d_rho = c * lam * jprime * cphi
                    d_phi_over_rho = -c * lam * j_over * sphi
                else:
                    d_rho = c * lam * jprime * sphi
                    d_phi_over_rho = c * lam * j_over * cphi
                grads[0, k][inside] = cu * d_rho - su * d_phi_over_rho
                grads[1, k][inside] = su * d_rho + cu * d_phi_over_rho

    run_parts(part, len(modes))


def _fill_sl(elements, rows, x, y, inside, vals, grads):
    coords = (x[inside], y[inside])

    @functools.cache
    def wave(n, axis):
        return np.sin(n * math.pi * (coords[axis] + 1.0) / 2.0)

    @functools.cache
    def wave_grad(n, axis):
        h = n * math.pi / 2.0
        return h, np.sin(h * (coords[axis] + 1.0)), np.cos(h * (coords[axis] + 1.0))

    for k in rows:
        p, q = elements[k].indices
        vals[k][inside] = wave(p, 0) * wave(q, 1)
        if grads is not None:
            hp, sx, cx = wave_grad(p, 0)
            hq, sy, cy = wave_grad(q, 1)
            grads[0, k][inside] = hp * cx * sy
            grads[1, k][inside] = hq * sx * cy


# kind -> (its domain as a mask of x and y, its fill)
_SPATIAL_FILLS = {
    "fb-disk": (lambda x, y: np.hypot(x, y) < 1.0, _fill_fb),
    "sl-square": (lambda x, y: (np.abs(x) < 1.0) & (np.abs(y) < 1.0), _fill_sl),
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
    """n x n grid of cell centers covering [-1, 1]^2, with the cell area."""
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
    the Dirichlet edge).  All elements share one eval_spatial_stack pass.
    """
    grid_n, margin = 401, 0.1
    pts, _ = unit_grid(grid_n)
    h = 2.0 / (grid_n - 1)
    vals = eval_spatial_stack(basis.spatial, pts)
    lap = np.zeros_like(vals)
    lap[:, 1:-1, 1:-1] = (
        vals[:, 1:-1, 2:] + vals[:, 1:-1, :-2] + vals[:, 2:, 1:-1] + vals[:, :-2, 1:-1] - 4.0 * vals[:, 1:-1, 1:-1]
    ) / (h * h)
    x = pts[..., 0]
    y = pts[..., 1]
    if basis.spatial_kind == "fb":
        interior = np.hypot(x, y) <= 1.0 - margin
    else:
        interior = np.maximum(np.abs(x), np.abs(y)) <= 1.0 - margin
    interior[0, :] = interior[-1, :] = interior[:, 0] = interior[:, -1] = False
    mu_vals = basis.spatial_eigenvalues[:, None] * vals[:, interior]
    resid = lap[:, interior] + mu_vals
    # one 1-d sum per element: a sum along axis 1 groups the terms differently
    return np.array([np.sqrt(np.sum(r**2)) / np.sqrt(np.sum(m**2)) for r, m in zip(resid, mu_vals)])
