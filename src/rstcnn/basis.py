"""Orthonormal separable bases for steerable filters.

Spatial part: either a Fourier-Bessel basis on the closed unit disk
(J_m(lambda_{m,q} r) times a circular harmonic, Dirichlet boundary) or a
Sturm-Liouville sine basis on the square [-1,1]^2.  Rotation part: real
Fourier modes on the circle, orthonormal under the normalized measure
d(theta)/2pi.  Scale part: Dirichlet sine modes on [-1,1].  Every element
carries its (negative) Laplacian eigenvalue; elements evaluate to exactly
zero on and outside their domain boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import bessel_j, bessel_j_derivative, bessel_j_over_x, bessel_zero

FB_POOL_MAX_M = 15
FB_POOL_MAX_Q = 16
SL_POOL_MAX = 24


class PoolExhaustionError(ValueError):
    """Requested more basis elements than the enumerated candidate pool holds."""


@dataclass(frozen=True)
class BasisElement:
    """One basis function: kind + integer indices + harmonic flavor.

    kind is one of "fb-disk", "sl-square", "fourier-circle",
    "dirichlet-interval".  eigenvalue is the eigenvalue of -Laplace
    (respectively -d^2 for the 1-d kinds); normalization is the constant
    that makes the element unit-norm on its domain.
    """

    kind: str
    indices: tuple
    harmonic: str
    eigenvalue: float
    normalization: float


@dataclass(frozen=True)
class BasisSet:
    """Spatial, angular and scale elements used to expand one layer's filters."""

    spatial_kind: str
    spatial: tuple
    angular: tuple
    scale: tuple

    @property
    def spatial_eigenvalues(self):
        return np.array([e.eigenvalue for e in self.spatial], dtype=np.float64)

    @property
    def n_spatial(self):
        return len(self.spatial)

    @property
    def n_angular(self):
        return len(self.angular)

    @property
    def n_scale(self):
        return len(self.scale)


def _fb_pool():
    pool = []
    for m in range(FB_POOL_MAX_M + 1):
        for q in range(1, FB_POOL_MAX_Q + 1):
            lam = bessel_zero(m, q)
            mu = lam * lam
            if m == 0:
                c = 1.0 / (math.sqrt(math.pi) * abs(bessel_j(1, lam)))
                pool.append(BasisElement("fb-disk", (m, q), "cos", mu, c))
            else:
                c = math.sqrt(2.0) / (math.sqrt(math.pi) * abs(bessel_j(m + 1, lam)))
                pool.append(BasisElement("fb-disk", (m, q), "cos", mu, c))
                pool.append(BasisElement("fb-disk", (m, q), "sin", mu, c))
    return pool


def _sl_pool():
    pool = []
    for p in range(1, SL_POOL_MAX + 1):
        for q in range(1, SL_POOL_MAX + 1):
            mu = (math.pi / 2.0) ** 2 * (p * p + q * q)
            pool.append(BasisElement("sl-square", (p, q), "", mu, 1.0))
    return pool


def _sort_key(e):
    # ascending eigenvalue; ties broken by indices then cos before sin
    return (e.eigenvalue, e.indices, 0 if e.harmonic != "sin" else 1)


def build_basis(spatial_kind, K, max_angular=4, n_scale=1):
    """Assemble the K lowest-eigenvalue spatial elements plus rotation/scale factors.

    spatial_kind: "fb" (unit-disk Fourier-Bessel) or "sl" (square sine basis).
    Angular part has 2*max_angular + 1 elements (constant, then cos/sin pairs);
    scale part has n_scale Dirichlet sine modes on [-1, 1].
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
    spatial = tuple(sorted(pool, key=_sort_key)[:K])

    if max_angular < 0:
        raise ValueError("max_angular must be >= 0")
    angular = [BasisElement("fourier-circle", (0,), "cos", 0.0, 1.0)]
    for m in range(1, max_angular + 1):
        angular.append(BasisElement("fourier-circle", (m,), "cos", float(m * m), math.sqrt(2.0)))
        angular.append(BasisElement("fourier-circle", (m,), "sin", float(m * m), math.sqrt(2.0)))

    if n_scale < 1:
        raise ValueError("n_scale must be >= 1")
    scale = [
        BasisElement("dirichlet-interval", (n,), "", (n * math.pi / 2.0) ** 2, 1.0)
        for n in range(1, n_scale + 1)
    ]
    return BasisSet(spatial_kind, spatial, tuple(angular), tuple(scale))


def eval_spatial(element, points):
    """Evaluate a spatial element at points[..., 2] in unit-domain coordinates."""
    pts = np.asarray(points, dtype=np.float64)
    x = pts[..., 0]
    y = pts[..., 1]
    if element.kind == "fb-disk":
        m, _q = element.indices
        lam = math.sqrt(element.eigenvalue)
        rho = np.hypot(x, y)
        inside = rho < 1.0
        phi = np.arctan2(y, x)
        radial = np.zeros_like(rho)
        radial[inside] = bessel_j(m, lam * rho[inside])
        trig = np.cos(m * phi) if element.harmonic == "cos" else np.sin(m * phi)
        return element.normalization * radial * trig
    if element.kind == "sl-square":
        p, q = element.indices
        inside = (np.abs(x) < 1.0) & (np.abs(y) < 1.0)
        out = np.zeros_like(x)
        out[inside] = np.sin(p * math.pi * (x[inside] + 1.0) / 2.0) * np.sin(
            q * math.pi * (y[inside] + 1.0) / 2.0
        )
        return out
    raise ValueError(f"not a spatial element: {element.kind}")


def eval_spatial_grad(element, points):
    """Cartesian gradient of a spatial element at points[..., 2]; zero outside."""
    pts = np.asarray(points, dtype=np.float64)
    x = pts[..., 0]
    y = pts[..., 1]
    if element.kind == "fb-disk":
        m, _q = element.indices
        lam = math.sqrt(element.eigenvalue)
        c = element.normalization
        rho = np.hypot(x, y)
        inside = rho < 1.0
        phi = np.arctan2(y, x)
        gx = np.zeros_like(x)
        gy = np.zeros_like(y)
        r = lam * rho[inside]
        jprime = bessel_j_derivative(m, r)
        # m J_m(lam rho) / rho = lam * (m J_m(r) / r), finite at the origin
        j_over = bessel_j_over_x(m, r)
        cphi = np.cos(m * phi[inside])
        sphi = np.sin(m * phi[inside])
        if element.harmonic == "cos":
            d_rho = c * lam * jprime * cphi
            d_phi_over_rho = -c * lam * j_over * sphi
        else:
            d_rho = c * lam * jprime * sphi
            d_phi_over_rho = c * lam * j_over * cphi
        cu = np.cos(phi[inside])
        su = np.sin(phi[inside])
        gx[inside] = cu * d_rho - su * d_phi_over_rho
        gy[inside] = su * d_rho + cu * d_phi_over_rho
        return np.stack([gx, gy], axis=-1)
    if element.kind == "sl-square":
        p, q = element.indices
        inside = (np.abs(x) < 1.0) & (np.abs(y) < 1.0)
        gx = np.zeros_like(x)
        gy = np.zeros_like(y)
        hp = p * math.pi / 2.0
        hq = q * math.pi / 2.0
        sx = np.sin(hp * (x[inside] + 1.0))
        cx = np.cos(hp * (x[inside] + 1.0))
        sy = np.sin(hq * (y[inside] + 1.0))
        cy = np.cos(hq * (y[inside] + 1.0))
        gx[inside] = hp * cx * sy
        gy[inside] = hq * sx * cy
        return np.stack([gx, gy], axis=-1)
    raise ValueError(f"not a spatial element: {element.kind}")


def eval_angular(element, thetas):
    """Evaluate a rotation-axis Fourier element at angles (radians)."""
    if element.kind != "fourier-circle":
        raise ValueError(f"not an angular element: {element.kind}")
    (m,) = element.indices
    t = np.asarray(thetas, dtype=np.float64)
    if m == 0:
        return np.ones_like(t)
    base = np.cos(m * t) if element.harmonic == "cos" else np.sin(m * t)
    return element.normalization * base


def eval_scale(element, alphas):
    """Evaluate a scale-axis Dirichlet sine element; zero outside (-1, 1)."""
    if element.kind != "dirichlet-interval":
        raise ValueError(f"not a scale element: {element.kind}")
    (n,) = element.indices
    a = np.asarray(alphas, dtype=np.float64)
    out = np.zeros_like(a)
    inside = np.abs(a) < 1.0
    out[inside] = np.sin(n * math.pi * (a[inside] + 1.0) / 2.0)
    return out


def angular_matrix(basis, thetas):
    """Stack eval_angular over the basis's angular elements: [n_angular, len(thetas)]."""
    return np.stack([eval_angular(e, thetas) for e in basis.angular])


def scale_matrix(basis, alphas):
    """Stack eval_scale over the basis's scale elements: [n_scale, len(alphas)]."""
    return np.stack([eval_scale(e, alphas) for e in basis.scale])


def unit_grid(n):
    """n x n grid of cell centers covering [-1, 1]^2, with the cell area."""
    xs = np.linspace(-1.0, 1.0, n)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    pts = np.stack([X, Y], axis=-1)
    return pts, h * h


def gram_matrix(basis, grid_n=201):
    """Discrete Gram matrix of the spatial elements under cell-area quadrature."""
    pts, w = unit_grid(grid_n)
    vals = np.stack([eval_spatial(e, pts).ravel() for e in basis.spatial])
    return w * (vals @ vals.T)


def laplacian_residual(basis, k, grid_n=401, margin=0.1):
    """Relative five-point-Laplacian eigen-residual of spatial element k.

    Measures ||Lap_h psi + mu psi|| / ||mu psi|| over grid points at least
    `margin` inside the domain boundary (where the stencil never straddles
    the Dirichlet edge).
    """
    e = basis.spatial[k]
    pts, _ = unit_grid(grid_n)
    h = 2.0 / (grid_n - 1)
    vals = eval_spatial(e, pts)
    lap = np.zeros_like(vals)
    lap[1:-1, 1:-1] = (
        vals[1:-1, 2:] + vals[1:-1, :-2] + vals[2:, 1:-1] + vals[:-2, 1:-1] - 4.0 * vals[1:-1, 1:-1]
    ) / (h * h)
    x = pts[..., 0]
    y = pts[..., 1]
    if e.kind == "fb-disk":
        interior = np.hypot(x, y) <= 1.0 - margin
    else:
        interior = np.maximum(np.abs(x), np.abs(y)) <= 1.0 - margin
    interior[0, :] = interior[-1, :] = interior[:, 0] = interior[:, -1] = False
    mu = e.eigenvalue
    num = np.sqrt(np.sum((lap[interior] + mu * vals[interior]) ** 2))
    den = np.sqrt(np.sum((mu * vals[interior]) ** 2))
    return num / den
