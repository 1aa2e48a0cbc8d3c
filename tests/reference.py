"""Naive reference implementations used as oracles.

Everything here is written as direct loops over the defining sums and kept
deliberately independent of the vectorized package code paths: no reuse of
the package's einsum/matmul kernels, index tricks, or interpolation helpers.
"""

import math

import numpy as np


def trapezoid_weights(n):
    """Quadrature weights of the uniform n-point grid on [-1, 1]."""
    if n == 1:
        return np.array([1.0])
    h = 2.0 / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def angular_value(element, theta):
    """Real orthonormal circle harmonic (measure dtheta/2pi) from metadata."""
    (m,) = element.indices
    if m == 0:
        return 1.0
    factor = math.sqrt(2.0)
    if element.harmonic == "cos":
        return factor * math.cos(m * theta)
    return factor * math.sin(m * theta)


def scale_value(element, alpha):
    """Dirichlet sine mode on [-1, 1] from metadata (unit L2 norm)."""
    (n,) = element.indices
    if abs(alpha) >= 1.0:
        return 0.0
    return math.sin(n * math.pi * (alpha + 1.0) / 2.0)


def uniform_alpha_taps(n):
    """Uniform n-point grid on [-1, 1]; the single tap sits at 0."""
    if n == 1:
        return np.array([0.0])
    return np.linspace(-1.0, 1.0, n)


def naive_synthesize_joint_at(a, bank_values, basis, l_theta, l_alpha, pos):
    """One entry of the joint filter tensor by a direct (k, m, n) triple loop.

    pos = (i, o, r, t, s, q, y, x) indexes [M_in, M_out, N_r, L_t, N_s, L_a, L, L];
    theta taps are uniform on [0, 2pi), alpha taps uniform on [-1, 1].
    """
    i, o, r, t, s, q, y, x = pos
    theta = 2.0 * math.pi * t / l_theta
    alpha = uniform_alpha_taps(l_alpha)[q]
    K, n_ang, n_sc = a.shape[2:]
    acc = 0.0
    for k in range(K):
        for m in range(n_ang):
            for n in range(n_sc):
                acc += (
                    a[i, o, k, m, n]
                    * bank_values[k, r, s, y, x]
                    * angular_value(basis.angular[m], theta)
                    * scale_value(basis.scale[n], alpha)
                )
    return acc


def naive_lifting_at(x, filters, bias, o, r, s, y, x0):
    """One output value of the first-layer convolution, from the defining sum.

    x: [M_in, H, W]; filters: [M_in, M_out, N_r, N_s, L, L]; 'same' zero
    padding, cross-correlation orientation, ReLU(. + bias).
    """
    m_in = filters.shape[0]
    L = filters.shape[-1]
    c = L // 2
    H, W = x.shape[1:]
    acc = bias[o]
    for i in range(m_in):
        for dy in range(-c, c + 1):
            for dx in range(-c, c + 1):
                yy, xx = y + dy, x0 + dx
                if 0 <= yy < H and 0 <= xx < W:
                    acc += x[i, yy, xx] * filters[i, o, r, s, dy + c, dx + c]
    return max(acc, 0.0)


def naive_joint_at(feat, filters, bias, o, r, s, y, x0):
    """One output value of the group convolution, from the defining sums.

    feat: [M_in, N_r, N_s, H, W]; filters: [M_in, M_out, N_r, L_t, N_s, L_a, L, L].
    Tap l_t rotates the input by l_t * N_r/L_t rotation channels (cyclic);
    tap l_a shifts the input by l_a scale channels (zero fill). The theta sum
    carries weight 1/L_t (normalized circle measure), the alpha sum the
    trapezoidal weight of the uniform L_a-point grid on [-1, 1].
    """
    m_in, m_out, n_r, l_t, n_s, l_a, L, _ = filters.shape
    c = L // 2
    H, W = feat.shape[3:]
    d_step = n_r // l_t
    w_alpha = trapezoid_weights(l_a)
    acc = bias[o]
    for t in range(l_t):
        r_in = (r + t * d_step) % n_r
        for q in range(l_a):
            s_in = s + q
            if s_in >= n_s:
                continue
            w = w_alpha[q] / l_t
            for i in range(m_in):
                for dy in range(-c, c + 1):
                    for dx in range(-c, c + 1):
                        yy, xx = y + dy, x0 + dx
                        if 0 <= yy < H and 0 <= xx < W:
                            acc += w * feat[i, r_in, s_in, yy, xx] * filters[i, o, r, t, s, q, dy + c, dx + c]
    return max(acc, 0.0)


def naive_bilinear(values, row, col):
    """Single bilinear read of values[H, W] at fractional (row, col), zero outside."""
    H, W = values.shape
    r0 = math.floor(row)
    c0 = math.floor(col)
    fr = row - r0
    fc = col - c0
    acc = 0.0
    for dr, wr in ((0, 1.0 - fr), (1, fr)):
        for dc, wc in ((0, 1.0 - fc), (1, fc)):
            rr, cc = r0 + dr, c0 + dc
            if 0 <= rr < H and 0 <= cc < W and wr * wc != 0.0:
                acc += wr * wc * values[rr, cc]
    return acc


def shift_feature_channels(values, d_rot, d_sc):
    """Rotation/scale channel shift of values[..., N_r, N_s, H, W]: a cyclic roll
    by d_rot, then a copy of the scale axis up by d_sc into zeros."""
    rolled = np.roll(values, d_rot, axis=-4)
    shifted = np.zeros_like(rolled)
    n_s = values.shape[-3]
    for s in range(n_s):
        if 0 <= s - d_sc < n_s:
            shifted[..., s, :, :] = rolled[..., s - d_sc, :, :]
    return shifted


def fourier_field_value(coeffs, box, comp, x, y):
    """Direct evaluation of the truncated Fourier field at one point."""
    P = coeffs.shape[1] - 1
    acc = 0.0
    for p in range(P + 1):
        for q in range(P + 1):
            ax = p * math.pi * x / box
            ay = q * math.pi * y / box
            prods = (
                math.cos(ax) * math.cos(ay),
                math.cos(ax) * math.sin(ay),
                math.sin(ax) * math.cos(ay),
                math.sin(ax) * math.sin(ay),
            )
            for w in range(4):
                acc += coeffs[comp, p, q, w] * prods[w]
    return acc


def chunked_filter_bounds(coeffs, basis, spec, grid_n, n_theta):
    """B, C, D and A of one layer from full-grid einsums, theta in chunks of 8.

    The quadrature as filter_bound_report computed it before it summed over
    the disk's support points only: filters and gradients are formed on the
    whole grid_n x grid_n grid and then summed.  Basis values and the
    amplitude bound come from the package; the sums and their aggregation
    over channels are written out here.
    """
    from rstcnn.basis import eval_angular, eval_spatial, eval_spatial_grad
    from rstcnn.net import filter_amplitude

    xs = np.linspace(-1.0, 1.0, grid_n)
    X, Y = np.meshgrid(xs, xs)
    pts = np.stack([X, Y], axis=-1)
    h2 = (xs[1] - xs[0]) ** 2
    vals = np.stack([eval_spatial(e, pts) for e in basis.spatial])
    grads = np.moveaxis(np.stack([eval_spatial_grad(e, pts) for e in basis.spatial]), -1, 1)
    radius = np.sqrt(X * X + Y * Y)
    a = coeffs.a
    m_in, m_out = a.shape[0], a.shape[1]

    if coeffs.is_lifting:
        W = np.einsum("abk,kxy->abxy", a, vals)
        G = np.einsum("abk,kdxy->abdxy", a, grads)
        gmag = np.sqrt(G[:, :, 0] ** 2 + G[:, :, 1] ** 2)
        per_pair = [
            np.abs(W).sum(axis=(2, 3)) * h2,
            (radius * gmag).sum(axis=(2, 3)) * h2,
            gmag.sum(axis=(2, 3)) * h2,
        ]
        aggregated = [
            max(p.sum(axis=0).max(), (m_in / m_out) * p.sum(axis=1).max()) for p in per_pair
        ]
    else:
        thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
        phi = np.stack([eval_angular(e, thetas) for e in basis.angular])
        per_pair = [np.zeros((m_in, m_out, a.shape[4])) for _ in range(3)]
        for t0 in range(0, n_theta, 8):
            ph = phi[:, t0 : t0 + 8]
            Wt = np.einsum("abkmn,kxy,mt->abntxy", a, vals, ph, optimize=True)
            Gt = np.einsum("abkmn,kdxy,mt->abndtxy", a, grads, ph, optimize=True)
            gmag = np.sqrt(Gt[:, :, :, 0] ** 2 + Gt[:, :, :, 1] ** 2)
            per_pair[0] += np.abs(Wt).sum(axis=(3, 4, 5))
            per_pair[1] += (radius * gmag).sum(axis=(3, 4, 5))
            per_pair[2] += gmag.sum(axis=(3, 4, 5))
        per_pair = [p * (h2 / n_theta) for p in per_pair]
        aggregated = [
            max(
                p.sum(axis=2).sum(axis=0).max(),
                (2.0 * m_in / m_out) * p.sum(axis=1).max(axis=0).sum(),
            )
            for p in per_pair
        ]
    B, C, Du = aggregated
    return {
        "B": float(B),
        "C": float(C),
        "D": float(Du) * 2.0**-spec.resolved_scale,
        "A": filter_amplitude(coeffs, basis, spec),
    }
