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


def angular_value(row, theta):
    """Row `row` of the real orthonormal circle harmonics (measure dtheta/2pi).

    Row 0 is the constant 1; rows 2m - 1 and 2m are sqrt(2) cos(m theta) and
    sqrt(2) sin(m theta).
    """
    if row == 0:
        return 1.0
    m = (row + 1) // 2
    factor = math.sqrt(2.0)
    if row % 2 == 1:
        return factor * math.cos(m * theta)
    return factor * math.sin(m * theta)


def scale_value(row, alpha):
    """Row `row` of the Dirichlet sine modes on [-1, 1] (unit L2 norm): mode n = row + 1."""
    if abs(alpha) >= 1.0:
        return 0.0
    return math.sin((row + 1) * math.pi * (alpha + 1.0) / 2.0)


def record_profile_matrices(max_angular, n_scale, thetas, alphas):
    """angular_matrix and scale_matrix as built from one record per profile.

    The evaluation as the package did it before the profiles became two
    closed forms: a BasisElement per profile, holding its indices, harmonic
    and normalization, evaluated one at a time and stacked.  The arithmetic
    is that code's, in the same order, so the closed forms must match it bit
    for bit.
    """
    from rstcnn.basis import BasisElement

    angular = [BasisElement("fourier-circle", (0,), "cos", 0.0, 1.0)]
    for m in range(1, max_angular + 1):
        angular.append(BasisElement("fourier-circle", (m,), "cos", float(m * m), math.sqrt(2.0)))
        angular.append(BasisElement("fourier-circle", (m,), "sin", float(m * m), math.sqrt(2.0)))
    scale = [BasisElement("dirichlet-interval", (n,), "", (n * math.pi / 2.0) ** 2, 1.0) for n in range(1, n_scale + 1)]

    def angular_row(e, t):
        (m,) = e.indices
        if m == 0:
            return np.ones_like(t)
        return e.normalization * (np.cos(m * t) if e.harmonic == "cos" else np.sin(m * t))

    def scale_row(e, a):
        (n,) = e.indices
        out = np.zeros_like(a)
        inside = np.abs(a) < 1.0
        out[inside] = np.sin(n * math.pi * (a[inside] + 1.0) / 2.0)
        return out

    t = np.asarray(thetas, dtype=np.float64)
    a = np.asarray(alphas, dtype=np.float64)
    return np.stack([angular_row(e, t) for e in angular]), np.stack([scale_row(e, a) for e in scale])


def uniform_alpha_taps(n):
    """Uniform n-point grid on [-1, 1]; the single tap sits at 0."""
    if n == 1:
        return np.array([0.0])
    return np.linspace(-1.0, 1.0, n)


def naive_synthesize_joint_at(a, bank_values, l_theta, l_alpha, pos):
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
                    * angular_value(m, theta)
                    * scale_value(n, alpha)
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
    if not (math.isfinite(row) and math.isfinite(col)):
        return 0.0  # infinitely far outside
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


def per_order_fb_pool():
    """basis._fb_pool with one Bessel call per order.

    One bessel_zero call for the horizon and, per order m, one bessel_zero
    call for its 16 zeros and one bessel_j call for J_{m+1} at them.  The
    rest is the package's arithmetic in the same order, and every Bessel
    value depends on its (order, x) alone, so the pool's broadcast calls
    must match it field for field, bits included.
    """
    from rstcnn.basis import FB_POOL_MAX_M, FB_POOL_MAX_Q, BasisElement, _sort_key
    from rstcnn.bessel import bessel_j, bessel_zero

    horizon = bessel_zero(FB_POOL_MAX_M + 1, 1) ** 2
    pool = []
    qs = np.arange(1, FB_POOL_MAX_Q + 1)
    for m in range(FB_POOL_MAX_M + 1):
        lams = bessel_zero(m, qs)
        jnext = np.abs(bessel_j(m + 1, lams))
        harmonics = ("cos",) if m == 0 else ("cos", "sin")
        for q, lam, jn in zip(qs.tolist(), lams.tolist(), jnext.tolist()):
            c = (1.0 if m == 0 else math.sqrt(2.0)) / (math.sqrt(math.pi) * jn)
            if lam * lam < horizon:
                pool.extend(BasisElement("fb-disk", (m, q), h, lam * lam, c) for h in harmonics)
    return tuple(sorted(pool, key=_sort_key))


def fb_stack_every_point(elements, points):
    """Values [K, ...] and gradients [2, K, ...] of Fourier-Bessel elements, J_m at every point.

    Every Bessel call here gets every point inside the disk, repeats
    included, one element at a time, where basis.eval_spatial_stack runs
    all radial functions on the distinct radii in one call.  A bessel_j
    value depends on its (order, x) alone, so the two agree bit for bit
    when the gather back to the points and the arithmetic after it are the
    package's, in the same order.
    """
    from rstcnn.bessel import bessel_j, bessel_j_slopes

    pts = np.asarray(points, dtype=np.float64)
    x, y = pts[..., 0], pts[..., 1]
    rho = np.hypot(x, y)
    inside = rho < 1.0
    phi = np.arctan2(y, x)
    cu, su = np.cos(phi[inside]), np.sin(phi[inside])
    vals = np.zeros((len(elements),) + x.shape)
    grads = np.zeros((2,) + vals.shape)
    for k, e in enumerate(elements):
        m, c = e.indices[0], e.normalization
        lam = math.sqrt(e.eigenvalue)
        r = lam * rho[inside]
        radial = np.zeros_like(rho)
        radial[inside] = bessel_j(m, r)
        jprime, j_over = bessel_j_slopes(m, r, radial[inside], bessel_j(1 if m == 0 else m - 1, r))
        cphi, sphi = np.cos(m * phi[inside]), np.sin(m * phi[inside])
        if e.harmonic == "cos":
            vals[k] = c * radial * np.cos(m * phi)
            d_rho = c * lam * jprime * cphi
            d_phi_over_rho = -c * lam * j_over * sphi
        else:
            vals[k] = c * radial * np.sin(m * phi)
            d_rho = c * lam * jprime * sphi
            d_phi_over_rho = c * lam * j_over * cphi
        grads[0, k][inside] = cu * d_rho - su * d_phi_over_rho
        grads[1, k][inside] = su * d_rho + cu * d_phi_over_rho
    return vals, grads


def loop_filter_bank_args(n_rotations, grid, stencil, pitch, layer_scale):
    """The bank's sample points args[r, s, i, t, :] = 2^{-(alpha_s + j)} R_{-theta_r} u', one (rotation, scale) at a time.

    This is the per-(theta, alpha) double loop sample_filter_bank ran before
    it broadcast its grid, with the same scalar cos, sin and powers of 2.
    """
    offs = (np.arange(stencil) - (stencil - 1) / 2.0) * pitch
    X, Y = np.meshgrid(offs, offs, indexing="xy")
    pts = np.stack([X, Y], axis=-1)
    args = np.empty((n_rotations, len(grid), stencil, stencil, 2))
    for r in range(n_rotations):
        th = r * (2.0 * math.pi / n_rotations)
        c, s = math.cos(th), math.sin(th)
        rx = c * pts[..., 0] + s * pts[..., 1]
        ry = -s * pts[..., 0] + c * pts[..., 1]
        for si in range(len(grid)):
            f = 2.0 ** (-grid[si] - layer_scale)
            args[r, si, ..., 0] = f * rx
            args[r, si, ..., 1] = f * ry
    return args


def loop_filter_bank(basis, n_rotations, n_scales, scale_range, stencil, layer_scale):
    """sample_filter_bank's values [K, N_r, N_s, L, L] from loop_filter_bank_args' points."""
    from rstcnn.bank import scale_channel_grid
    from rstcnn.basis import eval_spatial_stack

    j = float(layer_scale)
    grid = scale_channel_grid(n_scales, scale_range)
    pitch = 2.0 * (2.0**j) / (stencil - 1)  # the support 2^j D spans the L taps
    vals = eval_spatial_stack(basis.spatial, loop_filter_bank_args(n_rotations, grid, stencil, pitch, j))
    return (2.0 ** (-2.0 * grid - 2.0 * j))[None, :, None, None] * vals


def array_digest(a):
    """(shape, sha256 of the C-order bytes) of an array: equal for equal bits, zero signs included."""
    import hashlib

    return a.shape, hashlib.sha256(np.ascontiguousarray(a)).hexdigest()


def block_sums_per_theta(cs, vals, grads, weights, radius_weights):
    """analysis._block_sums as one pass per theta sample: its values and gradients together.

    This is the order filter_bound_report used before it ran every
    sample's values and then every sample's gradients.
    """
    sums = []
    for c in cs:
        w, gx, gy = c @ vals, c @ grads[0], c @ grads[1]
        gmag = np.sqrt(gx * gx + gy * gy)
        sums.append([np.abs(w) @ weights, gmag @ radius_weights, gmag @ weights])
    return np.array(sums)


def gauss_rule(kind, n):
    """(nodes [n^2, 2], weights [n^2]) of the product Gauss-Legendre rule of order n, node by node.

    On the disk ("fb-disk"): n/2 radii r = (x + 1) / 2 of the Gauss-Legendre
    nodes x on [-1, 1], with weight (w / 2) r, each at 2n uniform angles
    2 pi (j + 1/2) / (2n) of weight 2 pi / (2n), radius by radius.  On the
    square: the n x n Gauss-Legendre nodes, x fastest.
    """
    x, w = np.polynomial.legendre.leggauss(n // 2 if kind == "fb-disk" else n)
    nodes, weights = [], []
    if kind == "fb-disk":
        for xi, wi in zip(x, w):
            r = (xi + 1.0) / 2.0
            for j in range(2 * n):
                phi = 2.0 * math.pi * (j + 0.5) / (2 * n)
                nodes.append((r * math.cos(phi), r * math.sin(phi)))
                weights.append(wi / 2.0 * r * (2.0 * math.pi / (2 * n)))
    else:
        for yi, wy in zip(x, w):
            for xi, wx in zip(x, w):
                nodes.append((xi, yi))
                weights.append(wx * wy)
    return np.array(nodes), np.array(weights)


def spatial_values_and_grads(elements, points):
    """Values [K, ...] and gradients [2, K, ...] of spatial elements at points[..., 2], from one SpatialRecipe with grad.

    The recipe assembles every point at once; its bits do not depend on how
    the points are cut into chunks.
    """
    from rstcnn.basis import SpatialRecipe

    pts = np.asarray(points, dtype=np.float64)
    recipe = SpatialRecipe(elements, pts, grad=True)
    vals, grads = recipe.assemble(0, recipe.size)
    shape = (len(elements),) + pts.shape[:-1]
    return vals.reshape(shape), grads.reshape((2,) + shape)


def chunked_filter_bounds(coeffs, basis, spec, n, n_theta):
    """B, C, D and A of one layer from einsums over the order-n rule's nodes, theta in chunks of 8.

    Filters and gradients are formed on every node of gauss_rule at once and
    their weighted sums taken.  Spatial basis values and the amplitude bound
    come from the package; the nodes, the angular profiles (this module's
    angular_value), the sums and their aggregation over channels are
    written out here.
    """
    from rstcnn.basis import eval_spatial, eval_spatial_grad
    from rstcnn.net import filter_amplitude

    pts, wts = gauss_rule(basis.spatial[0].kind, n)
    vals = np.stack([eval_spatial(e, pts) for e in basis.spatial])
    grads = np.moveaxis(np.stack([eval_spatial_grad(e, pts) for e in basis.spatial]), -1, 1)
    radius = np.sqrt(pts[:, 0] ** 2 + pts[:, 1] ** 2)
    a = coeffs.a
    m_in, m_out = a.shape[0], a.shape[1]

    if coeffs.is_lifting:
        W = np.einsum("abk,kp->abp", a, vals)
        G = np.einsum("abk,kdp->abdp", a, grads)
        gmag = np.sqrt(G[:, :, 0] ** 2 + G[:, :, 1] ** 2)
        per_pair = [
            (np.abs(W) * wts).sum(axis=2),
            (radius * gmag * wts).sum(axis=2),
            (gmag * wts).sum(axis=2),
        ]
        aggregated = [
            max(p.sum(axis=0).max(), (m_in / m_out) * p.sum(axis=1).max()) for p in per_pair
        ]
    else:
        thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
        phi = np.array([[angular_value(row, t) for t in thetas] for row in range(2 * basis.max_angular + 1)])
        per_pair = [np.zeros((m_in, m_out, a.shape[4])) for _ in range(3)]
        for t0 in range(0, n_theta, 8):
            ph = phi[:, t0 : t0 + 8]
            Wt = np.einsum("abkmn,kp,mt->abntp", a, vals, ph, optimize=True)
            Gt = np.einsum("abkmn,kdp,mt->abndtp", a, grads, ph, optimize=True)
            gmag = np.sqrt(Gt[:, :, :, 0] ** 2 + Gt[:, :, :, 1] ** 2)
            per_pair[0] += (np.abs(Wt) * wts).sum(axis=(3, 4))
            per_pair[1] += (radius * gmag * wts).sum(axis=(3, 4))
            per_pair[2] += (gmag * wts).sum(axis=(3, 4))
        per_pair = [p / n_theta for p in per_pair]
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
        "D": float(Du) * 2.0**-spec.layer_scale,
        "A": filter_amplitude(coeffs, basis),
    }


def pairwise_nonexpansiveness_report(net, coeffs, n_trials, seed, side):
    """nonexpansiveness_report on side x side images with one forward per trial pair, every layer held at once.

    The report as it was before it grouped trials into batches: each trial's
    pair (x1, x2) from the (seed, trial) stream goes through the package's
    forward as a batch of 2 with return_all, and the ratios are taken over
    the listed layers.
    """
    from rstcnn.analysis import NonexpansivenessReport
    from rstcnn.group import ImageTensor
    from rstcnn.net import forward
    from rstcnn.norms import feature_norm

    zero = np.zeros((net.layers[0].in_channels, side, side))
    zero_feats = forward(net, coeffs, ImageTensor(zero), return_all=True)
    constancy = 0.0
    for f in zero_feats:
        flat = f.values.reshape(f.values.shape[0], -1)
        constancy = max(constancy, float((flat.max(axis=1) - flat.min(axis=1)).max()))
    per_layer = [0.0] * net.depth
    centered_worst = 0.0
    for t in range(n_trials):
        rng = np.random.default_rng([seed, t])
        x1 = rng.uniform(0.0, 1.0, size=zero.shape)
        x2 = rng.uniform(0.0, 1.0, size=zero.shape)
        d0 = feature_norm(x1 - x2)
        feats = forward(net, coeffs, ImageTensor(np.stack([x1, x2])), return_all=True)
        for l, f in enumerate(feats):
            per_layer[l] = max(per_layer[l], feature_norm(f.values[0] - f.values[1]) / d0)
        prev = feature_norm(x1)
        for l, f in enumerate(feats):
            cur = feature_norm(f.values[0] - zero_feats[l].values)
            if prev > 0.0:
                centered_worst = max(centered_worst, cur / prev)
            prev = cur
    return NonexpansivenessReport(
        worst_ratio=max(per_layer) if per_layer else 0.0,
        per_layer_worst=tuple(per_layer),
        centered_worst=centered_worst,
        constancy_dev=constancy,
        n_trials=n_trials,
    )


def full_map_equivariance_errors(net, coeffs, x, g, margin=4):
    """Per-layer equivariance errors read from the whole D_g x^(l)[x] map.

    The package's act_on_feature warps every channel of x^(l)[x]; the
    rotation-0, middle-scale slice of the result is then compared with that
    of x^(l)[D_g x], both restricted to the margin interior.  A zero
    reference slice gives inf.
    """
    from rstcnn.group import FeatureMap, ImageTensor, act_on_feature, act_on_image
    from rstcnn.net import forward

    pair = ImageTensor(np.stack([act_on_image(g, x).values, x.values]))
    mid = net.n_scales // 2
    sl = slice(margin, -margin) if margin > 0 else slice(None)
    errors = []
    for f in forward(net, coeffs, pair, return_all=True):
        plain = FeatureMap(f.values[1], f.rotation_step, f.scale_grid)
        a = f.values[0][:, 0, mid, sl, sl]
        b = act_on_feature(g, plain).values[:, 0, mid, sl, sl]
        den = float(np.linalg.norm(b))
        errors.append(float(np.linalg.norm(a - b)) / den if den > 0.0 else math.inf)
    return tuple(errors)


def cone_dependence(net, coeffs, x, windows, seed=0):
    """The dependence oracle for per-layer channel windows, one (kept, moved) pair per layer l = 1..L-1.

    windows holds one (rows, lo, hi) per layer, as net.channel_cone returns
    them: the rotation mask rows [N_r] and the scales [lo, hi).  For each l
    the full forward runs to layer l - 1, every channel of layer l - 1
    outside its window is replaced by finite random values, and layers l, l
    + 1, ... run in full again, with no window.  kept says whether every
    window channel of those layers kept its bits, sign bits included; moved
    says whether any other channel changed, so that the perturbation was
    read at all.
    """
    from rstcnn.group import FeatureMap
    from rstcnn.net import joint_conv, layer_bank, lifting_conv, synthesize_filters

    filters = [synthesize_filters(coeffs[i], layer_bank(net, i), spec) for i, spec in enumerate(net.layers)]

    def run(cur, start):
        maps = []
        for i in range(start, net.depth):
            if i == 0:
                cur = lifting_conv(cur, filters[0], coeffs[0].b, net.scale_grid)
            else:
                cur = joint_conv(cur, filters[i], coeffs[i].b, net.layers[i])
            maps.append(cur.values)
        return maps

    base = run(x, 0)
    masks = []
    for rows, lo, hi in windows:
        mask = np.zeros((net.n_rotations, net.n_scales), dtype=bool)
        mask[rows, lo:hi] = True
        masks.append(mask)
    rng = np.random.default_rng(seed)
    flags = []
    for l in range(1, net.depth):
        vals = base[l - 1].copy()
        outside = ~masks[l - 1]
        vals[:, :, outside] = rng.uniform(-1.0, 1.0, size=vals[:, :, outside].shape)
        grid = np.asarray(net.scale_grid, dtype=np.float64)
        maps = run(FeatureMap(vals, 2.0 * math.pi / net.n_rotations, grid), l)
        kept, moved = True, False
        for k, (got, want) in enumerate(zip(maps, base[l:]), start=l):
            inside = masks[k]
            a, b = got[:, :, inside], want[:, :, inside]
            kept = kept and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
            moved = moved or not np.array_equal(got[:, :, ~inside], want[:, :, ~inside])
        flags.append((kept, moved))
    return flags


def whole_map_act_on_feature(g, feat):
    """act_on_feature in one pass over the whole map, the oracle of its blocked pass.

    This is the package's code before it went in blocks of planes: the
    channels each output channel reads (channel_sources) are gathered into
    one zero frame of the whole map, one row and column before the grid and
    two after, zero planes off the scale axis, and its four bilinear taps
    are then gathered, weighted and added over every plane at once, in the
    same order as the blocked pass, so the two agree bit for bit.
    """
    from dataclasses import replace

    from rstcnn.group import channel_sources, pixel_coords, rotation_matrix

    vals = feat.values
    H, W = vals.shape[-2:]
    rot, sc = channel_sources(g, vals.shape[-4], feat.scale_grid)
    framed = np.zeros(vals.shape[:-2] + (H + 3, W + 3))
    for s, src in enumerate(sc):
        if 0 <= src < len(sc):
            framed[..., s, 1:-2, 1:-2] = vals[..., rot, src, :, :]
    # source points R_{-eta} 2^{-beta} (u - v) of every output pixel u
    X, Y = pixel_coords(H, W)
    R = rotation_matrix(-g.eta)
    scale = 2.0**-g.beta
    dx, dy = X - g.v[0], Y - g.v[1]
    x = scale * (R[0, 0] * dx + R[0, 1] * dy)
    y = scale * (R[1, 0] * dx + R[1, 1] * dy)
    col = np.clip(x + (W - 1) / 2.0, -1.0, W)
    row = np.clip(y + (H - 1) / 2.0, -1.0, H)
    r0 = np.floor(row).astype(np.int64)
    c0 = np.floor(col).astype(np.int64)
    fr, fc = row - r0, col - c0
    flat = framed.reshape(framed.shape[:-2] + (-1,))
    top_left = (r0 + 1) * (W + 3) + c0 + 1
    out = np.zeros(flat.shape[:-1] + top_left.shape)
    for offset, w in ((0, (1.0 - fr) * (1.0 - fc)), (1, (1.0 - fr) * fc), (W + 3, fr * (1.0 - fc)), (W + 4, fr * fc)):
        out += np.take(flat, top_left + offset, axis=-1) * w
    return replace(feat, values=out)
