import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import rstcnn.group
from conftest import interior_image
from rstcnn.group import (
    FeatureMap,
    GroupElement,
    ImageTensor,
    OffLatticeError,
    _warp_grid,
    act_on_feature,
    act_on_image,
    bilinear_sample,
    channel_sources,
    compose,
    inverse,
    pixel_axes,
    pixel_coords,
)

angles = st.floats(min_value=0.0, max_value=2 * math.pi - 1e-9)
betas = st.floats(min_value=-2.0, max_value=2.0)
shifts = st.floats(min_value=-20.0, max_value=20.0)


def group_elements():
    return st.builds(lambda e, b, x, y: GroupElement(e, b, (x, y)), angles, betas, shifts, shifts)


def close(g, h, tol=1e-9):
    return (
        min(abs(g.eta - h.eta), 2 * math.pi - abs(g.eta - h.eta)) < tol
        and abs(g.beta - h.beta) < tol
        and abs(g.v[0] - h.v[0]) < tol
        and abs(g.v[1] - h.v[1]) < tol
    )


def test_compose_translations_add():
    g = compose(GroupElement(0, 0, (1, 2)), GroupElement(0, 0, (3, 4)))
    assert close(g, GroupElement(0, 0, (4, 6)), tol=1e-12)


def test_compose_hand_value():
    # (pi/2, 1, (0,0)) . (0, 0, (1,0)): R_{pi/2} 2 (1,0) = (0, 2)
    g = compose(GroupElement(math.pi / 2, 1, (0, 0)), GroupElement(0, 0, (1, 0)))
    assert close(g, GroupElement(math.pi / 2, 1, (0, 2)), tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(g=group_elements(), h=group_elements(), k=group_elements())
def test_group_laws(g, h, k):
    assert close(compose(compose(g, h), k), compose(g, compose(h, k)))
    e = GroupElement(0.0, 0.0, (0.0, 0.0))
    assert close(compose(e, g), g, tol=1e-12)
    assert close(compose(g, e), g, tol=1e-12)
    assert close(compose(g, inverse(g)), e, tol=1e-9)
    assert close(compose(inverse(g), g), e, tol=1e-9)


def test_pixel_coords_centering():
    X, Y = pixel_coords(5, 7)
    assert X.shape == (5, 7)
    assert X[0, 0] == -3.0 and X[0, -1] == 3.0
    assert Y[0, 0] == -2.0 and Y[-1, 0] == 2.0
    assert X.sum() == 0.0 and Y.sum() == 0.0
    # pixel_axes gives the same axes, or other sample counts over the same box
    xs, ys = pixel_axes(5, 7)
    assert np.array_equal(xs, X[0]) and np.array_equal(ys, Y[:, 0])
    xs, ys = pixel_axes(5, 7, ny=9, nx=25)
    assert xs.shape == (25,) and (xs[0], xs[-1], xs[1] - xs[0]) == (-3.0, 3.0, 0.25)
    assert ys.shape == (9,) and (ys[0], ys[-1], ys[1] - ys[0]) == (-2.0, 2.0, 0.5)


def test_bilinear_matches_naive_pointwise():
    rng = np.random.default_rng(1)
    vals = rng.uniform(size=(9, 11))
    rows = rng.uniform(-1.5, 9.5, size=40)
    cols = rng.uniform(-1.5, 11.5, size=40)
    out = bilinear_sample(vals[None], cols - (11 - 1) / 2.0, rows - (9 - 1) / 2.0)[0]
    for i in range(40):
        ref = reference.naive_bilinear(vals, rows[i], cols[i])
        assert out[i] == pytest.approx(ref, abs=1e-13)


def test_bilinear_edge_points_match_naive_exactly():
    # the zero frame's edges: a point at row H or column W reads taps one and two past the grid
    H, W = 5, 6
    vals = -np.random.default_rng(6).uniform(0.5, 1.0, size=(2, 3, H, W))
    rows = [-np.inf, -1.0, -0.5, 0.0, H - 1.0, H - 0.5, float(H), np.inf]
    cols = [-np.inf, -1.0, -0.5, 0.0, W - 1.0, W - 0.5, float(W), np.inf]
    R, C = np.meshgrid(rows, cols, indexing="ij")
    out = bilinear_sample(vals, C - (W - 1) / 2.0, R - (H - 1) / 2.0)
    for n, c, i, j in np.ndindex(out.shape):
        assert out[n, c, i, j] == reference.naive_bilinear(vals[n, c], R[i, j], C[i, j])


def test_bilinear_far_outside_reads_zero_without_overflow():
    vals = np.random.default_rng(3).uniform(0.5, 1.0, size=(1, 6, 7))
    far = np.array([1e300, -1e300, 1e10, -7.0, 6.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a cast of floor(1e300) to int64 warns
        assert np.all(bilinear_sample(vals, far, np.zeros(6)) == 0.0)
        assert np.all(bilinear_sample(vals, np.zeros(6), far) == 0.0)


def test_bilinear_tap_indices_stay_in_the_framed_plane(monkeypatch):
    # The taps are read with take(mode="clip"), which never raises, so the
    # clip of the coordinates alone must keep every tap index inside the
    # framed (H + 3) x (W + 3) plane: the last one, read by a point clipped
    # to (H, W), is (H + 2)(W + 3) + W + 2 < (H + 3)(W + 3).
    H, W = 5, 6
    seen = []
    take = np.take

    def checked_take(a, indices, *args, **kwargs):
        seen.append((indices.min(), indices.max(), a.shape[-1]))
        return take(a, indices, *args, **kwargs)

    monkeypatch.setattr(np, "take", checked_take)
    far = np.array([-np.inf, -1e300, -7.0, 0.0, 7.0, 1e300, np.inf])
    X, Y = np.meshgrid(far, far)
    out = bilinear_sample(np.ones((2, H, W)), X, Y)
    assert np.all(out[:, (X != 0.0) | (Y != 0.0)] == 0.0) and np.all(out[:, 3, 3] == 1.0)
    assert len(seen) == 4
    assert min(lo for lo, _, _ in seen) == 0
    assert max(hi for _, hi, _ in seen) == (H + 2) * (W + 3) + W + 2
    assert all(n == (H + 3) * (W + 3) for _, _, n in seen)


def test_bilinear_matches_scipy():
    ndimage = pytest.importorskip("scipy.ndimage")
    rng = np.random.default_rng(2)
    vals = rng.uniform(size=(12, 10))
    rows = rng.uniform(0.0, 11.0, size=60)
    cols = rng.uniform(0.0, 9.0, size=60)
    ours = bilinear_sample(vals[None], cols - (10 - 1) / 2.0, rows - (12 - 1) / 2.0)[0]
    theirs = ndimage.map_coordinates(vals, np.stack([rows, cols]), order=1, cval=0.0)
    assert np.abs(ours - theirs).max() < 1e-12


def test_integer_translation_is_exact_shift():
    img = interior_image(15, 15, margin=5, seed=4)
    g = GroupElement(0.0, 0.0, (2.0, -3.0))
    out = act_on_image(g, img)
    # x_out(u) = x(u - v): content moves right by 2 and down by -3 rows
    expected = np.zeros_like(img.values)
    expected[:, : 15 - 3, 2:] = img.values[:, 3:, : 15 - 2]
    assert np.abs(out.values - expected).max() < 1e-13


def test_quarter_rotation_on_odd_grid_is_exact():
    img = interior_image(13, 13, margin=3, seed=5)
    out = act_on_image(GroupElement(math.pi / 2, 0.0, (0.0, 0.0)), img)
    # a quarter turn must be a pure pixel permutation: same multiset of values
    assert np.sort(out.values.ravel()) == pytest.approx(np.sort(img.values.ravel()).tolist(), abs=1e-13)
    # and applying it four times gives back the original exactly
    cur = img
    for _ in range(4):
        cur = act_on_image(GroupElement(math.pi / 2, 0.0, (0.0, 0.0)), cur)
    assert np.abs(cur.values - img.values).max() < 1e-12


def test_rotation_against_rot90_orientation():
    # a single off-center spike pins the rotation direction:
    # x_out(u) = x(R_{-eta} u) maps the spike at angle 0 to angle +eta
    img = np.zeros((1, 9, 9))
    img[0, 4, 7] = 1.0  # at (x, y) = (+3, 0)
    out = act_on_image(GroupElement(math.pi / 2, 0.0, (0.0, 0.0)), ImageTensor(img))
    spike = np.argwhere(out.values[0] > 0.5)
    assert spike.tolist() == [[7, 4]]  # rows grow with y: (x, y) = (0, +3)


def test_identity_action_is_identity():
    img = interior_image(12, 14, margin=3, seed=6)
    out = act_on_image(GroupElement(0.0, 0.0, (0.0, 0.0)), img)
    assert np.array_equal(out.values, img.values)


def test_downscale_shrinks_support():
    img = np.zeros((1, 41, 41))
    img[0, 20, 20 + 12] = 1.0  # spike at radius 12
    out = act_on_image(GroupElement(0.0, -1.0, (0.0, 0.0)), ImageTensor(img))
    # x_out(u) = x(2 u): spike content appears at radius 6
    spike = np.argwhere(out.values[0] > 0.2)
    assert spike.tolist() == [[20, 26]]


def test_action_composes():
    img = interior_image(31, 31, margin=10, seed=7)
    g = GroupElement(math.pi / 2, 0.0, (2.0, 1.0))
    h = GroupElement(0.0, 0.0, (-1.0, 3.0))
    # lattice-exact elements: acting twice equals acting by the composition
    one = act_on_image(g, act_on_image(h, img))
    both = act_on_image(compose(g, h), img)
    assert np.abs(one.values - both.values).max() < 1e-12


def make_feature(n_r=4, n_s=3, h=11, w=11, channels=2, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(size=(channels, n_r, n_s, h, w))
    grid = np.linspace(-1.0, 1.0, n_s)
    return FeatureMap(vals, rotation_step=2 * math.pi / n_r, scale_grid=grid)


def test_feature_rotation_rolls_channels():
    feat = make_feature()
    g = GroupElement(math.pi / 2, 0.0, (0.0, 0.0))  # one rotation step of N_r=4
    out = act_on_feature(g, feat)
    # rotation channel r of the output reads input channel r-1 (cyclic);
    # check via the channel whose spatial content is rotated a quarter turn
    for r in range(4):
        src = feat.values[:, (r - 1) % 4]
        rotated = np.stack(
            [
                act_on_image(g, ImageTensor(src[:, s])).values
                for s in range(feat.values.shape[2])
            ],
            axis=1,
        )
        assert np.abs(out.values[:, r] - rotated).max() < 1e-12


def test_feature_scale_shift_zero_fill():
    feat = make_feature(n_s=3)
    g = GroupElement(0.0, 1.0, (0.0, 0.0))  # one scale-grid step (step = 1.0)
    out = act_on_feature(g, feat)
    # scale channels shift by one with zeros entering at the vacated end
    assert np.all(out.values[:, :, 0] == 0.0)
    assert not np.all(out.values[:, :, 1] == 0.0)
    assert not np.all(out.values[:, :, 2] == 0.0)


@pytest.mark.parametrize("d_rot, d_sc", [(0, 0), (1, 0), (-3, 1), (2, -2), (5, 3), (0, -4)])
def test_feature_channel_shift_matches_roll_and_copy(d_rot, d_sc):
    feat = make_feature(n_r=4, n_s=3, h=9, w=10, seed=5)
    # a second map holding -0.0 and +0.0 entries, compared by bytes so zero signs count
    signed = feat.values.copy()
    pick = np.random.default_rng(6).uniform(size=signed.shape)
    signed[pick < 0.3] = -0.0
    signed[pick > 0.8] = 0.0
    for values in (feat.values, signed):
        feat = FeatureMap(values, feat.rotation_step, feat.scale_grid)
        g = GroupElement(d_rot * feat.rotation_step, d_sc * (feat.scale_grid[1] - feat.scale_grid[0]), (0.7, -1.2))
        out = act_on_feature(g, feat)
        shifted = reference.shift_feature_channels(feat.values, d_rot, d_sc)
        assert out.values.tobytes() == bilinear_sample(shifted, *_warp_grid(g, 9, 10)).tobytes()
        # channel_sources names the channel each shifted channel copies, or one beyond the scale axis
        rot, sc = channel_sources(g, 4, feat.scale_grid)
        for r in range(4):
            for s in range(3):
                want = feat.values[:, rot[r], sc[s]] if 0 <= sc[s] < 3 else 0.0
                assert np.array_equal(shifted[:, r, s], np.broadcast_to(want, shifted[:, r, s].shape))


def off_canvas(g, H, W):
    # the sweep's check: D_g of a ones image is zero where D_g reads no input pixel
    return not act_on_image(g, ImageTensor(np.ones((1, H, W)))).values.any()


def test_off_canvas_is_the_bilinear_support():
    # source x of pixel column j is j - (W-1)/2 - vx; bilinear reads need x > -(W+1)/2
    assert off_canvas(GroupElement(0.0, 0.0, (7.0, 0.0)), 5, 7)
    assert not off_canvas(GroupElement(0.0, 0.0, (6.99, 0.0)), 5, 7)
    assert off_canvas(GroupElement(0.0, 0.0, (0.0, -5.0)), 5, 7)
    assert not off_canvas(GroupElement(0.0, 0.0, (0.0, -4.99)), 5, 7)
    assert not off_canvas(GroupElement(math.pi / 2, -0.5, (3.0, 3.0)), 5, 7)
    assert off_canvas(GroupElement(0.3, 0.0, (1e300, 0.0)), 5, 7)


def test_off_lattice_rejected():
    feat = make_feature()
    with pytest.raises(OffLatticeError):
        act_on_feature(GroupElement(0.3, 0.0, (0.0, 0.0)), feat)
    with pytest.raises(OffLatticeError):
        act_on_feature(GroupElement(0.0, 0.4, (0.0, 0.0)), feat)


def test_feature_translation_exact():
    feat = make_feature(h=13, w=13, seed=3)
    g = GroupElement(0.0, 0.0, (1.0, -2.0))
    out = act_on_feature(g, feat)
    expected = np.zeros_like(feat.values)
    expected[..., : 13 - 2, 1:] = feat.values[..., 2:, : 13 - 1]
    assert np.abs(out.values - expected).max() < 1e-13


def test_feature_action_on_a_batch_acts_on_each_sample():
    samples = [make_feature(seed=s) for s in range(2)]
    batch = FeatureMap(np.stack([f.values for f in samples]), samples[0].rotation_step, samples[0].scale_grid)
    g = GroupElement(math.pi / 2, -1.0, (1.0, 0.5))  # rotation, scale and translation together
    out = act_on_feature(g, batch)
    for b, f in enumerate(samples):
        assert np.array_equal(out.values[b], act_on_feature(g, f).values)


@pytest.mark.parametrize("side", [28, 56])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "batched"])
@pytest.mark.parametrize(
    "d_rot, d_sc, v",
    [(0, 0, (0.0, 0.0)), (-2, -2, (0.0, 0.0)), (1, 3, (2.5, -1.25)), (5, -1, (-0.5, 4.0))],
    ids=["identity", "sweep-g", "low-zero-planes", "high-zero-plane"],
)
@pytest.mark.parametrize("block_bytes", [None, 1], ids=["default-blocks", "one-plane-blocks"])
def test_blocked_feature_action_matches_the_whole_map(side, lead, d_rot, d_sc, v, block_bytes, monkeypatch):
    # fig3's lattice: 8 rotations, 9 scales 0.25 apart.  A beta of d_sc steps
    # reads |d_sc| planes from beyond the scale axis.  The blocks (34 planes
    # of 28 x 28, 9 of 56 x 56 by default) do not divide the 144 planes a
    # sample holds.  Bytes are compared, so zero signs count.
    if block_bytes is not None:
        monkeypatch.setattr(rstcnn.group, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(side + d_sc)
    vals = rng.standard_normal(lead + (2, 8, 9, side, side))
    vals[rng.uniform(size=vals.shape) < 0.2] = -0.0
    feat = FeatureMap(vals, math.pi / 4, np.linspace(-1.0, 1.0, 9))
    g = GroupElement(d_rot * math.pi / 4, d_sc * 0.25, v)
    got = act_on_feature(g, feat)
    want = reference.whole_map_act_on_feature(g, feat)
    assert got.values.shape == vals.shape
    assert got.values.tobytes() == want.values.tobytes()
