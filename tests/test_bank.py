import math

import numpy as np
import pytest

import reference
import rstcnn.basis
import rstcnn.parts
from rstcnn.bank import default_layer_scale, sample_filter_bank, scale_channel_grid
from rstcnn.basis import SpatialRecipe, build_basis, eval_spatial, eval_spatial_stack, unit_grid
from rstcnn.container import dump_bank, load_bank


def test_default_layer_scale_gives_unit_pitch():
    # stencil of width L spans the support diameter 2 * 2^j at alpha = 0
    assert default_layer_scale(9) == pytest.approx(2.0)  # 2*4/(9-1) = 1 px pitch
    assert default_layer_scale(5) == pytest.approx(1.0)


def test_scale_channel_grid():
    grid = scale_channel_grid(9, 1.0)
    assert grid == pytest.approx(np.linspace(-1.0, 1.0, 9).tolist())
    assert grid[1] - grid[0] == pytest.approx(0.25)


def test_even_stencil_rejected():
    basis = build_basis("fb", 3)
    with pytest.raises(ValueError, match="odd"):
        sample_filter_bank(basis, 4, 3, 1.0, 8, layer_scale=0.0)


@pytest.mark.parametrize(
    "call, name",
    [
        # pitch divides by L - 1, and log2((L - 1) / 2) has no value at L = 1
        (lambda basis: sample_filter_bank(basis, 4, 3, 1.0, 1, layer_scale=0.0), "stencil"),
        (lambda basis: default_layer_scale(1), "stencil"),
        # non-finite values would sample an all-NaN bank
        (lambda basis: sample_filter_bank(basis, 4, 3, 1.0, 5, layer_scale=math.inf), "layer_scale"),
        (lambda basis: sample_filter_bank(basis, 4, 3, math.nan, 5, layer_scale=0.0), "scale_range"),
    ],
    ids=["bank-stencil-1", "default-scale-stencil-1", "layer-scale-inf", "scale-range-nan"],
)
def test_bank_inputs_fail_naming_the_argument(call, name):
    with pytest.raises(ValueError, match=name):
        call(build_basis("fb", 3))


@pytest.mark.parametrize("evaluate", ["bank", "grid"])
def test_many_chunk_evaluation_stays_on_the_callers_thread_and_keeps_its_bytes(evaluate, monkeypatch):
    # At K = 100 a chunk holds 409 points: the fig3-shaped bank's 5,832
    # points take 15 chunks and a 401 x 401 grid 394, once for its values
    # and once for its gradients.  Neither calls run_parts, and both keep
    # the bytes of one fill over all their points,
    # with the signed zeros outside the disk that the bank bytes keep.
    basis = build_basis("fb", 100)
    if evaluate == "bank":
        chunks = 15

        def run():
            return sample_filter_bank(basis, 8, 9, 1.0, 9, layer_scale=2.0).values

    else:
        chunks = 2 * 394

        def run():
            # values as laplacian_residuals evaluates them, gradients as a SpatialRecipe with grad fills them
            pts = unit_grid(401)[0].reshape(-1, 2)
            recipe = SpatialRecipe(basis.spatial, pts, grad=True)
            out = np.empty((3, basis.n_spatial, recipe.size))
            out[0] = eval_spatial_stack(basis.spatial, pts)
            for lo, hi in recipe.chunks:
                recipe.fill(lo, hi, np.empty((basis.n_spatial, hi - lo)), out[1:, :, lo:hi])
            return out

    splits, fills = [], []
    split, fill = rstcnn.parts._split, SpatialRecipe.fill
    monkeypatch.setattr(rstcnn.parts, "_split", lambda count: splits.append(count) or split(count))
    monkeypatch.setattr(SpatialRecipe, "fill", lambda self, *a: fills.append(a[:2]) or fill(self, *a))
    chunked = run()
    assert splits == [] and len(fills) == chunks
    monkeypatch.setattr(rstcnn.basis, "_CHUNK_VALUES", 100 * chunked.size)
    fills.clear()
    whole = run()
    assert len(fills) == (1 if evaluate == "bank" else 2)
    assert np.signbit(chunked[chunked == 0.0]).any()
    assert np.array_equal(chunked, whole) and np.array_equal(np.signbit(chunked), np.signbit(whole))


@pytest.mark.parametrize("kind", ["fb", "sl"])
def test_broadcast_sampling_matches_the_loop_oracle_bit_for_bit(kind):
    # a geometry away from the README config, whose banks the sha256 pins cover
    basis = build_basis(kind, 6)
    bank = sample_filter_bank(basis, n_rotations=3, n_scales=2, scale_range=0.7, stencil=7, layer_scale=1.3)
    want = reference.loop_filter_bank(basis, 3, 2, 0.7, 7, 1.3)
    assert reference.array_digest(bank.values) == reference.array_digest(want)


def test_identity_slice_is_direct_sampling():
    # r=0, alpha=0, j=0: the bank slice equals psi_k sampled on the grid
    basis = build_basis("fb", 4)
    L = 7
    bank = sample_filter_bank(basis, n_rotations=4, n_scales=3, scale_range=1.0, stencil=L, layer_scale=0.0)
    mid = 1  # alpha grid (-1, 0, 1)
    pitch = 2.0 / (L - 1)
    offs = (np.arange(L) - (L - 1) / 2.0) * pitch
    X, Y = np.meshgrid(offs, offs, indexing="xy")
    pts = np.stack([X, Y], axis=-1)
    for k in range(4):
        direct = eval_spatial(basis.spatial[k], pts)
        assert np.abs(bank.values[k, 0, mid] - direct).max() < 1e-12


def test_rotated_slice_matches_independent_reevaluation():
    # slice at theta_r equals the r=0 slice analytically rotated; check by
    # direct evaluation of the element at rotated sample points
    basis = build_basis("fb", 5)
    L = 9
    bank = sample_filter_bank(basis, n_rotations=8, n_scales=3, scale_range=1.0, stencil=L, layer_scale=0.0)
    rng = np.random.default_rng(0)
    pitch = 2.0 / (L - 1)
    offs = (np.arange(L) - (L - 1) / 2.0) * pitch
    for trial in range(16):
        k = int(rng.integers(0, 5))
        r = int(rng.integers(0, 8))
        iy, ix = rng.integers(0, L, size=2)
        theta = 2.0 * math.pi * r / 8.0
        x, y = offs[ix], offs[iy]
        # rotate the sample point by -theta_r
        xr = math.cos(theta) * x + math.sin(theta) * y
        yr = -math.sin(theta) * x + math.cos(theta) * y
        direct = eval_spatial(basis.spatial[k], np.array([[xr, yr]]))[0]
        assert bank.values[k, r, 1, iy, ix] == pytest.approx(direct, abs=1e-12)


def test_full_turn_periodicity():
    # evaluating the analytic rotation at theta = 2pi reproduces r=0 exactly
    basis = build_basis("fb", 5)
    b1 = sample_filter_bank(basis, n_rotations=1, n_scales=3, scale_range=1.0, stencil=7, layer_scale=0.0)
    b4 = sample_filter_bank(basis, n_rotations=4, n_scales=3, scale_range=1.0, stencil=7, layer_scale=0.0)
    assert np.abs(b4.values[:, 0] - b1.values[:, 0]).max() == 0.0


def test_scale_channel_amplitude_law():
    # values scale as 2^{-2 alpha_s} with the argument rescaled by 2^{-alpha_s}:
    # at the center pixel the argument is 0, so the ratio is exactly 2^{-2 alpha}
    basis = build_basis("fb", 1)  # radial element, nonzero at the origin
    L = 9
    bank = sample_filter_bank(basis, n_rotations=2, n_scales=5, scale_range=1.0, stencil=L, layer_scale=0.0)
    c = L // 2
    center_mid = bank.values[0, 0, 2, c, c]  # alpha = 0
    for s, alpha in enumerate(np.linspace(-1.0, 1.0, 5)):
        expected = 2.0 ** (-2.0 * alpha) * center_mid
        assert bank.values[0, 0, s, c, c] == pytest.approx(expected, rel=1e-12)


def test_layer_scale_divides_amplitude_and_pitch():
    basis = build_basis("fb", 3)
    b0 = sample_filter_bank(basis, 4, 3, 1.0, 9, layer_scale=0.0)
    b2 = sample_filter_bank(basis, 4, 3, 1.0, 9, layer_scale=2.0)
    # amplitude scales as 2^{-2j}; the sample points rescale by 2^{-j}, and
    # at the center pixel both grids sit at the origin
    c = 4
    assert b2.values[0, 0, 1, c, c] == pytest.approx(b0.values[0, 0, 1, c, c] / 16.0, rel=1e-12)
    assert b2.pitch == pytest.approx(b0.pitch * 4.0)


def test_support_confined_to_disk():
    basis = build_basis("fb", 6)
    bank = sample_filter_bank(basis, 4, 3, 1.0, 9, layer_scale=0.0)
    # at alpha = -1 the filter shrinks by 2^{-1}: taps outside radius 0.5 are 0
    pitch = 2.0 / 8.0
    offs = (np.arange(9) - 4.0) * pitch
    X, Y = np.meshgrid(offs, offs)
    outside = np.hypot(X, Y) >= 0.5 + 1e-12
    vals = bank.values[:, :, 0]  # alpha grid (-1, 0, 1): index 0
    assert np.abs(vals[..., outside]).max() == 0.0


def test_bank_container_roundtrip_bit_exact():
    basis = build_basis("sl", 4)
    bank = sample_filter_bank(basis, 4, 3, 1.0, 5, layer_scale=1.0)
    blob = dump_bank(bank)
    loaded = load_bank(blob).bank
    assert loaded.spatial_kind == "sl"
    assert np.array_equal(loaded.values, bank.values)
    assert np.array_equal(loaded.scale_grid, bank.scale_grid)
    assert loaded.layer_scale == bank.layer_scale
    assert dump_bank(loaded) == blob
