"""IDX parsing, the rotate/rescale dataset recipe, and synthetic inputs."""

import math
import struct

import numpy as np
import pytest

from rstcnn import (
    GroupElement,
    IdxParseError,
    ImageTensor,
    LabeledImageSet,
    act_on_image,
    dump_idx_images,
    dump_idx_labels,
    make_rs_dataset,
    parse_idx_images,
    parse_idx_labels,
    read_idx,
    read_idx_image,
    smooth_feature_values,
    synthetic_blob_set,
    synthetic_blobs,
    upsample,
    write_idx,
)

IMAGE_BYTES = struct.pack(">4I", 0x803, 2, 3, 3) + bytes(range(18))
LABEL_BYTES = struct.pack(">2I", 0x801, 2) + bytes([3, 7])


def test_parse_idx_images_hand_bytes():
    imgs = parse_idx_images(IMAGE_BYTES)
    assert imgs.shape == (2, 1, 3, 3)
    np.testing.assert_array_equal(imgs[0, 0], np.arange(9).reshape(3, 3) / 255.0)
    np.testing.assert_array_equal(imgs[1, 0], np.arange(9, 18).reshape(3, 3) / 255.0)


def test_parse_idx_labels_hand_bytes():
    labels = parse_idx_labels(LABEL_BYTES)
    np.testing.assert_array_equal(labels, [3, 7])
    assert labels.dtype == np.int64


def test_parse_errors_name_offsets_and_magic():
    with pytest.raises(IdxParseError, match="bad image magic 0x00000801"):
        parse_idx_images(struct.pack(">4I", 0x801, 1, 3, 3) + bytes(9))
    with pytest.raises(IdxParseError, match="truncated image header"):
        parse_idx_images(IMAGE_BYTES[:10])
    with pytest.raises(IdxParseError, match="truncated image payload at offset 16"):
        parse_idx_images(IMAGE_BYTES[:-1])
    with pytest.raises(IdxParseError, match="bad label magic"):
        parse_idx_labels(IMAGE_BYTES)
    with pytest.raises(IdxParseError, match="truncated label payload"):
        parse_idx_labels(LABEL_BYTES[:-1])


def test_zero_count_files_are_valid():
    imgs = parse_idx_images(struct.pack(">4I", 0x803, 0, 3, 3))
    assert imgs.shape == (0, 1, 3, 3)
    labels = parse_idx_labels(struct.pack(">2I", 0x801, 0))
    assert labels.shape == (0,)


def test_read_idx_pair_and_count_mismatch(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    ip.write_bytes(IMAGE_BYTES)
    lp.write_bytes(LABEL_BYTES)
    ds = read_idx(ip, lp)
    assert len(ds) == 2
    np.testing.assert_array_equal(ds.labels, [3, 7])
    lp.write_bytes(struct.pack(">2I", 0x801, 1) + bytes([3]))
    with pytest.raises(IdxParseError, match="does not match"):
        read_idx(ip, lp)


def test_read_idx_image_converts_only_the_selected_image(tmp_path, monkeypatch):
    import rstcnn.data

    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    write_idx(ip, lp, synthetic_blob_set(5, 6, 7, seed=3))
    whole = read_idx(ip, lp).images
    converted = []
    scale = rstcnn.data._unit_scale
    monkeypatch.setattr(rstcnn.data, "_unit_scale", lambda raw: converted.append(raw.shape) or scale(raw))
    for seed in (0, 3, 4, 5, 12):
        i, image = read_idx_image(ip, lp, seed)
        assert i == seed % 5
        assert np.array_equal(image, whole[i])
    assert converted == [(1, 6, 7)] * 5


def test_read_idx_image_rejects_empty_pair(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    ip.write_bytes(struct.pack(">4I", 0x803, 0, 3, 3))
    lp.write_bytes(struct.pack(">2I", 0x801, 0))
    with pytest.raises(IdxParseError, match="no images"):
        read_idx_image(ip, lp, 0)


def test_dump_golden_bytes_and_round_trip(tmp_path):
    images = np.array([[[[0.0, 0.5], [1.0, 1.0 / 255.0]]]])
    got = dump_idx_images(images)
    assert got == struct.pack(">4I", 0x803, 1, 2, 2) + bytes([0, 128, 255, 1])
    assert dump_idx_labels(np.array([9])) == struct.pack(">2I", 0x801, 1) + bytes([9])
    ds = LabeledImageSet(np.round(images * 255.0) / 255.0, np.array([9]))
    ip, lp = tmp_path / "a.idx", tmp_path / "b.idx"
    write_idx(ip, lp, ds)
    back = read_idx(ip, lp)
    np.testing.assert_array_equal(back.images, ds.images)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_labeled_image_set_validation():
    with pytest.raises(ValueError, match=r"\[N, 1, H, W\]"):
        LabeledImageSet(np.zeros((2, 3, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="label count"):
        LabeledImageSet(np.zeros((2, 1, 3, 3)), np.zeros(3))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        LabeledImageSet(np.full((1, 1, 2, 2), 1.5), np.zeros(1))


@pytest.mark.parametrize(
    "images, labels, message",
    [
        (np.full((1, 1, 2, 2), np.nan), [1], r"\[0, 1\], got nan to nan"),
        (np.zeros((2, 1, 2, 2)), [0, 1.7], "labels must be integers, got 1.7 at index 1"),
        (np.zeros((1, 1, 2, 2)), [np.nan], "labels must be integers, got nan at index 0"),
    ],
    ids=["nan-image", "fractional-label", "nan-label"],
)
def test_labeled_image_set_rejects_nan_images_and_non_integral_labels(images, labels, message):
    # a NaN image passed the min/max check and was written as byte 0; 1.7 was stored as 1
    with pytest.raises(ValueError, match=message):
        LabeledImageSet(images, labels)
    assert LabeledImageSet(np.zeros((2, 1, 2, 2)), [3.0, 4]).labels.tolist() == [3, 4]


@pytest.mark.parametrize(
    "labels, message",
    [([300, -1, 7], "label 300 at index 0"), ([7, -1], "label -1 at index 1"), ([2.0, np.nan], "label nan at index 1")],
    ids=["above-a-byte", "negative", "nan"],
)
def test_dump_idx_labels_rejects_labels_outside_a_byte(labels, message, tmp_path):
    # they wrapped: [300, -1, 7] read back as [44, 255, 7]
    with pytest.raises(ValueError, match=f"{message} is outside 0..255"):
        dump_idx_labels(np.array(labels))
    if not np.isnan(labels).any():
        ip, lp = tmp_path / "a.idx", tmp_path / "b.idx"
        with pytest.raises(ValueError, match=message):
            write_idx(ip, lp, LabeledImageSet(np.zeros((len(labels), 1, 2, 2)), labels))
        assert not ip.exists() and not lp.exists()
    assert parse_idx_labels(dump_idx_labels(np.array([0, 255, 7]))).tolist() == [0, 255, 7]


def test_upsample_reproduces_linear_fields_exactly():
    ys = np.arange(5) - 2.0
    xs = np.arange(7) - 3.0
    X, Y = np.meshgrid(xs, ys)
    vals = 2.0 * X + 3.0 * Y
    up = upsample(vals, 9, 13)
    Xo, Yo = np.meshgrid(np.linspace(-3, 3, 13), np.linspace(-2, 2, 9))
    np.testing.assert_allclose(up, 2.0 * Xo + 3.0 * Yo, atol=1e-12)
    np.testing.assert_allclose(upsample(np.ones((2, 3, 3)), 5, 5), 1.0, atol=1e-15)


def test_make_rs_dataset_follows_documented_recipe():
    base = synthetic_blob_set(3, 28, 28, seed=5)
    out = make_rs_dataset(base, seed=11, upsize=40)
    assert out.images.shape == (3, 1, 40, 40)
    np.testing.assert_array_equal(out.labels, base.labels)
    assert out.images.min() >= 0.0 and out.images.max() <= 1.0
    for i in range(3):
        rng = np.random.default_rng([11, i])
        angle = rng.uniform(0.0, 2.0 * math.pi)
        factor = rng.uniform(0.3, 1.0)
        g = GroupElement(angle, math.log2(factor), (0.0, 0.0))
        moved = act_on_image(g, ImageTensor(base.images[i]))
        want = np.clip(upsample(moved.values, 40, 40), 0.0, 1.0)
        np.testing.assert_array_equal(out.images[i], want)
    again = make_rs_dataset(base, seed=11, upsize=40)
    np.testing.assert_array_equal(again.images, out.images)


def test_make_rs_dataset_shrinks_content():
    # a pure shrink by 2 maps a radius-10 disk to radius 5 before upsampling;
    # the recipe's group action is the same one, so spot-check that action
    H = W = 41
    X, Y = np.meshgrid(np.arange(W) - 20.0, np.arange(H) - 20.0)
    disk = (np.sqrt(X * X + Y * Y) <= 10.0).astype(float)[None]
    shrunk = act_on_image(GroupElement(0.0, -1.0, (0.0, 0.0)), ImageTensor(disk))
    R = np.sqrt(X * X + Y * Y)
    assert shrunk.values[0][R <= 4.0].min() == pytest.approx(1.0, abs=1e-12)
    assert shrunk.values[0][R >= 7.0].max() == pytest.approx(0.0, abs=1e-12)


def test_synthetic_blobs_deterministic_unit_peak():
    a = synthetic_blobs(20, 24, np.random.default_rng([3, 1]))
    b = synthetic_blobs(20, 24, np.random.default_rng([3, 1]))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1, 20, 24)
    assert a.max() == 1.0 and a.min() >= 0.0


def test_synthetic_blob_set_labels_and_shapes():
    ds = synthetic_blob_set(12, 16, 16, seed=0)
    assert ds.images.shape == (12, 1, 16, 16)
    np.testing.assert_array_equal(ds.labels, np.arange(12) % 10)


def test_smooth_feature_values_shape_and_determinism():
    grid = np.linspace(-1, 1, 5)
    a = smooth_feature_values(2, 4, grid, 12, 14, np.random.default_rng(7))
    b = smooth_feature_values(2, 4, grid, 12, 14, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (2, 4, 5, 12, 14)
    assert np.all(np.isfinite(a)) and np.abs(a).max() > 0.0
