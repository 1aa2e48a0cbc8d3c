"""Dataset ingestion (IDX), the rotate/rescale recipe, and synthetic inputs.

IDX is the classic big-endian container: u32 magic (0x803 images, 0x801
labels), u32 dimension sizes, unsigned-byte payload.  The transform recipe
rotates each image by a uniform angle, shrinks it by a uniform factor in
[0.3, 1], keeps the original canvas (zero padding), then bilinearly
upsamples to a larger square.  Synthetic generators provide interior-
supported smooth inputs so every experiment runs without a dataset file.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .group import GroupElement, ImageTensor, act_on_image, bilinear_sample, pixel_axes, pixel_coords

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


class IdxParseError(ValueError):
    """Malformed IDX bytes; the message names the failing offset."""


@dataclass
class LabeledImageSet:
    """images[N, 1, H, W] in [0, 1] plus integer labels[N]; NaN images and non-integral labels raise ValueError."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        labels = np.asarray(self.labels)
        if self.images.ndim != 4 or self.images.shape[1] != 1:
            raise ValueError(f"images must be [N, 1, H, W], got {self.images.shape}")
        if labels.shape != (self.images.shape[0],):
            raise ValueError(f"label count {labels.shape} does not match {self.images.shape[0]} images")
        # a NaN fails both comparisons
        if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
            raise ValueError(f"image values must lie in [0, 1], got {self.images.min()} to {self.images.max()}")
        whole = np.isfinite(labels) & (np.round(labels) == labels)
        if not whole.all():
            raise ValueError(f"labels must be integers, got {labels[~whole][0]} at index {np.argmin(whole)}")
        self.labels = labels.astype(np.int64)

    def __len__(self):
        return self.images.shape[0]


def _parse_idx(data, magic, n_dims, what):
    """IDX bytes -> the uint8 payload, shaped by the header's n_dims sizes."""
    head = 4 * (1 + n_dims)
    if len(data) < head:
        raise IdxParseError(f"truncated {what} header: need {head} bytes, have {len(data)}")
    found, *dims = struct.unpack(f">{1 + n_dims}I", data[:head])
    if found != magic:
        raise IdxParseError(f"bad {what} magic 0x{found:08x} at offset 0, expected 0x{magic:08x}")
    need = math.prod(dims)
    if len(data) - head < need:
        raise IdxParseError(
            f"truncated {what} payload at offset {head}: need {need} bytes, have {len(data) - head}"
        )
    return np.frombuffer(data[head : head + need], dtype=np.uint8).reshape(dims)


def _dump_idx(magic, raw):
    """uint8 array -> IDX bytes: magic, one size per axis, payload."""
    return struct.pack(f">{1 + raw.ndim}I", magic, *raw.shape) + raw.tobytes()


def _raw_idx_images(data):
    """IDX image bytes -> the unconverted uint8 array [N, 1, H, W]."""
    return _parse_idx(data, IMAGES_MAGIC, 3, "image")[:, None]


def _unit_scale(raw):
    return raw.astype(np.float64) / 255.0


def parse_idx_images(data):
    """IDX image bytes -> float array [N, 1, H, W] scaled to [0, 1]."""
    return _unit_scale(_raw_idx_images(data))


def parse_idx_labels(data):
    """IDX label bytes -> int array [N]."""
    return _parse_idx(data, LABELS_MAGIC, 1, "label").astype(np.int64)


def _read_raw_idx(images_path, labels_path):
    """The uint8 images [N, 1, H, W] and int labels [N] of an IDX file pair."""
    images = _raw_idx_images(Path(images_path).read_bytes())
    labels = parse_idx_labels(Path(labels_path).read_bytes())
    if images.shape[0] != labels.shape[0]:
        raise IdxParseError(
            f"image count {images.shape[0]} does not match label count {labels.shape[0]}"
        )
    return images, labels


def read_idx(images_path, labels_path):
    """Read an images/labels IDX file pair into a LabeledImageSet."""
    images, labels = _read_raw_idx(images_path, labels_path)
    return LabeledImageSet(_unit_scale(images), labels)


def read_idx_image(images_path, labels_path, seed):
    """(i, image i as float [1, H, W] in [0, 1]) for i = seed % N of an IDX file pair.

    Only image i is converted to float, not the whole file; the value equals
    read_idx(...).images[i].
    """
    images, _ = _read_raw_idx(images_path, labels_path)
    if images.shape[0] == 0:
        raise IdxParseError(f"image file {images_path} holds no images")
    i = seed % images.shape[0]
    return i, _unit_scale(images[i])


def dump_idx_images(images):
    """Float images [N, 1, H, W] in [0, 1] -> IDX bytes (values scaled to bytes)."""
    raw = np.clip(np.rint(np.asarray(images) * 255.0), 0, 255).astype(np.uint8)
    n, _, h, w = raw.shape
    return _dump_idx(IMAGES_MAGIC, raw.reshape(n, h, w))


def dump_idx_labels(labels):
    """Integer labels [N] in 0..255 -> IDX bytes; ValueError names the first label outside that range."""
    labels = np.asarray(labels)
    fits = (labels >= 0) & (labels <= 255)
    if not fits.all():
        raise ValueError(f"label {labels[~fits][0]} at index {np.argmin(fits)} is outside 0..255")
    return _dump_idx(LABELS_MAGIC, labels.astype(np.uint8))


def write_idx(images_path, labels_path, dataset):
    """Write a LabeledImageSet as an IDX file pair; labels that do not fit a byte raise before either file is written."""
    labels = dump_idx_labels(dataset.labels)
    Path(images_path).write_bytes(dump_idx_images(dataset.images))
    Path(labels_path).write_bytes(labels)


def upsample(values, out_h, out_w):
    """Bilinear upsample of [..., H, W] onto an out_h x out_w grid.

    Corner-aligned: the output grid spans the same coordinate box as the
    input, so content scales with the canvas.
    """
    X, Y = np.meshgrid(*pixel_axes(values.shape[-2], values.shape[-1], out_h, out_w))
    return bilinear_sample(values, X, Y)


def rs_image(image, seed, index, upsize):
    """Rotate/rescale one image [1, H, W] and upsample it to upsize x upsize.

    The stream is default_rng([seed, index]), so image i of a dataset comes out
    the same alone as in make_rs_dataset: rotate by U[0, 2pi), shrink by a
    factor U[0.3, 1], keep the canvas (reads beyond it are zero), then upsample.
    """
    rng = np.random.default_rng([seed, index])
    angle = rng.uniform(0.0, 2.0 * math.pi)
    factor = rng.uniform(0.3, 1.0)
    g = GroupElement(angle, math.log2(factor), (0.0, 0.0))
    moved = act_on_image(g, ImageTensor(image))
    return np.clip(upsample(moved.values, upsize, upsize), 0.0, 1.0)


def make_rs_dataset(dataset, seed, upsize):
    """rs_image on every image (index i draws from (seed, i)); labels pass through."""
    out = np.empty((len(dataset), 1, upsize, upsize))
    for i in range(len(dataset)):
        out[i] = rs_image(dataset.images[i], seed, i, upsize)
    return LabeledImageSet(out, dataset.labels.copy())


def synthetic_blobs(height, width, rng):
    """Interior-supported sum of 3-6 random smooth bumps, peak-normalized.

    Centers stay within a fifth of the canvas from its middle and widths
    within [min_side/16, min_side/10], so content decays well before the
    boundary.  Returns [1, height, width].
    """
    side = min(height, width)
    X, Y = pixel_coords(height, width)
    img = np.zeros((height, width))
    for _ in range(rng.integers(3, 7)):
        cx = rng.uniform(-width / 5.0, width / 5.0)
        cy = rng.uniform(-height / 5.0, height / 5.0)
        sig = rng.uniform(side / 16.0, side / 10.0)
        img += rng.uniform(0.5, 1.0) * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * sig**2))
    return (img / img.max())[None]


def synthetic_blob_set(count, height, width, seed):
    """A LabeledImageSet of blob images (labels are the draw indices mod 10)."""
    images = np.stack(
        [synthetic_blobs(height, width, np.random.default_rng([seed, i])) for i in range(count)]
    )
    return LabeledImageSet(images, np.arange(count) % 10)


def smooth_feature_values(n_channels, n_rotations, scale_grid, height, width, rng):
    """Band-limited interior feature values [M, N_r, N_s, H, W] for norm tests.

    Each (channel, rotation, scale) slice is a wide Gaussian bump times a
    low-frequency cosine, with amplitude peaked at the middle scale channel
    so lattice scale shifts never move the dominant slice off the axis.
    """
    n_scales = len(scale_grid)
    X, Y = pixel_coords(height, width)
    mid = (n_scales - 1) / 2.0
    out = np.empty((n_channels, n_rotations, n_scales, height, width))
    side = min(height, width)
    for c in range(n_channels):
        for r in range(n_rotations):
            for s in range(n_scales):
                cx, cy = rng.uniform(-side / 10.0, side / 10.0, size=2)
                sig = rng.uniform(side / 7.0, side / 5.0)
                wavelength = rng.uniform(side / 3.0, side / 2.0)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                ang = rng.uniform(0.0, 2.0 * math.pi)
                carrier = np.cos(
                    2.0 * math.pi * (math.cos(ang) * X + math.sin(ang) * Y) / wavelength + phase
                )
                bump = np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * sig**2))
                amp = math.exp(-0.5 * ((s - mid) / max(n_scales / 6.0, 1.0)) ** 2)
                out[c, r, s] = amp * bump * carrier
    return out
