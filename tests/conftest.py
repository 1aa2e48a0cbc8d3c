import numpy as np
import pytest

import rstcnn.parts
from rstcnn import ImageTensor, LayerSpec, NetworkConfig, init_coeffs


def small_net(layers=2, channels=1, K=3, stencil=5, n_rotations=4, n_scales=3,
              L_theta=2, L_alpha=1, max_angular=2, spatial_kind="fb", seed=0):
    """A tiny network for loop-oracle comparisons and fast property tests."""
    specs = [LayerSpec(1, channels, K, stencil)]
    for _ in range(layers - 1):
        specs.append(
            LayerSpec(
                channels,
                channels,
                K,
                stencil,
                L_theta=L_theta,
                L_alpha=L_alpha,
                max_angular=max_angular,
                n_scale=max(1, L_alpha),
            )
        )
    return NetworkConfig(
        layers=tuple(specs),
        n_rotations=n_rotations,
        n_scales=n_scales,
        scale_range=1.0,
        spatial_kind=spatial_kind,
        seed=seed,
    )


def interior_image(height=21, width=21, margin=6, seed=0, channels=1):
    """Smooth random image supported strictly inside the margin."""
    rng = np.random.default_rng(seed)
    ys = np.arange(height) - (height - 1) / 2.0
    xs = np.arange(width) - (width - 1) / 2.0
    X, Y = np.meshgrid(xs, ys)
    vals = np.zeros((channels, height, width))
    half = min(height, width) / 2.0 - margin
    for c in range(channels):
        for _ in range(3):
            cx, cy = rng.uniform(-half / 2.0, half / 2.0, size=2)
            sig = rng.uniform(half / 4.0, half / 2.5)
            vals[c] += rng.uniform(0.5, 1.0) * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2 * sig**2))
    envelope = np.clip(1.0 - np.maximum(np.abs(X), np.abs(Y)) / (min(height, width) / 2.0 - margin + 1e-9), 0.0, 1.0)
    return ImageTensor(vals * envelope**2)


PART_COUNTS = (1, 2, 3)


def outputs_per_part_count(monkeypatch, run):
    """run() once for each forced part count of the part pool (parts.run_parts).

    Each run also checks that the forced count took effect: the most parts
    any one run_parts call ran is the forced count, or the largest count it
    was asked to split when that is smaller (1 when run() splits nothing).
    """
    split = rstcnn.parts._split
    outs = []
    for parts in PART_COUNTS:
        seen = []  # (count, parts run) of each run_parts call

        def recorded(count, seen=seen):
            bounds = split(count)
            seen.append((count, len(bounds)))
            return bounds

        monkeypatch.setattr(rstcnn.parts, "_PARTS", parts)
        monkeypatch.setattr(rstcnn.parts, "_split", recorded)
        outs.append(run())
        largest = max((count for count, _ in seen), default=1)
        assert max((ran for _, ran in seen), default=1) == min(parts, largest)
    return outs


@pytest.fixture
def tiny_net():
    return small_net()


@pytest.fixture
def tiny_coeffs(tiny_net):
    return init_coeffs(tiny_net, seed=0)
