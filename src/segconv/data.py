"""Synthetic segmentation samples: thin bright structures (poles/lines) and
large blobs on a dark background. Built to probe whether a decoder can
recover structures narrower than the encoder's downsampling stride.

Classes: 0 background, 1 thin structure, 2 blob. Pixel intensity is a
class-dependent base plus Gaussian noise. Label value 255 marks ignored
pixels (none are generated here, but the loss and metrics honor it).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tensor import Rng, write_pgm

IGNORE_LABEL = 255

CLASS_BASE_INTENSITY = (0.1, 0.9, 0.5)  # background, thin, blob
NOISE_STD = 0.05
BLOBS = 2   # rectangles (class 2) per sample
POLES = 3   # thin lines (class 1) per sample, drawn over the blobs


@dataclass
class SegSample:
    image: np.ndarray       # (1, 1, H, W) float64
    labels: np.ndarray      # (H, W) int64, values in 0..L-1 or IGNORE_LABEL


def gen_thin_structures(n: int, height: int, width: int, thickness: int,
                        classes: int, rng: Rng) -> list[SegSample]:
    """Deterministically generate n samples from the given rng.

    Each sample carries BLOBS rectangles (class 2) and POLES thin lines of
    the given thickness (class 1) drawn on top of them.
    """
    if classes < 3:
        raise ValueError("generator needs >= 3 classes (background, thin, blob)")
    if thickness < 1:
        raise ValueError("thickness must be >= 1")
    if height < 8 or width < 8:
        raise ValueError("images smaller than 8x8 are not useful here")
    if thickness > min(height, width):
        raise ValueError(f"thickness {thickness} does not fit a {height}x{width} image")
    samples = []
    for _ in range(n):
        labels = np.zeros((height, width), dtype=np.int64)
        for _ in range(BLOBS):
            bh = height // 4 + rng.randint(height // 4 + 1)
            bw = width // 4 + rng.randint(width // 4 + 1)
            y0 = rng.randint(height - bh + 1)
            x0 = rng.randint(width - bw + 1)
            labels[y0 : y0 + bh, x0 : x0 + bw] = 2
        taken = {True: [], False: []}  # cross-axis offsets by orientation
        for _ in range(POLES):
            vertical = rng.randint(2) == 0
            span = height if vertical else width
            cross = width if vertical else height
            length = (3 * span) // 4 + rng.randint(span // 4 + 1)
            start = rng.randint(span - length + 1)
            # keep same-orientation poles non-adjacent so no structure ever
            # grows beyond the requested thickness by stacking
            off = rng.randint(cross - thickness + 1)
            for _ in range(50):
                if all(abs(off - o) > thickness for o in taken[vertical]):
                    break
                off = rng.randint(cross - thickness + 1)
            taken[vertical].append(off)
            if vertical:
                labels[start : start + length, off : off + thickness] = 1
            else:
                labels[off : off + thickness, start : start + length] = 1
        base = np.asarray(CLASS_BASE_INTENSITY, dtype=np.float64)[labels]
        noise = rng.normal(height * width).reshape(height, width) * NOISE_STD
        image = (base + noise).reshape(1, 1, height, width)
        samples.append(SegSample(image=image, labels=labels))
    return samples


# ---------------------------------------------------------------------------
# PGM dump of (image, label) pairs, for inspection with any image viewer
# ---------------------------------------------------------------------------


def write_sample_pgm(sample: SegSample, path_prefix) -> None:
    """Write <prefix>_img.pgm (intensities clipped to 0..255) and
    <prefix>_lab.pgm (raw label values; 255 = ignore)."""
    prefix = Path(path_prefix)
    img = np.clip(np.rint(sample.image[0, 0] * 255.0), 0, 255).astype(np.int64)
    for suffix, grid in (("_img", img), ("_lab", sample.labels)):
        write_pgm(prefix.parent / f"{prefix.name}{suffix}.pgm", grid.tolist(), *grid.shape)
