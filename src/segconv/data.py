"""Synthetic segmentation samples: thin bright structures (poles/lines) and
large blobs on a dark background. Built to probe whether a decoder can
recover structures narrower than the encoder's downsampling stride.

Classes: 0 background, 1 thin structure, 2 blob. Pixel intensity is a
class-dependent base plus Gaussian noise. Label value 255 marks ignored
pixels (none are generated here, but the loss and metrics honor it).

Each image owns one stretch of the rng's stream: its label draws (BLOBS
rectangles, then POLES poles, each a few randint calls), then 2*H*W draws
for its H*W noise normals, before the next image's stretch begins. Because
an Rng draw depends only on the seed and its counter, the generator draws
every image's labels first, reserving each noise stretch, and then
evaluates the reserved noise of several images per batch, with the bits a
per-image draw would give.

Same-orientation poles keep at least one pixel between them, so no
structure grows beyond the requested thickness by stacking. A pole's offset
is redrawn up to 50 times until it is clear of the poles placed; if none of
those draws is clear, one draw picks among the clear offsets, and the pole
is left out when no offset is clear.
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
NOISE_BATCH = 16384  # normals per batch of the noise pass: about 1 MB of temporaries


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
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    if classes < 3:
        raise ValueError("generator needs >= 3 classes (background, thin, blob)")
    if thickness < 1:
        raise ValueError("thickness must be >= 1")
    if height < 8 or width < 8:
        raise ValueError("images smaller than 8x8 are not useful here")
    if thickness > min(height, width):
        raise ValueError(f"thickness {thickness} does not fit a {height}x{width} image")
    pixels = height * width
    labels = np.zeros((n, height, width), dtype=np.int64)
    firsts = []
    for i in range(n):
        _draw_labels(labels[i], thickness, rng)
        firsts.append(rng.reserve(2 * pixels))
    base = np.asarray(CLASS_BASE_INTENSITY, dtype=np.float64)
    images = np.empty((n, 1, 1, height, width))
    steps = np.arange(2 * pixels, dtype=np.uint64)
    per_batch = max(1, NOISE_BATCH // pixels)
    for a in range(0, n, per_batch):
        b = min(a + per_batch, n)
        counters = (np.array(firsts[a:b], dtype=np.uint64)[:, None] + steps).ravel()
        out = images[a:b].reshape(-1)
        np.multiply(rng.normal_at(counters), NOISE_STD, out=out)
        out += base[labels[a:b]].reshape(-1)
    return [SegSample(image=images[i], labels=labels[i]) for i in range(n)]


def _draw_labels(labels: np.ndarray, thickness: int, rng: Rng) -> None:
    """Draw one sample's blobs and poles into the zeroed (H, W) labels."""
    height, width = labels.shape
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
        placed = taken[vertical]
        slots = cross - thickness + 1
        off = rng.randint(slots)
        for _ in range(50):
            if all(abs(off - o) > thickness for o in placed):
                break
            off = rng.randint(slots)
        else:
            clear = [x for x in range(slots) if all(abs(x - o) > thickness for o in placed)]
            if off not in clear:
                if not clear:
                    continue
                off = clear[rng.randint(len(clear))]
        placed.append(off)
        if vertical:
            labels[start : start + length, off : off + thickness] = 1
        else:
            labels[off : off + thickness, start : start + length] = 1


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
