"""Deterministic random initialization and a flat binary file format.

There is no array wrapper: the layers take and return plain float64
``np.ndarray``s with axes (batch, channel, row, col), and the arrays made
here are C-contiguous (row-major). Every index formula elsewhere in the
package assumes this axis order. This module holds what carries the
determinism contract: the counter-based ``Rng``, ``he_init``, the ``.bin``
format and the ASCII PGM text of the image dumps.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

_U64 = np.uint64
_SPLITMIX_GAMMA = _U64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = _U64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = _U64(0x94D049BB133111EB)
_TWO_POW_NEG53 = 2.0 ** -53


def _check_shape(shape) -> tuple[int, int, int, int]:
    if len(shape) != 4:
        raise ValueError(f"tensor shape must have 4 dims, got {shape!r}")
    n, c, h, w = (int(d) for d in shape)
    if min(n, c, h, w) < 1:
        raise ValueError(f"all tensor dims must be >= 1, got {shape!r}")
    return (n, c, h, w)


class Rng:
    """Deterministic counter-based generator (splitmix64).

    The i-th raw draw (i counted from 1) is, in 64-bit wrapping arithmetic:

        state = seed + i * 0x9E3779B97F4A7C15
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        draw = z ^ (z >> 31)

    Derived values:
      * uniform in [0, 1): (draw >> 11) * 2**-53
      * standard normal: Box-Muller over two consecutive uniforms,
        sqrt(-2*ln(1 - u1)) * cos(2*pi*u2); exactly two raw draws are
        consumed per normal (the sine partner is discarded so the stream
        position never depends on request chunking)
      * integer in [0, n): draw % n (modulo bias is negligible for the
        small ranges used here and keeps the recipe one line)

    The raw integer stream is bit-reproducible on any platform; the float
    transforms are reproducible for a fixed libm.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._count = 0

    def next_u64(self, n: int = 1) -> np.ndarray:
        n = int(n)
        if n < 0:
            raise ValueError("draw count must be >= 0")
        with np.errstate(over="ignore"):
            idx = (np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
                   * _SPLITMIX_GAMMA) + _U64(self.seed)
            z = (idx ^ (idx >> _U64(30))) * _SPLITMIX_MUL1
            z = (z ^ (z >> _U64(27))) * _SPLITMIX_MUL2
            z = z ^ (z >> _U64(31))
        self._count += n
        return z

    def uniform(self, n: int = 1) -> np.ndarray:
        return (self.next_u64(n) >> _U64(11)).astype(np.float64) * _TWO_POW_NEG53

    def normal(self, n: int = 1) -> np.ndarray:
        u = self.uniform(2 * int(n))
        u1, u2 = u[0::2], u[1::2]
        return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)

    def randint(self, n: int) -> int:
        if n < 1:
            raise ValueError("range must be >= 1")
        return int(self.next_u64(1)[0] % _U64(n))


def he_init(shape, fan_in: int, rng: Rng) -> np.ndarray:
    """Zero-mean normal draws with variance 2/fan_in, in row-major order."""
    shape = _check_shape(shape)
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    std = float(np.sqrt(2.0 / fan_in))
    return (rng.normal(int(np.prod(shape))) * std).reshape(shape)


# ---------------------------------------------------------------------------
# serialization: 16-byte header (four little-endian uint32 dims) followed by
# n*c*h*w little-endian float64 values in row-major order
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4I")


def tensor_to_bytes(t: np.ndarray) -> bytes:
    shape = _check_shape(t.shape)
    return _HEADER.pack(*shape) + np.ascontiguousarray(t, dtype="<f8").tobytes()


def tensor_from_bytes(blob: bytes) -> np.ndarray:
    if len(blob) < _HEADER.size:
        raise ValueError("tensor blob shorter than its 16-byte header")
    shape = _check_shape(_HEADER.unpack_from(blob, 0))
    count = int(np.prod(shape))
    expected = _HEADER.size + 8 * count
    if len(blob) != expected:
        raise ValueError(f"tensor blob has {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=_HEADER.size)
    return flat.astype(np.float64).reshape(shape)


def save_tensor(path, t: np.ndarray) -> None:
    Path(path).write_bytes(tensor_to_bytes(t))


def load_tensor(path) -> np.ndarray:
    return tensor_from_bytes(Path(path).read_bytes())


def pgm_text(grid: np.ndarray) -> str:
    """ASCII (P2) PGM of a 2-D grid of integers in 0..255, one row per line."""
    h, w = grid.shape
    rows = "\n".join(" ".join(str(int(v)) for v in row) for row in grid)
    return f"P2\n{w} {h}\n255\n{rows}\n"
