"""Dense 4-axis tensor substrate: shape-checked float64 storage,
deterministic random initialization, and a flat binary file format.

Layout is fixed: row-major (batch, channel, row, col), 64-bit floats. Every
index formula elsewhere in the package assumes this ordering.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

Shape = tuple[int, int, int, int]

_U64 = np.uint64
_SPLITMIX_GAMMA = _U64(0x9E3779B97F4A7C15)
_SPLITMIX_MUL1 = _U64(0xBF58476D1CE4E5B9)
_SPLITMIX_MUL2 = _U64(0x94D049BB133111EB)
_TWO_POW_NEG53 = 2.0 ** -53


def _check_shape(shape) -> Shape:
    if len(shape) != 4:
        raise ValueError(f"tensor shape must have 4 dims, got {shape!r}")
    n, c, h, w = (int(d) for d in shape)
    if min(n, c, h, w) < 1:
        raise ValueError(f"all tensor dims must be >= 1, got {shape!r}")
    return (n, c, h, w)


class Tensor:
    """Immutable-by-convention dense array of shape (n, c, h, w).

    The backing store is a C-contiguous float64 ndarray; ``data.ravel()`` is
    exactly the row-major element stream.
    """

    __slots__ = ("shape", "data")

    def __init__(self, data: np.ndarray):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        self.shape = _check_shape(arr.shape)
        self.data = arr

    def __repr__(self):
        return f"Tensor(shape={self.shape})"

    def size(self) -> int:
        n, c, h, w = self.shape
        return n * c * h * w

    def flatten(self) -> np.ndarray:
        """Row-major copy of all elements as a 1-D array."""
        return self.data.ravel().copy()

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy())


def new_tensor(shape, fill: float = 0.0) -> Tensor:
    shape = _check_shape(shape)
    return Tensor(np.full(shape, float(fill), dtype=np.float64))


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


def he_init(shape, fan_in: int, rng: Rng) -> Tensor:
    """Zero-mean normal draws with variance 2/fan_in, in row-major order."""
    shape = _check_shape(shape)
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    n, c, h, w = shape
    std = float(np.sqrt(2.0 / fan_in))
    vals = rng.normal(n * c * h * w) * std
    return Tensor(vals.reshape(shape))


# ---------------------------------------------------------------------------
# serialization: 16-byte header (four little-endian uint32 dims) followed by
# n*c*h*w little-endian float64 values in row-major order
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4I")


def tensor_to_bytes(t: Tensor) -> bytes:
    payload = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    return _HEADER.pack(*t.shape) + payload


def tensor_from_bytes(blob: bytes) -> Tensor:
    if len(blob) < _HEADER.size:
        raise ValueError("tensor blob shorter than its 16-byte header")
    shape = _check_shape(_HEADER.unpack_from(blob, 0))
    n, c, h, w = shape
    count = n * c * h * w
    expected = _HEADER.size + 8 * count
    if len(blob) != expected:
        raise ValueError(f"tensor blob has {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=_HEADER.size)
    return Tensor(flat.astype(np.float64).reshape(shape))


def save_tensor(path, t: Tensor) -> None:
    Path(path).write_bytes(tensor_to_bytes(t))


def load_tensor(path) -> Tensor:
    return tensor_from_bytes(Path(path).read_bytes())
