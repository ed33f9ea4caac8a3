"""Deterministic random initialization and a flat binary file format.

There is no array wrapper: the layers take and return plain float64
``np.ndarray``s with axes (batch, channel, row, col), and the arrays made
here are C-contiguous (row-major). Every index formula elsewhere in the
package assumes this axis order. This module holds what carries the
determinism contract: the counter-based ``Rng``, ``he_init``, the ``.bin``
format, and the writers of every text artifact: ``write_rows`` (each CSV,
and the ASCII PGM of the image and footprint dumps) and ``write_json``.
"""

from __future__ import annotations

import json
import math
import operator
import struct
from itertools import chain
from pathlib import Path

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_U64 = np.uint64
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
      * integer in [0, n) for 1 <= n <= 2**64: draw % n (modulo bias is
        negligible for the small ranges used here and keeps the recipe one
        line)

    Draw i depends only on the seed and i, never on the draws before it. So
    a caller may step past draws now and compute them later, in any grouping,
    with the same bits: reserve(n) advances the counter by n and returns the
    first reserved counter, and draws_at(counters) and normal_at(counters)
    evaluate the recipe at any counters, reading no state but the seed.

    The recipe is written twice. randint, the scalar draw, computes it in
    Python integers masked to 64 bits, with no array; draws_at computes it
    over a numpy uint64 counter array, and normal evaluates the counters it
    takes from reserve through it. randint and reserve advance the same
    counter, so there is one stream, and the stream position never depends
    on which of them drew.

    The raw integer stream is bit-reproducible on any platform; the float
    transforms are reproducible for a fixed libm.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._count = 0

    def reserve(self, n: int) -> int:
        """Step past n draws without computing them and return the counter
        of the first (counters start at 1); draws_at or normal_at give those
        draws later with the bits that drawing them now would have given."""
        n = operator.index(n)
        if n < 0:
            raise ValueError("draw count must be >= 0")
        self._count += n
        return self._count - n + 1

    def draws_at(self, counters: np.ndarray) -> np.ndarray:
        """The raw draws at the given uint64 counters, in their order."""
        with np.errstate(over="ignore"):
            z = counters * _U64(_GAMMA)
            z += _U64(self.seed)
            z ^= z >> _U64(30)
            z *= _U64(_MUL1)
            z ^= z >> _U64(27)
            z *= _U64(_MUL2)
            z ^= z >> _U64(31)
        return z

    def normal_at(self, counters: np.ndarray) -> np.ndarray:
        """Standard normals from the draws at the given uint64 counters, read
        in consecutive pairs (u1, u2): one normal per two counters."""
        u = (self.draws_at(counters) >> _U64(11)).astype(np.float64)
        u *= _TWO_POW_NEG53
        r = np.negative(u[0::2])
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        c = np.multiply(u[1::2], 2.0 * np.pi)
        np.cos(c, out=c)
        r *= c
        return r

    def normal(self, n: int = 1) -> np.ndarray:
        n = operator.index(n)
        first = self.reserve(2 * n)
        return self.normal_at(np.arange(first, first + 2 * n, dtype=np.uint64))

    def randint(self, n: int) -> int:
        """One draw % n; n is any integer (numpy ones too) in 1..2**64."""
        n = operator.index(n)
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"range must be in 1..2**64, got {n}")
        self._count += 1
        z = (self.seed + self._count * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        return (z ^ (z >> 31)) % n


def he_init(shape, fan_in: int, rng: Rng | None) -> np.ndarray:
    """Zero-mean normal draws with variance 2/fan_in, in row-major order.
    With rng None, zeros: np.zeros touches no page until it is written, so
    a net whose weights are read from files next pays for no draw."""
    shape = _check_shape(shape)
    if fan_in < 1:
        raise ValueError("fan_in must be >= 1")
    if rng is None:
        return np.zeros(shape)
    std = float(np.sqrt(2.0 / fan_in))
    return (rng.normal(math.prod(shape)) * std).reshape(shape)


# ---------------------------------------------------------------------------
# serialization: 16-byte header (four little-endian uint32 dims) followed by
# n*c*h*w little-endian float64 values in row-major order
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4I")


def save_tensor(path, t: np.ndarray) -> None:
    shape = _check_shape(t.shape)
    blob = _HEADER.pack(*shape) + np.ascontiguousarray(t, dtype="<f8").tobytes()
    Path(path).write_bytes(blob)


def load_tensor(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError("tensor blob shorter than its 16-byte header")
    shape = _check_shape(_HEADER.unpack_from(blob, 0))
    count = math.prod(shape)
    expected = _HEADER.size + 8 * count
    if len(blob) != expected:
        raise ValueError(f"tensor blob has {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=_HEADER.size)
    return flat.astype(np.float64).reshape(shape)


def write_rows(path, rows, sep: str) -> None:
    """One line per row, its values' str() (for a float, the shortest
    round-trip repr) joined by sep, written as the rows arrive. A row
    object passed again right after itself is written from the text already
    formatted for it, so a caller repeats an equal row for free."""
    with Path(path).open("w", encoding="ascii") as f:
        last, text = None, ""
        for row in rows:
            if row is not last:
                last, text = row, sep.join(map(str, row)) + "\n"
            f.write(text)


def write_pgm(path, rows, h: int, w: int) -> None:
    """ASCII (P2) PGM of h rows of w integers in 0..255, streamed."""
    write_rows(path, chain([("P2",), (w, h), (255,)], rows), " ")


def write_json(path, obj) -> None:
    """The JSON artifact format: ASCII, sorted keys, indent 1, final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="ascii")
