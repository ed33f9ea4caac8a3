import struct

import numpy as np
import pytest

from segconv.tensor import Rng, he_init, tensor_from_bytes, tensor_to_bytes

# frozen from the documented splitmix64 + Box-Muller recipe; regression only
HE_INIT_GOLDEN = [
    0.4158961228561205,
    -0.21253266961194542,
    0.08879028322514922,
    0.10351401185465846,
]


@pytest.mark.parametrize("shape", [(1, 0, 2, 2), (0, 1, 1, 1), (1, 1, -1, 2), (2, 2, 2)])
def test_invalid_dims_rejected(shape):
    """he_init, the .bin writer and the .bin reader each reject a shape that
    is not 4 dims of at least 1 (the writer would otherwise emit a blob its
    reader rejects, or fail inside struct)."""
    with pytest.raises(ValueError):
        he_init(shape, 1, Rng(0))
    if min(shape) >= 0:
        with pytest.raises(ValueError):
            tensor_to_bytes(np.zeros(shape))
    if len(shape) == 4 and min(shape) == 0:
        with pytest.raises(ValueError):
            tensor_from_bytes(struct.pack("<4I", *shape))


def test_rng_equal_seeds_equal_streams():
    n = 1_000_000
    a = Rng(123).next_u64(n)
    b = Rng(123).next_u64(n)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(124).next_u64(n))


def test_rng_stream_position_independent_of_chunking():
    whole = Rng(9).next_u64(100)
    r = Rng(9)
    parts = np.concatenate([r.next_u64(1), r.next_u64(49), r.next_u64(50)])
    assert np.array_equal(whole, parts)


def test_he_init_golden_regression():
    t = he_init((1, 1, 1, 4), 9, Rng(42))
    assert list(t.ravel()) == HE_INIT_GOLDEN


def test_he_init_determinism():
    a = he_init((2, 2, 2, 2), 9, Rng(7))
    b = he_init((2, 2, 2, 2), 9, Rng(7))
    assert np.array_equal(a, b)


def test_he_init_variance_shrinks_with_fan_in():
    vals = he_init((1, 1, 100, 1000), 1_000_000, Rng(11)).ravel()
    assert float(np.var(vals)) < 1e-4
    assert abs(float(np.mean(vals))) < 1e-4


def test_he_init_rejects_bad_fan_in():
    with pytest.raises(ValueError):
        he_init((1, 1, 1, 1), 0, Rng(0))


def test_binary_roundtrip_bit_exact():
    t = he_init((2, 3, 5, 4), 3, Rng(21))
    blob = tensor_to_bytes(t)
    assert len(blob) == 16 + 8 * t.size
    back = tensor_from_bytes(blob)
    assert back.shape == t.shape
    assert np.array_equal(back, t)


def test_binary_header_is_little_endian_uint32():
    t = np.full((1, 2, 3, 4), 0.5)
    blob = tensor_to_bytes(t)
    assert blob[:16] == (b"\x01\x00\x00\x00" b"\x02\x00\x00\x00"
                         b"\x03\x00\x00\x00" b"\x04\x00\x00\x00")


def test_binary_rejects_truncated_blob():
    blob = tensor_to_bytes(np.zeros((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        tensor_from_bytes(blob[:-8])
