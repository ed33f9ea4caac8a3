import numpy as np
import pytest

from segconv.tensor import (
    Rng,
    Tensor,
    he_init,
    new_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
)

# frozen from the documented splitmix64 + Box-Muller recipe; regression only
HE_INIT_GOLDEN = [
    0.4158961228561205,
    -0.21253266961194542,
    0.08879028322514922,
    0.10351401185465846,
]


def test_new_tensor_fill():
    t = new_tensor((1, 1, 2, 2), 0.0)
    assert t.size() == 4
    assert np.all(t.data == 0.0)


def test_new_tensor_count_is_product_of_dims():
    t = new_tensor((2, 3, 4, 5), 1.5)
    assert t.size() == 120
    assert np.all(t.data == 1.5)


@pytest.mark.parametrize("shape", [(1, 0, 2, 2), (0, 1, 1, 1), (1, 1, -1, 2)])
def test_invalid_dims_rejected(shape):
    with pytest.raises(ValueError):
        new_tensor(shape, 0.0)


def test_flatten_reshape_roundtrip_bit_exact():
    rng = Rng(5)
    t = he_init((2, 3, 4, 5), 7, rng)
    back = Tensor(t.flatten().reshape(t.shape))
    assert np.array_equal(back.data, t.data)


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
    assert list(t.flatten()) == HE_INIT_GOLDEN


def test_he_init_determinism():
    a = he_init((2, 2, 2, 2), 9, Rng(7))
    b = he_init((2, 2, 2, 2), 9, Rng(7))
    assert np.array_equal(a.data, b.data)


def test_he_init_variance_shrinks_with_fan_in():
    vals = he_init((1, 1, 100, 1000), 1_000_000, Rng(11)).flatten()
    assert float(np.var(vals)) < 1e-4
    assert abs(float(np.mean(vals))) < 1e-4


def test_he_init_rejects_bad_fan_in():
    with pytest.raises(ValueError):
        he_init((1, 1, 1, 1), 0, Rng(0))


def test_binary_roundtrip_bit_exact():
    t = he_init((2, 3, 5, 4), 3, Rng(21))
    blob = tensor_to_bytes(t)
    assert len(blob) == 16 + 8 * t.size()
    back = tensor_from_bytes(blob)
    assert back.shape == t.shape
    assert np.array_equal(back.data, t.data)


def test_binary_header_is_little_endian_uint32():
    t = new_tensor((1, 2, 3, 4), 0.5)
    blob = tensor_to_bytes(t)
    assert blob[:16] == (b"\x01\x00\x00\x00" b"\x02\x00\x00\x00"
                         b"\x03\x00\x00\x00" b"\x04\x00\x00\x00")


def test_binary_rejects_truncated_blob():
    blob = tensor_to_bytes(new_tensor((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        tensor_from_bytes(blob[:-8])
