import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segconv.tensor import (Rng, he_init, load_tensor, save_tensor, write_json, write_pgm,
                            write_rows)

# frozen from the documented splitmix64 + Box-Muller recipe; regression only
HE_INIT_GOLDEN = [
    0.4158961228561205,
    -0.21253266961194542,
    0.08879028322514922,
    0.10351401185465846,
]


def next_u64(rng, n):
    """The next n raw draws as an array: reserved, then evaluated."""
    first = rng.reserve(n)
    return rng.draws_at(np.arange(first, first + n, dtype=np.uint64))


@pytest.mark.parametrize("shape", [(1, 0, 2, 2), (0, 1, 1, 1), (1, 1, -1, 2), (2, 2, 2)])
def test_invalid_dims_rejected(shape, tmp_path):
    """he_init, the .bin writer and the .bin reader each reject a shape that
    is not 4 dims of at least 1 (the writer would otherwise emit a file its
    reader rejects, or fail inside struct); the writer makes no file."""
    with pytest.raises(ValueError):
        he_init(shape, 1, Rng(0))
    path = tmp_path / "t.bin"
    if min(shape) >= 0:
        with pytest.raises(ValueError):
            save_tensor(path, np.zeros(shape))
        assert not path.exists()
    if len(shape) == 4 and min(shape) == 0:
        path.write_bytes(struct.pack("<4I", *shape))
        with pytest.raises(ValueError):
            load_tensor(path)


def test_rng_equal_seeds_equal_streams():
    n = 1_000_000
    a = next_u64(Rng(123), n)
    b = next_u64(Rng(123), n)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, next_u64(Rng(124), n))


def test_rng_first_draw_is_the_published_splitmix64_output():
    # the first SplitMix64 output for seed 0, as published with the algorithm
    assert next_u64(Rng(0), 1)[0] == 0xE220A8397B1DCDAF
    assert Rng(0).randint(2**64) == 0xE220A8397B1DCDAF


_DRAWS = st.lists(st.one_of(
    st.tuples(st.just("randint"), st.sampled_from([1, 2, 3, 2**63 + 1, 2**64])),
    st.tuples(st.just("next_u64"), st.integers(0, 5)),
    st.tuples(st.just("normal"), st.integers(0, 3)),
    st.tuples(st.just("reserve"), st.integers(0, 6)),
), max_size=12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                      st.integers(0, 2**64 - 1)),
       draws=_DRAWS)
def test_scalar_and_vector_draws_are_one_stream(seed, draws):
    """randint computes the recipe in Python integers and draws_at in numpy
    arrays; interleaved in any order they must read one stream, each
    randint being int(next_u64) % n of a fresh Rng at the same position.
    Draws stepped past by reserve, evaluated after every other draw through
    draws_at and normal_at, read the same stream."""
    rng = Rng(seed)
    raw = [int(v) for v in next_u64(Rng(seed), sum(
        {"randint": 1, "next_u64": k, "normal": 2 * k, "reserve": k}[op]
        for op, k in draws))]
    pos = 0
    reserved = []
    for op, k in draws:
        if op == "randint":
            got = rng.randint(k)
            assert type(got) is int and got == raw[pos] % k, (pos, k)
            pos += 1
        elif op == "next_u64":
            assert [int(v) for v in next_u64(rng, k)] == raw[pos : pos + k]
            pos += k
        elif op == "reserve":
            assert rng.reserve(k) == pos + 1
            reserved.append((pos, k))
            pos += k
        else:
            at = Rng(seed)
            at.reserve(pos)
            assert np.array_equal(rng.normal(k), at.normal(k))
            pos += 2 * k
    assert rng.randint(2**64) == int(next_u64(Rng(seed), pos + 1)[-1])
    for start, k in reserved:
        counters = np.arange(start + 1, start + k + 1, dtype=np.uint64)
        assert [int(v) for v in rng.draws_at(counters)] == raw[start : start + k]
        assert [int(v) for v in rng.draws_at(counters[::-1])] == raw[start : start + k][::-1]
        if k % 2 == 0:
            at = Rng(seed)
            at.reserve(start)
            assert np.array_equal(rng.normal_at(counters), at.normal(k // 2))


def test_randint_takes_n_through_operator_index():
    # numpy integers work (z % np.int64(n) would overflow once z >= 2**63)
    want = int(next_u64(Rng(5), 1)[0])
    assert Rng(5).randint(np.uint64(2**64 - 1)) == want % (2**64 - 1)
    assert Rng(5).randint(np.int64(2**63 - 1)) == want % (2**63 - 1)
    assert Rng(5).randint(np.int32(7)) == want % 7
    with pytest.raises(TypeError):
        Rng(5).randint(3.0)


@pytest.mark.parametrize("n", [0, -1, 2**64 + 1, np.int64(0)])
def test_randint_rejects_ranges_outside_one_to_two_pow_64(n):
    rng = Rng(0)
    with pytest.raises(ValueError, match=r"1\.\.2\*\*64"):
        rng.randint(n)
    assert rng.randint(2**64) == int(next_u64(Rng(0), 1)[0])  # no draw consumed


def test_reserve_rejects_a_negative_count_without_moving():
    rng = Rng(3)
    with pytest.raises(ValueError, match=">= 0"):
        rng.reserve(-1)
    assert rng.reserve(0) == 1
    assert rng.randint(2**64) == int(next_u64(Rng(3), 1)[0])


@pytest.mark.parametrize("draw", ["reserve", "normal"])
def test_draw_counts_go_through_operator_index(draw):
    # a float count raises instead of being truncated; numpy integers work
    rng = Rng(4)
    for n in (2.7, 2.0, np.float64(2.5)):
        with pytest.raises(TypeError):
            getattr(rng, draw)(n)
    assert rng.reserve(0) == 1  # no draw consumed
    getattr(rng, draw)(np.int64(3))
    getattr(rng, draw)(np.uint8(2))
    per = 1 if draw == "reserve" else 2
    assert rng.reserve(0) == 1 + 5 * per


def test_rng_stream_position_independent_of_chunking():
    whole = next_u64(Rng(9), 100)
    r = Rng(9)
    parts = np.concatenate([next_u64(r, 1), next_u64(r, 49), next_u64(r, 50)])
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


def test_binary_roundtrip_bit_exact(tmp_path):
    t = he_init((2, 3, 5, 4), 3, Rng(21))
    path = tmp_path / "t.bin"
    save_tensor(path, t)
    assert path.stat().st_size == 16 + 8 * t.size
    back = load_tensor(path)
    assert back.shape == t.shape
    assert np.array_equal(back, t)


def test_binary_header_is_little_endian_uint32(tmp_path):
    path = tmp_path / "t.bin"
    save_tensor(path, np.full((1, 2, 3, 4), 0.5))
    assert path.read_bytes()[:16] == (b"\x01\x00\x00\x00" b"\x02\x00\x00\x00"
                                      b"\x03\x00\x00\x00" b"\x04\x00\x00\x00")


def test_binary_rejects_truncated_blob(tmp_path):
    path = tmp_path / "t.bin"
    save_tensor(path, np.zeros((1, 1, 2, 2)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="has 40 bytes, expected 48"):
        load_tensor(path)


def test_binary_size_check_counts_elements_without_wrapping(tmp_path):
    # 65536**4 == 2**64 elements: an int64 product would wrap to 0 and pass
    # a 16-byte blob that holds no value
    path = tmp_path / "t.bin"
    path.write_bytes(struct.pack("<4I", 65536, 65536, 65536, 65536))
    with pytest.raises(ValueError, match=f"^tensor blob has 16 bytes, expected {16 + 8 * 2**64}$"):
        load_tensor(path)


def test_binary_rejects_a_short_header(tmp_path):
    path = tmp_path / "t.bin"
    path.write_bytes(struct.pack("<3I", 1, 1, 1))
    with pytest.raises(ValueError, match="shorter than its 16-byte header"):
        load_tensor(path)


def test_write_pgm_formats_a_row_passed_again_once(tmp_path):
    class Row(list):
        formatted = 0

        def __iter__(self):
            Row.formatted += 1
            return super().__iter__()

    a, b = Row([0, 255, 7]), Row([1, 2, 3])
    write_pgm(tmp_path / "r.pgm", [a, a, a, b, a], 5, 3)
    assert (tmp_path / "r.pgm").read_text(encoding="ascii") == (
        "P2\n3 5\n255\n0 255 7\n0 255 7\n0 255 7\n1 2 3\n0 255 7\n")
    assert Row.formatted == 3


def test_write_rows_joins_str_values_and_write_json_sorts_keys(tmp_path):
    # str of a float is its shortest round-trip repr, so a header row is a
    # tuple of strings and a value row holds the numbers themselves
    write_rows(tmp_path / "c.csv", [("it", "loss"), (0, 0.1 + 0.2), (1, float("nan"))], ",")
    assert (tmp_path / "c.csv").read_text(encoding="ascii") == (
        "it,loss\n0,0.30000000000000004\n1,nan\n")
    write_json(tmp_path / "o.json", {"b": [1, 2.5], "a": True})
    text = (tmp_path / "o.json").read_text(encoding="ascii")
    assert text == '{\n "a": true,\n "b": [\n  1,\n  2.5\n ]\n}\n'
    assert json.loads(text) == {"a": True, "b": [1, 2.5]}
