import numpy as np
import pytest

from oracles import read_pgm
from segconv.data import (
    IGNORE_LABEL,
    gen_thin_structures,
    write_sample_pgm,
)
from segconv.tensor import Rng


def test_same_seed_identical_datasets():
    a = gen_thin_structures(5, 32, 32, 1, 3, Rng(17))
    b = gen_thin_structures(5, 32, 32, 1, 3, Rng(17))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.image, sb.image)
        assert np.array_equal(sa.labels, sb.labels)


def test_different_seed_differs():
    a = gen_thin_structures(1, 32, 32, 1, 3, Rng(17))[0]
    b = gen_thin_structures(1, 32, 32, 1, 3, Rng(18))[0]
    assert not np.array_equal(a.image, b.image)


def test_all_samples_contain_thin_structures_of_requested_width():
    samples = gen_thin_structures(20, 32, 32, 1, 3, Rng(3))
    for s in samples:
        thin = s.labels == 1
        assert thin.any()
        # every thin run is 1 px across in at least one axis: a 2x2 all-thin
        # block would contradict thickness 1 unless two structures cross
        assert s.labels.max() <= 2
        assert s.labels.min() >= 0


def test_thin_structures_never_stack_beyond_thickness():
    # construction guarantee: same-orientation poles keep their distance, so
    # no 2x2 all-thin block can form at thickness 1 (crossings make a plus)
    for seed in range(10):
        for s in gen_thin_structures(5, 32, 32, 1, 3, Rng(seed)):
            thin = s.labels == 1
            assert thin.any()
            squares = thin[:-1, :-1] & thin[1:, :-1] & thin[:-1, 1:] & thin[1:, 1:]
            assert not squares.any()


def test_thickness_below_stride_defeats_label_downsampling():
    # a 1-px pole covers at most a quarter of a 4x4 block, so majority-vote
    # reduction to the encoder grid all but erases the class; only the image
    # carries it at that point
    from segconv.train import majority_downsample

    samples = gen_thin_structures(50, 32, 32, 1, 3, Rng(4))
    fine = sum(int((s.labels == 1).sum()) for s in samples) / (50 * 32 * 32)
    coarse = sum(int((majority_downsample(s.labels, 4) == 1).sum())
                 for s in samples) / (50 * 8 * 8)
    assert coarse < 0.1 * fine


def test_class_frequencies_near_configured_density():
    samples = gen_thin_structures(100, 32, 32, 1, 3, Rng(17))
    counts = np.bincount(np.concatenate([s.labels.ravel() for s in samples]),
                         minlength=3)
    freqs = counts / counts.sum()
    # 3 poles of expected length 7/8 * 32 at thickness 1 over a 32x32 grid
    expected_thin = 3 * (7 / 8 * 32) / (32 * 32)
    assert 0.8 * expected_thin <= freqs[1] <= 1.2 * expected_thin
    assert 0.5 <= freqs[0] <= 0.85  # background dominates
    assert 0.1 <= freqs[2] <= 0.4
    assert abs(freqs.sum() - 1.0) < 1e-12


def test_intensities_separate_classes():
    s = gen_thin_structures(1, 32, 32, 2, 3, Rng(5))[0]
    img = s.image[0, 0]
    assert img[s.labels == 1].mean() > img[s.labels == 2].mean() > img[s.labels == 0].mean()


def test_generator_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_thin_structures(1, 32, 32, 0, 3, Rng(0))
    with pytest.raises(ValueError):
        gen_thin_structures(1, 32, 32, 1, 2, Rng(0))
    with pytest.raises(ValueError):
        gen_thin_structures(1, 4, 4, 1, 3, Rng(0))


def test_pgm_dump_roundtrips(tmp_path):
    s = gen_thin_structures(1, 16, 16, 1, 3, Rng(6))[0]
    write_sample_pgm(s, tmp_path / "s0")
    img = read_pgm(tmp_path / "s0_img.pgm")
    lab = read_pgm(tmp_path / "s0_lab.pgm")
    assert img.shape == (16, 16) and lab.shape == (16, 16)
    assert np.array_equal(lab, s.labels)
    assert img.min() >= 0 and img.max() <= 255


def test_ignore_label_constant():
    assert IGNORE_LABEL == 255
