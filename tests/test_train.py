import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (fd_gradient, max_rel_err, naive_majority_downsample, naive_sgd_step,
                     naive_softmax_ce)
from segconv.data import IGNORE_LABEL, gen_thin_structures
from segconv.hdc import DilationSchedule, coverage_report, footprint
from segconv.tensor import Rng
from segconv.train import (
    SgdConfig,
    ToyNet,
    TrainingDiverged,
    _class_argmax,
    _class_offsets,
    evaluate,
    load_net,
    majority_downsample,
    poly_lr,
    save_net,
    sgd_step,
    softmax_ce_loss,
    train,
)

SCHEDULE = DilationSchedule(rates=(1, 2, 3), kernel=3)


def small_net(decoder="duc", seed=0, width=4, d=4, cell=1):
    return ToyNet.build(d=d, schedule=SCHEDULE, decoder=decoder, classes=3,
                        seed=seed, width=width, cell=cell)


# -- learning-rate schedule ------------------------------------------------------


def test_poly_lr_endpoints_and_midpoint():
    cfg = SgdConfig(base_lr=2.5e-4, power=0.9, max_iter=100)
    assert poly_lr(0, cfg) == 2.5e-4
    assert poly_lr(100, cfg) == 0.0
    assert poly_lr(50, cfg) == 2.5e-4 * 0.5 ** 0.9


def test_poly_lr_rejects_out_of_range_iteration():
    cfg = SgdConfig(max_iter=10)
    with pytest.raises(ValueError):
        poly_lr(11, cfg)
    with pytest.raises(ValueError):
        poly_lr(-1, cfg)
    with pytest.raises(ValueError, match="empty schedule"):
        poly_lr(0, SgdConfig(max_iter=0))


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(momentum=1.0)
    with pytest.raises(ValueError):
        SgdConfig(power=0.0)
    with pytest.raises(ValueError):
        SgdConfig(base_lr=-1e-3)
    for field in ("base_lr", "weight_decay"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SgdConfig(**{field: value})


# -- the SGD update --------------------------------------------------------------


def test_sgd_zero_grad_zero_wd_leaves_params():
    p = np.array([1.0, -2.0])
    cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0, max_iter=10)
    sgd_step(p, np.zeros(2), np.zeros(2), cfg, 0)
    assert np.array_equal(p, [1.0, -2.0])


def test_sgd_single_step_expansion():
    p = np.array([2.0])
    cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.01, max_iter=1)
    sgd_step(p, np.array([0.5]), np.zeros(1), cfg, 0)
    assert p[0] == 2.0 - 0.1 * (0.5 + 0.01 * 2.0)


def test_sgd_two_steps_match_hand_unrolled_recurrence():
    # scalar run with constant gradient, no decay on lr (power irrelevant at it 0)
    cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0, max_iter=100)
    p, v = np.array([1.0]), np.zeros(1)
    sgd_step(p, np.array([0.5]), v, cfg, 0)
    assert p[0] == 1.0 - 0.1 * 0.5  # v1 = -0.05
    lr1 = poly_lr(1, cfg)
    sgd_step(p, np.array([0.5]), v, cfg, 1)
    v2 = 0.9 * (-0.05) - lr1 * 0.5
    assert p[0] == 0.95 + v2


def test_sgd_shape_mismatch_rejected():
    cfg = SgdConfig(max_iter=1)
    with pytest.raises(ValueError, match="shape mismatch"):
        sgd_step(np.zeros(2), np.zeros(3), np.zeros(2), cfg, 0)
    with pytest.raises(ValueError, match="shape mismatch"):
        sgd_step(np.zeros(2), np.zeros(2), np.zeros(3), cfg, 0)


def test_sgd_step_over_the_flat_vector_matches_per_parameter_updates():
    # train updates the net's one flat vector; the update is elementwise, so
    # it must equal the per-array loop bit for bit
    net = small_net(seed=5)
    ref = {k: v.copy() for k, v in net.params().items()}
    cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=5e-4, max_iter=10)
    grad = np.empty_like(net.flat)
    grads = net.param_views(grad)
    velocity, ref_state = np.zeros_like(net.flat), {}
    rng = Rng(6)
    for it in range(3):
        grad[:] = rng.normal(grad.size)
        naive_sgd_step(ref, grads, ref_state, poly_lr(it, cfg), cfg.momentum,
                       cfg.weight_decay)
        sgd_step(net.flat, grad, velocity, cfg, it)
    for name, p in net.params().items():
        assert p.tobytes() == ref[name].tobytes(), name


# -- loss --------------------------------------------------------------------------


def test_uniform_logits_loss_is_log_classes_per_pixel():
    logits = np.zeros((1, 3, 4, 4))
    labels = np.zeros((4, 4), dtype=np.int64)
    loss, _ = softmax_ce_loss(logits, labels)
    assert abs(loss - 16 * np.log(3)) < 1e-12


def test_all_ignored_pixels_zero_loss_and_grad():
    logits = np.ones((1, 3, 2, 2))
    labels = np.full((2, 2), IGNORE_LABEL, dtype=np.int64)
    loss, grad = softmax_ce_loss(logits, labels)
    assert loss == 0.0
    assert not grad.any()


def test_partial_ignore_skips_those_pixels():
    rng = Rng(1)
    logits = rng.normal(1 * 3 * 2 * 2).reshape(1, 3, 2, 2)
    labels = np.array([[0, IGNORE_LABEL], [2, 1]], dtype=np.int64)
    loss, grad = softmax_ce_loss(logits, labels)
    assert np.all(grad[0, :, 0, 1] == 0.0)
    assert loss > 0.0


def test_loss_gradient_matches_finite_differences():
    rng = Rng(2)
    logits = rng.normal(12).reshape(1, 3, 2, 2)
    labels = np.array([[0, 2], [1, 1]], dtype=np.int64)

    def objective():
        return softmax_ce_loss(logits, labels)[0]

    _, grad = softmax_ce_loss(logits, labels)
    fd = fd_gradient(objective, logits, step=1e-5)
    assert max_rel_err(grad, fd) < 1e-5


def test_mean_reduction_divides_by_pixel_count():
    logits = np.zeros((1, 3, 4, 4))
    labels = np.zeros((4, 4), dtype=np.int64)
    summed, gs = softmax_ce_loss(logits, labels, mean=False)
    meaned, gm = softmax_ce_loss(logits, labels, mean=True)
    assert abs(summed - 16 * meaned) < 1e-12
    assert np.allclose(gs, 16 * gm, rtol=0, atol=1e-15)


def test_label_out_of_range_rejected():
    logits = np.zeros((1, 3, 2, 2))
    labels = np.full((2, 2), 3, dtype=np.int64)
    with pytest.raises(ValueError):
        softmax_ce_loss(logits, labels)


@pytest.mark.parametrize("labels", [
    [[0, 1], [-1, 2]],  # below 0
    [[3, IGNORE_LABEL], [IGNORE_LABEL, 0]],  # == L, next to ignored pixels
])
def test_label_outside_the_classes_rejected(labels):
    with pytest.raises(ValueError, match="outside 0..2"):
        softmax_ce_loss(np.zeros((1, 3, 2, 2)), np.array(labels, dtype=np.int64))


def test_ignore_label_stays_ignored_with_more_classes_than_it():
    # with 300 classes, 255 is below L; a plain >= L compare would score it
    logits = 3.0 * Rng(5).normal(300 * 6).reshape(1, 300, 2, 3)
    labels = np.array([[[IGNORE_LABEL, 0, 299], [256, IGNORE_LABEL, 254]]], dtype=np.int64)
    loss, grad = softmax_ce_loss(logits, labels)
    want_loss, want_grad = naive_softmax_ce(logits, labels, IGNORE_LABEL)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.abs(grad - want_grad).max() <= 1e-12
    assert not grad[0, :, 0, 0].any() and not grad[0, :, 1, 1].any()


def test_class_offsets_are_cached_read_only():
    # one array serves every loss of the same geometry; a write would move
    # every later true-class read of that shape
    off = _class_offsets(2, 3, 1024)
    assert off is _class_offsets(2, 3, 1024)
    assert off.tolist() == [n * 3 * 1024 + p for n in range(2) for p in range(1024)]
    with pytest.raises(ValueError):
        off[0] = 1


def test_loss_stays_finite_for_extreme_logits():
    logits = np.zeros((1, 3, 1, 1))
    logits[0, 0, 0, 0] = 1e4  # true-class probability underflows to 0
    labels = np.array([[1]], dtype=np.int64)
    loss, grad = softmax_ce_loss(logits, labels)
    assert np.isfinite(loss) and loss > 9e3
    assert np.all(np.isfinite(grad))


def loss_case(seed, n, classes, ignored, scale=3.0, plane=(3, 5)):
    """Seeded (logits, labels) on h x w planes (3x5 by default): logits
    scale * N(0, 1), labels uniform over the classes, then each pixel set to
    IGNORE_LABEL with probability `ignored` (1.0 ignores them all)."""
    rng = Rng(seed)
    hw = plane[0] * plane[1]
    logits = scale * rng.normal(n * classes * hw).reshape(n, classes, *plane)
    first = rng.reserve(2 * n * hw)
    raw = rng.draws_at(np.arange(first, first + 2 * n * hw, dtype=np.uint64))
    labels = (raw[: n * hw] % np.uint64(classes)).astype(np.int64)
    uniform = (raw[n * hw :] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    labels[uniform < ignored] = IGNORE_LABEL
    return logits, labels.reshape(n, *plane)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("classes", [2, 3, 5])
@pytest.mark.parametrize("ignored", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("mean", [False, True])
def test_loss_matches_the_per_pixel_oracle(n, classes, ignored, mean):
    logits, labels = loss_case(100 * n + classes, n, classes, ignored)
    loss, grad = softmax_ce_loss(logits, labels, mean=mean)
    want_loss, want_grad = naive_softmax_ce(logits, labels, IGNORE_LABEL, mean=mean)
    assert abs(loss - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
    assert np.abs(grad - want_grad).max() <= 1e-12
    if ignored == 1.0:
        assert loss == 0.0 and not grad.any()


def test_loss_of_non_c_ordered_logits_equals_the_c_ordered_one():
    # the true class is read and written through a flat C-order index
    logits, labels = loss_case(31, 2, 3, 0.4)
    want_loss, want_grad = softmax_ce_loss(logits, labels)
    for other in (np.asfortranarray(logits),
                  np.flip(np.flip(logits, 3).copy(), 3),
                  np.pad(logits, ((0, 0), (0, 0), (0, 0), (0, 2)))[..., :5]):
        loss, grad = softmax_ce_loss(other, labels)
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes()


# (seed, n, classes, ignored share, logit scale, mean, plane) -> repr of the
# loss and the first 16 hex digits of the sha256 of the gradient's bytes. The
# 3x5 cases were recorded before softmax_ce_loss took its one-flat-index form,
# the 32x32 ones (criterion 8's training plane) before its one-compare label
# check; both rewrites kept every bit, and so must any later one.
LOSS_BITS = {
    (102, 1, 2, 0.0, 3.0, False, (3, 5)): ("29.88967964634145", "66ebd5923d52a2f0"),
    (102, 1, 2, 0.4, 3.0, True, (3, 5)): ("2.2345692586040307", "eace536e3a2063c9"),
    (103, 1, 3, 0.0, 3.0, False, (3, 5)): ("28.843372221813663", "8ca4bd24ad863765"),
    (103, 1, 3, 0.4, 3.0, True, (3, 5)): ("1.337012167409401", "c2925a41dd2d1dc6"),
    (105, 1, 5, 0.0, 3.0, False, (3, 5)): ("73.17188733792165", "be318756e3280101"),
    (105, 1, 5, 0.4, 3.0, True, (3, 5)): ("4.706131577190444", "e6c8bdcf738d5612"),
    (202, 2, 2, 0.0, 3.0, False, (3, 5)): ("32.293341162600335", "e3b3531c8ad60fae"),
    (202, 2, 2, 0.4, 3.0, True, (3, 5)): ("1.0952128801571739", "4a63fd8da8453ab8"),
    (203, 2, 3, 0.0, 3.0, False, (3, 5)): ("66.1109755541612", "a092645c53040216"),
    (203, 2, 3, 0.4, 3.0, True, (3, 5)): ("2.9884560640011673", "02c69686eb27ef58"),
    (205, 2, 5, 0.0, 3.0, False, (3, 5)): ("123.01799866781145", "108c9262a895cf1b"),
    (205, 2, 5, 0.4, 3.0, True, (3, 5)): ("3.8417260202184194", "5ee96a651389658e"),
    (7, 1, 3, 0.0, 300.0, False, (3, 5)): ("4375.433426606831", "f20120a5a0f587b7"),
    (8, 2, 5, 0.4, 300.0, True, (3, 5)): ("235.3687462802102", "ebdc9cf0b1f760b7"),
    (9, 2, 3, 1.0, 3.0, False, (3, 5)): ("0.0", "fe2f74a1e0b16a66"),
    (10, 1, 2, 1.0, 3.0, True, (3, 5)): ("0.0", "2dfba633817046c7"),
    (3210, 1, 3, 0.0, 3.0, False, (32, 32)): ("2972.848810395999", "38b4b9d5068809ad"),
    (3210, 1, 3, 0.0, 3.0, True, (32, 32)): ("2.9031726664023427", "2155ca351fda6915"),
    (3214, 1, 3, 0.4, 3.0, False, (32, 32)): ("1845.3540539362193", "2a9199933fdf99d1"),
    (3214, 1, 3, 0.4, 3.0, True, (32, 32)): ("2.981185870656251", "b48cdf7640ecc62d"),
    (3220, 2, 3, 0.0, 3.0, False, (32, 32)): ("5942.612600071057", "805074d7a5f15a1c"),
    (3220, 2, 3, 0.0, 3.0, True, (32, 32)): ("2.901666308628446", "762228d5fe62615e"),
    (3224, 2, 3, 0.4, 3.0, False, (32, 32)): ("3327.921318808438", "11cecfb9fcc13a76"),
    (3224, 2, 3, 0.4, 3.0, True, (32, 32)): ("2.761760430546422", "5be4d7dbe0d05d19"),
}


def test_loss_bits_match_the_recorded_values():
    assert len(LOSS_BITS) == 24
    for key, want in LOSS_BITS.items():
        seed, n, classes, ignored, scale, mean, plane = key
        loss, grad = softmax_ce_loss(*loss_case(seed, n, classes, ignored, scale, plane),
                                     mean=mean)
        got = (repr(loss), hashlib.sha256(grad.tobytes()).hexdigest()[:16])
        assert got == want, key


# -- label block reduction ---------------------------------------------------------


def test_majority_downsample_votes_and_ignores():
    labels = np.array([
        [1, 1, 0, IGNORE_LABEL],
        [1, 0, IGNORE_LABEL, IGNORE_LABEL],
        [2, 2, IGNORE_LABEL, IGNORE_LABEL],
        [2, 0, IGNORE_LABEL, IGNORE_LABEL],
    ], dtype=np.int64)
    out = majority_downsample(labels, 2)
    assert out.tolist() == [[1, 0], [2, IGNORE_LABEL]]


def test_majority_downsample_tie_goes_to_smaller_label():
    labels = np.array([[1, 2], [2, 1]], dtype=np.int64)
    assert majority_downsample(labels, 2).tolist() == [[1]]


@pytest.mark.parametrize("cell", (1, 2, 4))
def test_majority_downsample_matches_block_loop_oracle(cell):
    # few labels on small blocks make ties common; a high ignore density
    # leaves some blocks with no vote at all
    rng = np.random.default_rng(60 + cell)
    for trial in range(40):
        bh, bw = 1 + rng.integers(5), 1 + rng.integers(5)
        labels = rng.integers(0, 1 + rng.integers(4), size=(bh * cell, bw * cell))
        labels[rng.random(labels.shape) < rng.random()] = IGNORE_LABEL
        got = majority_downsample(labels, cell)
        want = naive_majority_downsample(labels, cell, IGNORE_LABEL)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), trial


# -- mIoU ---------------------------------------------------------------------------


def evaluate_fixed(preds, labels, classes):
    """evaluate() of one sample through a net whose prediction is fixed (and
    whose d = 1 divides any image side)."""
    net = SimpleNamespace(classes=classes, d=1, predict=lambda image: preds)
    image = np.zeros((1, 1) + labels.shape)
    return evaluate(net, [SimpleNamespace(image=image, labels=labels)])


def test_miou_perfect_prediction():
    labels = np.array([[0, 1], [2, 1]], dtype=np.int64)
    per, mean = evaluate_fixed(labels.copy(), labels, 3)
    assert per == [1.0, 1.0, 1.0] and mean == 1.0


def test_miou_disjoint_masks_zero():
    labels = np.array([[1, 1], [0, 0]], dtype=np.int64)
    preds = np.array([[0, 0], [1, 1]], dtype=np.int64)
    per, mean = evaluate_fixed(preds, labels, 2)
    assert per == [0.0, 0.0] and mean == 0.0


def test_miou_hand_tallied_confusion():
    # 4x4, two classes, one pixel wrong each way:
    # class 0: TP 7, FP 1, FN 1 -> 7/9; class 1 symmetric -> 7/9
    labels = np.zeros((4, 4), dtype=np.int64)
    labels[2:, :] = 1
    preds = labels.copy()
    preds[0, 0] = 1
    preds[3, 3] = 0
    per, mean = evaluate_fixed(preds, labels, 2)
    assert per == [7 / 9, 7 / 9]
    assert mean == 7 / 9


def test_miou_absent_class_excluded_from_mean():
    labels = np.zeros((2, 2), dtype=np.int64)
    preds = np.zeros((2, 2), dtype=np.int64)
    per, mean = evaluate_fixed(preds, labels, 3)
    assert per[0] == 1.0 and np.isnan(per[1]) and np.isnan(per[2])
    assert mean == 1.0


def test_miou_respects_ignore():
    labels = np.array([[0, IGNORE_LABEL]], dtype=np.int64)
    preds = np.array([[0, 1]], dtype=np.int64)
    per, mean = evaluate_fixed(preds, labels, 2)
    assert per[0] == 1.0 and np.isnan(per[1])


# -- the toy net --------------------------------------------------------------------


def test_encoder_downsamples_exactly_by_d():
    for d in (2, 4):
        net = small_net(d=d)
        x = np.full((1, 1, 16, 16), 0.2)
        cur = (x - net.INPUT_OFFSET) * net.INPUT_SCALE
        from segconv.conv import conv2d_forward

        for layer in net.encoder_layers:
            cur = np.tanh(conv2d_forward(cur, layer)[0])
        assert cur.shape[2:] == (16 // d, 16 // d)


@pytest.mark.parametrize("decoder", ["duc", "bilinear", "deconv"])
def test_logits_full_resolution(decoder):
    net = small_net(decoder)
    logits, _ = net.forward(np.full((1, 1, 16, 16), 0.3))
    assert logits.shape == (1, 3, 16, 16)


def test_duc_cell2_logits_at_half_resolution():
    net = small_net("duc", cell=2)
    logits, _ = net.forward(np.full((1, 1, 16, 16), 0.3))
    assert logits.shape == (1, 3, 8, 8)
    pred = net.predict(np.full((1, 1, 16, 16), 0.3))
    assert pred.shape == (16, 16)


def test_cell_requires_duc():
    with pytest.raises(ValueError):
        small_net("bilinear", cell=2)


@pytest.mark.parametrize("decoder", ["duc", "bilinear", "deconv"])
def test_full_net_gradients_match_finite_differences(decoder):
    sample = gen_thin_structures(1, 16, 16, 1, 3, Rng(5))[0]
    net = small_net(decoder, seed=3)
    params = net.params()

    logits, cache = net.forward(sample.image)
    loss, grad_logits = softmax_ce_loss(logits, sample.labels)
    grads = net.backward(cache, grad_logits,
                         net.param_views(np.empty_like(net.flat)))

    def loss_fn():
        lg, _ = net.forward(sample.image)
        return softmax_ce_loss(lg, sample.labels)[0]

    rng = Rng(11)
    names = sorted(params)
    h = 1e-6
    for _ in range(10):
        name = names[rng.randint(len(names))]
        arr = params[name]
        idx = np.unravel_index(rng.randint(arr.size), arr.shape)
        orig = arr[idx]
        arr[idx] = orig + h
        hi = loss_fn()
        arr[idx] = orig - h
        lo = loss_fn()
        arr[idx] = orig
        fd = (hi - lo) / (2 * h)
        an = grads[name][idx]
        assert abs(an - fd) / max(abs(an), abs(fd), 1e-8) < 1e-3


@pytest.mark.parametrize("decoder", ["duc", "bilinear", "deconv"])
def test_skipping_the_image_gradient_keeps_every_parameter_gradient(decoder,
                                                                    monkeypatch):
    # the first stage asks conv2d_backward for no image gradient; forcing it
    # on in every conv backward must give the same gradients, bit for bit
    sample = gen_thin_structures(1, 16, 16, 1, 3, Rng(14))[0]
    net = small_net(decoder, seed=5)
    logits, cache = net.forward(sample.image)
    _, grad_logits = softmax_ce_loss(logits, sample.labels)
    skipped = net.backward(cache, grad_logits,
                           net.param_views(np.empty_like(net.flat)))

    asked = []
    train_module = importlib.import_module("segconv.train")  # the package exports train()
    real = train_module.conv2d_backward

    def with_image_gradient(x, layer, g, taps, input_grad=True):
        asked.append(input_grad)
        return real(x, layer, g, taps)

    monkeypatch.setattr(train_module, "conv2d_backward", with_image_gradient)
    forced = net.backward(cache, grad_logits,
                          net.param_views(np.empty_like(net.flat)))
    assert asked.count(False) == 1 and asked[-1] is False  # enc0 runs last
    for name, g in skipped.items():
        assert g.tobytes() == forced[name].tobytes(), name


def test_training_zero_lr_leaves_parameters():
    data = gen_thin_structures(2, 16, 16, 1, 3, Rng(6))
    net = small_net()
    before = {k: v.copy() for k, v in net.params().items()}
    cfg = SgdConfig(base_lr=0.0, max_iter=20, momentum=0.9, weight_decay=5e-4,
                    batch=1, seed=0)
    train(net, data, cfg)
    for k, v in net.params().items():
        assert np.array_equal(v, before[k])


def test_training_determinism_bitwise():
    data = gen_thin_structures(2, 16, 16, 1, 3, Rng(7))
    cfg = SgdConfig(base_lr=2.5e-4, max_iter=30, momentum=0.9,
                    weight_decay=5e-4, batch=2, seed=4)
    c1 = train(small_net(seed=1), data, cfg)
    c2 = train(small_net(seed=1), data, cfg)
    assert c1 == c2


# decoder -> (sha256 of the loss curve's float64 bytes, sha256 of net.flat's
# bytes), each cut to 16 hex digits
TRAINING_BITS = {
    "duc": ("cedb07d518633454", "f98c9a7a6cc906b9"),
    "bilinear": ("90e8e9ae603d0717", "dc0220ef201340d0"),
    "deconv": ("ad5a8becbf5fe609", "76bb6101b4bfa31e"),
}


def test_training_bits_match_the_recorded_hashes():
    """One round of the benchmark's `train` workload at seed 0: criterion 8's
    config (tests/data/decoder_comparison_runlog.json) trained for 16
    iterations per decoder, with max_iter 16. The hashes were recorded with
    numpy 2.4.6 and OpenBLAS 0.3.31 on x86-64, before the bit-identical
    rewrite of the loss, _taps, sgd_step and the tanh derivative; another
    numpy, libm or BLAS kernel may round differently. A change that alters
    the training bits on purpose re-records them and says so in CHANGES.md."""
    cfg = json.loads((Path(__file__).parent / "data" / "decoder_comparison_runlog.json")
                     .read_text())["config"]
    data = gen_thin_structures(cfg["train_size"], cfg["size"], cfg["size"],
                               cfg["thickness"], cfg["classes"], Rng(cfg["train_data_seed"]))
    sgd = SgdConfig(base_lr=cfg["base_lr"], power=cfg["power"], max_iter=16,
                    momentum=cfg["momentum"], weight_decay=cfg["weight_decay"],
                    batch=cfg["batch"], seed=cfg["net_seed"])
    sched = DilationSchedule(rates=tuple(cfg["schedule"]), kernel=cfg["kernel"])
    got = {}
    for dec in ("duc", "bilinear", "deconv"):
        net = ToyNet.build(d=cfg["d"], schedule=sched, decoder=dec, classes=cfg["classes"],
                           seed=cfg["net_seed"], width=cfg["width"])
        curve = np.array(train(net, data, sgd))
        got[dec] = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16]
                         for a in (curve, net.flat))
    assert got == TRAINING_BITS


# Trains one net per decoder at 64x64 and prints each loss curve and the
# sha256 of the net's final flat parameter vector.
_TRAIN_AND_HASH = """
import hashlib, json
from segconv.data import gen_thin_structures
from segconv.hdc import DilationSchedule
from segconv.tensor import Rng
from segconv.train import SgdConfig, ToyNet, train
data = gen_thin_structures(4, 64, 64, 1, 3, Rng(21))
out = {}
for dec in ("duc", "bilinear", "deconv"):
    net = ToyNet.build(d=4, schedule=DilationSchedule(rates=(1, 2, 3), kernel=3),
                       decoder=dec, classes=3, seed=2, width=8)
    curve = train(net, data, SgdConfig(base_lr=2.5e-4, max_iter=30, seed=3))
    out[dec] = [curve, hashlib.sha256(net.flat.tobytes()).hexdigest()]
print(json.dumps(out))
"""


def test_training_is_identical_under_one_and_two_blas_threads():
    # both GEMMs of every conv backward run in BLAS, whose thread count must
    # not change a training run; json round-trips each float exactly
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        done = subprocess.run([sys.executable, "-c", _TRAIN_AND_HASH], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        runs.append(json.loads(done.stdout))
    assert sorted(runs[0]) == ["bilinear", "deconv", "duc"]
    for dec in runs[0]:
        assert len(runs[0][dec][0]) == 30
        assert runs[0][dec] == runs[1][dec], dec


def test_training_requires_data():
    with pytest.raises(ValueError):
        train(small_net(), [], SgdConfig(max_iter=1))


def test_divergence_guard_reports_iteration_and_lr():
    data = gen_thin_structures(1, 16, 16, 1, 3, Rng(5))
    net = small_net()
    cfg = SgdConfig(base_lr=1e8, max_iter=300, momentum=0.9,
                    weight_decay=5e-4, batch=1, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train(net, data, cfg)
    it, lr = re.fullmatch(r"non-finite loss at iteration (\d+) \(lr=(.+)\)",
                          str(err.value)).groups()
    assert 0 <= int(it) < 300
    assert np.isfinite(float(lr))


@pytest.fixture(scope="module")
def overfit_curve():
    # single-sample run shared by the two overfit properties below
    data = gen_thin_structures(1, 32, 32, 1, 3, Rng(17))
    net = ToyNet.build(d=4, schedule=SCHEDULE, decoder="duc", classes=3,
                       seed=0, width=8)
    cfg = SgdConfig(base_lr=2.5e-4, max_iter=600, momentum=0.9,
                    weight_decay=5e-4, batch=1, seed=0)
    return train(net, data, cfg)


def test_single_sample_overfit_reaches_budget(overfit_curve):
    # frozen regression bound: first run met the budget inside 300 iterations
    budget = 0.05 * np.log(3) * 32 * 32
    assert min(overfit_curve[:300]) < budget
    assert overfit_curve[-1] < budget


def test_overfit_loss_monotone_over_windows(overfit_curve):
    for i in range(100, len(overfit_curve) - 200):
        assert overfit_curve[i + 200] <= overfit_curve[i]


@pytest.mark.parametrize("decoder,cell", [("duc", 1), ("bilinear", 1),
                                          ("deconv", 1), ("duc", 2)])
def test_net_save_load_roundtrip(tmp_path, decoder, cell):
    data = gen_thin_structures(1, 16, 16, 1, 3, Rng(9))
    net = small_net(decoder, seed=2, cell=cell)
    cfg = SgdConfig(base_lr=2.5e-4, max_iter=5, momentum=0.9,
                    weight_decay=5e-4, batch=1, seed=0)
    train(net, data, cfg)
    save_net(tmp_path / "net", net)
    back = load_net(tmp_path / "net")
    assert back.decoder == net.decoder and back.d == net.d and back.cell == net.cell
    x = data[0].image
    assert np.array_equal(back.predict(x), net.predict(x))
    la, _ = net.forward(x)
    lb, _ = back.forward(x)
    assert np.array_equal(la, lb)


SAVED_NETS = Path(__file__).parent / "data" / "saved_nets"


@pytest.mark.parametrize("decoder", ["duc", "bilinear", "deconv"])
def test_committed_nets_load_as_built_and_save_byte_identical(tmp_path, decoder):
    # written by save_net for ToyNet.build(d=2, rates (1, 2), kernel 3,
    # classes=3, seed=9, width=2) before load_net went through build(): they
    # pin the net.json and .bin format that older nets were saved in
    back = load_net(SAVED_NETS / decoder)
    net = ToyNet.build(d=2, schedule=DilationSchedule(rates=(1, 2), kernel=3),
                       decoder=decoder, classes=3, seed=9, width=2)
    got, want = back.params(), net.params()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name
    save_net(tmp_path, back)
    for f in sorted((SAVED_NETS / decoder).iterdir()):
        assert (tmp_path / f.name).read_bytes() == f.read_bytes(), f.name


def test_load_net_builds_zero_weights_and_draws_none(monkeypatch):
    # the .bin files fill every weight, so a He draw before them is waste
    net = ToyNet.build(d=2, schedule=DilationSchedule(rates=(1, 2), kernel=3),
                       decoder="deconv", classes=3, seed=None, width=2)
    assert all(not p.any() for p in net.params().values())

    def no_draw(self, n=1):
        raise AssertionError("load_net drew random weights")
    monkeypatch.setattr(Rng, "normal", no_draw)
    for decoder in ("duc", "bilinear", "deconv"):
        load_net(SAVED_NETS / decoder)


def test_params_share_the_nets_flat_vector():
    net = small_net("deconv")
    params = net.params()
    assert sum(p.size for p in params.values()) == net.flat.size
    for name, p in params.items():
        assert np.shares_memory(p, net.flat), name
    net.flat[:] = 7.0
    assert all((L.weights == 7.0).all() and (L.bias == 7.0).all()
               for _, L in net.named_layers())


def test_a_loaded_net_trains_in_place():
    # load_net copies the files into the layers' views of the flat vector;
    # rebinding the layers' arrays would leave the step without effect
    net = load_net(SAVED_NETS / "duc")
    before = net.encoder_layers[0].weights.copy()
    data = gen_thin_structures(1, 16, 16, 1, 3, Rng(12))
    train(net, data, SgdConfig(base_lr=1e-2, max_iter=1))
    assert not np.array_equal(net.encoder_layers[0].weights, before)
    assert np.shares_memory(net.encoder_layers[0].weights, net.flat)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(planes=hnp.array_shapes(min_dims=3, max_dims=3, max_side=6).flatmap(
    lambda shape: hnp.arrays(np.float64, shape, elements=st.sampled_from(
        [-np.inf, -1.5, -0.0, 0.0, 1.5, np.inf, np.nan]) | st.floats(-3, 3))))
def test_class_argmax_equals_numpy_argmax(planes):
    # ties, signed zeros, infinities and NaN: the first maximum wins, and
    # argmax counts NaN as the maximum
    got = _class_argmax(planes)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.argmax(planes, axis=0))


def test_evaluate_keeps_no_taps_or_cache():
    # a training forward keeps each stage's input and taps for the backward;
    # evaluate must leave nothing of the kind on the net or its layers
    net = small_net()
    attrs = {k: v for k, v in vars(net).items()}
    evaluate(net, gen_thin_structures(2, 16, 16, 1, 3, Rng(13)))
    assert vars(net).keys() == attrs.keys()
    assert all(vars(net)[k] is v for k, v in attrs.items())
    for _, layer in net.named_layers():
        assert set(vars(layer)) == {"spec", "weights", "bias"}


def test_evaluate_oracle_mode_perfect():
    data = gen_thin_structures(3, 16, 16, 1, 3, Rng(10))
    per, mean = evaluate(small_net(), data, oracle=True)
    assert mean == 1.0


@pytest.mark.parametrize("run", [
    lambda net, data: evaluate(net, data),
    lambda net, data: train(net, data, SgdConfig(max_iter=1)),
])
def test_an_image_side_that_d_does_not_divide_is_refused_before_any_forward(
        monkeypatch, run):
    def no_forward(*args):
        raise AssertionError("the net ran a forward")

    monkeypatch.setattr(ToyNet, "predict", no_forward)
    monkeypatch.setattr(ToyNet, "forward", no_forward)
    data = gen_thin_structures(2, 32, 32, 1, 3, Rng(3)) + gen_thin_structures(
        1, 33, 33, 1, 3, Rng(4))
    with pytest.raises(ValueError, match=r"^image side 33 is not a multiple of the "
                                         r"net's downsampling factor d=2$"):
        run(small_net(d=2), data)


def test_schedule_coverage_link():
    # the net built with the sawtooth carries a hole-free footprint; a uniform
    # rate-2 stack does not
    net = small_net()
    _, cov, _ = coverage_report(footprint(net.schedule))
    assert cov == 1.0
    uniform = ToyNet.build(d=4, schedule=DilationSchedule(rates=(2, 2, 2), kernel=3),
                           decoder="duc", classes=3, seed=0, width=4)
    _, cov_u, _ = coverage_report(footprint(uniform.schedule))
    assert cov_u < 1.0
