from pathlib import Path

import numpy as np
import pytest

from oracles import fd_gradient, max_rel_err, naive_majority_downsample
from segconv.data import IGNORE_LABEL, gen_thin_structures
from segconv.hdc import DilationSchedule, coverage_report, footprint
from segconv.tensor import Rng
from segconv.train import (
    SgdConfig,
    ToyNet,
    TrainingDiverged,
    evaluate,
    load_net,
    majority_downsample,
    miou,
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


def test_sgd_config_validation():
    with pytest.raises(ValueError):
        SgdConfig(momentum=1.0)
    with pytest.raises(ValueError):
        SgdConfig(power=0.0)
    with pytest.raises(ValueError):
        SgdConfig(base_lr=-1e-3)


# -- the SGD update --------------------------------------------------------------


def test_sgd_zero_grad_zero_wd_leaves_params():
    p = {"w": np.array([1.0, -2.0])}
    g = {"w": np.zeros(2)}
    state = {}
    cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0, max_iter=10)
    sgd_step(p, g, state, cfg, 0)
    assert np.array_equal(p["w"], [1.0, -2.0])


def test_sgd_single_step_expansion():
    p = {"w": np.array([2.0])}
    g = {"w": np.array([0.5])}
    cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.01, max_iter=1)
    sgd_step(p, g, {}, cfg, 0)
    assert p["w"][0] == 2.0 - 0.1 * (0.5 + 0.01 * 2.0)


def test_sgd_two_steps_match_hand_unrolled_recurrence():
    # scalar run with constant gradient, no decay on lr (power irrelevant at it 0)
    cfg = SgdConfig(base_lr=0.1, momentum=0.9, weight_decay=0.0, max_iter=100)
    p = {"w": np.array([1.0])}
    state = {}
    sgd_step(p, {"w": np.array([0.5])}, state, cfg, 0)
    assert p["w"][0] == 1.0 - 0.1 * 0.5  # v1 = -0.05
    lr1 = poly_lr(1, cfg)
    sgd_step(p, {"w": np.array([0.5])}, state, cfg, 1)
    v2 = 0.9 * (-0.05) - lr1 * 0.5
    assert p["w"][0] == 0.95 + v2


def test_sgd_shape_mismatch_rejected():
    cfg = SgdConfig(max_iter=1)
    with pytest.raises(ValueError):
        sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, {}, cfg, 0)


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


def test_loss_stays_finite_for_extreme_logits():
    logits = np.zeros((1, 3, 1, 1))
    logits[0, 0, 0, 0] = 1e4  # true-class probability underflows to 0
    labels = np.array([[1]], dtype=np.int64)
    loss, grad = softmax_ce_loss(logits, labels)
    assert np.isfinite(loss) and loss > 9e3
    assert np.all(np.isfinite(grad))


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


@pytest.mark.parametrize("cell", (2, 4))
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


def test_miou_perfect_prediction():
    labels = np.array([[0, 1], [2, 1]], dtype=np.int64)
    per, mean = miou(labels.copy(), labels, 3)
    assert per == [1.0, 1.0, 1.0] and mean == 1.0


def test_miou_disjoint_masks_zero():
    labels = np.array([[1, 1], [0, 0]], dtype=np.int64)
    preds = np.array([[0, 0], [1, 1]], dtype=np.int64)
    per, mean = miou(preds, labels, 2)
    assert per == [0.0, 0.0] and mean == 0.0


def test_miou_hand_tallied_confusion():
    # 4x4, two classes, one pixel wrong each way:
    # class 0: TP 7, FP 1, FN 1 -> 7/9; class 1 symmetric -> 7/9
    labels = np.zeros((4, 4), dtype=np.int64)
    labels[2:, :] = 1
    preds = labels.copy()
    preds[0, 0] = 1
    preds[3, 3] = 0
    per, mean = miou(preds, labels, 2)
    assert per == [7 / 9, 7 / 9]
    assert mean == 7 / 9


def test_miou_absent_class_excluded_from_mean():
    labels = np.zeros((2, 2), dtype=np.int64)
    preds = np.zeros((2, 2), dtype=np.int64)
    per, mean = miou(preds, labels, 3)
    assert per[0] == 1.0 and np.isnan(per[1]) and np.isnan(per[2])
    assert mean == 1.0


def test_miou_respects_ignore():
    labels = np.array([[0, IGNORE_LABEL]], dtype=np.int64)
    preds = np.array([[0, 1]], dtype=np.int64)
    per, mean = miou(preds, labels, 2)
    assert per[0] == 1.0 and np.isnan(per[1])


# -- the toy net --------------------------------------------------------------------


def test_encoder_downsamples_exactly_by_d():
    for d in (2, 4):
        net = small_net(d=d)
        x = np.full((1, 1, 16, 16), 0.2)
        cur = (x - net.INPUT_OFFSET) * net.INPUT_SCALE
        from segconv.conv import conv2d_forward

        for layer in net.encoder_layers:
            cur = np.tanh(conv2d_forward(cur, layer))
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
    grads = net.backward(cache, grad_logits)

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
    assert 0 <= err.value.iteration < 300
    assert np.isfinite(err.value.lr)


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


def test_evaluate_oracle_mode_perfect():
    data = gen_thin_structures(3, 16, 16, 1, 3, Rng(10))
    per, mean = evaluate(small_net(), data, oracle=True)
    assert mean == 1.0


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
