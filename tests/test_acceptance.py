"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracles import fd_gradient, max_rel_err
from segconv.cli import EXIT_INVALID, EXIT_OK, main as cli_main
from segconv.conv import (
    ConvLayer,
    ConvSpec,
    TransposedConvSpec,
    conv2d_backward,
    conv2d_forward,
    transposed_conv_backward,
    transposed_conv_forward,
)
from segconv.data import gen_thin_structures
from segconv.hdc import (DilationSchedule, coverage_report, footprint, max_distance,
                         rf_increase_for_rates)
from segconv.tensor import Rng, he_init
from segconv.train import SgdConfig, ToyNet, evaluate, softmax_ce_loss, train
from segconv.upsample import (
    DucSpec,
    duc_backward,
    duc_forward,
    duc_rearrange,
    duc_rearrange_inverse,
    duc_weights_from_transposed,
)

RUNLOG = json.loads(
    (Path(__file__).parent / "data" / "decoder_comparison_runlog.json").read_text()
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {num}: {label}")
        raise
    print(f"PASS criterion {num}: {label}")


def test_criterion_1_worked_example_fidelity(capsys):
    with criterion(1, "worked examples: [1,2,5] valid with M2=2, [1,2,9] invalid with M2=5"):
        t0 = time.time()
        code_ok = cli_main(["check", "--rates", "1,2,5", "--kernel", "3"])
        code_bad = cli_main(["check", "--rates", "1,2,9", "--kernel", "3"])
        elapsed = time.time() - t0
        lines = capsys.readouterr().out.strip().splitlines()
        ok, bad = json.loads(lines[0]), json.loads(lines[1])
        assert code_ok == EXIT_OK and ok["valid"] is True and ok["M_values"][0] == 2
        assert code_bad == EXIT_INVALID and bad["valid"] is False and bad["M_values"][0] == 5
        assert isinstance(ok["M_values"][0], int) and isinstance(bad["M_values"][0], int)
        assert elapsed < 1.0


def test_criterion_2_gridding_figure():
    with criterion(2, "single dilated layer K=3 r=2 uses 9 of 25 pixels"):
        fp = footprint(DilationSchedule(rates=(2,), kernel=3))
        assert fp.side == 5
        assert int(np.count_nonzero(np.outer(fp.line, fp.line))) == 9
        holes, coverage, _ = coverage_report(fp)
        assert coverage == 0.36 and holes == 16


def test_criterion_3_rf_accounting():
    with criterion(3, "ramped 23+3 block config totals RF increase 116 exactly"):
        ramped = [1] * 7 + [2] * 7 + [3] * 7 + [2, 2, 3, 4, 5]
        assert rf_increase_for_rates(ramped, 3) == 116
        # the flat and wide variants are reported under the same convention;
        # published totals for them (54, 256) follow some other accounting,
        # so they are printed for inspection, not asserted
        flat = rf_increase_for_rates([1] * 26, 3)
        wide = rf_increase_for_rates(
            [1] * 5 + [2] * 5 + [5] * 5 + [9] * 5 + [1, 2, 5, 5, 9, 17], 3)
        print(f"  rf accounting: ramped=116 flat={flat} wide={wide} "
              f"(convention: sum of (K-1)*r per conv)")


def test_criterion_4_soundness_sweep():
    with criterion(4, "every analytically valid schedule in the sweep is hole-free"):
        t0 = time.time()
        cases = 0
        for k in (3, 5):
            for n in (2, 3, 4):
                for rates in itertools.product(range(1, 7), repeat=n):
                    cases += 1
                    sched = DilationSchedule(rates=rates, kernel=k)
                    _, valid = max_distance(sched)
                    if valid:
                        assert footprint(sched).holes() == 0, (rates, k)
        elapsed = time.time() - t0
        assert cases == 2 * (6 ** 2 + 6 ** 3 + 6 ** 4)
        assert elapsed < 60.0


def test_criterion_5_footprint_invariance_and_mass():
    with criterion(5, "200 random schedules: permutation-equal footprints, mass K^(2n)"):
        rng = Rng(2024)
        for _ in range(200):
            n = 1 + rng.randint(4)
            k = (3, 5)[rng.randint(2)]
            rates = [1 + rng.randint(6) for _ in range(n)]
            sched = DilationSchedule(rates=tuple(rates), kernel=k)
            fp = footprint(sched)
            assert fp.total() == k ** (2 * n)
            perm = list(rates)
            for i in range(len(perm) - 1, 0, -1):
                j = rng.randint(i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            fp_p = footprint(DilationSchedule(rates=tuple(perm), kernel=k))
            assert np.array_equal(np.outer(fp.line, fp.line),
                                  np.outer(fp_p.line, fp_p.line))


def _fd_conv_instance(rng, tol):
    c_in, c_out = 1 + rng.randint(2), 1 + rng.randint(2)
    k = (1, 3)[rng.randint(2)]
    r = 1 if k == 1 else 1 + rng.randint(3)
    pad = r * (k - 1) // 2
    h, w = 5 + rng.randint(3), 5 + rng.randint(3)
    x = he_init((1, c_in, h, w), 3, rng)
    layer = ConvLayer.initialized(
        ConvSpec(k=k, r=r, stride=1, c_in=c_in, c_out=c_out, pad=pad), rng)
    layer.bias[:] = rng.normal(c_out)
    g = he_init((1, c_out) + layer.spec.out_size(h, w), 1, rng)

    def obj():
        return float(np.sum(conv2d_forward(x, layer)[0] * g))

    _, taps = conv2d_forward(x, layer)
    gx, gw, gb = conv2d_backward(x, layer, g, taps)
    assert max_rel_err(gx, fd_gradient(obj, x)) < tol
    assert max_rel_err(gw, fd_gradient(obj, layer.weights)) < tol
    assert max_rel_err(gb, fd_gradient(obj, layer.bias)) < tol


def _fd_tconv_instance(rng, tol):
    c_in, c_out = 1 + rng.randint(2), 1 + rng.randint(2)
    s = 2
    layer = ConvLayer.initialized(
        TransposedConvSpec(k=4, stride=s, c_in=c_in, c_out=c_out, pad=1), rng)
    layer.bias[:] = rng.normal(c_out)
    h, w = 3 + rng.randint(2), 3 + rng.randint(2)
    x = he_init((1, c_in, h, w), 2, rng)
    g = he_init((1, c_out) + layer.spec.out_size(h, w), 1, rng)

    def obj():
        return float(np.sum(transposed_conv_forward(x, layer) * g))

    gx, gw, gb = transposed_conv_backward(x, layer, g)
    assert max_rel_err(gx, fd_gradient(obj, x)) < tol
    assert max_rel_err(gw, fd_gradient(obj, layer.weights)) < tol
    assert max_rel_err(gb, fd_gradient(obj, layer.bias)) < tol


def _fd_duc_instance(rng, tol):
    c_in = 1 + rng.randint(3)
    spec = DucSpec(d=(2, 4)[rng.randint(2)], classes=2 + rng.randint(2), cell=1)
    layer = ConvLayer.initialized(
        ConvSpec(k=3, r=1, stride=1, c_in=c_in, c_out=spec.conv_channels, pad=1), rng)
    layer.bias[:] = rng.normal(spec.conv_channels)
    h, w = 2 + rng.randint(3), 2 + rng.randint(3)
    feats = he_init((1, c_in, h, w), 2, rng)
    g = he_init((1, spec.classes, h * spec.s, w * spec.s), 1, rng)

    def obj():
        return float(np.sum(duc_forward(feats, layer, spec)[0] * g))

    _, taps = duc_forward(feats, layer, spec)
    gx, gw, gb = duc_backward(feats, layer, spec, g, taps)
    assert max_rel_err(gx, fd_gradient(obj, feats)) < tol
    assert max_rel_err(gw, fd_gradient(obj, layer.weights)) < tol
    assert max_rel_err(gb, fd_gradient(obj, layer.bias)) < tol


def _fd_loss_instance(rng, tol):
    n_classes = 2 + rng.randint(3)
    h, w = 2 + rng.randint(2), 2 + rng.randint(2)
    logits = rng.normal(n_classes * h * w).reshape(1, n_classes, h, w)
    labels = np.array([[rng.randint(n_classes) for _ in range(w)] for _ in range(h)],
                      dtype=np.int64)

    def obj():
        return softmax_ce_loss(logits, labels)[0]

    _, grad = softmax_ce_loss(logits, labels)
    assert max_rel_err(grad, fd_gradient(obj, logits)) < tol


def test_criterion_6_gradient_suite():
    with criterion(6, "finite-difference suite: conv, transposed conv, duc, loss, full net"):
        tol = 1e-4
        for seed in range(20):
            _fd_conv_instance(Rng(3000 + seed), tol)
            _fd_tconv_instance(Rng(4000 + seed), tol)
            _fd_duc_instance(Rng(5000 + seed), tol)
            _fd_loss_instance(Rng(6000 + seed), tol)

        # full net at 1e-3 on 50 sampled parameters, 16x16 input
        sample = gen_thin_structures(1, 16, 16, 1, 3, Rng(5))[0]
        sched = DilationSchedule(rates=(1, 2, 3), kernel=3)
        net = ToyNet.build(d=4, schedule=sched, decoder="duc", classes=3,
                           seed=3, width=4)
        params = net.params()
        logits, cache = net.forward(sample.image)
        loss, grad_logits = softmax_ce_loss(logits, sample.labels)
        grads = net.backward(cache, grad_logits,
                             net.param_views(np.empty_like(net.flat)))

        def net_loss():
            lg, _ = net.forward(sample.image)
            return softmax_ce_loss(lg, sample.labels)[0]

        rng = Rng(123)
        names = sorted(params)
        h = 1e-6
        for _ in range(50):
            name = names[rng.randint(len(names))]
            arr = params[name]
            idx = np.unravel_index(rng.randint(arr.size), arr.shape)
            orig = arr[idx]
            arr[idx] = orig + h
            hi = net_loss()
            arr[idx] = orig - h
            lo = net_loss()
            arr[idx] = orig
            fd = (hi - lo) / (2 * h)
            an = grads[name][idx]
            assert abs(an - fd) / max(abs(an), abs(fd), 1e-8) < 1e-3


def test_criterion_7_duc_expressiveness():
    with criterion(7, "duc weights reproduce non-overlapping transposed conv bitwise"):
        for seed in range(20):
            rng = Rng(7000 + seed)
            d = (2, 4)[rng.randint(2)]
            c_in = 1 + rng.randint(4)
            classes = 2 + rng.randint(3)
            tlayer = ConvLayer.initialized(
                TransposedConvSpec(k=d, stride=d, c_in=c_in, c_out=classes, pad=0),
                rng)
            tlayer.bias[:] = rng.normal(classes)
            feats = he_init((1 + rng.randint(2), c_in, 2 + rng.randint(4),
                             2 + rng.randint(4)), 2, rng)
            want = transposed_conv_forward(feats, tlayer)
            clayer, duc_spec = duc_weights_from_transposed(tlayer)
            got = duc_forward(feats, clayer, duc_spec)[0]
            assert np.array_equal(got, want)


def test_criterion_8_decoder_comparison():
    cfg = RUNLOG["config"]
    floor = RUNLOG["frozen_margin_floor"]
    with criterion(8, f"thin-structure decode: duc beats bilinear by >= {floor}"):
        t0 = time.time()
        sched = DilationSchedule(rates=tuple(cfg["schedule"]), kernel=cfg["kernel"])
        train_data = gen_thin_structures(cfg["train_size"], cfg["size"], cfg["size"],
                                         cfg["thickness"], cfg["classes"],
                                         Rng(cfg["train_data_seed"]))
        eval_data = gen_thin_structures(cfg["eval_size"], cfg["size"], cfg["size"],
                                        cfg["thickness"], cfg["classes"],
                                        Rng(cfg["eval_data_seed"]))
        sgd = SgdConfig(base_lr=cfg["base_lr"], power=cfg["power"],
                        max_iter=cfg["iters"], momentum=cfg["momentum"],
                        weight_decay=cfg["weight_decay"], batch=cfg["batch"],
                        seed=cfg["net_seed"])
        thin = {}
        for dec in ("duc", "bilinear", "deconv"):
            net = ToyNet.build(d=cfg["d"], schedule=sched, decoder=dec,
                               classes=cfg["classes"], seed=cfg["net_seed"],
                               width=cfg["width"])
            train(net, train_data, sgd)
            per, mean = evaluate(net, eval_data)
            thin[dec] = per[1]
            print(f"  {dec}: thin IoU {per[1]:.4f}, mIoU {mean:.4f}")
        elapsed = time.time() - t0
        margin = thin["duc"] - thin["bilinear"]
        print(f"  margin duc-bilinear {margin:.4f} (floor {floor}); "
              f"deconv thin {thin['deconv']:.4f} recorded alongside; {elapsed:.0f}s")
        assert margin >= floor
        assert elapsed < 300.0
        # self-consistency of the committed run log
        assert RUNLOG["thin_class_margin"] >= floor


def test_criterion_9_pipeline_determinism(tmp_path):
    with criterion(9, "identical seeds give byte-identical CSV/JSON/PGM artifacts"):
        def pipeline(root: Path):
            root.mkdir(parents=True, exist_ok=True)
            assert cli_main(["footprint", "--rates", "1,2,3", "--kernel", "3",
                             "--out", str(root / "fp.pgm"), "--format", "pgm"]) == EXIT_OK
            assert cli_main(["footprint", "--rates", "2,2,2", "--kernel", "3",
                             "--out", str(root / "fp.json"), "--format", "json"]) == EXIT_OK
            assert cli_main(["footprint", "--rates", "1,2,5", "--kernel", "3",
                             "--out", str(root / "fp.csv"), "--format", "csv"]) == EXIT_OK
            assert cli_main(["train", "--decoder", "duc", "--seed", "5",
                             "--iters", "30", "--train-size", "4", "--size", "16",
                             "--out", str(root / "run")]) == EXIT_OK
            assert cli_main(["eval", "--net", str(root / "run"),
                             "--eval-size", "4", "--size", "16",
                             "--out", str(root / "metrics")]) == EXIT_OK

        pipeline(tmp_path / "a")
        pipeline(tmp_path / "b")
        compared = 0
        for path_a in sorted((tmp_path / "a").rglob("*")):
            if path_a.is_dir():
                continue
            rel = path_a.relative_to(tmp_path / "a")
            path_b = tmp_path / "b" / rel
            assert path_b.exists(), rel
            assert path_a.read_bytes() == path_b.read_bytes(), rel
            compared += 1
        assert compared >= 8  # pgm, json, csv, loss curve, config, net files, metrics


def test_criterion_10_rearrangement_bijectivity():
    with criterion(10, "sub-pixel rearrangement round-trips bit-exactly"):
        rng = Rng(10)
        for d in (1, 2, 4, 8):
            for cell in (1, 2):
                if d % cell:
                    continue
                for classes in (2, 3, 19):
                    spec = DucSpec(d=d, classes=classes, cell=cell)
                    x = he_init((2, spec.conv_channels, 3, 4), 2, rng)
                    back = duc_rearrange_inverse(duc_rearrange(x, spec), spec)
                    assert np.array_equal(back, x)
