"""Toy end-to-end segmentation harness: a small dilated encoder, one of three
decoders (DUC / bilinear / transposed conv), summed pixelwise cross-entropy,
SGD with momentum and polynomial learning-rate decay, and IoU evaluation.

The network is deliberately tiny (channel widths <= 32, a handful of layers)
so that a full training run takes seconds on a CPU while still exercising the
strided-stem + dilated-body + learned-decoder structure.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .conv import (ConvLayer, ConvSpec, TransposedConvSpec, conv2d_backward, conv2d_forward,
                   same_padding, transposed_conv_backward, transposed_conv_forward)
from .data import IGNORE_LABEL
from .hdc import DilationSchedule
from .tensor import Rng, load_tensor, save_tensor, write_json
from .upsample import DucSpec, bilinear_backward, bilinear_upsample, duc_backward, duc_forward

DECODERS = ("duc", "bilinear", "deconv")


class TrainingDiverged(RuntimeError):
    """Raised when the loss (or a parameter after the last step) is not finite."""

    def __init__(self, iteration: int, lr: float, what: str = "loss"):
        super().__init__(f"non-finite {what} at iteration {iteration} (lr={lr!r})")


@dataclass(frozen=True)
class SgdConfig:
    base_lr: float = 2.5e-4
    power: float = 0.9
    max_iter: int = 1000
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch: int = 1
    seed: int = 0
    mean_loss: bool = False  # summed pixel loss by default; mean is opt-in

    def __post_init__(self):
        for name in ("base_lr", "weight_decay"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.base_lr < 0:
            raise ValueError("base_lr must be >= 0 (0 freezes the parameters)")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.power <= 0:
            raise ValueError("power must be > 0")
        if self.max_iter < 0 or self.batch < 1:
            raise ValueError("max_iter must be >= 0 and batch >= 1")


def poly_lr(iteration: int, cfg: SgdConfig) -> float:
    """base_lr * (1 - iter/max_iter) ** power."""
    if cfg.max_iter == 0:
        raise ValueError("poly_lr of an empty schedule (max_iter 0)")
    if iteration < 0 or iteration > cfg.max_iter:
        raise ValueError(f"iteration {iteration} outside 0..{cfg.max_iter}")
    return cfg.base_lr * (1.0 - iteration / cfg.max_iter) ** cfg.power


def sgd_step(p: np.ndarray, g: np.ndarray, v: np.ndarray, cfg: SgdConfig,
             iteration: int) -> None:
    """In-place momentum update of the parameters p with gradient g and
    velocity v: v <- m*v - lr*(g + wd*p); p <- p + v. The update is
    elementwise, so train passes the net's flat parameter, gradient and
    velocity vectors and it runs once per step."""
    if not p.shape == g.shape == v.shape:
        raise ValueError(f"shape mismatch: p {p.shape}, g {g.shape}, v {v.shape}")
    lr = poly_lr(iteration, cfg)
    step = np.multiply(p, cfg.weight_decay)  # lr*(g + wd*p) in one temporary
    step += g
    step *= lr
    v *= cfg.momentum
    v -= step
    p += v


@lru_cache
def _class_offsets(n: int, classes: int, hw: int) -> np.ndarray:
    """Read-only flat index n*classes*hw + pixel of class 0 at each pixel of
    C-ordered (n, classes, hw) logits, in (n, pixel) order; cached per
    geometry, like conv._overlap_index."""
    off = (np.arange(0, n * classes * hw, classes * hw)[:, None] + np.arange(hw)).ravel()
    off.flags.writeable = False
    return off


def softmax_ce_loss(logits: np.ndarray, labels: np.ndarray, mean: bool = False):
    """Pixelwise cross-entropy of (n, L, H, W) logits, summed over every
    non-ignored pixel.

    labels is (n, H, W) or (H, W) with values in 0..L-1 or IGNORE_LABEL,
    which is ignored for any L, also when L > IGNORE_LABEL. One compare of
    the labels' maximum, read as unsigned, against min(L, IGNORE_LABEL)
    passes a batch with no ignored pixel and no label out of range; only a
    batch it flags is checked value by value.

    Returns (loss, grad_logits); the gradient is an array shaped like logits:
    softmax minus one-hot at each contributing pixel (scaled by 1/count when
    mean=True). Both read the true class through one flat index,
    label*H*W + _class_offsets(n, L, H*W), in (n, y, x) order: the loss sums
    only the gathered shifted logits minus their pixels' log-norms. Only
    when some pixel is ignored is the index filtered and that pixel's
    gradient zeroed.
    """
    n, L, h, w = logits.shape
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim == 2:
        lab = lab[None, :, :]
    if lab.shape != (n, h, w):
        raise ValueError(f"labels shape {lab.shape} != {(n, h, w)}")
    valid = None  # None: every pixel counts
    # as unsigned, a negative label compares above every class
    if lab.view(np.uint64).max(initial=0) >= min(L, IGNORE_LABEL):
        valid = lab != IGNORE_LABEL
        if np.any((lab < 0) | ((lab >= L) & valid)):
            raise ValueError(f"label values outside 0..{L-1}")
        if valid.all():
            valid = None

    # C order, so that the flat index below addresses views of every array
    shifted = np.subtract(logits, logits.max(axis=1, keepdims=True), order="C")
    ez = np.exp(shifted)
    norm = ez.sum(axis=1, keepdims=True)
    grad = np.divide(ez, norm, out=ez)  # the softmax, then the gradient
    log_norm = np.log(norm).reshape(-1)  # stable even when soft underflows to 0

    hw = h * w
    pos = np.multiply(lab.reshape(-1), hw)
    pos += _class_offsets(n, L, hw)
    if valid is not None:
        keep = valid.reshape(-1)
        pos, log_norm = pos[keep], log_norm[keep]
    picked = shifted.reshape(-1).take(pos)
    picked -= log_norm
    loss = float(-picked.sum())
    flat = grad.reshape(-1)
    picked = flat.take(pos)
    picked -= 1.0
    flat.put(pos, picked)
    if valid is not None:
        np.copyto(grad, 0.0, where=~valid[:, None])
    if mean:
        count = max(pos.size, 1)
        loss /= count
        grad /= count
    if pos.size == 0:
        loss = 0.0
    return loss, grad


def majority_downsample(labels: np.ndarray, cell: int) -> np.ndarray:
    """Reduce each cell x cell block to its most frequent label (ignored
    pixels do not vote; ties go to the smaller label; all-ignored blocks
    stay ignored)."""
    h, w = labels.shape
    if h % cell or w % cell:
        raise ValueError(f"label grid {h}x{w} not divisible by cell {cell}")
    bh, bw = h // cell, w // cell
    block = np.arange(h)[:, None] // cell * bw + np.arange(w) // cell
    valid = labels != IGNORE_LABEL
    n_labels = int(labels.max(initial=0, where=valid)) + 1
    votes = np.bincount(block[valid] * n_labels + labels[valid],
                        minlength=bh * bw * n_labels).reshape(bh * bw, n_labels)
    # argmax takes the first maximum, so ties go to the smaller label
    out = np.where(votes.any(axis=1), votes.argmax(axis=1), IGNORE_LABEL)
    return out.reshape(bh, bw)


# ---------------------------------------------------------------------------
# the toy network
# ---------------------------------------------------------------------------


class ToyNet:
    """Strided 3x3 stem down to factor d, dilated body carrying a rate
    schedule (one K x K conv per rate, K = schedule.kernel), and one of the
    three decoders producing (n, L, H, W) logits.

    Inputs are centered and rescaled by fixed constants before the first
    layer (the synthetic images live in roughly 0..1; tanh layers train far
    better on a zero-mean signal).

    build() is the one constructor and the one place that depends on the
    decoder: each of its branches makes a ConvLayer (the one layer type; the
    transposed convs hold a TransposedConvSpec) through ConvLayer.initialized
    and appends that layer's stage to one ordered stage list, which is the
    whole forward pass. A stage is (grad keys ("<layer>.w", "<layer>.b"),
    forward(x) -> (out, taps),
    backward(x, g, taps) -> (gx, gw, gb), tanh after?), taps being the conv's
    im2col matrix that its backward reuses for grad_w (None for a transposed
    conv; forward's cache keeps it with the stage's input and activation,
    predict keeps none of them): conv+tanh per encoder layer; DUC; bilinear
    as conv then fixed upsampling; or transposed convs with tanh on all but
    the last. The first stage's backward skips the image gradient, which
    nothing reads, and returns None in its place. The stage
    functions look up conv2d_forward, duc_backward, ... in this module's
    globals at call time, with the raw layer object as the second argument,
    so replacing one of those module attributes (to trace calls, say)
    reaches every stage of every existing net.

    Every weight and bias lives in one float64 vector, `flat`, laid out as
    param_views() reads it; the layers hold views into it, so one update of
    `flat` updates them all."""

    INPUT_OFFSET = 0.3
    INPUT_SCALE = 2.0

    def __init__(self, d: int, schedule: DilationSchedule, decoder: str,
                 classes: int, width: int, cell: int):
        """The topology with no layers yet; build() adds them."""
        self.d, self.schedule, self.decoder, self.classes = d, schedule, decoder, classes
        self.width, self.cell = width, cell
        self.encoder_layers, self.decoder_layers, self.stages = [], [], []

    @staticmethod
    def build(d: int, schedule: DilationSchedule, decoder: str, classes: int,
              seed: int | None, width: int = 8, cell: int = 1) -> "ToyNet":
        """He-normal weights drawn from Rng(seed), or zeros with seed None
        (load_net, which reads the weights next)."""
        if d not in (2, 4):
            raise ValueError(f"downsampling factor must be 2 or 4, got {d}")
        if decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        if cell != 1 and decoder != "duc":
            raise ValueError("cell > 1 only applies to the duc decoder")
        net = ToyNet(d, schedule, decoder, classes, width, cell)
        rng = None if seed is None else Rng(seed)

        def stage(name, fwd, bwd, tanh):
            net.stages.append(((f"{name}.w", f"{name}.b"), fwd, bwd, tanh))

        k, c = schedule.kernel, 1  # one-channel images
        enc = []
        for cw in [width] if d == 2 else [width, 2 * width]:
            enc.append(ConvSpec(k=3, r=1, stride=2, c_in=c, c_out=cw, pad=1))
            c = cw
        enc += [ConvSpec(k=k, r=r, stride=1, c_in=c, c_out=c, pad=same_padding(k, r))
                for r in schedule.rates]
        for i, spec in enumerate(enc):
            L = ConvLayer.initialized(spec, rng)
            net.encoder_layers.append(L)
            stage(f"enc{i}", lambda x, L=L: conv2d_forward(x, L),
                  lambda x, g, taps, L=L, gx=i > 0:
                      conv2d_backward(x, L, g, taps, input_grad=gx),
                  True)

        if decoder == "duc":
            duc = DucSpec(d=d, classes=classes, cell=cell)
            L = ConvLayer.initialized(ConvSpec(k=3, r=1, stride=1, c_in=c,
                                               c_out=duc.conv_channels, pad=1), rng)
            net.decoder_layers.append(L)
            stage("dec0", lambda x: duc_forward(x, L, duc),
                  lambda x, g, taps: duc_backward(x, L, duc, g, taps), False)
        elif decoder == "bilinear":
            L = ConvLayer.initialized(ConvSpec(k=3, r=1, stride=1, c_in=c,
                                               c_out=classes, pad=1), rng)
            net.decoder_layers.append(L)

            def upsampled(x):
                out, taps = conv2d_forward(x, L)
                return bilinear_upsample(out, d), taps

            stage("dec0", upsampled,
                  lambda x, g, taps: conv2d_backward(
                      x, L, bilinear_backward(g, x.shape[2:], d), taps),
                  False)
        else:  # one x2 transposed conv per factor of 2 in d
            last = d // 2 - 1
            for i in range(d // 2):
                spec = TransposedConvSpec(k=4, stride=2, c_in=c,
                                          c_out=classes if i == last else c, pad=1)
                L = ConvLayer.initialized(spec, rng)
                net.decoder_layers.append(L)
                stage(f"dec{i}", lambda x, L=L: (transposed_conv_forward(x, L), None),
                      lambda x, g, taps, L=L: transposed_conv_backward(x, L, g), i < last)

        net.flat = np.concatenate([a.ravel() for _, L in net.named_layers()
                                   for a in (L.weights, L.bias)])
        views = net.param_views(net.flat)
        for name, layer in net.named_layers():
            layer.weights, layer.bias = views[f"{name}.w"], views[f"{name}.b"]
        return net

    # -- parameters ---------------------------------------------------------

    def named_layers(self) -> list:
        """(name, layer) for every layer: enc0.., then dec0.."""
        return ([(f"enc{i}", L) for i, L in enumerate(self.encoder_layers)]
                + [(f"dec{i}", L) for i, L in enumerate(self.decoder_layers)])

    def params(self) -> dict:
        """Live views of every learnable array, keyed by layer name."""
        return self.param_views(self.flat)

    def param_views(self, vec: np.ndarray) -> dict:
        """Views of a vector laid out like `flat`: "<layer>.w" then "<layer>.b"
        for each layer in named_layers() order."""
        out, i = {}, 0
        for name, layer in self.named_layers():
            for key, shape in ((f"{name}.w", layer.spec.weight_shape),
                               (f"{name}.b", (layer.spec.c_out,))):
                size = math.prod(shape)
                out[key] = vec[i : i + size].reshape(shape)
                i += size
        return out

    # -- forward / backward -------------------------------------------------

    def _run(self, x: np.ndarray, cache: list | None) -> np.ndarray:
        """Logits for images x (n, 1, H, W); appends (grad keys, backward,
        input, taps, activation or None) per stage to cache unless it is None."""
        cur = (x - self.INPUT_OFFSET) * self.INPUT_SCALE
        for keys, fwd, bwd, tanh in self.stages:
            out, taps = fwd(cur)
            if tanh:
                out = np.tanh(out, out=out)
            if cache is not None:
                cache.append((keys, bwd, cur, taps, out if tanh else None))
            cur = out
            del taps  # without a cache, no stage's taps outlive it
        return cur

    def forward(self, x: np.ndarray):
        """Returns (logits, cache) for images x (n, 1, H, W); the cache holds
        what backward needs: each stage's input, taps and activation."""
        cache = []
        return self._run(x, cache), cache

    def backward(self, cache, grad_logits: np.ndarray, grads: dict) -> dict:
        """Gradients of every parameter, written into grads (views shaped
        and keyed like params(), from param_views()); returns them. A tanh
        stage's g*(1 - act*act) takes one buffer."""
        g = grad_logits
        for (w_key, b_key), bwd, inp, taps, act in reversed(cache):
            if act is not None:
                deriv = np.multiply(act, act)
                g = np.multiply(g, np.subtract(1.0, deriv, out=deriv), out=deriv)
            g, gw, gb = bwd(inp, g, taps)
            grads[w_key][...] = gw
            grads[b_key][...] = gb
        return grads

    def predict(self, image: np.ndarray) -> np.ndarray:
        """Argmax label grid at full input resolution (cell blocks repeated);
        keeps no cache."""
        pred = _class_argmax(self._run(image, None)[0])
        if self.cell > 1:
            pred = np.repeat(np.repeat(pred, self.cell, axis=0), self.cell, axis=1)
        return pred


def _class_argmax(planes: np.ndarray) -> np.ndarray:
    """np.argmax(planes, axis=0) as int64, by compare-select over the (L, H, W)
    class planes: a strict > keeps the first maximum of a tie, and np.argmax
    redoes each pixel whose running max is NaN (its first NaN wins)."""
    best = planes[0]
    idx = np.zeros(best.shape, dtype=np.int64)
    for label in range(1, planes.shape[0]):
        plane = planes[label]
        np.maximum(idx, (plane > best) * label, out=idx)
        best = np.maximum(best, plane)
    nan = np.isnan(best)
    if nan.any():
        idx[nan] = planes[:, nan].argmax(axis=0)
    return idx


# ---------------------------------------------------------------------------
# training loop and evaluation
# ---------------------------------------------------------------------------


def _check_sides(net: ToyNet, samples) -> None:
    """Refuse, before any forward, an image side that net.d does not divide:
    the logits would miss the label grid."""
    for side in {side for s in samples for side in s.image.shape[2:]}:
        if side % net.d:
            raise ValueError(f"image side {side} is not a multiple of the net's "
                             f"downsampling factor d={net.d}")


def train(net: ToyNet, data, cfg: SgdConfig):
    """SGD over randomly drawn full-image batches; returns the loss curve.
    The net's flat vector, one gradient vector and one velocity vector are
    the whole update. Each batch's labels are joined into one (n, H, W)
    array for softmax_ce_loss, which treats IGNORE_LABEL as ignored for any
    class count and reads the true class through its cached offsets. An
    image side that the net's d does not divide is refused before any work."""
    if not data:
        raise ValueError("training data must be nonempty")
    _check_sides(net, data)
    rng = Rng(cfg.seed)
    flat_grad = np.empty_like(net.flat)
    grads = net.param_views(flat_grad)
    velocity = np.zeros_like(net.flat)
    curve = []
    for it in range(cfg.max_iter):
        batch = [data[rng.randint(len(data))] for _ in range(cfg.batch)]
        images = np.concatenate([s.image for s in batch], axis=0)
        labels = np.concatenate([s.labels[None] for s in batch])
        if net.cell > 1:
            labels = np.stack(
                [majority_downsample(lab, net.cell) for lab in labels], axis=0
            )
        logits, cache = net.forward(images)
        loss, grad = softmax_ce_loss(logits, labels, mean=cfg.mean_loss)
        if not math.isfinite(loss):
            raise TrainingDiverged(it, poly_lr(it, cfg))
        net.backward(cache, grad, grads)
        sgd_step(net.flat, flat_grad, velocity, cfg, it)
        curve.append(loss)
    # a blow-up in the last step has no next loss to show it
    if curve and not np.isfinite(net.flat).all():
        name = next(n for n, p in net.params().items() if not np.isfinite(p).all())
        raise TrainingDiverged(it, poly_lr(it, cfg), f"parameter {name} after the step")
    return curve


def _confusion(preds: np.ndarray, labels: np.ndarray, classes: int) -> np.ndarray:
    """(classes, classes) pixel counts, row = label, column = prediction;
    ignored pixels are skipped."""
    valid = labels != IGNORE_LABEL
    p, t = (preds.ravel(), labels.ravel()) if valid.all() else (preds[valid], labels[valid])
    if p.size and (min(p.min(), t.min()) < 0 or max(p.max(), t.max()) >= classes):
        raise ValueError(f"predictions or labels outside 0..{classes - 1}")
    flat = np.bincount(t * classes + p, minlength=classes * classes)
    return flat.reshape(classes, classes)


def _iou(conf: np.ndarray):
    """Per-class IoU tp / (tp + fp + fn) and their mean; classes absent from
    both prediction and label are nan and excluded from the mean."""
    tp = np.diag(conf)
    with np.errstate(invalid="ignore"):
        iou = tp / (conf.sum(axis=0) + conf.sum(axis=1) - tp)
    present = iou[~np.isnan(iou)]
    return iou.tolist(), float(np.mean(present)) if present.size else float("nan")


def evaluate(net: ToyNet, samples, oracle: bool = False):
    """Dataset IoU with counts aggregated over all samples. With oracle=True
    the labels are scored against themselves (pipeline sanity mode). An
    image side that the net's d does not divide is refused before any
    forward."""
    _check_sides(net, samples)
    conf = np.zeros((net.classes, net.classes), dtype=np.int64)
    for s in samples:
        pred = s.labels.copy() if oracle else net.predict(s.image)
        conf += _confusion(pred, s.labels, net.classes)
    return _iou(conf)


# ---------------------------------------------------------------------------
# net serialization: net.json holds the build() arguments (all but the seed)
# and one entry per layer, which load_net checks against the layer build()
# makes; each layer's weights go to one binary tensor file <name>.bin
# ---------------------------------------------------------------------------


def _layer_entry(layer) -> dict:
    """net.json entry of one layer: its spec's fields, bias values and whether
    it is transposed; its weights go to a separate .bin file."""
    return dict(asdict(layer.spec), bias=[float(v) for v in layer.bias],
                transposed=isinstance(layer.spec, TransposedConvSpec))


def save_net(dirpath, net: ToyNet) -> None:
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    topo = {
        "d": net.d,
        "decoder": net.decoder,
        "classes": net.classes,
        "width": net.width,
        "cell": net.cell,
        "img_channels": 1,
        "schedule": {"rates": list(net.schedule.rates), "kernel": net.schedule.kernel},
        "encoder": [_layer_entry(L) for L in net.encoder_layers],
        "decoder_layers": [_layer_entry(L) for L in net.decoder_layers],
    }
    for name, layer in net.named_layers():
        save_tensor(d / f"{name}.bin", layer.weights)
    write_json(d / "net.json", topo)


def _geometry(entries) -> list:
    """Layer entries without their bias values."""
    return [{k: v for k, v in e.items() if k != "bias"} for e in entries]


def load_net(dirpath) -> ToyNet:
    """Rebuild a directory written by save_net: build() with net.json's
    topology and zero weights, every layer entry checked against the built
    layer (bias values aside), then the entry's bias and the .bin weights
    checked by the ConvLayer constructor and copied into the built layer's
    views of the net's flat vector. A malformed net.json, one whose entries
    are not the layers its topology builds, or one with a non-finite bias,
    raises ValueError naming it; a bad or non-finite weight file, naming the
    .bin."""
    d = Path(dirpath)
    path = d / "net.json"
    try:
        # bad JSON or non-ASCII bytes raise ValueError; a missing file, OSError
        topo = json.loads(path.read_text(encoding="ascii"))
        if topo["img_channels"] != 1:
            raise ValueError(f"img_channels must be 1, got {topo['img_channels']!r}")
        s = topo["schedule"]
        schedule = DilationSchedule(rates=tuple(s["rates"]), kernel=s["kernel"])
        net = ToyNet.build(topo["d"], schedule, topo["decoder"], topo["classes"],
                           seed=None, width=topo["width"], cell=topo["cell"])
        for key, layers in (("encoder", net.encoder_layers),
                            ("decoder_layers", net.decoder_layers)):
            if _geometry(topo[key]) != _geometry(map(_layer_entry, layers)):
                raise ValueError(f"{key} entries are not the layers the topology builds")
        biases = [meta["bias"] for meta in topo["encoder"] + topo["decoder_layers"]]
        for (name, _), bias in zip(net.named_layers(), biases):
            if not np.isfinite(np.asarray(bias, dtype=np.float64)).all():
                raise ValueError(f"{name} bias holds a non-finite value")
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise ValueError(f"malformed {path}: {e!r}") from e
    for (name, layer), bias in zip(net.named_layers(), biases):
        weights = d / f"{name}.bin"
        try:
            loaded = ConvLayer(layer.spec, load_tensor(weights), bias)
            if not np.isfinite(loaded.weights).all():
                raise ValueError("weights hold a non-finite value")
        except ValueError as e:
            raise ValueError(f"{weights}: {e}") from e
        layer.weights[...], layer.bias[...] = loaded.weights, loaded.bias
    return net
