"""Toy end-to-end segmentation harness: a small dilated encoder, one of three
decoders (DUC / bilinear / transposed conv), summed pixelwise cross-entropy,
SGD with momentum and polynomial learning-rate decay, and IoU evaluation.

The network is deliberately tiny (channel widths <= 32, a handful of layers)
so that a full training run takes seconds on a CPU while still exercising the
strided-stem + dilated-body + learned-decoder structure.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .conv import ConvLayer, ConvSpec, conv2d_backward, conv2d_forward, same_padding
from .data import IGNORE_LABEL
from .hdc import DilationSchedule
from .tensor import Rng, load_tensor, save_tensor
from .upsample import (
    DucSpec,
    TransposedConvSpec,
    bilinear_backward,
    bilinear_upsample,
    duc_backward,
    duc_forward,
    transposed_conv_backward,
    transposed_conv_forward,
)

DECODERS = ("duc", "bilinear", "deconv")


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite; carries where and at what lr."""

    def __init__(self, iteration: int, lr: float):
        super().__init__(f"non-finite loss at iteration {iteration} (lr={lr!r})")
        self.iteration = iteration
        self.lr = lr


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
    if iteration < 0 or iteration > cfg.max_iter:
        raise ValueError(f"iteration {iteration} outside 0..{cfg.max_iter}")
    return cfg.base_lr * (1.0 - iteration / cfg.max_iter) ** cfg.power


def sgd_step(params: dict, grads: dict, state: dict, cfg: SgdConfig,
             iteration: int) -> None:
    """In-place momentum update: v <- m*v - lr*(g + wd*p); p <- p + v."""
    lr = poly_lr(iteration, cfg)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        v = state.setdefault(name, np.zeros_like(p))
        v *= cfg.momentum
        v -= lr * (g + cfg.weight_decay * p)
        p += v


def softmax_ce_loss(logits: np.ndarray, labels: np.ndarray, mean: bool = False):
    """Pixelwise cross-entropy of (n, L, H, W) logits, summed over every
    non-ignored pixel.

    labels is (n, H, W) or (H, W) with values in 0..L-1 or IGNORE_LABEL.
    Returns (loss, grad_logits); the gradient is an array shaped like logits:
    softmax minus one-hot at each contributing pixel (scaled by 1/count when
    mean=True).
    """
    n, L, h, w = logits.shape
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim == 2:
        lab = lab[None, :, :]
    if lab.shape != (n, h, w):
        raise ValueError(f"labels shape {lab.shape} != {(n, h, w)}")
    valid = lab != IGNORE_LABEL
    if np.any((lab < 0) | ((lab >= L) & valid)):
        raise ValueError(f"label values outside 0..{L-1}")

    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    norm = ez.sum(axis=1, keepdims=True)
    soft = ez / norm
    log_soft = shifted - np.log(norm)  # stable even when soft underflows to 0

    grad = soft.copy()
    ni, yi, xi = np.nonzero(valid)
    li = lab[ni, yi, xi]
    loss = float(-log_soft[ni, li, yi, xi].sum())
    grad[ni, li, yi, xi] -= 1.0
    grad[~valid[:, None, :, :].repeat(L, axis=1)] = 0.0
    if mean:
        count = max(len(ni), 1)
        loss /= count
        grad /= count
    if len(ni) == 0:
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
    whole forward pass. A stage is (param name, forward(x), backward(x, g) ->
    (gx, gw, gb), tanh after?):
    conv+tanh per encoder layer; DUC; bilinear as conv then fixed upsampling;
    or transposed convs with tanh on all but the last. The stage functions
    are lambdas that look up conv2d_forward, duc_backward, ... in this
    module's globals at call time, with the raw layer object as the second
    argument, so replacing one of those module attributes (to trace calls,
    say) reaches every stage of every existing net."""

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
            net.stages.append((f"enc{i}", lambda x, L=L: conv2d_forward(x, L),
                               lambda x, g, L=L: conv2d_backward(x, L, g), True))

        if decoder == "duc":
            duc = DucSpec(d=d, classes=classes, cell=cell)
            L = ConvLayer.initialized(ConvSpec(k=3, r=1, stride=1, c_in=c,
                                               c_out=duc.conv_channels, pad=1), rng)
            net.decoder_layers.append(L)
            net.stages.append(("dec0", lambda x: duc_forward(x, L, duc),
                               lambda x, g: duc_backward(x, L, duc, g), False))
        elif decoder == "bilinear":
            L = ConvLayer.initialized(ConvSpec(k=3, r=1, stride=1, c_in=c,
                                               c_out=classes, pad=1), rng)
            net.decoder_layers.append(L)
            net.stages.append((
                "dec0", lambda x: bilinear_upsample(conv2d_forward(x, L), d),
                lambda x, g: conv2d_backward(
                    x, L, bilinear_backward(g, x.shape[2:], d)),
                False))
        else:  # one x2 transposed conv per factor of 2 in d
            last = d // 2 - 1
            for i in range(d // 2):
                spec = TransposedConvSpec(k=4, stride=2, c_in=c,
                                          c_out=classes if i == last else c, pad=1)
                L = ConvLayer.initialized(spec, rng)
                net.decoder_layers.append(L)
                net.stages.append((
                    f"dec{i}", lambda x, L=L: transposed_conv_forward(x, L),
                    lambda x, g, L=L: transposed_conv_backward(x, L, g), i < last))
        return net

    # -- parameters ---------------------------------------------------------

    def named_layers(self) -> list:
        """(name, layer) for every layer: enc0.., then dec0.."""
        return ([(f"enc{i}", L) for i, L in enumerate(self.encoder_layers)]
                + [(f"dec{i}", L) for i, L in enumerate(self.decoder_layers)])

    def params(self) -> dict:
        """Live views of every learnable array, keyed by layer name."""
        out = {}
        for name, layer in self.named_layers():
            out[f"{name}.w"] = layer.weights
            out[f"{name}.b"] = layer.bias
        return out

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray):
        """Returns (logits, cache) for images x (n, 1, H, W); the
        cache holds (name, backward, input, activation or None) per stage."""
        cache = []
        cur = (x - self.INPUT_OFFSET) * self.INPUT_SCALE
        for name, fwd, bwd, tanh in self.stages:
            out = fwd(cur)
            if tanh:
                out = np.tanh(out)
            cache.append((name, bwd, cur, out if tanh else None))
            cur = out
        return cur, cache

    def backward(self, cache, grad_logits: np.ndarray) -> dict:
        grads = {}
        g = grad_logits
        for name, bwd, inp, act in reversed(cache):
            if act is not None:
                g = g * (1.0 - act * act)
            g, gw, gb = bwd(inp, g)
            grads[f"{name}.w"] = gw
            grads[f"{name}.b"] = gb
        return grads

    def predict(self, image: np.ndarray) -> np.ndarray:
        """Argmax label grid at full input resolution (cell blocks repeated)."""
        logits, _ = self.forward(image)
        pred = logits.argmax(axis=1)[0]
        if self.cell > 1:
            pred = np.repeat(np.repeat(pred, self.cell, axis=0), self.cell, axis=1)
        return pred.astype(np.int64)


# ---------------------------------------------------------------------------
# training loop and evaluation
# ---------------------------------------------------------------------------


def _stack_batch(samples) -> tuple[np.ndarray, np.ndarray]:
    imgs = np.concatenate([s.image for s in samples], axis=0)
    labs = np.stack([s.labels for s in samples], axis=0)
    return imgs, labs


def train(net: ToyNet, data, cfg: SgdConfig):
    """SGD over randomly drawn full-image batches; returns the loss curve."""
    if not data:
        raise ValueError("training data must be nonempty")
    rng = Rng(cfg.seed)
    params = net.params()
    state = {}
    curve = []
    for it in range(cfg.max_iter):
        batch = [data[rng.randint(len(data))] for _ in range(cfg.batch)]
        images, labels = _stack_batch(batch)
        if net.cell > 1:
            labels = np.stack(
                [majority_downsample(lab, net.cell) for lab in labels], axis=0
            )
        logits, cache = net.forward(images)
        loss, grad = softmax_ce_loss(logits, labels, mean=cfg.mean_loss)
        if not np.isfinite(loss):
            raise TrainingDiverged(it, poly_lr(it, cfg))
        grads = net.backward(cache, grad)
        sgd_step(params, grads, state, cfg, it)
        curve.append(loss)
    return curve


def _confusion(preds: np.ndarray, labels: np.ndarray, classes: int) -> np.ndarray:
    """(classes, classes) pixel counts, row = label, column = prediction;
    ignored pixels are skipped."""
    valid = labels != IGNORE_LABEL
    p, t = preds[valid], labels[valid]
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


def miou(preds: np.ndarray, labels: np.ndarray, classes: int):
    """Per-class IoU and their mean for one prediction (see _iou)."""
    if preds.shape != labels.shape:
        raise ValueError(f"shape mismatch {preds.shape} vs {labels.shape}")
    return _iou(_confusion(preds, labels, classes))


def evaluate(net: ToyNet, samples, oracle: bool = False):
    """Dataset IoU with counts aggregated over all samples. With oracle=True
    the labels are scored against themselves (pipeline sanity mode)."""
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
    (d / "net.json").write_text(
        json.dumps(topo, sort_keys=True, indent=1) + "\n", encoding="ascii"
    )


def _geometry(entries) -> list:
    """Layer entries without their bias values."""
    return [{k: v for k, v in e.items() if k != "bias"} for e in entries]


def load_net(dirpath) -> ToyNet:
    """Rebuild a directory written by save_net: build() with net.json's
    topology and zero weights, every layer entry checked against the built
    layer (bias values aside), then the entry's bias and the .bin weights
    checked by the ConvLayer constructor and set on the built layer. A
    malformed net.json, or one whose entries are not the layers its topology
    builds, raises ValueError naming it; a bad weight file, naming the .bin."""
    d = Path(dirpath)
    path = d / "net.json"
    topo = json.loads(path.read_text(encoding="ascii"))
    try:
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
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise ValueError(f"malformed {path}: {e!r}") from e
    for (name, layer), bias in zip(net.named_layers(), biases):
        weights = d / f"{name}.bin"
        try:
            loaded = ConvLayer(layer.spec, load_tensor(weights), bias)
        except ValueError as e:
            raise ValueError(f"{weights}: {e}") from e
        # the stage lambdas close over the built layer, so it takes the arrays
        layer.weights, layer.bias = loaded.weights, loaded.bias
    return net
