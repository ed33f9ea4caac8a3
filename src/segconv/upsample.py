"""Decoders that turn low-resolution feature maps into full-resolution label
maps: the dense-upsampling-convolution (DUC) rearrangement, fixed bilinear
interpolation, and learnable transposed convolution. Each takes and returns
(n, c, h, w) float64 ndarrays.

The learnable decoders' layers are conv.ConvLayer objects: the DUC decode
conv holds a ConvSpec, and the transposed conv a TransposedConvSpec, whose
weight_shape gives its (c_in, c_out, k, k) layout.

DUC channel layout is class-major and fixed package-wide: with s = d / cell,
pre-rearrangement channel chan(l, dy, dx) = l*s*s + dy*s + dx holds the
prediction for class l at sub-pixel offset (dy, dx). Keeping the s*s offsets
of one class contiguous makes the class axis of the rearranged map a plain
reshape away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conv import (ConvLayer, ConvSpec, _checked_out_size, _pad, _scatter_input_grad,
                   _window, conv2d_backward, conv2d_forward)


@dataclass(frozen=True)
class DucSpec:
    """Geometry of one DUC decode: total downsampling d, class count, cell."""

    d: int
    classes: int
    cell: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"downsampling factor must be >= 1, got {self.d}")
        if self.classes < 2:
            raise ValueError(f"class count must be >= 2, got {self.classes}")
        if self.cell not in (1, 2):
            raise ValueError(f"cell must be 1 or 2, got {self.cell}")
        if self.d % self.cell:
            raise ValueError(f"d={self.d} not divisible by cell={self.cell}")

    @property
    def s(self) -> int:
        """Upscaling factor actually realized: d / cell."""
        return self.d // self.cell

    @property
    def conv_channels(self) -> int:
        """Channel count the decode convolution must produce: s^2 * classes."""
        return self.s * self.s * self.classes


def duc_rearrange(x: np.ndarray, spec: DucSpec) -> np.ndarray:
    """Permute (n, s^2*L, h, w) into (n, L, h*s, w*s).

    out[n, l, y*s+dy, x*s+dx] = in[n, chan(l,dy,dx), y, x]; a pure, value-
    preserving bijection on elements (the sub-pixel shuffle).
    """
    n, c, h, w = x.shape
    s, L = spec.s, spec.classes
    if c != spec.conv_channels:
        raise ValueError(f"input has {c} channels, spec needs {spec.conv_channels}")
    v = x.reshape(n, L, s, s, h, w)
    v = v.transpose(0, 1, 4, 2, 5, 3)  # (n, L, h, dy, w, dx)
    return v.reshape(n, L, h * s, w * s)


def duc_rearrange_inverse(y: np.ndarray, spec: DucSpec) -> np.ndarray:
    """Exact inverse of duc_rearrange (also its gradient routing)."""
    n, L, hs, ws = y.shape
    s = spec.s
    if L != spec.classes or hs % s or ws % s:
        raise ValueError(f"shape {y.shape} is not a rearranged map for {spec}")
    h, w = hs // s, ws // s
    v = y.reshape(n, L, h, s, w, s)
    v = v.transpose(0, 1, 3, 5, 2, 4)  # (n, L, dy, dx, h, w)
    return v.reshape(n, spec.conv_channels, h, w)


def duc_forward(features: np.ndarray, layer: ConvLayer, spec: DucSpec) -> np.ndarray:
    """Decode conv then rearrange: (n, c, h, w) -> (n, L, h*s, w*s)."""
    if layer.spec.c_out != spec.conv_channels:
        raise ValueError(
            f"decode conv produces {layer.spec.c_out} channels, "
            f"spec needs {spec.conv_channels}"
        )
    return duc_rearrange(conv2d_forward(features, layer), spec)


def duc_backward(features: np.ndarray, layer: ConvLayer, spec: DucSpec,
                 grad_out: np.ndarray):
    """Gradients of sum(grad_out * duc_forward(...)); returns
    (grad_features, grad_w, grad_b)."""
    grad_conv = duc_rearrange_inverse(grad_out, spec)
    return conv2d_backward(features, layer, grad_conv)


# ---------------------------------------------------------------------------
# bilinear upsampling (align-corners-false, edge-clamped); fixed baseline,
# not learnable, but linear so its adjoint routes gradients exactly
# ---------------------------------------------------------------------------


@lru_cache
def _bilinear_matrix(n_in: int, factor: int) -> np.ndarray:
    """Row-stochastic (n_in*factor, n_in) interpolation matrix for one axis.

    Cached per (n_in, factor) and shared by every caller, so read-only."""
    n_out = n_in * factor
    m = np.zeros((n_out, n_in), dtype=np.float64)
    for o in range(n_out):
        src = (o + 0.5) / factor - 0.5
        i0 = int(np.floor(src))
        w1 = src - i0
        i0c = min(max(i0, 0), n_in - 1)
        i1c = min(max(i0 + 1, 0), n_in - 1)
        m[o, i0c] += 1.0 - w1
        m[o, i1c] += w1
    m.flags.writeable = False
    return m


def bilinear_upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Upscale both spatial axes by an integer factor; each output pixel is a
    convex combination of at most 4 input pixels."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    _, _, h, w = x.shape
    my = _bilinear_matrix(h, factor)
    mx = _bilinear_matrix(w, factor)
    out = np.einsum("oh,nchw->ncow", my, x)
    return np.einsum("pw,ncow->ncop", mx, out)


def bilinear_backward(grad_out: np.ndarray, in_hw: tuple[int, int],
                      factor: int) -> np.ndarray:
    """Adjoint of bilinear_upsample for gradient routing."""
    h, w = in_hw
    my = _bilinear_matrix(h, factor)
    mx = _bilinear_matrix(w, factor)
    return np.einsum("oh,ncow->nchw", my, np.einsum("pw,ncop->ncow", mx, grad_out))


# ---------------------------------------------------------------------------
# transposed (fractionally strided) convolution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransposedConvSpec:
    """Geometry of a transposed conv; k may be even (the usual 2x choice is
    k=4, stride=2, pad=1)."""

    k: int
    stride: int
    c_in: int
    c_out: int
    pad: int = 0

    def __post_init__(self):
        if self.k < 1 or self.stride < 1:
            raise ValueError("kernel size and stride must be >= 1")
        if self.c_in < 1 or self.c_out < 1:
            raise ValueError("channel counts must be >= 1")
        if self.pad < 0:
            raise ValueError("padding must be >= 0")

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        """(c_in, c_out, k, k): the op scatters each input pixel's value
        through the kernel onto the stride grid, which is exactly the input
        gradient of a forward conv whose weights are this same array read as
        (its c_out, its c_in, k, k) -- the transposed conv is that conv's
        adjoint."""
        return (self.c_in, self.c_out, self.k, self.k)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        ho = (h - 1) * self.stride + self.k - 2 * self.pad
        wo = (w - 1) * self.stride + self.k - 2 * self.pad
        if ho < 1 or wo < 1:
            raise ValueError(f"transposed conv output collapses for input {h}x{w}")
        return ho, wo


def transposed_conv_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Transposed conv of (n, c_in, h, w) plus bias: (n, c_out, ho, wo); the
    layer's spec is a TransposedConvSpec."""
    spec = layer.spec
    ho, wo = _checked_out_size(x, spec)
    p = spec.pad
    full = _scatter_input_grad(x, layer.weights, r=1, s=spec.stride,
                               padded_hw=(ho + 2 * p, wo + 2 * p))
    return full[:, :, p : p + ho, p : p + wo] + layer.bias[None, :, None, None]


def transposed_conv_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray):
    """Gradients of sum(grad_out * transposed_conv_forward(x, layer)):
    (grad_x, grad_w, grad_b), grad_x a transposed view shaped like x."""
    spec = layer.spec
    _checked_out_size(x, spec, grad_out)
    _, _, h, w = x.shape
    grad_b = grad_out.sum(axis=(0, 2, 3))

    # forward scattered x onto a padded canvas; the adjoint gathers it back:
    # win[n, co, y, x, ky, kx] == padded g[n, co, y*s + ky, x*s + kx], (y, x) < (h, w)
    win = _window(_pad(grad_out, spec.pad), spec.k, 1, spec.stride, h, w)
    grad_x = np.tensordot(layer.weights, win,
                          axes=([1, 2, 3], [1, 4, 5])).transpose(1, 0, 2, 3)
    grad_w = np.tensordot(x, win, axes=([0, 2, 3], [0, 2, 3]))
    return grad_x, grad_w, grad_b


def duc_weights_from_transposed(layer: ConvLayer):
    """Construct the 1x1 decode conv that makes DUC reproduce a
    non-overlapping transposed conv (stride == kernel size, pad 0) exactly.

    Returns (ConvLayer, DucSpec); duc_forward with these equals
    transposed_conv_forward with `layer`, bit for bit.
    """
    spec = layer.spec
    if spec.stride != spec.k or spec.pad != 0:
        raise ValueError("mapping requires a non-overlapping layer: stride == k, pad 0")
    if spec.c_out < 2:
        raise ValueError("mapping needs >= 2 output channels to form a class axis")
    d = spec.k
    duc_spec = DucSpec(d=d, classes=spec.c_out, cell=1)
    cspec = ConvSpec(k=1, r=1, stride=1, c_in=spec.c_in,
                     c_out=duc_spec.conv_channels, pad=0)
    # DUC channel chan(l, dy, dx) takes the transposed weights[:, l, dy, dx]
    w = layer.weights.transpose(1, 2, 3, 0).reshape(-1, spec.c_in)[:, :, None, None]
    return ConvLayer(cspec, w, np.repeat(layer.bias, d * d)), duc_spec
