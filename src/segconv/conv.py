"""Dilated 2-D convolution with analytic gradients, plus the 1-D reference form.

Conventions, fixed once here:

* The 2-D operation is cross-correlation (no kernel flip), the usual CNN
  convention. A kernel tap (ky, kx) with dilation r reads the padded input at
  (out_y * stride + ky * r, out_x * stride + kx * r).
* The 1-D reference keeps the textbook dilated form literally:
  g[i] = sum_{l=1..L} f[i + r*l] * h[l], with f, g 0-indexed and h[l] stored
  at array index l-1. It is valid-only (no padding): output index i runs from
  0 while i + r*L stays in range, so len(g) = len(f) - r*L. Note the l=1
  origin shifts taps one dilation step to the right of the centered 2-D
  convention; both forms are kept because both are useful references.
* Accumulation order inside one output element is channel-major then
  (ky, kx), identical between the shipped vectorized loops and a plain
  scalar loop, so the two are bitwise comparable.

Layers have no file format of their own; train.save_net writes them as part
of a whole net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Rng, Tensor, he_init


def dilated_kernel_size(k: int, r: int) -> int:
    """Spatial extent of a k-tap kernel dilated by r: k + (k-1)*(r-1)."""
    if k < 1 or r < 1:
        raise ValueError("kernel size and dilation rate must be >= 1")
    return k + (k - 1) * (r - 1)


def same_padding(k: int, r: int) -> int:
    """Padding that keeps spatial size unchanged at stride 1 (odd k)."""
    if k % 2 == 0:
        raise ValueError("same-size padding is defined for odd kernels only")
    return r * (k - 1) // 2


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of one dilated convolution layer."""

    k: int
    r: int = 1
    stride: int = 1
    c_in: int = 1
    c_out: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"kernel size must be odd and >= 1, got {self.k}")
        if self.r < 1:
            raise ValueError(f"dilation rate must be >= 1, got {self.r}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if self.c_in < 1 or self.c_out < 1:
            raise ValueError("channel counts must be >= 1")
        if self.pad < 0:
            raise ValueError(f"padding must be >= 0, got {self.pad}")

    @property
    def k_d(self) -> int:
        return dilated_kernel_size(self.k, self.r)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        ho = (h + 2 * self.pad - self.k_d) // self.stride + 1
        wo = (w + 2 * self.pad - self.k_d) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ValueError(
                f"input {h}x{w} too small for kernel extent {self.k_d} "
                f"with pad {self.pad}"
            )
        return ho, wo


class ConvLayer:
    """ConvSpec plus weights (c_out, c_in, k, k) and per-output-channel bias."""

    def __init__(self, spec: ConvSpec, weights: Tensor, bias=None):
        expected = (spec.c_out, spec.c_in, spec.k, spec.k)
        if weights.shape != expected:
            raise ValueError(f"weight shape {weights.shape} != {expected}")
        if bias is None:
            bias = np.zeros(spec.c_out, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64).ravel()
        if bias.size != spec.c_out:
            raise ValueError(f"bias length {bias.size} != c_out {spec.c_out}")
        self.spec = spec
        self.weights = weights
        self.bias = bias

    @staticmethod
    def initialized(spec: ConvSpec, rng: Rng) -> "ConvLayer":
        fan_in = spec.c_in * spec.k * spec.k
        w = he_init((spec.c_out, spec.c_in, spec.k, spec.k), fan_in, rng)
        return ConvLayer(spec, w)


def conv1d_dilated(f, h, r: int):
    """Valid-only dilated 1-D correlation, g[i] = sum_l f[i + r*l] * h[l]."""
    f = np.asarray(f, dtype=np.float64).ravel()
    h = np.asarray(h, dtype=np.float64).ravel()
    if r < 1:
        raise ValueError("dilation rate must be >= 1")
    taps = h.size
    out_len = f.size - r * taps
    if out_len < 1:
        raise ValueError(
            f"sequence of length {f.size} too short for {taps} taps at rate {r}"
        )
    g = np.zeros(out_len, dtype=np.float64)
    for l in range(1, taps + 1):
        g += f[r * l : r * l + out_len] * h[l - 1]
    return g


def conv2d_forward(x: Tensor, layer: ConvLayer) -> Tensor:
    """Dilated cross-correlation of the zero-padded input, plus bias.

    Implemented as a tap loop: one vectorized multiply-add per (c_in, ky, kx)
    tap, so each output element accumulates in exactly the order a scalar
    reference loop would. Bias is added once at the end.
    """
    spec = layer.spec
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ValueError(f"input has {c} channels, layer expects {spec.c_in}")
    ho, wo = spec.out_size(h, w)
    p, r, s, k = spec.pad, spec.r, spec.stride, spec.k

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    wgt = layer.weights.data
    out = np.zeros((n, spec.c_out, ho, wo), dtype=np.float64)
    for ci in range(spec.c_in):
        for ky in range(k):
            for kx in range(k):
                win = xp[:, ci,
                         ky * r : ky * r + (ho - 1) * s + 1 : s,
                         kx * r : kx * r + (wo - 1) * s + 1 : s]
                out += win[:, None, :, :] * wgt[None, :, ci, ky, kx, None, None]
    out += layer.bias[None, :, None, None]
    return Tensor(out)


def _scatter_input_grad(g: np.ndarray, wgt: np.ndarray, r: int, s: int,
                        padded_hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of the gather in conv2d_forward.

    Distributes g (n, c_out, ho, wo) back onto a padded input canvas of shape
    (n, c_in, *padded_hw) through weights (c_out, c_in, k, k). Accumulation
    per target element runs over c_out in ascending order; the transposed
    convolution relies on that order for its exact-equivalence contract.
    """
    n, c_out, ho, wo = g.shape
    _, c_in, k, _ = wgt.shape
    acc = np.zeros((n, c_in) + padded_hw, dtype=np.float64)
    for co in range(c_out):
        for ky in range(k):
            for kx in range(k):
                acc[:, :,
                    ky * r : ky * r + (ho - 1) * s + 1 : s,
                    kx * r : kx * r + (wo - 1) * s + 1 : s] += (
                    g[:, co, None, :, :] * wgt[co, :, ky, kx, None, None])
    return acc


def conv2d_backward(x: Tensor, layer: ConvLayer, grad_out: Tensor):
    """Exact gradients of sum(grad_out * conv2d_forward(x, layer)).

    Returns (grad_x, grad_w, grad_b) with grad_x, grad_w as Tensors and
    grad_b as a c_out vector.
    """
    spec = layer.spec
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ValueError(f"input has {c} channels, layer expects {spec.c_in}")
    ho, wo = spec.out_size(h, w)
    if grad_out.shape != (n, spec.c_out, ho, wo):
        raise ValueError(
            f"grad_out shape {grad_out.shape} != {(n, spec.c_out, ho, wo)}"
        )
    p, r, s, k = spec.pad, spec.r, spec.stride, spec.k
    g = grad_out.data

    grad_b = g.sum(axis=(0, 2, 3))

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    grad_w = np.zeros_like(layer.weights.data)
    for ci in range(spec.c_in):
        for ky in range(k):
            for kx in range(k):
                win = xp[:, ci,
                         ky * r : ky * r + (ho - 1) * s + 1 : s,
                         kx * r : kx * r + (wo - 1) * s + 1 : s]
                grad_w[:, ci, ky, kx] = np.tensordot(g, win, axes=([0, 2, 3], [0, 1, 2]))

    grad_xp = _scatter_input_grad(g, layer.weights.data, r, s, (h + 2 * p, w + 2 * p))
    grad_x = grad_xp[:, :, p : p + h, p : p + w] if p else grad_xp
    return Tensor(grad_x), Tensor(grad_w), grad_b
