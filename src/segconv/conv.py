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
* Two ops have a pinned accumulation order, and tests compare them bit for
  bit with the scalar loops in tests/oracles.py. conv2d_forward sums each
  output element channel-major then (ky, kx), as a plain scalar loop does.
  _scatter_input_grad (conv grad_x and the transposed conv forward) sums
  each target element over its reaching taps in (ky, kx) order, each tap a
  sequential sum over c_out. As both ops share the scatter,
  test_transposed_equals_conv_input_gradient holds exactly; with k ==
  stride and pad 0 every element gets one tap, so DUC's 1x1 conv and the
  transposed conv both sum c_in sequentially (acceptance criterion 7 and
  test_duc_reproduces_nonoverlapping_transposed_conv_bitwise).
* grad_w, here and in the transposed conv, is one BLAS contraction over a
  strided window view and has no order contract; its tests use a tolerance.
  numpy's reductions (sum, add.reduce, tensordot, einsum, matmul) do not
  promise a sequential order: pairwise summation, SIMD lanes and BLAS
  blocking all reorder, depending on shape. So a pinned op stays a loop of
  elementwise updates.

Layers have no file format of their own; train.save_net writes them as part
of a whole net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    A tap loop over a tap-major copy of the strided window view, one multiply
    into a reused buffer and one in-place add per (c_in, ky, kx) tap: each
    output element sums in a scalar loop's exact order. Bias is added last.
    """
    spec = layer.spec
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ValueError(f"input has {c} channels, layer expects {spec.c_in}")
    ho, wo = spec.out_size(h, w)
    p, r, s = spec.pad, spec.r, spec.stride

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    # taps[(ci, ky, kx), n, 0, oy, ox] == xp[n, ci, oy*s + ky*r, ox*s + kx*r]
    taps = np.ascontiguousarray(
        sliding_window_view(xp, (spec.k_d, spec.k_d), axis=(2, 3))[
            :, :, ::s, ::s, ::r, ::r].transpose(1, 4, 5, 0, 2, 3)
    ).reshape(-1, n, 1, ho, wo)
    wgt = layer.weights.data.transpose(1, 2, 3, 0).reshape(-1, spec.c_out, 1, 1)
    out = np.zeros((n, spec.c_out, ho, wo), dtype=np.float64)
    prod = np.empty_like(out)
    for tap, wt in zip(taps, wgt):
        np.multiply(tap, wt, out=prod)
        out += prod
    out += layer.bias[None, :, None, None]
    return Tensor(out)


def _scatter_input_grad(g: np.ndarray, wgt: np.ndarray, r: int, s: int,
                        padded_hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of the gather in conv2d_forward.

    Distributes g (n, c_out, ho, wo) onto a padded input canvas (n, c_in,
    *padded_hw) through weights (c_out, c_in, k, k). A column pass sums every
    tap over c_out in ascending order into cols[ky, kx, n, c_in, ho, wo]; an
    overlap-add then adds the k*k planes onto the canvas in (ky, kx) order.
    That is c_out + k*k numpy updates, not c_out*k*k, for two buffers each
    k*k times the input gradient at stride 1. The module docstring names the
    tests that pin this order.
    """
    n, c_out, ho, wo = g.shape
    _, c_in, k, _ = wgt.shape
    cols = np.zeros((k, k, n, c_in, ho, wo), dtype=np.float64)
    prod = np.empty_like(cols)
    # wt[co, ky, kx, 1, ci, 1, 1] == wgt[co, ci, ky, kx]
    wt = wgt.transpose(0, 2, 3, 1)[:, :, :, None, :, None, None]
    for co in range(c_out):
        np.multiply(g[:, co, None], wt[co], out=prod)
        cols += prod
    acc = np.zeros((n, c_in) + padded_hw, dtype=np.float64)
    for ky, kx in np.ndindex(k, k):
        acc[:, :,
            ky * r : ky * r + (ho - 1) * s + 1 : s,
            kx * r : kx * r + (wo - 1) * s + 1 : s] += cols[ky, kx]
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
    p, r, s = spec.pad, spec.r, spec.stride
    g = grad_out.data

    grad_b = g.sum(axis=(0, 2, 3))

    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    # win[n, ci, oy, ox, ky, kx] == xp[n, ci, oy*s + ky*r, ox*s + kx*r]
    win = sliding_window_view(xp, (spec.k_d, spec.k_d), axis=(2, 3))[
        :, :, ::s, ::s, ::r, ::r]
    grad_w = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))

    grad_xp = _scatter_input_grad(g, layer.weights.data, r, s, (h + 2 * p, w + 2 * p))
    grad_x = grad_xp[:, :, p : p + h, p : p + w] if p else grad_xp
    return Tensor(grad_x), Tensor(grad_w), grad_b
