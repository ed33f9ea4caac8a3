"""Dilated 2-D convolution on (n, c, h, w) float64 ndarrays, with analytic gradients.

Conventions, fixed once here:

* The operation is cross-correlation (no kernel flip), the usual CNN
  convention. A kernel tap (ky, kx) with dilation r reads the padded input at
  (out_y * stride + ky * r, out_x * stride + kx * r). The paper's 1-D
  textbook form lives in tests/oracles.py as a reference.
* Two ops have a pinned accumulation order, compared bit for bit with the
  scalar loops in tests/oracles.py. conv2d_forward sums each output element
  channel-major then (ky, kx). _scatter_input_grad (conv grad_x and the
  transposed conv forward) sums each target element over its reaching taps
  in (ky, kx) order, each tap a sequential sum over c_out; sharing it makes
  test_transposed_equals_conv_input_gradient exact, and k == stride, pad 0
  (one tap per element) gives acceptance criterion 7 and
  test_duc_reproduces_nonoverlapping_transposed_conv_bitwise.
* Both run through _product_sum, out[j, m] = 0.0 + a[0, m]*b[0, j] +
  a[1, m]*b[1, j] + ..., one np.einsum("tm,tj->jm") into out with no
  product buffer. The order comes from einsum's loop order: with a and b
  C-contiguous, numpy's iterator keeps the tap axis t outside the row and
  pixel axes (for the callers' C-ordered out, m is innermost), so it
  zero-fills out and then adds one tap's products at a time, each a
  separate multiply and add at numpy's SIMD baseline (x86-64 has no fused
  multiply-add there). No optimize= is passed: it would hand the sum to
  tensordot/BLAS, whose order is its own.
  einsum sums a one-element out along t pairwise, so that one is
  accumulated instead. There is no second path: a numpy that fused or
  reordered would fail test_product_sum_matches_naive_order_bitwise (which
  checks _product_sum against a loop over Python floats), the bitwise op
  tests (their *_bitwise_on_large_planes tables run planes of over 1 MiB
  of products), test_one_pixel_results_keep_the_sequential_order and
  test_forward_keeps_signed_zeros_of_the_naive_loop.
* grad_w, here and in the transposed conv, is one BLAS contraction over a
  strided window view and has no order contract; its tests use a tolerance.

ConvLayer is the one layer type, for the conv and upsample's transposed conv;
_checked_out_size is the one shape check of their four ops. Layers have no
file format of their own; train.save_net writes them as part of a whole net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Rng, he_init

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
    def weight_shape(self) -> tuple[int, int, int, int]:
        """(c_out, c_in, k, k): one k x k kernel per (output, input) channel."""
        return (self.c_out, self.c_in, self.k, self.k)

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
    """A ConvSpec or upsample.TransposedConvSpec, whose weight_shape fixes the
    weights' layout, plus the weights (C-contiguous float64: the same array
    if it is one) and a per-output-channel bias (zeros if None)."""

    def __init__(self, spec, weights: np.ndarray, bias=None):
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.shape != spec.weight_shape:
            raise ValueError(f"weight shape {weights.shape} != {spec.weight_shape}")
        bias = np.zeros(spec.c_out) if bias is None else np.asarray(bias, np.float64).ravel()
        if bias.size != spec.c_out:
            raise ValueError(f"bias length {bias.size} != c_out {spec.c_out}")
        self.spec, self.weights, self.bias = spec, weights, bias

    @staticmethod
    def initialized(spec, rng: Rng | None) -> "ConvLayer":
        """He-normal weights, fan_in = c_in*k*k (zeros with rng None)."""
        return ConvLayer(spec, he_init(spec.weight_shape, spec.c_in * spec.k * spec.k, rng))


def _checked_out_size(x: np.ndarray, spec, grad_out: np.ndarray | None = None):
    """spec.out_size of x's plane, after checking x's channels against
    spec.c_in and, when given, grad_out's shape against the output's."""
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ValueError(f"input has {c} channels, layer expects {spec.c_in}")
    ho, wo = spec.out_size(h, w)
    if grad_out is not None and grad_out.shape != (n, spec.c_out, ho, wo):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(n, spec.c_out, ho, wo)}")
    return ho, wo


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    """A copy of x with p zero rows and columns added on each side."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float64)
    xp[:, :, p : p + h, p : p + w] = x
    return xp


def _window(xp: np.ndarray, k: int, r: int, s: int, ho: int, wo: int) -> np.ndarray:
    """Read-only view[n, c, oy, ox, ky, kx] == xp[n, c, oy*s + ky*r, ox*s + kx*r];
    the caller keeps (ho-1)*s + (k-1)*r inside both spatial axes."""
    sn, sc, sy, sx = xp.strides
    return as_strided(xp, xp.shape[:2] + (ho, wo, k, k),
                      (sn, sc, sy * s, sx * s, sy * r, sx * r), writeable=False)


def _product_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out[j, m] = 0.0 + a[0, m]*b[0, j] + a[1, m]*b[1, j] + ..., summed in
    t order, as the module docstring sets out.

    numpy's iterator orders the loops by the inputs' strides, so a and b are
    made C-contiguous; that keeps t outside m and j also when out has one
    row or one pixel. With t innermost, einsum would sum it in SIMD partial
    sums. Of the callers' inputs, only the forward's weights (an F-ordered
    view) get copied.
    """
    if out.size > 1:
        np.einsum("tm,tj->jm", np.ascontiguousarray(a), np.ascontiguousarray(b), out=out)
    else:  # a lone run would be summed pairwise; accumulate keeps the order
        out[...] = np.add.accumulate(np.append(0.0, a.ravel() * b.ravel()))[-1]


def conv2d_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Dilated cross-correlation of the zero-padded input (n, c_in, h, w),
    plus bias; returns a C-contiguous (n, c_out, ho, wo) array.

    One ordered product sum over the (c_in, ky, kx) taps of a tap-major copy
    of the window view gives each output element a scalar loop's exact
    order. Bias is added last.
    """
    spec = layer.spec
    n, _, h, w = x.shape
    ho, wo = _checked_out_size(x, spec)

    win = _window(_pad(x, spec.pad), spec.k, spec.r, spec.stride, ho, wo)
    # taps[(ci, ky, kx), (n, oy, ox)], wgt[(ci, ky, kx), co]
    taps = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(-1, n * ho * wo)
    wgt = layer.weights.transpose(1, 2, 3, 0).reshape(-1, spec.c_out)
    out = np.empty((spec.c_out, n * ho * wo), dtype=np.float64)
    _product_sum(taps, wgt, out)
    out = np.ascontiguousarray(out.reshape(spec.c_out, n, ho, wo).transpose(1, 0, 2, 3))
    out += layer.bias[None, :, None, None]
    return out


def _scatter_input_grad(g: np.ndarray, wgt: np.ndarray, r: int, s: int,
                        padded_hw: tuple[int, int]) -> np.ndarray:
    """Adjoint of the gather in conv2d_forward.

    Distributes g (n, c_out, ho, wo) onto a padded input canvas (n, c_in,
    *padded_hw) through weights (c_out, c_in, k, k): one ordered product sum
    over c_out gives cols[(ky, kx, ci), (n, oy, ox)], then an overlap-add
    adds the k*k planes onto the canvas in (ky, kx) order, the order the
    module docstring's tests pin.
    """
    n, c_out, ho, wo = g.shape
    _, c_in, k, _ = wgt.shape
    cols = np.empty((k * k * c_in, n * ho * wo), dtype=np.float64)
    _product_sum(g.transpose(1, 0, 2, 3).reshape(c_out, -1),
                 wgt.transpose(0, 2, 3, 1).reshape(c_out, -1), cols)
    acc = np.zeros((n, c_in) + padded_hw, dtype=np.float64)
    for (ky, kx), col in zip(np.ndindex(k, k), cols.reshape(k * k, c_in, n, ho, wo)):
        acc[:, :,
            ky * r : ky * r + (ho - 1) * s + 1 : s,
            kx * r : kx * r + (wo - 1) * s + 1 : s] += col.transpose(1, 0, 2, 3)
    return acc


def conv2d_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray):
    """Exact gradients of sum(grad_out * conv2d_forward(x, layer)).

    Returns (grad_x, grad_w, grad_b): arrays shaped like x and the weights
    (grad_x a view into a padded canvas when pad > 0) and a c_out vector.
    """
    spec = layer.spec
    _, _, h, w = x.shape
    ho, wo = _checked_out_size(x, spec, grad_out)
    p, r, s = spec.pad, spec.r, spec.stride
    grad_b = grad_out.sum(axis=(0, 2, 3))

    win = _window(_pad(x, p), spec.k, r, s, ho, wo)
    grad_w = np.tensordot(grad_out, win, axes=([0, 2, 3], [0, 2, 3]))

    grad_xp = _scatter_input_grad(grad_out, layer.weights, r, s, (h + 2 * p, w + 2 * p))
    return grad_xp[:, :, p : p + h, p : p + w], grad_w, grad_b
