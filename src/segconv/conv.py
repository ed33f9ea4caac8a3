"""Dilated 2-D convolution and its adjoint, the transposed conv, on (n, c, h, w)
float64 ndarrays, with analytic gradients.

Conventions, fixed once here:

* The operation is cross-correlation (no kernel flip), the usual CNN
  convention. A kernel tap (ky, kx) with dilation r reads the padded input at
  (out_y * stride + ky * r, out_x * stride + kx * r). The paper's 1-D
  textbook form lives in tests/oracles.py as a reference.
* One gather and one scatter serve all four ops. _taps reads a zero-padded
  copy of its input through one strided np.ndarray view over that copy's
  buffer (bounds-checked when built) into the im2col matrix
  taps[(c, ky, kx), (n, oy, ox)] (Chellapilla et al., 2006), for the conv
  forward, conv grad_w and the transposed-conv backward. _overlap_add adds
  columns back onto a canvas, for conv grad_x and the transposed-conv
  forward. Ordered products serve the two forwards, BLAS GEMMs the two
  backwards.
* A pinned accumulation order, compared bit for bit with the scalar loops
  in tests/oracles.py, covers the forward ops. conv2d_forward sums each
  output element channel-major then (ky, kx). transposed_conv_forward sums
  its columns over c_in in order, then _overlap_add (shared with conv
  grad_x) sums each target element over its reaching taps in (ky, kx)
  order from 0.0; k == stride, pad 0 (one tap per element) gives
  acceptance criterion 7 and
  test_duc_reproduces_nonoverlapping_transposed_conv_bitwise. Both
  overlap-add branches keep that order: one np.bincount below _BINCOUNT_MAX
  column elements (the 32x32 training shapes), k*k strided slice-adds at
  or above it (the 128x128 eval transposed convs); the
  *_bitwise_on_large_planes tests run cases on both sides and at it.
* Both forward column passes run through _product_sum, out[j, m] = 0.0 +
  a[0, m]*b[0, j] + a[1, m]*b[1, j] + ..., one np.einsum("tm,tj->jm") into
  out with no product buffer. The order comes from einsum's loop order:
  with a and b C-contiguous, numpy's iterator keeps the tap axis t outside
  the row and pixel axes (for the callers' C-ordered out, m is innermost),
  so it zero-fills out and then adds one tap's products at a time, each a
  separate multiply and add at numpy's SIMD baseline (x86-64 has no fused
  multiply-add there). No optimize= is passed: it would hand the sum to
  BLAS, whose order is its own.
  einsum sums a one-element out along t pairwise, so that one is
  accumulated instead. There is no second path: a numpy that fused or
  reordered would fail test_product_sum_matches_naive_order_bitwise (which
  checks _product_sum against a loop over Python floats), the bitwise op
  tests (their *_bitwise_on_large_planes tables run planes of over 1 MiB
  of products), test_one_pixel_results_keep_the_sequential_order and
  test_forward_keeps_signed_zeros_of_the_naive_loop.
* The backward GEMMs have no order contract; tests give them a 1e-12
  tolerance. Conv grad_w is grad_out[co, (n, oy, ox)] @ taps.T. The
  backward requires the taps that conv2d_forward returns with its output
  and never builds its own, so a training step builds them once per conv.
  Conv grad_x's columns are the weights as [(ky, kx, ci), co] @ that
  grad_out matrix, then the ordered overlap-add (bit for bit when
  c_out == 1, one product per column element). The
  transposed conv gathers grad_out with _taps (r = 1): grad_x is the
  weights as [ci, (co, ky, kx)] @ taps, grad_w is x[ci, (n, y, x)] @ taps.T.

ConvLayer, the one layer type, holds a ConvSpec (for conv2d_*) or a
TransposedConvSpec (for transposed_conv_*); each of the four ops starts with
_checked_geometry, which rejects the other kind and checks the shapes. Layers
have no file format; train.save_net writes them as part of a whole net.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import Rng, he_init


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
        """Spatial extent of the k-tap kernel dilated by r: k + (k-1)*(r-1)."""
        return self.k + (self.k - 1) * (self.r - 1)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        ho = (h + 2 * self.pad - self.k_d) // self.stride + 1
        wo = (w + 2 * self.pad - self.k_d) // self.stride + 1
        if ho < 1 or wo < 1:
            raise ValueError(
                f"input {h}x{w} too small for kernel extent {self.k_d} "
                f"with pad {self.pad}"
            )
        return ho, wo


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
        """(c_in, c_out, k, k): the op scatters each input pixel through the
        kernel onto the stride grid, which is the input gradient of a conv
        whose weights are this same array read as (its c_out, its c_in, k, k).
        So transposed_conv_forward ends in that conv's _overlap_add, after
        its own ordered column pass, and its backward reads grad_out
        through the conv's _taps."""
        return (self.c_in, self.c_out, self.k, self.k)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        ho = (h - 1) * self.stride + self.k - 2 * self.pad
        wo = (w - 1) * self.stride + self.k - 2 * self.pad
        if ho < 1 or wo < 1:
            raise ValueError(f"transposed conv output collapses for input {h}x{w}")
        return ho, wo


class ConvLayer:
    """A ConvSpec or TransposedConvSpec, whose weight_shape fixes the
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


def _checked_geometry(layer: ConvLayer, kind: type, x: np.ndarray,
                      grad_out: np.ndarray | None = None):
    """(spec, ho, wo): the layer's spec and spec.out_size of x's plane, after
    checking that the spec is the kind the op reads, x's channels against
    spec.c_in and, when given, grad_out's shape against the output's."""
    spec = layer.spec
    if not isinstance(spec, kind):
        raise ValueError(f"layer holds a {type(spec).__name__}, "
                         f"the op needs a {kind.__name__}")
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ValueError(f"input has {c} channels, layer expects {spec.c_in}")
    ho, wo = spec.out_size(h, w)
    if grad_out is not None and grad_out.shape != (n, spec.c_out, ho, wo):
        raise ValueError(f"grad_out shape {grad_out.shape} != {(n, spec.c_out, ho, wo)}")
    return spec, ho, wo


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


def _taps(x: np.ndarray, k: int, r: int, s: int, p: int, ho: int, wo: int) -> np.ndarray:
    """The C-contiguous im2col matrix taps[(c, ky, kx), (n, oy, ox)] ==
    x zero-padded by p at [n, c, oy*s + ky*r, ox*s + kx*r]: the forward's
    product sum and the backwards' GEMMs read it. The window is one 6-D
    np.ndarray over the padded copy, checked against its bounds; the caller
    keeps (ho-1)*s + (k-1)*r inside both padded spatial axes."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float64)
    xp[:, :, p : p + h, p : p + w] = x
    sn, sc, sy, sx = xp.strides
    win = np.ndarray((c, k, k, n, ho, wo), np.float64, buffer=xp, offset=0,
                     strides=(sc, sy * r, sx * r, sn, sy * s, sx * s))
    return np.ascontiguousarray(win).reshape(c * k * k, n * ho * wo)


def conv2d_forward(x: np.ndarray, layer: ConvLayer):
    """Dilated cross-correlation of the zero-padded input (n, c_in, h, w),
    plus bias; returns the pair (output, taps): a C-contiguous
    (n, c_out, ho, wo) array and the taps matrix that conv2d_backward takes
    for this same x.

    One ordered product sum over the (c_in, ky, kx) taps of the taps matrix
    gives each output element a scalar loop's exact order. Bias is added
    last, to the (c_out, pixels) product before its one relayout.
    """
    spec, ho, wo = _checked_geometry(layer, ConvSpec, x)
    n = x.shape[0]
    taps = _taps(x, spec.k, spec.r, spec.stride, spec.pad, ho, wo)
    wgt = layer.weights.transpose(1, 2, 3, 0).reshape(-1, spec.c_out)  # [(ci, ky, kx), co]
    out = np.empty((spec.c_out, n * ho * wo), dtype=np.float64)
    _product_sum(taps, wgt, out)
    out += layer.bias[:, None]
    out = np.ascontiguousarray(out.reshape(spec.c_out, n, ho, wo).transpose(1, 0, 2, 3))
    return out, taps


# The overlap-add is one np.bincount when the columns hold fewer elements than
# this, k*k strided slice-adds otherwise: each slice-add costs a few us of
# call setup, which dominates on small planes, while bincount's scattered
# writes lose on large ones. bincount's time as a share of the slice loop's,
# in-process on a 2-core shared VM (numpy 2.4.6), medians of 10-800 calls in
# two runs: 0.21-0.23 at 2,304 elements, 0.41-0.54 at 9,216, 0.39-0.51 at
# 16,384, 0.55-0.72 at 27,648, 0.78-0.97 at 36,864, 0.78-1.10 at 57,600-65,536,
# 1.29-1.50 at 147,456, 0.98-1.04 at 196,608, 1.17-1.19 at 262,144. Every
# 32x32 training shape (<= 16,384) is below, every 128x128 eval transposed
# conv (>= 196,608) above.
_BINCOUNT_MAX = 1 << 15


@lru_cache
def _overlap_index(c_in: int, k: int, r: int, s: int, n: int, ho: int, wo: int,
                   hp: int, wp: int) -> np.ndarray:
    """Read-only flat canvas (n, c_in, hp, wp) index of each
    cols[ky, kx, ci, n, oy, ox] element, in that row-major order; cached per
    geometry, under 256 KiB each (only columns below _BINCOUNT_MAX ask)."""
    tap = (np.arange(k)[:, None, None] * (r * wp) + np.arange(k)[:, None] * r
           + np.arange(c_in) * (hp * wp))
    pix = (np.arange(n)[:, None, None] * (c_in * hp * wp)
           + np.arange(ho)[:, None] * (s * wp) + np.arange(wo) * s)
    idx = (tap.reshape(-1, 1) + pix.ravel()).ravel()
    idx.flags.writeable = False
    return idx


def _overlap_add(cols: np.ndarray, r: int, s: int, p: int, hw: tuple[int, int]):
    """The scatter adjoint to _taps' gather: adds the C-contiguous columns
    cols[ky, kx, ci, n, oy, ox] onto a zeroed canvas (n, c_in, *hw) padded
    by p, each at (n, ci, oy*s + ky*r, ox*s + kx*r); returns the unpadded view.

    Each canvas element gets 0.0 + its reaching taps in (ky, kx) order. Below
    _BINCOUNT_MAX column elements one np.bincount over _overlap_index adds
    each bin's values one at a time in cols' row-major order, which for one
    canvas element (one ci) is (ky, kx) order; otherwise one strided
    slice-add per (ky, kx).
    """
    k, _, c_in, n, ho, wo = cols.shape
    h, w = hw
    hp, wp = h + 2 * p, w + 2 * p
    if cols.size < _BINCOUNT_MAX:
        idx = _overlap_index(c_in, k, r, s, n, ho, wo, hp, wp)
        acc = np.bincount(idx, cols.ravel(), minlength=n * c_in * hp * wp)
        acc = acc.reshape(n, c_in, hp, wp)
    else:
        acc = np.zeros((n, c_in, hp, wp), dtype=np.float64)
        for ky, kx in np.ndindex(k, k):
            acc[:, :,
                ky * r : ky * r + (ho - 1) * s + 1 : s,
                kx * r : kx * r + (wo - 1) * s + 1 : s] += cols[ky, kx].transpose(1, 0, 2, 3)
    return acc[:, :, p : p + h, p : p + w]


def conv2d_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray,
                    taps: np.ndarray, input_grad: bool = True):
    """Exact gradients of sum(grad_out * out), out = conv2d_forward(x, layer)[0].

    Returns (grad_x, grad_w, grad_b): arrays shaped like x and the weights
    (grad_x a view into a padded canvas when pad > 0, or None when
    input_grad is False) and a c_out vector. grad_w is one GEMM against
    taps, which conv2d_forward(x, layer) returned for x.
    """
    spec, ho, wo = _checked_geometry(layer, ConvSpec, x, grad_out)
    want = (spec.c_in * spec.k * spec.k, x.shape[0] * ho * wo)
    if taps.shape != want:
        raise ValueError(f"taps shape {taps.shape} != {want}")
    grad_b = grad_out.sum(axis=(0, 2, 3))
    g_mat = grad_out.transpose(1, 0, 2, 3).reshape(spec.c_out, -1)
    grad_w = (g_mat @ taps.T).reshape(spec.weight_shape)
    grad_x = None
    if input_grad:
        cols = layer.weights.transpose(2, 3, 1, 0).reshape(-1, spec.c_out) @ g_mat
        cols = cols.reshape((spec.k, spec.k, spec.c_in, x.shape[0], ho, wo))
        grad_x = _overlap_add(cols, spec.r, spec.stride, spec.pad, x.shape[2:])
    return grad_x, grad_w, grad_b


def transposed_conv_forward(x: np.ndarray, layer: ConvLayer) -> np.ndarray:
    """Transposed conv of (n, c_in, h, w) plus bias: (n, c_out, ho, wo); the
    layer's spec is a TransposedConvSpec. Ordered columns, then conv
    grad_x's overlap-add."""
    spec, ho, wo = _checked_geometry(layer, TransposedConvSpec, x)
    n, c_in, h, w = x.shape
    cols = np.empty((spec.k, spec.k, spec.c_out, n, h, w), dtype=np.float64)
    _product_sum(x.transpose(1, 0, 2, 3).reshape(c_in, -1),
                 layer.weights.transpose(0, 2, 3, 1).reshape(c_in, -1),
                 cols.reshape(-1, n * h * w))
    full = _overlap_add(cols, 1, spec.stride, spec.pad, (ho, wo))
    return full + layer.bias[None, :, None, None]


def transposed_conv_backward(x: np.ndarray, layer: ConvLayer, grad_out: np.ndarray):
    """Gradients of sum(grad_out * transposed_conv_forward(x, layer)):
    (grad_x, grad_w, grad_b), grad_x a transposed view shaped like x. The
    forward scattered x onto a padded canvas; the adjoint gathers grad_out
    back, taps[(co, ky, kx), (n, y, x)] == padded grad_out[n, co, y*stride +
    ky, x*stride + kx], and each gradient is one GEMM against those taps."""
    spec, _, _ = _checked_geometry(layer, TransposedConvSpec, x, grad_out)
    n, c_in, h, w = x.shape
    grad_b = grad_out.sum(axis=(0, 2, 3))
    taps = _taps(grad_out, spec.k, 1, spec.stride, spec.pad, h, w)
    grad_x = layer.weights.reshape(c_in, -1) @ taps
    grad_x = grad_x.reshape(c_in, n, h, w).transpose(1, 0, 2, 3)
    grad_w = (x.transpose(1, 0, 2, 3).reshape(c_in, -1) @ taps.T).reshape(spec.weight_shape)
    return grad_x, grad_w, grad_b
