"""Dilated 2-D convolution with analytic gradients.

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
* Both run through _product_sum, out[j, m] = 0.0 + p[0, j, m] + p[1, j, m]
  + ... for the products p[t, j, m] = a[t, m] * b[t, j]. It works one pixel
  tile at a time: jc rows j by mc pixels m, with t*jc*mc at most
  _BUF_ELEMS float64 (1 MiB). A plane whose t*pixels products fit the
  buffer is one tile wide, cut into chunks of rows; a larger plane is cut
  into tiles _TILE_PIXELS wide (narrower when t alone is that large), so
  that a tile's products and inputs stay in cache. np.einsum writes a tile's products
  into one C-contiguous buffer (no summed index: one multiply each; a zero
  product's sign is invisible to a sum from +0.0), and one
  np.add.reduce(axis=0, initial=0.0) over its slowest axis sums them into
  the tile of out. Along a non-fast axis numpy adds whole slices in index
  order, so each element gets 0.0 + p0 + p1 + ... as in the scalar loop; it
  sums pairwise along the fast axis, which a 1x1 tile would use, so that
  one is accumulated instead. Tiles decide which elements are summed
  together, never the order within one. A numpy that reordered would fail
  the bitwise tests (with their *_across_buffer_chunks, *_across_pixel_tiles
  and *_tap_by_tap cases, the last pixel tile one pixel wide and in some
  cases 1x1), test_one_pixel_results_keep_the_sequential_order and
  test_forward_keeps_signed_zeros_of_the_naive_loop.
* grad_w, here and in the transposed conv, is one BLAS contraction over a
  strided window view and has no order contract; its tests use a tolerance.

Layers have no file format of their own; train.save_net writes them as part
of a whole net.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Rng, Tensor, he_init

_BUF_ELEMS = 1 << 17  # float64 per product buffer: 1 MiB, inside a 2 MiB L2 cache
# Pixels per tile of a plane that overflows the buffer. Timed on the 128x128
# eval planes (144 taps by 1024 pixels, 3 to 48 rows; 2-core Xeon, numpy
# 2.4.6), 256 was fastest or tied among widths 32 to 1024; 32 took up to
# 1.95x its time and 1024 up to 1.2x.
_TILE_PIXELS = 256


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
        _set_params(self, spec, weights, bias, (spec.c_out, spec.c_in, spec.k, spec.k))

    @staticmethod
    def initialized(spec: ConvSpec, rng: Rng) -> "ConvLayer":
        fan_in = spec.c_in * spec.k * spec.k
        w = he_init((spec.c_out, spec.c_in, spec.k, spec.k), fan_in, rng)
        return ConvLayer(spec, w)


def _set_params(layer, spec, weights: Tensor, bias, expected: tuple) -> None:
    """Check weight shape and bias length; set layer.spec, .weights, .bias (zeros if None)."""
    if weights.shape != expected:
        raise ValueError(f"weight shape {weights.shape} != {expected}")
    bias = np.zeros(spec.c_out) if bias is None else np.asarray(bias, dtype=np.float64).ravel()
    if bias.size != spec.c_out:
        raise ValueError(f"bias length {bias.size} != c_out {spec.c_out}")
    layer.spec, layer.weights, layer.bias = spec, weights, bias


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
    """out[j, m] = 0.0 + p[0, j, m] + p[1, j, m] + ..., summed in index order,
    for the products p[t, j, m] = a[t, m] * b[t, j].

    Runs one tile of jc rows by mc pixels at a time, t*jc*mc <= _BUF_ELEMS.
    When t*pixels fits the buffer a tile spans every pixel and only the rows
    are chunked; otherwise tiles are _TILE_PIXELS wide, or _BUF_ELEMS // t
    when that is less. The tiles pick which elements are summed together,
    never the order of one sum: the *_across_pixel_tiles tests (last tile one
    pixel wide, and a 1x1 tile) and *_across_buffer_chunks tests compare the
    ops built on this with the scalar loops of tests/oracles.py bit for bit.
    """
    t, pixels = a.shape
    rows = b.shape[1]
    mc = pixels if t * pixels <= _BUF_ELEMS else max(1, min(_TILE_PIXELS, _BUF_ELEMS // t))
    jc = min(rows, max(1, _BUF_ELEMS // (t * mc)))
    buf = np.empty(t * jc * mc, dtype=np.float64)
    for m in range(0, pixels, mc):
        am = a[:, m : m + mc]
        for j in range(0, rows, jc):
            tile = out[j : j + jc, m : m + mc]
            prod = np.einsum("tm,tj->tjm", am, b[:, j : j + jc],
                             out=buf[: t * tile.size].reshape((t,) + tile.shape))
            if tile.size > 1:
                np.add.reduce(prod, axis=0, out=tile, initial=0.0)
            else:  # a lone run would be summed pairwise; accumulate keeps the order
                tile[...] = np.add.accumulate(np.append(0.0, prod))[-1]


def conv2d_forward(x: Tensor, layer: ConvLayer) -> Tensor:
    """Dilated cross-correlation of the zero-padded input, plus bias.

    One ordered product sum over the (c_in, ky, kx) taps of a tap-major copy
    of the window view gives each output element a scalar loop's exact
    order. Bias is added last.
    """
    spec = layer.spec
    n, c, h, w = x.shape
    if c != spec.c_in:
        raise ValueError(f"input has {c} channels, layer expects {spec.c_in}")
    ho, wo = spec.out_size(h, w)

    win = _window(_pad(x.data, spec.pad), spec.k, spec.r, spec.stride, ho, wo)
    # taps[(ci, ky, kx), (n, oy, ox)], wgt[(ci, ky, kx), co]
    taps = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(-1, n * ho * wo)
    wgt = layer.weights.data.transpose(1, 2, 3, 0).reshape(-1, spec.c_out)
    out = np.empty((spec.c_out, n * ho * wo), dtype=np.float64)
    _product_sum(taps, wgt, out)
    out = np.ascontiguousarray(out.reshape(spec.c_out, n, ho, wo).transpose(1, 0, 2, 3))
    out += layer.bias[None, :, None, None]
    return Tensor(out)


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

    win = _window(_pad(x.data, p), spec.k, r, s, ho, wo)
    grad_w = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))

    grad_xp = _scatter_input_grad(g, layer.weights.data, r, s, (h + 2 * p, w + 2 * p))
    grad_x = grad_xp[:, :, p : p + h, p : p + w] if p else grad_xp
    return Tensor(grad_x), Tensor(grad_w), grad_b
