"""Decoders that turn low-resolution feature maps into full-resolution label
maps: dense upsampling convolution (DUC: a decode conv, then a sub-pixel
rearrangement) and fixed bilinear interpolation. Each takes and returns
(n, c, h, w) float64 ndarrays.

The third decoder, the learnable transposed conv, is the conv's adjoint, so
its spec and ops live in conv.py beside the kernels they share. This module
uses only conv.py's public names; duc_weights_from_transposed maps a
non-overlapping transposed-conv layer onto a DUC decode that reproduces it.

DUC channel layout is class-major and fixed package-wide: with s = d / cell,
pre-rearrangement channel chan(l, dy, dx) = l*s*s + dy*s + dx holds the
prediction for class l at sub-pixel offset (dy, dx). Keeping the s*s offsets
of one class contiguous makes the class axis of the rearranged map a plain
reshape away.

Bilinear upsampling is separable: one pass over rows, then one over columns,
each with at most two nonzero weights per output, defined once by the
closed-form table of _bilinear_taps. The forward gathers those two taps and
is still the dense product bit for bit on finite input: a sum of at most two
nonzero products rounds the same in any order (no FMA), zero-weight terms
add only signed zeros, and one final + 0.0 gives a zero sum the +0.0 a dense
sum gives. Each (n, c) plane is gathered on its own, so the result does not
depend on the batch size. The backward, the exact adjoint, multiplies by the
transposed dense matrices that _bilinear_matrix writes out from that table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conv import ConvLayer, ConvSpec, TransposedConvSpec, conv2d_backward, conv2d_forward


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


def duc_forward(features: np.ndarray, layer: ConvLayer, spec: DucSpec):
    """Decode conv then rearrange: (n, c, h, w) -> (n, L, h*s, w*s); returns
    the pair (output, the conv's taps), the taps for duc_backward."""
    if layer.spec.c_out != spec.conv_channels:
        raise ValueError(
            f"decode conv produces {layer.spec.c_out} channels, "
            f"spec needs {spec.conv_channels}"
        )
    out, taps = conv2d_forward(features, layer)
    return duc_rearrange(out, spec), taps


def duc_backward(features: np.ndarray, layer: ConvLayer, spec: DucSpec,
                 grad_out: np.ndarray, taps: np.ndarray):
    """Gradients of sum(grad_out * duc_forward(...)[0]); returns
    (grad_features, grad_w, grad_b). taps are the ones that
    duc_forward(features, ...) returned."""
    grad_conv = duc_rearrange_inverse(grad_out, spec)
    return conv2d_backward(features, layer, grad_conv, taps)


# ---------------------------------------------------------------------------
# bilinear upsampling (align-corners-false, edge-clamped); fixed baseline,
# not learnable, but linear so its adjoint routes gradients exactly
# ---------------------------------------------------------------------------


@lru_cache
def _bilinear_taps(n_in: int, factor: int):
    """The one definition of the weights along one axis: (first, w_first,
    last, w_last). Output o sits at src = (o + 0.5) / factor - 0.5 and reads
    floor(src) with weight 1 - frac and floor(src) + 1 with frac, each index
    clamped to the plane. Two taps clamped onto one pixel merge into
    w_first = (1 - frac) + frac, and a zero frac drops the second tap; either
    way last == first and w_last == 0.0. Cached per (n_in, factor) and shared
    by every caller, so read-only."""
    src = (np.arange(n_in * factor) + 0.5) / factor - 0.5
    left = np.floor(src)
    frac = src - left
    first = np.clip(left, 0, n_in - 1).astype(np.intp)
    last = np.clip(left + 1, 0, n_in - 1).astype(np.intp)
    w_first = 1.0 - frac
    merged = last == first
    w_first[merged] += frac[merged]
    single = merged | (frac == 0.0)
    last[single] = first[single]
    w_last = np.where(single, 0.0, frac)
    for a in (first, w_first, last, w_last):
        a.flags.writeable = False
    return first, w_first, last, w_last


@lru_cache
def _bilinear_matrix(n_in: int, factor: int) -> np.ndarray:
    """_bilinear_taps written out as the dense row-stochastic
    (n_in*factor, n_in) matrix the backward multiplies by. Cached per
    (n_in, factor) and shared by every caller, so read-only."""
    first, w_first, last, w_last = _bilinear_taps(n_in, factor)
    rows = np.arange(first.size)
    m = np.zeros((first.size, n_in), dtype=np.float64)
    m[rows, first] = w_first
    m[rows, last] += w_last
    m.flags.writeable = False
    return m


def _interpolate_axis(x: np.ndarray, axis: int, factor: int) -> np.ndarray:
    """One separable pass: along axis, output o = w_first[o] * x[first[o]]
    + w_last[o] * x[last[o]]."""
    first, w_first, last, w_last = _bilinear_taps(x.shape[axis], factor)
    trailing = (1,) * (x.ndim - 1 - axis)
    out = x.take(first, axis=axis)
    out *= w_first.reshape(-1, *trailing)
    other = x.take(last, axis=axis)
    other *= w_last.reshape(-1, *trailing)
    out += other
    return out


def bilinear_upsample(x: np.ndarray, factor: int) -> np.ndarray:
    """Upscale both spatial axes by an integer factor; each output pixel is a
    convex combination of at most 4 input pixels.

    An inf or NaN input pixel makes non-finite only the outputs that weight
    it; every other output is what any finite value there would give."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    out = _interpolate_axis(_interpolate_axis(x, 2, factor), 3, factor)
    out += 0.0  # a zero sum reads +0.0, as the dense product gives
    return out


def bilinear_backward(grad_out: np.ndarray, in_hw: tuple[int, int],
                      factor: int) -> np.ndarray:
    """Adjoint of bilinear_upsample for gradient routing: the transposed
    dense interpolation matrices, columns first, then rows."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    h, w = in_hw
    if grad_out.shape[2:] != (h * factor, w * factor):
        raise ValueError(f"grad_out plane {grad_out.shape[2:]} is not "
                         f"{h}x{w} upsampled by {factor}")
    my = _bilinear_matrix(h, factor)
    mx = _bilinear_matrix(w, factor)
    return np.einsum("oh,ncow->nchw", my, np.einsum("pw,ncop->ncow", mx, grad_out))


def duc_weights_from_transposed(layer: ConvLayer):
    """Construct the 1x1 decode conv that makes DUC reproduce a
    non-overlapping transposed conv (stride == kernel size, pad 0) exactly.

    Returns (ConvLayer, DucSpec); duc_forward with these equals
    transposed_conv_forward with `layer`, bit for bit.
    """
    spec = layer.spec
    if not isinstance(spec, TransposedConvSpec):
        raise ValueError(f"layer holds a {type(spec).__name__}, "
                         "the mapping needs a TransposedConvSpec")
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
