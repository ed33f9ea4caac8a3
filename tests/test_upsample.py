import hashlib

import numpy as np
import pytest

from oracles import (
    bilinear_weights_1d,
    fd_gradient,
    max_rel_err,
    naive_bilinear_upsample,
    naive_conv2d,
    naive_conv2d_grad_w,
    naive_conv2d_grad_x,
    naive_transposed_conv2d,
)
from segconv.conv import (
    _BINCOUNT_MAX,
    ConvLayer,
    ConvSpec,
    TransposedConvSpec,
    conv2d_backward,
    conv2d_forward,
    transposed_conv_backward,
    transposed_conv_forward,
)
from segconv.tensor import Rng, he_init
from segconv.upsample import (
    DucSpec,
    _bilinear_matrix,
    _bilinear_taps,
    bilinear_backward,
    bilinear_upsample,
    duc_backward,
    duc_forward,
    duc_rearrange,
    duc_rearrange_inverse,
    duc_weights_from_transposed,
)

BILINEAR_2X_GOLDEN = np.array([
    [0.0, 0.25, 0.75, 1.0],
    [0.0, 0.25, 0.75, 1.0],
    [0.0, 0.25, 0.75, 1.0],
    [0.0, 0.25, 0.75, 1.0],
])


def duc_layer(rng, c_in, spec, k=3, pad=1):
    cspec = ConvSpec(k=k, r=1, stride=1, c_in=c_in, c_out=spec.conv_channels, pad=pad)
    layer = ConvLayer.initialized(cspec, rng)
    layer.bias[:] = rng.normal(cspec.c_out)
    return layer


# -- rearrangement -------------------------------------------------------------


def test_rearrange_identity_when_d_equals_cell_ratio_one():
    spec = DucSpec(d=1, classes=3, cell=1)
    x = he_init((2, 3, 4, 5), 2, Rng(1))
    assert np.array_equal(duc_rearrange(x, spec), x)


def test_rearrange_d2_single_class_layout():
    spec = DucSpec(d=2, classes=2, cell=1)
    # only class 0 populated: channels 0..3 hold offsets (0,0),(0,1),(1,0),(1,1)
    x = np.zeros((1, 8, 1, 1))
    a, b, c, d = 10.0, 20.0, 30.0, 40.0
    x[0, 0, 0, 0] = a
    x[0, 1, 0, 0] = b
    x[0, 2, 0, 0] = c
    x[0, 3, 0, 0] = d
    out = duc_rearrange(x, spec)
    assert out.shape == (1, 2, 2, 2)
    assert np.array_equal(out[0, 0], [[a, b], [c, d]])
    assert np.all(out[0, 1] == 0.0)


def test_rearrange_preserves_value_multiset():
    spec = DucSpec(d=2, classes=3, cell=1)
    x = he_init((1, 12, 5, 7), 2, Rng(2))
    out = duc_rearrange(x, spec)
    assert sorted(out.ravel()) == sorted(x.ravel())


@pytest.mark.parametrize("d", [1, 2, 4, 8])
@pytest.mark.parametrize("cell", [1, 2])
@pytest.mark.parametrize("classes", [2, 3, 19])
def test_rearrange_roundtrip_bit_exact(d, cell, classes):
    if d % cell:
        with pytest.raises(ValueError):
            DucSpec(d=d, classes=classes, cell=cell)
        return
    spec = DucSpec(d=d, classes=classes, cell=cell)
    x = he_init((2, spec.conv_channels, 3, 4), 2, Rng(d * 100 + cell * 10 + classes))
    back = duc_rearrange_inverse(duc_rearrange(x, spec), spec)
    assert np.array_equal(back, x)


def test_rearrange_channel_mismatch_rejected():
    spec = DucSpec(d=2, classes=3, cell=1)
    with pytest.raises(ValueError):
        duc_rearrange(np.zeros((1, 11, 2, 2)), spec)


# -- duc forward/backward -------------------------------------------------------


def test_duc_forward_channel_and_shape_accounting():
    rng = Rng(3)
    spec = DucSpec(d=8, classes=19, cell=1)
    assert spec.conv_channels == 1216
    layer = duc_layer(rng, 4, spec)
    out = duc_forward(he_init((1, 4, 4, 4), 2, rng), layer, spec)[0]
    assert out.shape == (1, 19, 32, 32)


def test_duc_cell2_quarters_channels_and_halves_output():
    spec = DucSpec(d=8, classes=19, cell=2)
    assert spec.conv_channels == 304
    rng = Rng(4)
    layer = duc_layer(rng, 4, spec)
    out = duc_forward(he_init((1, 4, 4, 4), 2, rng), layer, spec)[0]
    assert out.shape == (1, 19, 16, 16)


def test_duc_constant_bias_floods_one_class():
    spec = DucSpec(d=4, classes=3, cell=1)
    cspec = ConvSpec(k=3, r=1, stride=1, c_in=2, c_out=spec.conv_channels, pad=1)
    layer = ConvLayer(cspec, np.zeros((spec.conv_channels, 2, 3, 3)))
    beta = 2.5
    for dy in range(4):
        for dx in range(4):
            layer.bias[1 * 16 + dy * 4 + dx] = beta  # chan(1, dy, dx) at s = 4
    out = duc_forward(he_init((1, 2, 4, 4), 2, Rng(5)), layer, spec)[0]
    assert np.all(out[0, 1] == beta)
    assert np.all(out[0, 0] == 0.0) and np.all(out[0, 2] == 0.0)


def test_duc_backward_zero_grad():
    rng = Rng(6)
    spec = DucSpec(d=2, classes=2, cell=1)
    layer = duc_layer(rng, 2, spec)
    feats = he_init((1, 2, 3, 3), 2, rng)
    _, taps = duc_forward(feats, layer, spec)
    gx, gw, gb = duc_backward(feats, layer, spec, np.zeros((1, 2, 6, 6)), taps)
    assert not gx.any() and not gw.any() and not gb.any()


def test_duc_backward_matches_finite_differences():
    rng = Rng(7)
    spec = DucSpec(d=2, classes=2, cell=1)
    layer = duc_layer(rng, 2, spec)
    feats = he_init((1, 2, 3, 3), 2, rng)
    g = he_init((1, 2, 6, 6), 1, rng)

    def objective():
        return float(np.sum(duc_forward(feats, layer, spec)[0] * g))

    _, taps = duc_forward(feats, layer, spec)
    gx, gw, gb = duc_backward(feats, layer, spec, g, taps)
    assert max_rel_err(gx, fd_gradient(objective, feats)) < 1e-4
    assert max_rel_err(gw, fd_gradient(objective, layer.weights)) < 1e-4
    assert max_rel_err(gb, fd_gradient(objective, layer.bias)) < 1e-4


# -- bilinear --------------------------------------------------------------------


def test_duc_taps_pass_through_to_the_backward():
    # duc_forward returns its decode conv's taps, and duc_backward hands
    # them to the conv backward, which checks their shape
    rng = Rng(8)
    spec = DucSpec(d=4, classes=3)
    layer = duc_layer(rng, 5, spec)
    feats = he_init((2, 5, 3, 4), 2, rng)
    out, taps = duc_forward(feats, layer, spec)
    assert np.array_equal(taps, conv2d_forward(feats, layer)[1])
    g = he_init(out.shape, 1, rng)
    gx, gw, gb = duc_backward(feats, layer, spec, g, taps)
    assert gx.shape == feats.shape and gw.shape == layer.weights.shape
    with pytest.raises(ValueError, match=r"^taps shape \(45, 12\) != \(45, 24\)$"):
        duc_backward(feats, layer, spec, g, taps[:, :12])


def test_bilinear_factor1_identity():
    x = he_init((1, 2, 3, 3), 2, Rng(8))
    assert np.array_equal(bilinear_upsample(x, 1), x)
    g = he_init((1, 2, 3, 4), 2, Rng(9))
    assert np.array_equal(bilinear_backward(g, (3, 4), 1), g)


def test_bilinear_constant_preserved():
    out = bilinear_upsample(np.full((1, 1, 3, 5), 4.25), 3)
    assert out.shape == (1, 1, 9, 15)
    assert np.allclose(out, 4.25, rtol=0, atol=1e-15)


def test_bilinear_2x_golden():
    x = np.array([[0.0, 1.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
    out = bilinear_upsample(x, 2)
    assert np.array_equal(out[0, 0], BILINEAR_2X_GOLDEN)


def test_bilinear_rejects_bad_factor():
    with pytest.raises(ValueError):
        bilinear_upsample(np.zeros((1, 1, 2, 2)), 0)


@pytest.mark.parametrize("factor", [0, -1])
def test_bilinear_backward_rejects_bad_factor(factor):
    with pytest.raises(ValueError, match="factor must be >= 1"):
        bilinear_backward(np.zeros((1, 1, 2, 2)), (2, 2), factor)


@pytest.mark.parametrize("plane", [(8, 12), (12, 8), (11, 12), (3, 4)])
def test_bilinear_backward_rejects_plane_not_in_hw_times_factor(plane):
    with pytest.raises(ValueError, match="not 3x4 upsampled by 4"):
        bilinear_backward(np.zeros((1, 2) + plane), (3, 4), 4)


BILINEAR_SHAPES = [(1, 1, 1, 1), (1, 1, 3, 4), (2, 3, 5, 2), (3, 2, 4, 7)]


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape", BILINEAR_SHAPES + [(1, 3, 32, 32)])
def test_bilinear_matches_oracle_bit_for_bit(factor, shape):
    # signed zeros, tiny and huge magnitudes next to ordinary values: every
    # product and two-term sum must round as the ordered dense sum does
    rng = Rng(factor * 10 + shape[3])
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300])
    picks = (he_init(shape, 2, rng) * 4).astype(np.int64) % special.size
    for x in (he_init(shape, 2, rng), special[picks], np.where(picks % 2, -0.0, 0.0)):
        got = bilinear_upsample(x, factor)
        want = naive_bilinear_upsample(x, factor)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_bilinear_non_finite_input_reaches_only_the_outputs_that_weight_it(bad):
    # a dense product would spread 0 * inf = NaN over whole rows and columns
    x = he_init((1, 2, 5, 6), 2, Rng(13))
    out = bilinear_upsample(x, 3)
    x[0, 1, 2, 4] = bad
    with np.errstate(invalid="ignore"):  # 0.0 * inf on a zero-weight second tap
        hit = bilinear_upsample(x, 3)
    weighted = np.outer(bilinear_weights_1d(5, 3)[:, 2] != 0.0,
                        bilinear_weights_1d(6, 3)[:, 4] != 0.0)
    assert np.array_equal(~np.isfinite(hit[0, 1]), weighted)
    assert hit[0, 1][~weighted].tobytes() == out[0, 1][~weighted].tobytes()
    assert hit[0, 0].tobytes() == out[0, 0].tobytes()


def test_bilinear_adjoint_consistency():
    # <up(x), g> == <x, up^T(g)> makes the gradient routing exact; the
    # gather forward and the dense backward share no code path
    rng = Rng(9)
    for factor in range(1, 6):
        for n, c, h, w in BILINEAR_SHAPES:
            x = he_init((n, c, h, w), 2, rng)
            g = he_init((n, c, h * factor, w * factor), 2, rng)
            up = bilinear_upsample(x, factor) * g
            down = x * bilinear_backward(g, (h, w), factor)
            scale = float(np.sum(np.abs(up)))
            assert abs(float(np.sum(up)) - float(np.sum(down))) <= 1e-12 * scale, (factor, h, w)


def test_bilinear_matrix_matches_the_oracle_weights_byte_for_byte():
    # the closed-form tap table and the matrix written out from it are the
    # independent per-row definition's weights, to the last bit, signed
    # zeros included
    for n_in in range(1, 65):
        for factor in range(1, 9):
            want = bilinear_weights_1d(n_in, factor)
            m = _bilinear_matrix(n_in, factor)
            assert m.shape == want.shape and m.tobytes() == want.tobytes(), (n_in, factor)
            first, w_first, last, w_last = _bilinear_taps(n_in, factor)
            rows = np.arange(n_in * factor)
            assert np.all(last >= first) and not np.any(w_first == 0.0)
            assert np.all((w_last == 0.0) == (last == first)), (n_in, factor)
            written = np.zeros_like(want)
            written[rows, first] = w_first
            written[rows, last] += w_last
            assert written.tobytes() == want.tobytes(), (n_in, factor)


# sha256 of bilinear_backward's output bytes, which criterion 8's bilinear
# bits rest on: the training shape (8x8 -> 32x32, factor 4, 3 classes), an
# odd batch-2 plane and a one-row plane
BILINEAR_BACKWARD_SHA256 = {
    (1, 3, 8, 8, 4, 0): "6de071f28c69a562850be5447e68a710482c1713edbd557649bd273398e66596",
    (2, 3, 5, 7, 3, 1): "60e306b1f72fe0ab24d55ef07d76c3c1058cab2707f66cf1e02d12e30ab82d2c",
    (1, 2, 1, 6, 8, 2): "4a0083a1a97bc229e78bfefe943989b8bfe2d72c71710b0eefdd563d86c56416",
}


@pytest.mark.parametrize("case", BILINEAR_BACKWARD_SHA256, ids=str)
def test_bilinear_backward_bits_are_pinned(case):
    n, c, h, w, factor, seed = case
    g = np.random.default_rng(seed).standard_normal((n, c, h * factor, w * factor))
    out = bilinear_backward(g, (h, w), factor)
    assert out.shape == (n, c, h, w)
    assert hashlib.sha256(out.tobytes()).hexdigest() == BILINEAR_BACKWARD_SHA256[case]


def test_bilinear_matrix_is_cached_read_only():
    # one array serves every call with the same geometry; a caller that
    # wrote to it would change every later upsample
    m = _bilinear_matrix(3, 4)
    assert m is _bilinear_matrix(3, 4)
    with pytest.raises(ValueError):
        m[0, 0] = 0.0


def test_bilinear_taps_are_cached_read_only():
    taps = _bilinear_taps(3, 4)
    assert taps is _bilinear_taps(3, 4)
    for a in taps:
        with pytest.raises(ValueError):
            a[0] = 0


# -- transposed convolution -------------------------------------------------------


def test_transposed_delta_input_stamps_kernel():
    spec = TransposedConvSpec(k=3, stride=2, c_in=1, c_out=1, pad=0)
    rng = Rng(10)
    layer = ConvLayer.initialized(spec, rng)
    x = np.zeros((1, 1, 2, 2))
    x[0, 0, 0, 0] = 1.0
    out = transposed_conv_forward(x, layer)
    assert out.shape == (1, 1, 5, 5)
    assert np.array_equal(out[0, 0, :3, :3], layer.weights[0, 0])
    assert np.all(out[0, 0, 3:, :] == 0.0) and np.all(out[0, 0, :, 3:] == 0.0)


def test_transposed_output_shape_k4_s2_p1():
    spec = TransposedConvSpec(k=4, stride=2, c_in=1, c_out=1, pad=1)
    layer = ConvLayer.initialized(spec, Rng(11))
    out = transposed_conv_forward(np.ones((1, 1, 4, 4)), layer)
    assert out.shape == (1, 1, 8, 8)


def test_transposed_matches_naive_stamping():
    rng = Rng(12)
    spec = TransposedConvSpec(k=4, stride=2, c_in=2, c_out=3, pad=1)
    layer = ConvLayer.initialized(spec, rng)
    layer.bias[:] = rng.normal(3)
    x = he_init((2, 2, 3, 4), 2, rng)
    got = transposed_conv_forward(x, layer)
    expect = naive_transposed_conv2d(x, layer.weights, layer.bias,
                                     stride=2, pad=1)
    assert np.allclose(got, expect, rtol=0, atol=1e-12)


def test_transposed_equals_conv_input_gradient():
    # the adjoint identity: scattering g through W == grad_x of the conv
    # built from the same weight array; the conv's columns are a GEMM over
    # its c_out, so that identity is bit for bit only with one output channel
    rng = Rng(13)
    k, r, s, pad = 3, 1, 2, 1
    c_up = 3
    for c_low in (2, 1):
        conv_spec = ConvSpec(k=k, r=r, stride=s, c_in=c_up, c_out=c_low, pad=pad)
        conv = ConvLayer.initialized(conv_spec, rng)
        x_up = he_init((1, c_up, 7, 7), 2, rng)
        g = he_init((1, c_low) + conv_spec.out_size(7, 7), 1, rng)
        _, taps = conv2d_forward(x_up, conv)
        gx, _, _ = conv2d_backward(x_up, conv, g, taps)

        tspec = TransposedConvSpec(k=k, stride=s, c_in=c_low, c_out=c_up, pad=pad)
        tlayer = ConvLayer(tspec, conv.weights)  # zero bias
        up = transposed_conv_forward(g, tlayer)
        # the scatter reconstructs only positions reachable from the output grid
        gx = gx[:, :, :up.shape[2], :up.shape[3]]
        if c_low == 1:
            assert np.array_equal(up, gx)
        else:
            assert np.allclose(up, gx, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", (1, 3, 5))
def test_transposed_forward_matches_naive_scatter_order_bitwise(k):
    # the transposed conv shares conv grad_x's overlap-add and sums its
    # columns in order: taps in (ky, kx) order, each a sequential sum over c_in
    rng = Rng(50 + k)
    for s in (1, 2, 3):
        for pad in (0, 1, 2):
            for c_in in (1, 3, 29):
                spec = TransposedConvSpec(k=k, stride=s, c_in=c_in, c_out=2, pad=pad)
                layer = ConvLayer.initialized(spec, rng)  # zero bias
                x = he_init((2, c_in, 6, 5), 2, rng)
                got = transposed_conv_forward(x, layer)
                want = naive_conv2d_grad_x(x, layer.weights,
                                           spec.out_size(6, 5), stride=s, pad=pad)
                assert np.array_equal(got, want), (s, pad, c_in)


# the column pass sums over c_in, on large planes: the `below` cases hold
# over 1 MiB of float64 products, and pixel counts that are no multiple of 8
# end einsum's unrolled pixel loop in its remainder. The columns (k*k*c_out
# rows x pixels) fall on the side of _BINCOUNT_MAX that `side` names, so
# both overlap-add branches and the boundary itself are checked against the
# oracle.
@pytest.mark.parametrize("seed, k, stride, pad, c_in, c_out, hw, side", [
    pytest.param(55, 4, 2, 1, 29, 4, (16, 16), "below", id="64rows-29in-256px"),
    pytest.param(60, 1, 1, 0, 128, 4, (25, 41), "below", id="4rows-128in-1025px"),
    pytest.param(59, 1, 1, 0, 520, 3, (11, 23), "below", id="3rows-520in-253px"),
    pytest.param(61, 4, 2, 1, 3, 2, (32, 32), "at", id="32rows-3in-1024px"),
    pytest.param(62, 4, 2, 1, 5, 3, (24, 30), "above", id="48rows-5in-720px"),
])
def test_transposed_forward_bitwise_on_large_planes(seed, k, stride, pad, c_in, c_out,
                                                    hw, side):
    rng = Rng(seed)
    spec = TransposedConvSpec(k=k, stride=stride, c_in=c_in, c_out=c_out, pad=pad)
    cols = k * k * c_out * hw[0] * hw[1]
    assert {"below": cols < _BINCOUNT_MAX, "at": cols == _BINCOUNT_MAX,
            "above": cols > _BINCOUNT_MAX}[side]
    layer = ConvLayer.initialized(spec, rng)  # zero bias
    x = he_init((1, c_in) + hw, 2, rng)
    got = transposed_conv_forward(x, layer)
    want = naive_conv2d_grad_x(x, layer.weights, spec.out_size(*hw),
                               stride=stride, pad=pad)
    assert np.array_equal(got, want)


def test_transposed_gradients_match_finite_differences():
    rng = Rng(14)
    spec = TransposedConvSpec(k=4, stride=2, c_in=2, c_out=2, pad=1)
    layer = ConvLayer.initialized(spec, rng)
    layer.bias[:] = rng.normal(2)
    x = he_init((1, 2, 3, 3), 2, rng)
    g = he_init((1, 2, 6, 6), 1, rng)

    def objective():
        return float(np.sum(transposed_conv_forward(x, layer) * g))

    gx, gw, gb = transposed_conv_backward(x, layer, g)
    assert max_rel_err(gx, fd_gradient(objective, x)) < 1e-4
    assert max_rel_err(gw, fd_gradient(objective, layer.weights)) < 1e-4
    assert max_rel_err(gb, fd_gradient(objective, layer.bias)) < 1e-4


def test_transposed_backward_is_exact_adjoint_over_geometry_sweep():
    # stride > k leaves canvas positions no input pixel reaches; the taps
    # gather must skip them in both gradients
    rng = Rng(16)
    for k in (1, 2, 3, 4):
        for s in (1, 2, 3):
            for pad in (0, 1):
                spec = TransposedConvSpec(k=k, stride=s, c_in=2, c_out=3, pad=pad)
                layer = ConvLayer.initialized(spec, rng)  # zero bias
                x = he_init((2, 2, 4, 3), 2, rng)
                g = he_init((2, 3) + spec.out_size(4, 3), 1, rng)
                gx, gw, _ = transposed_conv_backward(x, layer, g)
                lhs = float(np.sum(g * transposed_conv_forward(x, layer)))
                tol = 1e-12 * max(1.0, abs(lhs))
                assert abs(lhs - float(np.sum(x * gx))) < tol
                assert abs(lhs - float(np.sum(layer.weights * gw))) < tol
                want = naive_conv2d_grad_w(g, x, k, stride=s, pad=pad)
                assert np.allclose(gw, want, rtol=1e-12, atol=1e-12)
                # grad_x is the conv of g with the weights read as (c_in, c_out)
                want = naive_conv2d(g, layer.weights, np.zeros(2), stride=s, pad=pad)
                assert np.allclose(gx, want, rtol=1e-12, atol=1e-12)


def test_transposed_grad_shape_mismatch_rejected():
    rng = Rng(15)
    spec = TransposedConvSpec(k=4, stride=2, c_in=1, c_out=1, pad=1)
    layer = ConvLayer.initialized(spec, rng)
    x = np.zeros((1, 1, 3, 3))
    with pytest.raises(ValueError):
        transposed_conv_backward(x, layer, np.zeros((1, 1, 5, 5)))


def test_transposed_backward_rejects_wrong_input_channels():
    spec = TransposedConvSpec(k=4, stride=2, c_in=2, c_out=3, pad=1)
    layer = ConvLayer.initialized(spec, Rng(17))
    x = np.zeros((1, 5, 3, 3))
    with pytest.raises(ValueError, match="input has 5 channels, layer expects 2"):
        transposed_conv_backward(x, layer, np.zeros((1, 3, 6, 6)))


def test_layer_weight_layout_comes_from_the_spec():
    # a transposed conv stores (c_in, c_out, k, k), a conv (c_out, c_in, k, k)
    tspec = TransposedConvSpec(k=4, stride=2, c_in=2, c_out=3, pad=1)
    cspec = ConvSpec(k=3, stride=2, c_in=2, c_out=3, pad=1)
    assert ConvLayer(tspec, np.zeros((2, 3, 4, 4))).weights.shape == (2, 3, 4, 4)
    assert ConvLayer(cspec, np.zeros((3, 2, 3, 3))).weights.shape == (3, 2, 3, 3)
    with pytest.raises(ValueError, match=r"\(2, 3, 4, 4\)"):
        ConvLayer(tspec, np.zeros((3, 2, 4, 4)))
    with pytest.raises(ValueError, match=r"\(3, 2, 3, 3\)"):
        ConvLayer(cspec, np.zeros((2, 3, 3, 3)))


# -- expressiveness: DUC subsumes non-overlapping transposed conv ------------------


@pytest.mark.parametrize("seed", range(20))
def test_duc_reproduces_nonoverlapping_transposed_conv_bitwise(seed):
    rng = Rng(1000 + seed)
    d = (2, 4)[rng.randint(2)]
    c_in = 1 + rng.randint(4)
    classes = 2 + rng.randint(3)
    spec = TransposedConvSpec(k=d, stride=d, c_in=c_in, c_out=classes, pad=0)
    tlayer = ConvLayer.initialized(spec, rng)
    tlayer.bias[:] = rng.normal(classes)
    feats = he_init((1 + rng.randint(2), c_in, 2 + rng.randint(4), 2 + rng.randint(4)),
                    2, rng)
    want = transposed_conv_forward(feats, tlayer)
    clayer, duc_spec = duc_weights_from_transposed(tlayer)
    got = duc_forward(feats, clayer, duc_spec)[0]
    assert got.shape == want.shape
    assert np.array_equal(got, want)  # exact, same accumulation order


def test_duc_weight_mapping_rejects_overlapping_layers():
    spec = TransposedConvSpec(k=4, stride=2, c_in=1, c_out=2, pad=1)
    with pytest.raises(ValueError):
        duc_weights_from_transposed(ConvLayer.initialized(spec, Rng(0)))


def test_duc_weight_mapping_rejects_a_conv_layer():
    # a stride-3 3x3 conv passes the non-overlap test but is no transposed conv
    spec = ConvSpec(k=3, r=1, stride=3, c_in=2, c_out=3, pad=0)
    with pytest.raises(ValueError, match="layer holds a ConvSpec, "
                                         "the mapping needs a TransposedConvSpec"):
        duc_weights_from_transposed(ConvLayer.initialized(spec, Rng(0)))
