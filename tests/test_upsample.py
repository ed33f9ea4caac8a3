import numpy as np
import pytest

from oracles import (
    fd_gradient,
    max_rel_err,
    naive_conv2d_grad_w,
    naive_conv2d_grad_x,
    naive_transposed_conv2d,
)
from segconv.conv import ConvLayer, ConvSpec, conv2d_backward
from segconv.tensor import Rng, he_init
from segconv.upsample import (
    DucSpec,
    TransposedConvSpec,
    _bilinear_matrix,
    bilinear_backward,
    bilinear_upsample,
    duc_backward,
    duc_forward,
    duc_rearrange,
    duc_rearrange_inverse,
    duc_weights_from_transposed,
    transposed_conv_backward,
    transposed_conv_forward,
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
    out = duc_forward(he_init((1, 4, 4, 4), 2, rng), layer, spec)
    assert out.shape == (1, 19, 32, 32)


def test_duc_cell2_quarters_channels_and_halves_output():
    spec = DucSpec(d=8, classes=19, cell=2)
    assert spec.conv_channels == 304
    rng = Rng(4)
    layer = duc_layer(rng, 4, spec)
    out = duc_forward(he_init((1, 4, 4, 4), 2, rng), layer, spec)
    assert out.shape == (1, 19, 16, 16)


def test_duc_constant_bias_floods_one_class():
    spec = DucSpec(d=4, classes=3, cell=1)
    cspec = ConvSpec(k=3, r=1, stride=1, c_in=2, c_out=spec.conv_channels, pad=1)
    layer = ConvLayer(cspec, np.zeros((spec.conv_channels, 2, 3, 3)))
    beta = 2.5
    for dy in range(4):
        for dx in range(4):
            layer.bias[1 * 16 + dy * 4 + dx] = beta  # chan(1, dy, dx) at s = 4
    out = duc_forward(he_init((1, 2, 4, 4), 2, Rng(5)), layer, spec)
    assert np.all(out[0, 1] == beta)
    assert np.all(out[0, 0] == 0.0) and np.all(out[0, 2] == 0.0)


def test_duc_backward_zero_grad():
    rng = Rng(6)
    spec = DucSpec(d=2, classes=2, cell=1)
    layer = duc_layer(rng, 2, spec)
    feats = he_init((1, 2, 3, 3), 2, rng)
    gx, gw, gb = duc_backward(feats, layer, spec, np.zeros((1, 2, 6, 6)))
    assert not gx.any() and not gw.any() and not gb.any()


def test_duc_backward_matches_finite_differences():
    rng = Rng(7)
    spec = DucSpec(d=2, classes=2, cell=1)
    layer = duc_layer(rng, 2, spec)
    feats = he_init((1, 2, 3, 3), 2, rng)
    g = he_init((1, 2, 6, 6), 1, rng)

    def objective():
        return float(np.sum(duc_forward(feats, layer, spec) * g))

    gx, gw, gb = duc_backward(feats, layer, spec, g)
    assert max_rel_err(gx, fd_gradient(objective, feats)) < 1e-4
    assert max_rel_err(gw, fd_gradient(objective, layer.weights)) < 1e-4
    assert max_rel_err(gb, fd_gradient(objective, layer.bias)) < 1e-4


# -- bilinear --------------------------------------------------------------------


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


def test_bilinear_adjoint_consistency():
    # <up(x), g> == <x, up^T(g)> makes the gradient routing exact
    rng = Rng(9)
    x = he_init((1, 2, 3, 4), 2, rng)
    g = he_init((1, 2, 12, 16), 2, rng)
    lhs = float(np.sum(bilinear_upsample(x, 4) * g))
    rhs = float(np.sum(x * bilinear_backward(g, (3, 4), 4)))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_bilinear_matrix_is_cached_read_only():
    # one array serves every call with the same geometry; a caller that
    # wrote to it would change every later upsample
    m = _bilinear_matrix(3, 4)
    assert m is _bilinear_matrix(3, 4)
    with pytest.raises(ValueError):
        m[0, 0] = 0.0


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
    # built from the same weight array
    rng = Rng(13)
    k, r, s, pad = 3, 1, 2, 1
    c_up, c_low = 3, 2
    conv_spec = ConvSpec(k=k, r=r, stride=s, c_in=c_up, c_out=c_low, pad=pad)
    conv = ConvLayer.initialized(conv_spec, rng)
    x_up = he_init((1, c_up, 7, 7), 2, rng)
    g = he_init((1, c_low) + conv_spec.out_size(7, 7), 1, rng)
    gx, _, _ = conv2d_backward(x_up, conv, g)

    tspec = TransposedConvSpec(k=k, stride=s, c_in=c_low, c_out=c_up, pad=pad)
    tlayer = ConvLayer(tspec, conv.weights)  # zero bias
    up = transposed_conv_forward(g, tlayer)
    # the scatter reconstructs only positions reachable from the output grid
    assert np.array_equal(up, gx[:, :, :up.shape[2], :up.shape[3]])


@pytest.mark.parametrize("k", (1, 3, 5))
def test_transposed_forward_matches_naive_scatter_order_bitwise(k):
    # the transposed conv runs conv grad_x's scatter, so it keeps the same
    # pinned order: taps in (ky, kx) order, each a sequential sum over c_in
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


# the column pass sums over c_in, on planes of over 1 MiB of float64
# products; pixel counts that are no multiple of 8 end einsum's unrolled
# pixel loop in its remainder
@pytest.mark.parametrize("seed, k, stride, pad, c_in, c_out, hw", [
    pytest.param(55, 4, 2, 1, 29, 4, (16, 16), id="64rows-29in-256px"),
    pytest.param(60, 1, 1, 0, 128, 4, (25, 41), id="4rows-128in-1025px"),
    pytest.param(59, 1, 1, 0, 520, 3, (11, 23), id="3rows-520in-253px"),
])
def test_transposed_forward_bitwise_on_large_planes(seed, k, stride, pad, c_in, c_out, hw):
    rng = Rng(seed)
    spec = TransposedConvSpec(k=k, stride=stride, c_in=c_in, c_out=c_out, pad=pad)
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
    # stride > k leaves canvas positions no input pixel reaches; the window
    # view must skip them in both gradients
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
    got = duc_forward(feats, clayer, duc_spec)
    assert got.shape == want.shape
    assert np.array_equal(got, want)  # exact, same accumulation order


def test_duc_weight_mapping_rejects_overlapping_layers():
    spec = TransposedConvSpec(k=4, stride=2, c_in=1, c_out=2, pad=1)
    with pytest.raises(ValueError):
        duc_weights_from_transposed(ConvLayer.initialized(spec, Rng(0)))
