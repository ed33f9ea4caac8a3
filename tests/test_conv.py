import numpy as np
import pytest

from oracles import (
    fd_gradient,
    max_rel_err,
    naive_conv1d,
    naive_conv2d,
    naive_conv2d_grad_w,
)
from segconv.conv import (
    ConvLayer,
    ConvSpec,
    conv1d_dilated,
    conv2d_backward,
    conv2d_forward,
    dilated_kernel_size,
    same_padding,
)
from segconv.tensor import Rng, Tensor, he_init, new_tensor


def random_layer(rng, k, r, c_in, c_out, stride=1, pad=0, bias=True):
    spec = ConvSpec(k=k, r=r, stride=stride, c_in=c_in, c_out=c_out, pad=pad)
    layer = ConvLayer.initialized(spec, rng)
    if bias:
        layer.bias[:] = rng.normal(c_out)
    return layer


def test_dilated_kernel_size_values():
    assert dilated_kernel_size(3, 2) == 5
    assert dilated_kernel_size(3, 1) == 3
    assert dilated_kernel_size(5, 4) == 17


def test_dilated_kernel_size_matches_constructed_mask_extent():
    for k, r in [(3, 2), (5, 4), (3, 3), (1, 5)]:
        taps = [t * r for t in range(k)]
        assert dilated_kernel_size(k, r) == taps[-1] + 1


def test_dilated_kernel_size_rejects_bad_args():
    with pytest.raises(ValueError):
        dilated_kernel_size(0, 1)
    with pytest.raises(ValueError):
        dilated_kernel_size(3, 0)


# -- 1-D reference form ------------------------------------------------------


def test_conv1d_delta_kernel_selects_single_tap():
    # expected value computed with the direct-summation oracle
    f, h = [1, 0, 0, 0, 0, 0, 0], [1, 0, 0]
    expect = naive_conv1d(f, h, 2)
    assert expect == [0.0]
    assert list(conv1d_dilated(f, h, 2)) == expect


def test_conv1d_rate1_box_filter():
    f, h = [1, 2, 3, 4, 5, 6, 7], [1, 1, 1]
    expect = naive_conv1d(f, h, 1)
    assert expect == [9.0, 12.0, 15.0, 18.0]
    assert list(conv1d_dilated(f, h, 1)) == expect


def test_conv1d_rate2_box_filter():
    f, h = [1, 2, 3, 4, 5, 6, 7], [1, 1, 1]
    expect = naive_conv1d(f, h, 2)
    assert expect == [15.0]  # single valid index: f[2] + f[4] + f[6]
    assert list(conv1d_dilated(f, h, 2)) == expect


def test_conv1d_matches_oracle_on_random_instances():
    rng = Rng(31)
    for _ in range(25):
        n = 6 + rng.randint(20)
        taps = 1 + rng.randint(4)
        r = 1 + rng.randint(3)
        if n < 1 + r * taps + 1:
            continue
        f = rng.normal(n)
        h = rng.normal(taps)
        got = conv1d_dilated(f, h, r)
        assert np.allclose(got, naive_conv1d(f, h, r), rtol=0, atol=1e-12)


def test_conv1d_too_short_sequence_rejected():
    with pytest.raises(ValueError):
        conv1d_dilated([1, 2, 3], [1, 1, 1], 2)


# -- 2-D forward -------------------------------------------------------------


def test_forward_all_zero_input_yields_bias():
    rng = Rng(3)
    layer = random_layer(rng, k=3, r=2, c_in=2, c_out=4, pad=2)
    out = conv2d_forward(new_tensor((2, 2, 7, 7)), layer)
    for co in range(4):
        assert np.all(out.data[:, co] == layer.bias[co])


def test_forward_delta_input_reads_center_tap():
    # 5x5 delta at center, k=3 r=2: the only valid placement centers the
    # kernel on the delta, so the output equals the middle weight
    x = new_tensor((1, 1, 5, 5))
    x.data[0, 0, 2, 2] = 1.0
    rng = Rng(4)
    layer = random_layer(rng, k=3, r=2, c_in=1, c_out=1, bias=False)
    out = conv2d_forward(x, layer)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == layer.weights.data[0, 0, 1, 1]
    expect = naive_conv2d(x.data, layer.weights.data, layer.bias, dilation=2)
    assert np.array_equal(out.data, expect)


def test_forward_matches_naive_loop_bitwise():
    rng = Rng(8)
    x = he_init((1, 2, 8, 8), 5, rng)
    layer = random_layer(rng, k=3, r=3, c_in=2, c_out=3, pad=3)
    got = conv2d_forward(x, layer)
    expect = naive_conv2d(x.data, layer.weights.data, layer.bias, pad=3, dilation=3)
    assert np.array_equal(got.data, expect)


def test_forward_r1_matches_naive_loop_on_random_instances():
    rng = Rng(9)
    for _ in range(50):
        n = 1 + rng.randint(2)
        c_in = 1 + rng.randint(3)
        c_out = 1 + rng.randint(3)
        h = 5 + rng.randint(4)
        w = 5 + rng.randint(4)
        pad = rng.randint(2)
        stride = 1 + rng.randint(2)
        x = he_init((n, c_in, h, w), 5, rng)
        layer = random_layer(rng, k=3, r=1, c_in=c_in, c_out=c_out,
                             stride=stride, pad=pad)
        got = conv2d_forward(x, layer)
        expect = naive_conv2d(x.data, layer.weights.data, layer.bias,
                              stride=stride, pad=pad, dilation=1)
        assert np.array_equal(got.data, expect)


def test_forward_linearity_with_zero_bias():
    rng = Rng(10)
    layer = random_layer(rng, k=3, r=2, c_in=2, c_out=2, pad=2, bias=False)
    x1 = he_init((1, 2, 9, 9), 3, rng)
    x2 = he_init((1, 2, 9, 9), 3, rng)
    a, b = 0.7, -1.3
    mix = Tensor(a * x1.data + b * x2.data)
    lhs = conv2d_forward(mix, layer).data
    rhs = a * conv2d_forward(x1, layer).data + b * conv2d_forward(x2, layer).data
    assert max_rel_err(lhs, rhs) < 1e-10


def test_dilation_equals_zero_stuffed_kernel():
    rng = Rng(12)
    k, r = 3, 3
    layer = random_layer(rng, k=k, r=r, c_in=2, c_out=2, pad=0)
    kd = dilated_kernel_size(k, r)
    stuffed = np.zeros((2, 2, kd, kd))
    stuffed[:, :, ::r, ::r] = layer.weights.data
    big_spec = ConvSpec(k=kd, r=1, stride=1, c_in=2, c_out=2, pad=0)
    big = ConvLayer(big_spec, Tensor(stuffed), layer.bias)
    x = he_init((1, 2, 11, 11), 4, rng)
    assert np.array_equal(conv2d_forward(x, layer).data,
                          conv2d_forward(x, big).data)


def test_translation_equivariance_on_interior():
    rng = Rng(13)
    layer = random_layer(rng, k=3, r=2, c_in=1, c_out=2, pad=2)
    x = he_init((1, 1, 12, 12), 4, rng)
    dy, dx = 2, 1
    shifted = np.zeros_like(x.data)
    shifted[:, :, dy:, dx:] = x.data[:, :, :-dy, :-dx]
    out = conv2d_forward(x, layer).data
    out_shifted = conv2d_forward(Tensor(shifted), layer).data
    m = layer.spec.k_d  # margin where the two receptive fields sample the same content
    assert np.array_equal(out_shifted[:, :, m + dy : -m, m + dx : -m],
                          out[:, :, m : -m - dy, m : -m - dx])


def test_channel_mismatch_rejected():
    rng = Rng(14)
    layer = random_layer(rng, k=3, r=1, c_in=2, c_out=1)
    with pytest.raises(ValueError):
        conv2d_forward(new_tensor((1, 3, 5, 5)), layer)


def test_too_small_input_rejected():
    rng = Rng(15)
    layer = random_layer(rng, k=3, r=3, c_in=1, c_out=1)  # extent 7
    with pytest.raises(ValueError):
        conv2d_forward(new_tensor((1, 1, 5, 5)), layer)


def test_stride_with_dilation_output_shape():
    spec = ConvSpec(k=3, r=2, stride=2, c_in=1, c_out=1, pad=2)
    assert spec.out_size(9, 13) == ((9 + 4 - 5) // 2 + 1, (13 + 4 - 5) // 2 + 1)


def test_same_padding_preserves_size():
    rng = Rng(16)
    for r in (1, 2, 3):
        layer = random_layer(rng, k=3, r=r, c_in=1, c_out=1, pad=same_padding(3, r))
        out = conv2d_forward(he_init((1, 1, 10, 10), 2, rng), layer)
        assert out.shape == (1, 1, 10, 10)


# -- gradients ----------------------------------------------------------------


def test_backward_zero_grad_out_gives_zero_grads():
    rng = Rng(17)
    layer = random_layer(rng, k=3, r=2, c_in=2, c_out=2, pad=2)
    x = he_init((1, 2, 6, 6), 3, rng)
    out = conv2d_forward(x, layer)
    gx, gw, gb = conv2d_backward(x, layer, new_tensor(out.shape, 0.0))
    assert not gx.data.any() and not gw.data.any() and not gb.any()


def test_backward_single_output_element():
    # identity-scale setup: one output element with grad 1 makes grad_b = 1
    # and grad_w equal to the input values under the dilated taps
    x = Tensor(np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5))
    layer = random_layer(Rng(18), k=3, r=2, c_in=1, c_out=1)
    g = new_tensor((1, 1, 1, 1), 1.0)
    gx, gw, gb = conv2d_backward(x, layer, g)
    assert gb.tolist() == [1.0]
    assert np.array_equal(gw.data[0, 0], x.data[0, 0, ::2, ::2])
    assert np.array_equal(gx.data[0, 0, ::2, ::2], layer.weights.data[0, 0])


def test_backward_grad_shape_mismatch_rejected():
    rng = Rng(19)
    layer = random_layer(rng, k=3, r=1, c_in=1, c_out=1, pad=1)
    x = he_init((1, 1, 6, 6), 2, rng)
    with pytest.raises(ValueError):
        conv2d_backward(x, layer, new_tensor((1, 1, 3, 3)))


def _fd_check_conv(rng, k, r, h, w, c_in, c_out, pad, tol=1e-4):
    x = he_init((1, c_in, h, w), 3, rng)
    layer = random_layer(rng, k=k, r=r, c_in=c_in, c_out=c_out, pad=pad)
    gshape = (1, c_out) + layer.spec.out_size(h, w)
    g = he_init(gshape, 1, rng)

    def objective():
        return float(np.sum(conv2d_forward(x, layer).data * g.data))

    gx, gw, gb = conv2d_backward(x, layer, g)
    assert max_rel_err(gx.data, fd_gradient(objective, x.data)) < tol
    assert max_rel_err(gw.data, fd_gradient(objective, layer.weights.data)) < tol
    assert max_rel_err(gb, fd_gradient(objective, layer.bias)) < tol


def test_gradients_match_finite_differences_small_instance():
    _fd_check_conv(Rng(20), k=3, r=2, h=6, w=6, c_in=1, c_out=1, pad=2)


def test_gradient_sweep_over_kernel_and_rate():
    rng = Rng(21)
    for k in (1, 3):
        for r in (1, 2, 3):
            if k == 1 and r > 1:
                continue  # dilation is a no-op for 1x1 kernels
            pad = same_padding(k, r)
            _fd_check_conv(rng, k=k, r=r, h=5, w=6, c_in=2, c_out=2, pad=pad)


def test_backward_is_exact_adjoint_over_geometry_sweep():
    # with zero bias the conv is bilinear in (x, w), so
    # <g, f(x, w)> == <x, grad_x> == <w, grad_w> up to rounding; a window
    # read one stride or one dilation step off breaks both identities
    rng = Rng(22)
    for k in (1, 3, 5):
        for r in (1, 2, 3):
            for stride in (1, 2, 3):
                for pad in (0, 1, 2):
                    layer = random_layer(rng, k=k, r=r, c_in=2, c_out=3,
                                         stride=stride, pad=pad, bias=False)
                    x = he_init((2, 2, 14, 13), 3, rng)
                    g = he_init((2, 3) + layer.spec.out_size(14, 13), 1, rng)
                    gx, gw, _ = conv2d_backward(x, layer, g)
                    lhs = float(np.sum(g.data * conv2d_forward(x, layer).data))
                    tol = 1e-12 * max(1.0, abs(lhs))
                    assert abs(lhs - float(np.sum(x.data * gx.data))) < tol
                    assert abs(lhs - float(np.sum(layer.weights.data * gw.data))) < tol
                    want = naive_conv2d_grad_w(x.data, g.data, k, stride=stride,
                                               pad=pad, dilation=r)
                    assert np.allclose(gw.data, want, rtol=1e-12, atol=1e-12)
