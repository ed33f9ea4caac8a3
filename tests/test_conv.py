import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    conv1d_dilated,
    fd_gradient,
    max_rel_err,
    naive_conv1d,
    naive_conv2d,
    naive_conv2d_grad_w,
    naive_conv2d_grad_x,
    naive_product_sum,
    window_conv2d_grad_w,
)
from segconv.conv import (
    _BINCOUNT_MAX,
    ConvLayer,
    ConvSpec,
    TransposedConvSpec,
    _overlap_index,
    _product_sum,
    _taps,
    conv2d_backward,
    conv2d_forward,
    same_padding,
    transposed_conv_backward,
    transposed_conv_forward,
)
from segconv.tensor import Rng, he_init


def random_layer(rng, k, r, c_in, c_out, stride=1, pad=0, bias=True):
    spec = ConvSpec(k=k, r=r, stride=stride, c_in=c_in, c_out=c_out, pad=pad)
    layer = ConvLayer.initialized(spec, rng)
    if bias:
        layer.bias[:] = rng.normal(c_out)
    return layer


def test_dilated_kernel_size_values():
    assert ConvSpec(k=3, r=2).k_d == 5
    assert ConvSpec(k=3, r=1).k_d == 3
    assert ConvSpec(k=5, r=4).k_d == 17


def test_dilated_kernel_size_matches_constructed_mask_extent():
    for k, r in [(3, 2), (5, 4), (3, 3), (1, 5)]:
        taps = [t * r for t in range(k)]
        assert ConvSpec(k=k, r=r).k_d == taps[-1] + 1


def test_specs_reject_bad_geometry():
    conv_cases = [(dict(k=0), "kernel size"), (dict(k=-1), "kernel size"),
                  (dict(k=4), "kernel size"), (dict(r=0), "dilation rate"),
                  (dict(stride=0), "stride"), (dict(c_in=0), "channel counts"),
                  (dict(c_out=0), "channel counts"), (dict(pad=-1), "padding")]
    for bad, field in conv_cases:
        with pytest.raises(ValueError, match=field):
            ConvSpec(**(dict(k=3) | bad))
    # a transposed conv has no dilation and may take an even k (k=4, stride=2
    # is the usual 2x upsampler)
    good = dict(k=4, stride=2, c_in=1, c_out=1)
    TransposedConvSpec(**good)
    transposed_cases = [(dict(k=0), "kernel size"), (dict(stride=0), "stride"),
                        (dict(c_in=0), "channel counts"), (dict(c_out=0), "channel counts"),
                        (dict(pad=-1), "padding")]
    for bad, field in transposed_cases:
        with pytest.raises(ValueError, match=field):
            TransposedConvSpec(**(good | bad))


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
    out = conv2d_forward(np.zeros((2, 2, 7, 7)), layer)[0]
    for co in range(4):
        assert np.all(out[:, co] == layer.bias[co])


def test_forward_delta_input_reads_center_tap():
    # 5x5 delta at center, k=3 r=2: the only valid placement centers the
    # kernel on the delta, so the output equals the middle weight
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 2] = 1.0
    rng = Rng(4)
    layer = random_layer(rng, k=3, r=2, c_in=1, c_out=1, bias=False)
    out = conv2d_forward(x, layer)[0]
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == layer.weights[0, 0, 1, 1]
    expect = naive_conv2d(x, layer.weights, layer.bias, dilation=2)
    assert np.array_equal(out, expect)


def test_forward_matches_naive_loop_bitwise():
    rng = Rng(8)
    x = he_init((1, 2, 8, 8), 5, rng)
    layer = random_layer(rng, k=3, r=3, c_in=2, c_out=3, pad=3)
    got = conv2d_forward(x, layer)[0]
    expect = naive_conv2d(x, layer.weights, layer.bias, pad=3, dilation=3)
    assert np.array_equal(got, expect)


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
        got = conv2d_forward(x, layer)[0]
        expect = naive_conv2d(x, layer.weights, layer.bias,
                              stride=stride, pad=pad, dilation=1)
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("k", (1, 3, 5))
def test_forward_matches_naive_loop_bitwise_over_geometry_sweep(k):
    # dilation and stride together: the tap-major window copy must read
    # every tap at oy*stride + ky*r and keep the (c_in, ky, kx) order
    rng = Rng(30 + k)
    for r in (1, 2, 3):
        for stride in (1, 2, 3):
            for pad in (0, 1, 2):
                kd = ConvSpec(k=k, r=r).k_d
                x = he_init((2, 2, kd + 3, kd + 2), 3, rng)
                layer = random_layer(rng, k=k, r=r, c_in=2, c_out=3,
                                     stride=stride, pad=pad)
                got = conv2d_forward(x, layer)[0]
                expect = naive_conv2d(x, layer.weights, layer.bias,
                                      stride=stride, pad=pad, dilation=r)
                assert np.array_equal(got, expect), (r, stride, pad)


# Planes of over 1 MiB of float64 products: a numpy that reordered or fused
# the sum on large operands would show there. Pixel counts that are no
# multiple of 8 end einsum's unrolled pixel loop in its remainder.
@pytest.mark.parametrize("seed, c_in, k, r, c_out, hw", [
    pytest.param(33, 4, 3, 2, 29, (16, 16), id="36taps-29out-256px"),
    pytest.param(36, 16, 3, 1, 2, (32, 32), id="144taps-2out-1024px"),
    pytest.param(40, 16, 3, 1, 5, (25, 41), id="144taps-5out-1025px"),
    pytest.param(42, 64, 5, 1, 2, (2, 41), id="1600taps-2out-82px"),
])
def test_forward_bitwise_on_large_planes(seed, c_in, k, r, c_out, hw):
    rng = Rng(seed)
    x = he_init((1, c_in) + hw, 3, rng)
    pad = same_padding(k, r)
    layer = random_layer(rng, k=k, r=r, c_in=c_in, c_out=c_out, pad=pad)
    got = conv2d_forward(x, layer)[0]
    expect = naive_conv2d(x, layer.weights, layer.bias, pad=pad, dilation=r)
    assert np.array_equal(got, expect)


def test_forward_keeps_signed_zeros_of_the_naive_loop():
    # 0.0 * negative weight is -0.0; the scalar loop starts from +0.0, so
    # every output is +0.0 even after a -0.0 bias (array_equal cannot see it)
    rng = Rng(34)
    layer = random_layer(rng, k=3, r=1, c_in=2, c_out=3, pad=1, bias=False)
    layer.weights[...] = -np.abs(layer.weights) - 0.5
    layer.bias[:] = -0.0
    x = np.zeros((2, 2, 5, 5))
    got = conv2d_forward(x, layer)[0]
    expect = naive_conv2d(x, layer.weights, layer.bias, pad=1)
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("channels", (1, 5))
def test_one_pixel_results_keep_the_sequential_order(channels):
    # one output pixel of 18 taps, and one transposed-conv output pixel
    # reached by 29 input channels: numpy sums a lone element, or a buffer
    # whose fast axis is the summed one, pairwise
    rng = Rng(35 + channels)
    layer = random_layer(rng, k=3, r=1, c_in=2, c_out=channels)
    x = he_init((1, 2, 3, 3), 3, rng)
    expect = naive_conv2d(x, layer.weights, layer.bias)
    assert np.array_equal(conv2d_forward(x, layer)[0], expect)

    layer = ConvLayer.initialized(TransposedConvSpec(k=1, stride=1, c_in=29,
                                                     c_out=channels), rng)
    x = he_init((1, 29, 1, 1), 3, rng)
    want = naive_conv2d_grad_x(x, layer.weights, (1, 1))
    assert np.array_equal(transposed_conv_forward(x, layer), want)


def sizes(top):
    return st.one_of(st.just(1), st.integers(2, top))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(t=sizes(40), rows=sizes(6), pixels=sizes(40), seed=st.integers(0, 2**32 - 1),
       order_a=st.sampled_from("CF"), order_b=st.sampled_from("CF"),
       out_view=st.sampled_from(["contiguous", "strided", "transposed"]))
def test_product_sum_matches_naive_order_bitwise(t, rows, pixels, seed, order_a, order_b,
                                                 out_view):
    # magnitudes 1e8, 1 and 1e-8 mixed in one sum: any other order or
    # grouping of the additions rounds differently
    gen = np.random.default_rng(seed)

    def draw(shape, order):
        values = gen.normal(size=shape) * gen.choice([1e8, 1.0, 1e-8], size=shape)
        return np.asarray(values, order=order)

    a, b = draw((t, pixels), order_a), draw((t, rows), order_b)
    if out_view == "contiguous":
        out = np.full((rows, pixels), np.nan)
    elif out_view == "strided":
        out = np.full((2 * rows, 3 * pixels), np.nan)[1::2, ::3]
    else:
        out = np.full((pixels, rows), np.nan).T
    _product_sum(a, b, out)
    assert np.array_equal(out, naive_product_sum(a, b))


def test_forward_linearity_with_zero_bias():
    rng = Rng(10)
    layer = random_layer(rng, k=3, r=2, c_in=2, c_out=2, pad=2, bias=False)
    x1 = he_init((1, 2, 9, 9), 3, rng)
    x2 = he_init((1, 2, 9, 9), 3, rng)
    a, b = 0.7, -1.3
    mix = a * x1 + b * x2
    lhs = conv2d_forward(mix, layer)[0]
    rhs = a * conv2d_forward(x1, layer)[0] + b * conv2d_forward(x2, layer)[0]
    assert max_rel_err(lhs, rhs) < 1e-10


def test_dilation_equals_zero_stuffed_kernel():
    rng = Rng(12)
    k, r = 3, 3
    layer = random_layer(rng, k=k, r=r, c_in=2, c_out=2, pad=0)
    kd = ConvSpec(k=k, r=r).k_d
    stuffed = np.zeros((2, 2, kd, kd))
    stuffed[:, :, ::r, ::r] = layer.weights
    big_spec = ConvSpec(k=kd, r=1, stride=1, c_in=2, c_out=2, pad=0)
    big = ConvLayer(big_spec, stuffed, layer.bias)
    x = he_init((1, 2, 11, 11), 4, rng)
    assert np.array_equal(conv2d_forward(x, layer)[0],
                          conv2d_forward(x, big)[0])


def test_translation_equivariance_on_interior():
    rng = Rng(13)
    layer = random_layer(rng, k=3, r=2, c_in=1, c_out=2, pad=2)
    x = he_init((1, 1, 12, 12), 4, rng)
    dy, dx = 2, 1
    shifted = np.zeros_like(x)
    shifted[:, :, dy:, dx:] = x[:, :, :-dy, :-dx]
    out = conv2d_forward(x, layer)[0]
    out_shifted = conv2d_forward(shifted, layer)[0]
    m = layer.spec.k_d  # margin where the two receptive fields sample the same content
    assert np.array_equal(out_shifted[:, :, m + dy : -m, m + dx : -m],
                          out[:, :, m : -m - dy, m : -m - dx])


def test_channel_mismatch_rejected():
    rng = Rng(14)
    layer = random_layer(rng, k=3, r=1, c_in=2, c_out=1)
    with pytest.raises(ValueError):
        conv2d_forward(np.zeros((1, 3, 5, 5)), layer)


@pytest.mark.parametrize("op", [conv2d_forward, conv2d_backward, transposed_conv_forward,
                                transposed_conv_backward], ids=lambda op: op.__name__)
def test_each_op_rejects_the_other_spec_kind(op):
    # the channels match, so only the spec kind can stop the op
    conv = ConvSpec(k=3, r=2, stride=1, c_in=4, c_out=4, pad=2)
    tconv = TransposedConvSpec(k=4, stride=2, c_in=4, c_out=4, pad=1)
    given, needed = ((tconv, "ConvSpec") if op.__name__.startswith("conv2d")
                     else (conv, "TransposedConvSpec"))
    layer = ConvLayer.initialized(given, Rng(23))
    x = np.ones((1, 4, 8, 8))
    grad = (np.ones((1, 4, 8, 8)),) if op.__name__.endswith("backward") else ()
    if op is conv2d_backward:
        grad += (np.ones((36, 64)),)  # taps: the op refuses the layer first
    with pytest.raises(ValueError, match=f"^layer holds a {type(given).__name__}, "
                                         f"the op needs a {needed}$"):
        op(x, layer, *grad)


def test_too_small_input_rejected():
    rng = Rng(15)
    layer = random_layer(rng, k=3, r=3, c_in=1, c_out=1)  # extent 7
    with pytest.raises(ValueError):
        conv2d_forward(np.zeros((1, 1, 5, 5)), layer)


def test_stride_with_dilation_output_shape():
    spec = ConvSpec(k=3, r=2, stride=2, c_in=1, c_out=1, pad=2)
    assert spec.out_size(9, 13) == ((9 + 4 - 5) // 2 + 1, (13 + 4 - 5) // 2 + 1)


def test_same_padding_preserves_size():
    rng = Rng(16)
    for r in (1, 2, 3):
        layer = random_layer(rng, k=3, r=r, c_in=1, c_out=1, pad=same_padding(3, r))
        out = conv2d_forward(he_init((1, 1, 10, 10), 2, rng), layer)[0]
        assert out.shape == (1, 1, 10, 10)


# -- gradients ----------------------------------------------------------------


def test_backward_zero_grad_out_gives_zero_grads():
    rng = Rng(17)
    layer = random_layer(rng, k=3, r=2, c_in=2, c_out=2, pad=2)
    x = he_init((1, 2, 6, 6), 3, rng)
    out, taps = conv2d_forward(x, layer)
    gx, gw, gb = conv2d_backward(x, layer, np.zeros(out.shape), taps)
    assert not gx.any() and not gw.any() and not gb.any()


def test_backward_single_output_element():
    # identity-scale setup: one output element with grad 1 makes grad_b = 1
    # and grad_w equal to the input values under the dilated taps
    x = np.arange(25, dtype=np.float64).reshape(1, 1, 5, 5)
    layer = random_layer(Rng(18), k=3, r=2, c_in=1, c_out=1)
    g = np.ones((1, 1, 1, 1))
    _, taps = conv2d_forward(x, layer)
    gx, gw, gb = conv2d_backward(x, layer, g, taps)
    assert gb.tolist() == [1.0]
    assert np.array_equal(gw[0, 0], x[0, 0, ::2, ::2])
    assert np.array_equal(gx[0, 0, ::2, ::2], layer.weights[0, 0])


def test_backward_grad_shape_mismatch_rejected():
    rng = Rng(19)
    layer = random_layer(rng, k=3, r=1, c_in=1, c_out=1, pad=1)
    x = he_init((1, 1, 6, 6), 2, rng)
    _, taps = conv2d_forward(x, layer)
    with pytest.raises(ValueError, match="grad_out shape"):
        conv2d_backward(x, layer, np.zeros((1, 1, 3, 3)), taps)


def _fd_check_conv(rng, k, r, h, w, c_in, c_out, pad, tol=1e-4):
    x = he_init((1, c_in, h, w), 3, rng)
    layer = random_layer(rng, k=k, r=r, c_in=c_in, c_out=c_out, pad=pad)
    gshape = (1, c_out) + layer.spec.out_size(h, w)
    g = he_init(gshape, 1, rng)

    def objective():
        return float(np.sum(conv2d_forward(x, layer)[0] * g))

    _, taps = conv2d_forward(x, layer)
    gx, gw, gb = conv2d_backward(x, layer, g, taps)
    assert max_rel_err(gx, fd_gradient(objective, x)) < tol
    assert max_rel_err(gw, fd_gradient(objective, layer.weights)) < tol
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
                    out, taps = conv2d_forward(x, layer)
                    gx, gw, _ = conv2d_backward(x, layer, g, taps)
                    lhs = float(np.sum(g * out))
                    tol = 1e-12 * max(1.0, abs(lhs))
                    assert abs(lhs - float(np.sum(x * gx))) < tol
                    assert abs(lhs - float(np.sum(layer.weights * gw))) < tol
                    want = naive_conv2d_grad_w(x, g, k, stride=stride,
                                               pad=pad, dilation=r)
                    assert np.allclose(gw, want, rtol=1e-12, atol=1e-12)


def grad_x_matches(gx, want, c_out):
    # the columns are a BLAS GEMM over c_out with no order contract, so a
    # sum over c_out gets grad_w's tolerance; with c_out=1 each column
    # element is one product, so the overlap-add's (ky, kx) order shows
    # bit for bit
    if c_out == 1:
        return np.array_equal(gx, want)
    return np.allclose(gx, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("k", (1, 3, 5))
def test_backward_grad_x_matches_naive_scatter_order_bitwise(k):
    # grad_x adds each element's reaching taps in (ky, kx) order, bitwise
    # for c_out=1; c_out=29 is a long sum over the GEMM's inner axis
    rng = Rng(40 + k)
    for r in (1, 2, 3):
        for stride in (1, 2, 3):
            for pad in (0, 1, 2):
                for c_out in (1, 3, 29):
                    kd = ConvSpec(k=k, r=r).k_d
                    hw = (kd + 3, kd + 2)
                    x = he_init((2, 2) + hw, 3, rng)
                    layer = random_layer(rng, k=k, r=r, c_in=2, c_out=c_out,
                                         stride=stride, pad=pad)
                    g = he_init((2, c_out) + layer.spec.out_size(*hw), 1, rng)
                    _, taps = conv2d_forward(x, layer)
                    gx, _, _ = conv2d_backward(x, layer, g, taps)
                    want = naive_conv2d_grad_x(g, layer.weights, hw,
                                               stride=stride, pad=pad, dilation=r)
                    assert grad_x_matches(gx, want, c_out), (r, stride, pad, c_out)


# grad_x on large planes, summed over c_out, and the same geometry with
# c_out=1, bitwise. The columns (rows x pixels, whatever c_out is) fall on
# the side of _BINCOUNT_MAX that `side` names, so both overlap-add branches
# and the boundary itself are checked against the oracle.
@pytest.mark.parametrize("seed, c_in, k, r, c_out, hw, side", [
    pytest.param(45, 4, 3, 2, 29, (16, 16), "below", id="36rows-29out-256px"),
    pytest.param(46, 2, 1, 1, 33, (64, 64), "below", id="2rows-33out-4096px"),
    pytest.param(51, 4, 1, 1, 128, (25, 41), "below", id="4rows-128out-1025px"),
    pytest.param(50, 3, 1, 1, 520, (11, 23), "below", id="3rows-520out-253px"),
    pytest.param(52, 8, 1, 1, 3, (64, 64), "at", id="8rows-3out-4096px"),
    pytest.param(53, 4, 3, 2, 5, (32, 33), "above", id="36rows-5out-1056px"),
])
def test_grad_x_bitwise_on_large_planes(seed, c_in, k, r, c_out, hw, side):
    rng = Rng(seed)
    x = he_init((1, c_in) + hw, 3, rng)
    pad = same_padding(k, r)
    cols = k * k * c_in * hw[0] * hw[1]  # stride 1, same padding
    assert {"below": cols < _BINCOUNT_MAX, "at": cols == _BINCOUNT_MAX,
            "above": cols > _BINCOUNT_MAX}[side]
    for co in (c_out, 1):
        layer = random_layer(rng, k=k, r=r, c_in=c_in, c_out=co, pad=pad)
        g = he_init((1, co) + layer.spec.out_size(*hw), 1, rng)
        _, taps = conv2d_forward(x, layer)
        gx, _, _ = conv2d_backward(x, layer, g, taps)
        want = naive_conv2d_grad_x(g, layer.weights, hw, pad=pad, dilation=r)
        assert grad_x_matches(gx, want, co), co


def test_backward_with_the_forwards_taps_is_identical():
    # skipping grad_x leaves grad_w and grad_b as they are
    rng = Rng(24)
    for k, r, stride, pad in ((1, 1, 1, 0), (3, 1, 2, 1), (3, 2, 1, 2), (5, 3, 3, 1)):
        layer = random_layer(rng, k=k, r=r, c_in=3, c_out=4, stride=stride, pad=pad)
        x = he_init((2, 3, 17, 15), 3, rng)
        out, taps = conv2d_forward(x, layer)
        g = he_init(out.shape, 1, rng)
        full = conv2d_backward(x, layer, g, taps)
        gx, gw, gb = conv2d_backward(x, layer, g, taps, input_grad=False)
        assert gx is None
        assert gw.tobytes() == full[1].tobytes() and gb.tobytes() == full[2].tobytes()


@pytest.mark.parametrize("batch, k, r", [(1, 3, 2), (2, 3, 1), (2, 1, 1)],
                         ids=["other-batch", "other-rate", "other-kernel"])
def test_backward_refuses_taps_of_another_shape(batch, k, r):
    # taps of another input or geometry would fail inside the GEMM, or
    # give grad_w a wrong reshape; the backward names them instead
    rng = Rng(26)
    layer = random_layer(rng, k=3, r=2, c_in=2, c_out=3, pad=2)
    x = he_init((2, 2, 7, 6), 3, rng)
    other = random_layer(rng, k=k, r=r, c_in=2, c_out=3, pad=2)
    _, taps = conv2d_forward(x[:batch], other)
    g = he_init((2, 3, 7, 6), 1, rng)
    with pytest.raises(ValueError, match=r"^taps shape \(\d+, \d+\) != \(18, 84\)$"):
        conv2d_backward(x, layer, g, taps)


def test_overlap_index_is_cached_read_only():
    # one array serves every overlap-add of the same geometry; a caller that
    # wrote to it would misplace every later grad_x of that shape
    idx = _overlap_index(16, 3, 2, 1, 1, 8, 8, 12, 12)
    assert idx is _overlap_index(16, 3, 2, 1, 1, 8, 8, 12, 12)
    with pytest.raises(ValueError):
        idx[0] = 1


def test_taps_refuses_a_window_past_the_padded_buffer():
    # the window view is built against the padded copy's bounds, so an
    # output size the geometry does not fit raises instead of reading
    # past the buffer
    x = Rng(25).normal(2 * 3 * 6 * 5).reshape(2, 3, 6, 5)
    assert _taps(x, 3, 2, 1, 2, 6, 5).shape == (27, 60)
    with pytest.raises(ValueError, match="size of buffer"):
        _taps(x, 3, 2, 1, 2, 10, 5)


def test_grad_w_matches_the_window_contraction_over_geometry_sweep():
    # the GEMM over the taps matrix computes what the tensordot over a
    # strided window view did, in another summation order
    rng = Rng(22)
    for k in (1, 3, 5):
        for r in (1, 2, 3):
            for stride in (1, 2, 3):
                for pad in (0, 1, 2):
                    layer = random_layer(rng, k=k, r=r, c_in=2, c_out=3,
                                         stride=stride, pad=pad, bias=False)
                    x = he_init((2, 2, 14, 13), 3, rng)
                    g = he_init((2, 3) + layer.spec.out_size(14, 13), 1, rng)
                    _, taps = conv2d_forward(x, layer)
                    _, gw, _ = conv2d_backward(x, layer, g, taps)
                    want = window_conv2d_grad_w(x, g, k, stride=stride, pad=pad,
                                                dilation=r)
                    assert np.allclose(gw, want, rtol=1e-12, atol=1e-12), \
                        (k, r, stride, pad)
