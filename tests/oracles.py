"""Independent reference implementations used only by the tests.

Everything here is written as plainly as possible (scalar loops, explicit
set arithmetic) and never calls the code under test, so a bug would have to
appear in two unrelated implementations to go unnoticed.
"""

import numpy as np


def naive_conv1d(f, h, r):
    """Direct summation of g[i] = sum_{l=1..L} f[i + r*l] * h[l]."""
    f = [float(v) for v in f]
    h = [float(v) for v in h]
    out = []
    i = 0
    while i + r * len(h) <= len(f) - 1:
        acc = 0.0
        for l in range(1, len(h) + 1):
            acc += f[i + r * l] * h[l - 1]
        out.append(acc)
        i += 1
    return out


def naive_conv2d(x, w, b, stride=1, pad=0, dilation=1):
    """Scalar quintuple loop over (n, c_out, y, x, taps); accumulation order
    inside one output element is (c_in, ky, kx), bias added last."""
    n, c_in, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    kd = k + (k - 1) * (dilation - 1)
    ho = (h + 2 * pad - kd) // stride + 1
    wo = (wdt + 2 * pad - kd) // stride + 1
    xp = np.zeros((n, c_in, h + 2 * pad, wdt + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wdt] = x
    out = np.zeros((n, c_out, ho, wo))
    for ni in range(n):
        for co in range(c_out):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(c_in):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (
                                    xp[ni, ci, oy * stride + ky * dilation,
                                       ox * stride + kx * dilation]
                                    * w[co, ci, ky, kx]
                                )
                    out[ni, co, oy, ox] = acc + b[co]
    return out


def naive_transposed_conv2d(x, w, b, stride, pad):
    """Stamp every input pixel's kernel onto the stride grid; w is
    (c_in, c_out, k, k)."""
    n, c_in, h, wdt = x.shape
    _, c_out, k, _ = w.shape
    ho = (h - 1) * stride + k
    wo = (wdt - 1) * stride + k
    full = np.zeros((n, c_out, ho, wo))
    for ni in range(n):
        for ci in range(c_in):
            for y in range(h):
                for xx in range(wdt):
                    full[ni, :, y * stride : y * stride + k,
                         xx * stride : xx * stride + k] += (
                        x[ni, ci, y, xx] * w[ci, :, :, :]
                    )
    out = full[:, :, pad : ho - pad, pad : wo - pad]
    return out + b[None, :, None, None]


def naive_conv2d_grad_w(x, g, k, stride=1, pad=0, dilation=1):
    """Scalar loop for the weight gradient of naive_conv2d: grad_w[co, ci,
    ky, kx] sums g[n, co, oy, ox] * xpad[n, ci, oy*stride + ky*dilation,
    ox*stride + kx*dilation] over (n, oy, ox); the output grid is g's.

    With x and g swapped it is also the weight gradient of
    naive_transposed_conv2d (dilation 1), whose output is the padded input
    of the conv read here."""
    n, c_in, h, wdt = x.shape
    _, c_out, ho, wo = g.shape
    xp = np.zeros((n, c_in, h + 2 * pad, wdt + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wdt] = x
    grad_w = np.zeros((c_out, c_in, k, k))
    for co in range(c_out):
        for ci in range(c_in):
            for ky in range(k):
                for kx in range(k):
                    acc = 0.0
                    for ni in range(n):
                        for oy in range(ho):
                            for ox in range(wo):
                                acc += (
                                    g[ni, co, oy, ox]
                                    * xp[ni, ci, oy * stride + ky * dilation,
                                         ox * stride + kx * dilation]
                                )
                    grad_w[co, ci, ky, kx] = acc
    return grad_w


def fd_gradient(fn, arr, step=1e-6):
    """Central finite differences of a scalar function w.r.t. every entry."""
    grad = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        hi = fn()
        arr[idx] = orig - step
        lo = fn()
        arr[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def max_rel_err(analytic, numeric, floor=1e-8):
    a = np.asarray(analytic, dtype=np.float64).ravel()
    f = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
    return float(np.max(np.abs(a - f) / denom)) if a.size else 0.0


def tap_positions_1d(rates, k):
    """Exact support of the composed 1-D tap pattern, by set arithmetic."""
    pts = {0}
    for r in rates:
        layer = {t * r for t in range(k)}
        pts = {a + b for a in pts for b in layer}
    return sorted(pts)


def max_gap_1d(rates, k):
    pts = tap_positions_1d(rates, k)
    return max(b - a for a, b in zip(pts, pts[1:])) if len(pts) > 1 else 0


def footprint_counts_2d(rates, k):
    """Exact 2-D contribution counts via dict-of-offsets polynomial product."""
    counts = {(0, 0): 1}
    for r in rates:
        nxt = {}
        for (y, x), c in counts.items():
            for ty in range(k):
                for tx in range(k):
                    key = (y + ty * r, x + tx * r)
                    nxt[key] = nxt.get(key, 0) + c
        counts = nxt
    side = 1 + sum((k - 1) * r for r in rates)
    grid = np.zeros((side, side), dtype=np.int64)
    for (y, x), c in counts.items():
        grid[y, x] = c
    return grid
