"""Independent reference implementations used only by the tests.

Everything here is written as plainly as possible (scalar loops, explicit
set arithmetic) and never calls the code under test, so a bug would have to
appear in two unrelated implementations to go unnoticed.
"""

import math
from pathlib import Path

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


def conv1d_dilated(f, h, r: int):
    """The paper's textbook dilated 1-D form, valid-only (no padding):
    g[i] = sum_{l=1..L} f[i + r*l] * h[l], with f, g 0-indexed and h[l]
    stored at array index l-1, so len(g) = len(f) - r*L. The l=1 origin
    puts taps one dilation step right of segconv's centered 2-D convention.
    Vectorised over i (one numpy update per tap), unlike naive_conv1d."""
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


def window_conv2d_grad_w(x, g, k, stride=1, pad=0, dilation=1):
    """The weight gradient of naive_conv2d as one np.tensordot over a strided
    window view of the padded input: g[n, co, oy, ox] contracted with
    xpad[n, ci, oy*stride + ky*dilation, ox*stride + kx*dilation] over
    (n, oy, ox), the BLAS contraction segconv used before grad_w became a
    GEMM over the forward's taps."""
    n, c_in, h, wdt = x.shape
    _, _, ho, wo = g.shape
    xp = np.zeros((n, c_in, h + 2 * pad, wdt + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wdt] = x
    sn, sc, sy, sx = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (n, c_in, ho, wo, k, k),
        (sn, sc, sy * stride, sx * stride, sy * dilation, sx * dilation), writeable=False)
    return np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))


def naive_conv2d_grad_x(g, w, in_hw, stride=1, pad=0, dilation=1):
    """Scalar loop for the input gradient of naive_conv2d, in a pinned
    order: each padded-input element walks the taps (ky, kx) in raster
    order and adds, for every tap that reaches it from some output (oy, ox),
    that tap's sequential sum over c_out of g[n, co, oy, ox] * w[co, ci,
    ky, kx]; the padding is cropped at the end.

    With g the transposed conv's input and w its (c_in, c_out, k, k)
    weights, dilation 1 and in_hw its output size, it is also
    naive_transposed_conv2d with zero bias, in the same order."""
    n, c_out, ho, wo = g.shape
    _, c_in, k, _ = w.shape
    h, wdt = in_hw
    grad = np.zeros((n, c_in, h + 2 * pad, wdt + 2 * pad))
    for ni in range(n):
        for ci in range(c_in):
            for y in range(h + 2 * pad):
                for x in range(wdt + 2 * pad):
                    acc = 0.0
                    for ky in range(k):
                        for kx in range(k):
                            oy, ry = divmod(y - ky * dilation, stride)
                            ox, rx = divmod(x - kx * dilation, stride)
                            if ry or rx or not (0 <= oy < ho and 0 <= ox < wo):
                                continue
                            tap = 0.0
                            for co in range(c_out):
                                tap += g[ni, co, oy, ox] * w[co, ci, ky, kx]
                            acc += tap
                    grad[ni, ci, y, x] = acc
    return grad[:, :, pad : pad + h, pad : pad + wdt]


def naive_product_sum(a, b):
    """Loop over Python floats: out[j][m] = 0.0 + a[0][m]*b[0][j] +
    a[1][m]*b[1][j] + ..., each product rounded, then added in t order."""
    t, m = len(a), len(a[0])
    out = np.zeros((len(b[0]), m))
    for j in range(len(b[0])):
        for p in range(m):
            acc = 0.0
            for k in range(t):
                acc += float(a[k][p]) * float(b[k][j])
            out[j, p] = acc
    return out


def bilinear_weights_1d(n_in, factor):
    """Align-corners-false, edge-clamped interpolation weights for one axis as
    a dense (n_in*factor, n_in) array. Output o sits at input coordinate
    (o + 0.5) / factor - 0.5 and takes 1 - frac of the pixel left of it and
    frac of the one right of it, each index clamped to the plane; a pixel
    named twice sums its two weights, starting from 0.0."""
    weights = np.zeros((n_in * factor, n_in))
    for o in range(n_in * factor):
        centre = (o + 0.5) / factor - 0.5
        left = math.floor(centre)
        frac = centre - left
        row = {}
        for i, wt in ((left, 1.0 - frac), (left + 1, frac)):
            i = min(max(i, 0), n_in - 1)
            row[i] = row.get(i, 0.0) + wt
        for i, wt in row.items():
            weights[o, i] = wt
    return weights


def naive_bilinear_upsample(x, factor):
    """Rows first, then columns, each pass accumulating 0.0 + sum of w * x
    over the summed input axis in index order, one numpy array add per
    input row (then column). Zero weights are multiplied too, so a
    non-finite input spreads NaN; use finite inputs."""
    n, c, h, w = x.shape
    wy = bilinear_weights_1d(h, factor)
    wx = bilinear_weights_1d(w, factor)
    rows = np.zeros((n, c, h * factor, w))
    for i in range(h):
        rows += wy[:, i : i + 1] * x[:, :, i : i + 1, :]
    out = np.zeros((n, c, h * factor, w * factor))
    for j in range(w):
        out += wx[:, j] * rows[:, :, :, j : j + 1]
    return out


def naive_sgd_step(params, grads, state, lr, momentum, weight_decay):
    """The momentum update one parameter array at a time, as segconv ran it
    before the parameters shared one vector: v <- m*v - lr*(g + wd*p);
    p <- p + v, in place, with each name's v kept in state."""
    for name, p in params.items():
        v = state.setdefault(name, np.zeros_like(p))
        v *= momentum
        v -= lr * (grads[name] + weight_decay * p)
        p += v


def naive_softmax_ce(logits, labels, ignore, mean=False):
    """Pixelwise cross-entropy, one pixel at a time over Python floats: the
    logits (n, L, H, W) shifted by the pixel's max, log-sum-exp, loss
    -log p[label] and gradient softmax minus one-hot. A pixel labelled
    `ignore` adds nothing and keeps a zero gradient. With mean, loss and
    gradient are divided by the number of pixels that count, if any.
    Returns (loss, grad)."""
    n, classes, h, w = logits.shape
    grad = np.zeros(logits.shape)
    loss, count = 0.0, 0
    for b in range(n):
        for y in range(h):
            for x in range(w):
                label = int(labels[b, y, x])
                if label == ignore:
                    continue
                z = [float(logits[b, c, y, x]) for c in range(classes)]
                top = max(z)
                lse = math.log(math.fsum(math.exp(v - top) for v in z))
                loss -= z[label] - top - lse
                for c in range(classes):
                    grad[b, c, y, x] = math.exp(z[c] - top - lse) - (c == label)
                count += 1
    if mean and count:
        loss /= count
        grad /= count
    return loss, grad


def naive_majority_downsample(labels, cell, ignore):
    """Per-block loop: each cell x cell block's most frequent label among
    the pixels that are not `ignore`, ties to the smaller label, `ignore`
    for a block with no such pixel."""
    h, w = labels.shape
    out = np.full((h // cell, w // cell), ignore, dtype=np.int64)
    for by in range(h // cell):
        for bx in range(w // cell):
            block = labels[by * cell : (by + 1) * cell, bx * cell : (bx + 1) * cell]
            votes = block[block != ignore]
            if votes.size:
                out[by, bx] = np.bincount(votes).argmax()
    return out


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


def max_gap_rule(rates, k):
    """The paper's HDC recurrence as written (1-indexed, bottom layer r_1):
    M_n = r_n; M_i = max[M_{i+1} - 2 r_i, M_{i+1} - 2 (M_{i+1} - r_i), r_i]
    for i = n-1 .. 2; valid iff M_2 <= K and r_1 == 1. A single layer is
    valid iff r_1 <= K. Returns ([M_2..M_n], valid)."""
    n = len(rates)
    r = {i + 1: rate for i, rate in enumerate(rates)}
    if n == 1:
        return [], r[1] <= k
    M = {n: r[n]}
    for i in range(n - 1, 1, -1):
        M[i] = max(M[i + 1] - 2 * r[i], M[i + 1] - 2 * (M[i + 1] - r[i]), r[i])
    return [M[i] for i in range(2, n + 1)], M[2] <= k and r[1] == 1


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


def read_pgm(path) -> np.ndarray:
    """Parse an ASCII (P2) PGM, as segconv writes them, back into an int array."""
    tokens = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise ValueError("not an ASCII PGM (P2) file")
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    vals = [int(t) for t in tokens[4 : 4 + w * h]]
    if len(vals) != w * h or any(v < 0 or v > maxval for v in vals):
        raise ValueError("malformed PGM payload")
    return np.array(vals, dtype=np.int64).reshape(h, w)


def gen_thin_structures_per_image(n, height, width, thickness, rng):
    """The thin-structure generator as one pass over the images: each image
    draws its labels and then its noise through rng.normal before the next
    image draws anything. Base intensities 0.1 / 0.9 / 0.5 (background, thin,
    blob), noise std 0.05, 2 blobs and 3 poles per image. Returns a list of
    ((1, 1, H, W) image, (H, W) labels) pairs."""
    base_intensity = np.array([0.1, 0.9, 0.5])
    out = []
    for _ in range(n):
        labels = np.zeros((height, width), dtype=np.int64)
        for _ in range(2):
            bh = height // 4 + rng.randint(height // 4 + 1)
            bw = width // 4 + rng.randint(width // 4 + 1)
            y0 = rng.randint(height - bh + 1)
            x0 = rng.randint(width - bw + 1)
            labels[y0 : y0 + bh, x0 : x0 + bw] = 2
        taken = {True: [], False: []}
        for _ in range(3):
            vertical = rng.randint(2) == 0
            span = height if vertical else width
            cross = width if vertical else height
            length = (3 * span) // 4 + rng.randint(span // 4 + 1)
            start = rng.randint(span - length + 1)
            slots = cross - thickness + 1

            def clear(off):
                return all(abs(off - o) > thickness for o in taken[vertical])

            off = rng.randint(slots)
            tries = 0
            while not clear(off) and tries < 50:
                off = rng.randint(slots)
                tries += 1
            if not clear(off):
                allowed = [o for o in range(slots) if clear(o)]
                if not allowed:
                    continue
                off = allowed[rng.randint(len(allowed))]
            taken[vertical].append(off)
            if vertical:
                labels[start : start + length, off : off + thickness] = 1
            else:
                labels[off : off + thickness, start : start + length] = 1
        noise = rng.normal(height * width).reshape(height, width) * 0.05
        image = (base_intensity[labels] + noise).reshape(1, 1, height, width)
        out.append((image, labels))
    return out
