"""Naive loop-based reference implementations.

Deliberately slow and independent of the vectorized kernels: plain Python
loops only, so they can serve as oracles. The oracles from the top-k
ranking on are the exception. The preprocessing oracle runs one image at
a time, with a 2-d `np.ix_` resize, as the program did before its stages
took batches.
The three directional-feature oracles are Sobel by one GEMM over a
sliding-window view, and gradient and HoG planes voted into a full float64
plane volume. Each is an order of arithmetic the program must match bit for
bit. The top-k oracle ranks classes by a stable argsort of every row. The
unfold oracle copies one strided slice per kernel cell, as the program's
im2col did before it became one strided copy. The conv input-gradient
oracle scatters each window cell's slice of the unfold's gradient into a
zero-padded grid and crops it, as the program did before its conv backward
took max pooling's in-range cells. The scoring oracle preprocesses a whole
side before its first forward pass, as `hccr eval` and `hccr ensemble` did
before they preprocessed each batch just before stacking it.
"""

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from hccr.directional_features import (HOG_BINS, HOG_CELL, chaincode_decompose,
                                       sobel_gradients)
from hccr.pipeline_data import Dataset, Sample
from hccr.train_eval import predict


def conv2d_ref(x, w, b, stride=1, pad=0):
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((n, f, ho, wo), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[ni, ci, oy * stride + ky, ox * stride + kx] \
                                       * w[fi, ci, ky, kx]
                    out[ni, fi, oy, ox] = acc + b[fi]
    return out


def conv2d_backward_ref(x, w, g, stride=1, pad=0):
    """(dx, dw, db) of conv2d_ref for upstream g[N,F,Ho,Wo], in float64."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    _, _, ho, wo = g.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    dxp = np.zeros(xp.shape, dtype=np.float64)
    dw = np.zeros(w.shape, dtype=np.float64)
    db = np.zeros(f, dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for oy in range(ho):
                for ox in range(wo):
                    up = g[ni, fi, oy, ox]
                    db[fi] += up
                    for ci in range(c):
                        for ky in range(kh):
                            for kx in range(kw):
                                y, xx = oy * stride + ky, ox * stride + kx
                                dxp[ni, ci, y, xx] += up * w[fi, ci, ky, kx]
                                dw[fi, ci, ky, kx] += up * xp[ni, ci, y, xx]
    return dxp[:, :, pad:pad + h, pad:pad + wd], dw, db


def maxpool2d_ref(x, window, stride, pad=0):
    n, c, h, w = x.shape
    ho = (h + 2 * pad - window) // stride + 1
    wo = (w + 2 * pad - window) // stride + 1
    xp = np.full((n, c, h + 2 * pad, w + 2 * pad), -np.inf, dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    out = np.zeros((n, c, ho, wo), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    best = -np.inf
                    for ky in range(window):
                        for kx in range(window):
                            v = xp[ni, ci, oy * stride + ky, ox * stride + kx]
                            if v > best:
                                best = v
                    out[ni, ci, oy, ox] = best
    return out


def maxpool2d_backward_ref(x, g, window, stride, pad=0):
    """Gradient of maxpool2d: each g goes to the first row-major cell holding
    its window's max; windows add in output row-major order, in g's dtype."""
    n, c, h, w = x.shape
    _, _, ho, wo = g.shape
    xp = np.full((n, c, h + 2 * pad, w + 2 * pad), -np.inf, dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    for ni in range(n):
        for ci in range(c):
            for oy in range(ho):
                for ox in range(wo):
                    best, at = -np.inf, (oy * stride, ox * stride)
                    for ky in range(window):
                        for kx in range(window):
                            v = xp[ni, ci, oy * stride + ky, ox * stride + kx]
                            if v > best:
                                best, at = v, (oy * stride + ky, ox * stride + kx)
                    dxp[ni, ci, at[0], at[1]] += g[ni, ci, oy, ox]
    return dxp[:, :, pad:pad + h, pad:pad + w]


def matmul_ref(x, w, b):
    n, d = x.shape
    t = w.shape[0]
    out = np.zeros((n, t), dtype=np.float64)
    for ni in range(n):
        for ti in range(t):
            acc = 0.0
            for di in range(d):
                acc += x[ni, di] * w[ti, di]
            out[ni, ti] = acc + b[ti]
    return out


def rank_classes(probs):
    """Class indices best-first; equal probabilities keep lower index first,
    and NaNs go last in index order."""
    return np.argsort(-probs, axis=1, kind="stable")


def resize_bilinear_ref(image, target):
    """One 2-d image resized by four `np.ix_` gathers; same size is a copy."""
    image = np.asarray(image, dtype=np.float32)
    h, w = image.shape
    if (h, w) == (target, target):
        return image.copy()

    def positions(extent):
        if target == 1:
            return np.array([(extent - 1) / 2.0])
        return np.arange(target) * (extent - 1) / (target - 1)

    ys, xs = positions(h), positions(w)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    out = ((1 - wy) * (1 - wx) * image[np.ix_(y0, x0)] +
           (1 - wy) * wx * image[np.ix_(y0, x1)] +
           wy * (1 - wx) * image[np.ix_(y1, x0)] +
           wy * wx * image[np.ix_(y1, x1)])
    return out.astype(np.float32)


def center_pad_ref(image, mask):
    h, w = image.shape
    out = np.zeros((mask, mask), dtype=np.float32)
    my, mx = (mask - h) // 2, (mask - w) // 2
    out[my:my + h, mx:mx + w] = image
    return out


def preprocess_ref(dataset, spec):
    """Invert, resize and center-pad each sample on its own, in order."""
    samples = []
    for sample in dataset.samples:
        image = 1.0 - np.asarray(sample.image, dtype=np.float32)
        image = center_pad_ref(resize_bilinear_ref(image, spec.target), spec.mask)
        samples.append(Sample(image, sample.label))
    return Dataset(samples, dataset.class_names)


def predict_upfront_ref(spec, params, images, mode, batch_size, preset):
    """Raw images scored as `hccr eval` and `hccr ensemble` once did: the whole
    side preprocessed first (here one image at a time), then predicted."""
    prepared = preprocess_ref(Dataset([Sample(image, 0) for image in images], ()), preset)
    return predict(spec, params, [s.image for s in prepared.samples], mode, batch_size)


SOBEL = np.array([[[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]],       # x
                  [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]],     # y
                 dtype=np.float32)


def sobel_gemm_ref(images):
    """(gx, gy) of edge-padded float32 images [..., H, W] as one GEMM
    `kernels @ cols` over a sliding-window view of the whole batch."""
    images = np.asarray(images, dtype=np.float32)
    h, w = images.shape[-2:]
    padded = np.pad(images, [(0, 0)] * (images.ndim - 2) + [(1, 1)] * 2, mode="edge")
    windows = sliding_window_view(padded.reshape(-1, h + 2, w + 2), (3, 3), axis=(-2, -1))
    cols = np.moveaxis(windows, (-2, -1), (0, 1)).reshape(9, -1)
    return tuple((SOBEL.reshape(2, 9) @ cols).reshape((2,) + images.shape))


def gradient_maps_ref(images):
    """gradient_maps by the float64 plane volume: vote, rescale every plane
    by the image's peak, then round to float32."""
    gx, gy = sobel_gradients(images)
    planes = chaincode_decompose(gx, -gy)
    peak = planes.max(axis=(-3, -2, -1), keepdims=True)
    np.divide(planes, peak, out=planes, where=peak > 0)
    return planes.astype(np.float32)


def hog_cell_histograms_ref(images):
    """HoG cell histograms [..., bins, Hc, Wc] summed from a float64 vote
    volume [..., bins, H, W] in numpy's reduction order."""
    h, w = images.shape[-2:]
    cs = HOG_CELL
    pad = [(0, 0)] * (images.ndim - 2) + [(0, (-h) % cs), (0, (-w) % cs)]
    gx, gy = sobel_gradients(np.pad(images, pad, mode="edge"))
    m = np.hypot(gx, -gy)
    t = np.mod(np.arctan2(-gy, gx), math.pi) / (math.pi / HOG_BINS)
    k0 = np.minimum(t.astype(np.int64), HOG_BINS - 1)[..., None, :, :]
    frac = (t - k0[..., 0, :, :])[..., None, :, :]
    votes = np.zeros(gx.shape[:-2] + (HOG_BINS,) + gx.shape[-2:])
    np.put_along_axis(votes, k0, (1.0 - frac) * m[..., None, :, :], axis=-3)
    np.put_along_axis(votes, (k0 + 1) % HOG_BINS, frac * m[..., None, :, :], axis=-3)
    hc, wc = votes.shape[-2] // cs, votes.shape[-1] // cs
    return votes.reshape(votes.shape[:-2] + (hc, cs, wc, cs)).sum(axis=(-3, -1))


def unfold_ref(xp, kh, kw, stride, rows, columns):
    """cols[C*kh*kw, R*W*N] of output rows r0:r1 and columns w0:w1 of a padded
    batch-last xp[C, H, W, N]: one strided slice copy per kernel cell."""
    (r0, r1), (w0, w1) = rows, columns
    c, n = xp.shape[0], xp.shape[3]
    cols = np.empty((c, kh * kw, r1 - r0, w1 - w0, n), xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i * kw + j] = xp[:, stride * r0 + i:stride * (r1 - 1) + i + 1:stride,
                                     stride * w0 + j:stride * (w1 - 1) + j + 1:stride]
    return cols.reshape(c * kh * kw, -1)


def conv_dx_scatter_ref(g, x, w, stride, pad):
    """dx[C, H, W, N] of a batch-last conv for upstream g[F, Ho, Wo, N]: the
    unfold's gradient w^T g, returned as is for a 1x1 stride-1 conv, else
    added cell by cell in row-major order into a zero-padded grid, cropped."""
    c, h, wd, n = x.shape
    f, _, kh, kw = w.shape
    ho, wo = g.shape[1], g.shape[2]
    dcols = (w.reshape(f, -1).T @ g.reshape(f, -1)).reshape(c, kh * kw, ho, wo, n)
    if kh * kw == stride == 1 and not pad:
        return dcols.reshape(x.shape)
    dxp = np.zeros((c, h + 2 * pad, wd + 2 * pad, n), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * (ho - 1) + 1:stride,
                j:j + stride * (wo - 1) + 1:stride] += dcols[:, i * kw + j]
    return dxp[:, pad:pad + h, pad:pad + wd]
