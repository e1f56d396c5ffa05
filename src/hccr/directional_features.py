"""Directional input planes: Gabor bank, chaincode gradients, HoG maps.

Each extractor turns grayscale images [..., H, W] in [0,1] into
orientation-indexed planes [..., D, H, W] in [0,1], each image on its own,
which stack_batch combines (with or without the original bitmap) into the
channel layout the networks consume. All extractors are pure functions.

Image boundaries are handled by edge replication, not zero padding: a zero
border would read as a strong phantom edge around every image and break the
contract that featureless (constant) images produce all-zero planes.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor_core as tc


# ---------------------------------------------------------------------------
# Gabor bank

@dataclass(frozen=True)
class GaborBankSpec:
    """Oriented sinusoid-under-Gaussian filters at D evenly spaced angles.

    Orientations are theta_k = k*pi/D for k in 0..D-1, where theta is the
    carrier (oscillation) direction; a plane responds most strongly to
    strokes running along theta + pi/2. sigma defaults to 0.56*wavelength.
    """
    orientation_count: int = 8
    kernel_size: int = 11
    wavelength: float = 8.0
    sigma: float = None
    aspect: float = 0.5
    phase: float = 0.0

    def __post_init__(self):
        if self.sigma is None:
            object.__setattr__(self, "sigma", 0.56 * self.wavelength)
        if self.orientation_count < 1:
            raise ValueError("orientation_count must be >= 1")
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd and >= 3, "
                             f"got {self.kernel_size}")

    @property
    def orientations(self):
        d = self.orientation_count
        return tuple(k * math.pi / d for k in range(d))


def gabor_kernel(theta, spec=None):
    """Real Gabor kernel at carrier angle theta, adjusted to zero mean.

    exp(-(x'^2 + g^2 y'^2) / 2s^2) * cos(2 pi x'/lambda + psi), with
    x' = x cos(theta) + y sin(theta) and y' = -x sin(theta) + y cos(theta);
    x runs along columns, y along rows. Subtracting the mean removes the
    DC response so flat regions map to zero.
    """
    spec = spec or GaborBankSpec()
    r = spec.kernel_size // 2
    y, x = np.mgrid[-r:r + 1, -r:r + 1].astype(np.float64)
    xr = x * math.cos(theta) + y * math.sin(theta)
    yr = -x * math.sin(theta) + y * math.cos(theta)
    envelope = np.exp(-(xr ** 2 + (spec.aspect * yr) ** 2) / (2 * spec.sigma ** 2))
    carrier = np.cos(2 * math.pi * xr / spec.wavelength + spec.phase)
    kernel = envelope * carrier
    kernel -= kernel.mean()
    return kernel.astype(tc.FLOAT)


@functools.lru_cache(maxsize=8)
def gabor_bank(spec=None):
    """All D kernels, stacked [D, k, k]; built once per spec, read-only."""
    spec = spec or GaborBankSpec()
    bank = np.stack([gabor_kernel(t, spec) for t in spec.orientations])
    bank.flags.writeable = False
    return bank


def _same_conv(image, kernels):
    """Cross-correlate each image [..., H, W] with kernels [F, k, k] on an
    edge-replicated border: [..., F, H, W]."""
    images = np.asarray(image, dtype=tc.FLOAT)
    if images.ndim < 2:
        raise tc.ShapeError(f"expected grayscale images [..., H, W], got {images.shape}")
    if not np.isfinite(images).all():
        raise ValueError("image values must be finite")
    lead, (h, w) = images.shape[:-2], images.shape[-2:]
    r = kernels.shape[-1] // 2
    padded = np.pad(images.reshape(-1, 1, h, w), ((0, 0), (0, 0), (r, r), (r, r)),
                    mode="edge")
    bias = np.zeros(len(kernels), dtype=tc.FLOAT)
    return tc.conv2d(padded, kernels[:, None], bias).reshape(lead + (-1, h, w))


def gabor_responses(image, spec=None):
    """Raw signed same-padded responses [..., D, H, W], no rescaling.

    Useful for comparing response energy between orientations; the min-max
    rescaling in gabor_maps deliberately equalizes plane ranges and so
    erases that ordering.
    """
    spec = spec or GaborBankSpec()
    k = spec.kernel_size
    if min(np.shape(image)[-2:], default=0) < k:
        raise tc.ShapeError(f"image {np.shape(image)} is smaller than the "
                            f"{k}x{k} kernel")
    return _same_conv(image, gabor_bank(spec))


def gabor_maps(image, spec=None):
    """D same-padded Gabor responses, each plane min-max rescaled to [0,1]."""
    response = gabor_responses(image, spec)
    lo = response.min(axis=(-2, -1), keepdims=True)
    span = response.max(axis=(-2, -1), keepdims=True) - lo
    # spans up to 1e-6 are rounding residue, not signal
    return np.divide(response - lo, span, out=np.zeros_like(response),
                     where=span > 1e-6)


# ---------------------------------------------------------------------------
# chaincode gradient decomposition

_SOBEL = np.array([[[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]],         # x
                   [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]],       # y
                  dtype=tc.FLOAT)

# Compass unit vectors 45 degrees apart, east first, counterclockwise,
# in (x east, y north) coordinates.
CHAINCODE_DIRECTIONS = np.array(
    [(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)])


def sobel_gradients(image):
    """(gx, gy) with replicated borders; gx grows rightward, gy downward."""
    g = _same_conv(image, _SOBEL)
    return g[..., 0, :, :], g[..., 1, :, :]


def _vote(count, index, low, high):
    """Planes [..., count, H, W] with each pixel's `low` at plane `index` and
    its `high` at plane index+1 (mod count); the two never collide."""
    planes = np.zeros(index.shape[:-2] + (count,) + index.shape[-2:])
    index = index[..., None, :, :]
    np.put_along_axis(planes, index, low[..., None, :, :], axis=-3)
    np.put_along_axis(planes, (index + 1) % count, high[..., None, :, :], axis=-3)
    return planes


def chaincode_decompose(gx, gy):
    """Split each gradient vector onto its two neighboring compass directions.

    gx, gy are the east and north components. Writing the vector as
    a*d_i + b*d_{i+1} over the adjacent 45-degree-spaced unit directions
    gives, by the sine rule, b = m*sin(delta)/sin(45) and
    a = m*sin(45-delta)/sin(45) where delta is the angle past d_i. Both
    coefficients are non-negative and the pair reconstructs the gradient
    exactly. Returns [..., 8, H, W] raw (unscaled) coefficient planes.
    """
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    if gx.shape != gy.shape:
        raise tc.ShapeError(f"component shapes differ: {gx.shape} vs {gy.shape}")
    m = np.hypot(gx, gy)
    phi = np.mod(np.arctan2(gy, gx), 2 * math.pi)
    sector = np.minimum((phi / (math.pi / 4)).astype(np.int64), 7)
    delta = phi - sector * (math.pi / 4)
    s45 = math.sin(math.pi / 4)
    b = m * np.sin(delta) / s45
    a = m * np.sin(math.pi / 4 - delta) / s45
    return _vote(8, sector, a, b)


def gradient_maps(image):
    """Sobel gradients decomposed onto 8 chaincode planes, rescaled per image.

    The decomposition runs in (east, north) coordinates, so the downward
    image-row gradient is negated first. One maximum per image scales all its
    planes together, preserving relative stroke strength across directions.
    """
    gx, gy = sobel_gradients(image)
    planes = chaincode_decompose(gx, -gy)
    peak = planes.max(axis=(-3, -2, -1), keepdims=True)
    np.divide(planes, peak, out=planes, where=peak > 0)
    return planes.astype(tc.FLOAT)


# ---------------------------------------------------------------------------
# HoG planes

# Unsigned-orientation histograms over [0, pi), as image-sized planes. Bins
# anchor at the representative angles k*pi/HOG_BINS; a gradient votes its
# magnitude into the two nearest anchors by linear interpolation (circularly,
# so angles near pi wrap to bin 0). Cells of HOG_CELL^2 pixels accumulate
# votes; 2x2-cell blocks are L2-normalized and each cell's final descriptor
# averages its normalized appearances; nearest-neighbor upsampling returns
# to pixel resolution.
HOG_BINS = 8
HOG_CELL = 8
HOG_EPSILON = 1e-5


def _cell_histograms(images):
    """Vote planes summed per cell: [..., bins, Hc, Wc] on the padded grid."""
    h, w = images.shape[-2:]
    cs = HOG_CELL
    pad = [(0, 0)] * (images.ndim - 2) + [(0, (-h) % cs), (0, (-w) % cs)]
    gx, gy = sobel_gradients(np.pad(images, pad, mode="edge"))
    m = np.hypot(gx, -gy)
    phi = np.mod(np.arctan2(-gy, gx), math.pi)
    t = phi / (math.pi / HOG_BINS)
    k0 = np.minimum(t.astype(np.int64), HOG_BINS - 1)
    frac = t - k0
    votes = _vote(HOG_BINS, k0, (1.0 - frac) * m, frac * m)
    hc, wc = votes.shape[-2] // cs, votes.shape[-1] // cs
    return votes.reshape(votes.shape[:-2] + (hc, cs, wc, cs)).sum(axis=(-3, -1))


def _normalize_blocks(hist):
    """Average each cell's L2-normalized appearances across 2x2 blocks."""
    hc, wc = hist.shape[-2:]
    bh, bw = min(2, hc), min(2, wc)
    nby, nbx = hc - bh + 1, wc - bw + 1
    # Each block's squares as one contiguous (bins, 2, 2) run, summed in the
    # order numpy sums a whole block.
    squares = sliding_window_view(hist ** 2, (bh, bw), axis=(-2, -1))
    squares = np.moveaxis(squares, -5, -3).reshape(hist.shape[:-3] + (nby, nbx, -1))
    norms = np.sqrt(squares.sum(axis=-1) + HOG_EPSILON ** 2)[..., None, :, :]
    # A cell takes its blocks in row-major block order: last offset first.
    acc = np.zeros_like(hist)
    count = np.zeros((hc, wc))
    for dy in reversed(range(bh)):
        for dx in reversed(range(bw)):
            acc[..., dy:dy + nby, dx:dx + nbx] += \
                hist[..., dy:dy + nby, dx:dx + nbx] / norms
            count[dy:dy + nby, dx:dx + nbx] += 1
    return acc / count


def hog_maps(image):
    """Per-bin HoG planes [..., HOG_BINS, H, W] at input resolution, in [0,1]."""
    images = np.asarray(image, dtype=tc.FLOAT)
    cells = _normalize_blocks(_cell_histograms(images))
    planes = cells.repeat(HOG_CELL, axis=-2).repeat(HOG_CELL, axis=-1)
    return planes[..., :images.shape[-2], :images.shape[-1]].astype(tc.FLOAT)


# ---------------------------------------------------------------------------
# input stacking

@dataclass(frozen=True)
class FeatureStack:
    planes: np.ndarray          # [C, H, W], float32, values in [0, 1]


MODE_CHANNELS = {
    "original": 1,
    "original+gabor": 9,
    "original+gradient": 9,
    "original+hog": 9,
    "gabor-only": 8,
}


# Pixels per extractor call, 64 images of 32x32: float64 intermediates stay
# a few MB and the Gabor unfold 32 MB (at 128 images, 0.49 against 0.38 ms).
_CHUNK_PIXELS = 64 * 32 * 32


def stack_batch(images, mode):
    """Network input [N, MODE_CHANNELS[mode], H, W] for grayscale images
    [N, H, W]; the original bitmap, when present, is always channel 0."""
    if mode not in MODE_CHANNELS:
        known = ", ".join(sorted(MODE_CHANNELS))
        raise ValueError(f"unknown input mode {mode!r} (expected one of {known})")
    images = np.asarray(images, dtype=tc.FLOAT)
    if images.ndim != 3:
        raise tc.ShapeError(f"expected 2-d grayscale images, got {images.shape[1:]}")
    if not (images.min() >= 0 and images.max() <= 1):    # False for NaN too
        raise ValueError("image values must lie in [0, 1]")
    n, h, w = images.shape
    out = np.empty((n, MODE_CHANNELS[mode], h, w), dtype=tc.FLOAT)
    first = 0 if mode == "gabor-only" else 1
    if first:
        out[:, 0] = images
    # looked up per call, so a wrapper installed on this module is used
    extract = {"original+gabor": gabor_maps, "gabor-only": gabor_maps,
               "original+gradient": gradient_maps, "original+hog": hog_maps}.get(mode)
    if extract is not None:
        step = max(1, _CHUNK_PIXELS // (h * w))
        for start in range(0, n, step):
            out[start:start + step, first:] = extract(images[start:start + step])
    return out


def stack_input(image, mode):
    """stack_batch of one 2-d image, as a FeatureStack [C, H, W]."""
    return FeatureStack(stack_batch(np.asarray(image)[None], mode)[0])
