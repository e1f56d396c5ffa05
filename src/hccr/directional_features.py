"""Directional input planes: Gabor bank, chaincode gradients, HoG maps.

Each extractor turns grayscale images [..., H, W] in [0,1] into
orientation-indexed planes [..., D, H, W] in [0,1], each image on its own,
which stack_batch combines (with or without the original bitmap) into the
channel layout the networks consume. All extractors are pure functions.

Image boundaries are handled by edge replication, not zero padding: a zero
border would read as a strong phantom edge around every image and break the
contract that featureless (constant) images produce all-zero planes. The
Gabor bank correlates by FFT, the two Sobel kernels by shifted slices; HoG
cells sum their votes with np.bincount. No extractor calls BLAS.
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
    """The fixed bank: oriented sinusoid-under-Gaussian filters at D evenly
    spaced angles. It takes no arguments, so every instance is equal.

    Orientations are theta_k = k*pi/D for k in 0..D-1, where theta is the
    carrier (oscillation) direction; a plane responds most strongly to
    strokes running along theta + pi/2.
    """
    orientation_count = 8
    kernel_size = 11
    wavelength = 8.0
    sigma = 0.56 * wavelength
    aspect = 0.5
    phase = 0.0

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
    """All D kernels, stacked [D, k, k]; built once, read-only."""
    spec = spec or GaborBankSpec()
    bank = np.stack([gabor_kernel(t, spec) for t in spec.orientations])
    bank.flags.writeable = False
    return bank


def _edge_padded(image, r):
    """Finite images [..., H, W] as float32 [..., H+2r, W+2r], edge-replicated."""
    images = np.asarray(image, dtype=tc.FLOAT)
    if images.ndim < 2:
        raise tc.ShapeError(f"expected grayscale images [..., H, W], got {images.shape}")
    if not np.isfinite(images).all():
        raise ValueError("image values must be finite")
    return np.pad(images, [(0, 0)] * (images.ndim - 2) + [(r, r)] * 2, mode="edge")


@functools.lru_cache(maxsize=8)
def _gabor_spectrum(spec, shape):
    """Conjugate rfft2 [D, Hp, Wp//2+1] of the bank zero-padded to `shape`, read-only."""
    spectrum = np.conj(np.fft.rfft2(gabor_bank(spec), s=shape))
    spectrum.flags.writeable = False
    return spectrum


def gabor_responses(image, spec=None):
    """Raw signed same-padded responses [..., D, H, W], no rescaling.

    One batched rfft2 of the edge-padded images; per orientation, times its
    conjugate spectrum, irfft2 and a crop to H x W, so no temporary holds
    all D planes. The crop's windows lie inside the padded image, so the
    circular correlation never wraps into it. Useful for comparing response
    energy between orientations; gabor_maps equalizes plane ranges.
    """
    spec = spec or GaborBankSpec()
    k = spec.kernel_size
    if min(np.shape(image)[-2:], default=0) < k:
        raise tc.ShapeError(f"image {np.shape(image)} is smaller than the "
                            f"{k}x{k} kernel")
    padded = _edge_padded(image, k // 2)
    shape = padded.shape[-2:]
    h, w = shape[0] - k + 1, shape[1] - k + 1
    spectra = np.fft.rfft2(padded)
    out = np.empty(padded.shape[:-2] + (spec.orientation_count, h, w), tc.FLOAT)
    for d, kernel in enumerate(_gabor_spectrum(spec, shape)):
        out[..., d, :, :] = np.fft.irfft2(spectra * kernel, s=shape)[..., :h, :w]
    return out


def gabor_maps(image, spec=None):
    """D same-padded Gabor responses, each plane min-max rescaled to [0,1]."""
    response = gabor_responses(image, spec)
    lo = response.min(axis=(-2, -1), keepdims=True)
    span = response.max(axis=(-2, -1), keepdims=True) - lo
    response -= lo
    np.divide(response, span, out=response, where=span > 1e-6)
    response[span[..., 0, 0] <= 1e-6] = 0     # spans up to 1e-6 are rounding residue
    return response


# ---------------------------------------------------------------------------
# chaincode gradient decomposition

# Compass unit vectors 45 degrees apart, east first, counterclockwise,
# in (x east, y north) coordinates.
CHAINCODE_DIRECTIONS = np.array(
    [(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)])


def sobel_gradients(image):
    """(gx, gy) with replicated borders; gx grows rightward, gy downward.

    Each adds its kernel's six nonzero cells, as shifted slices of the padded
    images, in row-major order. Products by +-1 and +-2 are exact in float32,
    so the bits equal one GEMM of the kernels over the windows, which adds in
    that order too."""
    padded = _edge_padded(image, 1)
    h, w = padded.shape[-2] - 2, padded.shape[-1] - 2

    def cell(i, j):
        return padded[..., i:i + h, j:j + w]

    gx = -cell(0, 0) + cell(0, 2) - 2 * cell(1, 0) + 2 * cell(1, 2) - cell(2, 0) + cell(2, 2)
    gy = -cell(0, 0) - 2 * cell(0, 1) - cell(0, 2) + cell(2, 0) + 2 * cell(2, 1) + cell(2, 2)
    return gx, gy


def _vote(index, votes, dtype=np.float64):
    """Planes [..., 8, H, W] with each pixel's votes[k] at chaincode plane
    index+k (mod 8), k = 0, 1; the two never collide."""
    planes = np.zeros(index.shape[:-2] + (8,) + index.shape[-2:], dtype)
    for k, v in enumerate(votes):
        np.put_along_axis(planes, (index[..., None, :, :] + k) % 8, v[..., None, :, :], -3)
    return planes


def _chaincode(gx, gy):
    """(sector, [a, b]) in float64: each vector is a*d_sector + b*d_(sector+1)."""
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    if gx.shape != gy.shape:
        raise tc.ShapeError(f"component shapes differ: {gx.shape} vs {gy.shape}")
    m = np.hypot(gx, gy)
    phi = np.mod(np.arctan2(gy, gx), 2 * math.pi)
    sector = np.minimum((phi / (math.pi / 4)).astype(np.int64), 7)
    delta = phi - sector * (math.pi / 4)
    return sector, m * np.sin(np.stack([math.pi / 4 - delta, delta])) / math.sin(math.pi / 4)


def chaincode_decompose(gx, gy):
    """Split each gradient vector onto its two neighboring compass directions.

    gx, gy are the east and north components. Writing the vector as
    a*d_i + b*d_{i+1} over the adjacent 45-degree-spaced unit directions
    gives, by the sine rule, b = m*sin(delta)/sin(45) and
    a = m*sin(45-delta)/sin(45) where delta is the angle past d_i. Both
    coefficients are non-negative and the pair reconstructs the gradient
    exactly. Returns [..., 8, H, W] raw (unscaled) coefficient planes.
    """
    return _vote(*_chaincode(gx, gy))


def gradient_maps(image):
    """Sobel gradients decomposed onto 8 chaincode planes, rescaled per image.

    The decomposition runs in (east, north) coordinates, so the downward
    image-row gradient is negated first. One maximum per image scales all its
    planes together, preserving relative stroke strength across directions.
    """
    gx, gy = sobel_gradients(image)
    sector, ab = _chaincode(gx, -gy)
    # scaled before the vote, as each coefficient lands in a cell of its own
    peak = ab.max(axis=(0, -2, -1), keepdims=True)
    np.divide(ab, peak, out=ab, where=peak > 0)
    return _vote(sector, ab, tc.FLOAT)


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
    """Votes summed per cell, in pixel order: [..., bins, Hc, Wc] on the padded grid."""
    h, w = images.shape[-2:]
    cs = HOG_CELL
    pad = [(0, 0)] * (images.ndim - 2) + [(0, (-h) % cs), (0, (-w) % cs)]
    gx, gy = sobel_gradients(np.pad(images, pad, mode="edge"))
    m = np.hypot(gx, -gy)
    phi = np.mod(np.arctan2(-gy, gx), math.pi)
    t = phi / (math.pi / HOG_BINS)
    k0 = np.minimum(t.astype(np.int64), HOG_BINS - 1)
    frac = t - k0
    hp, wp = gx.shape[-2:]
    shape = gx.shape[:-2] + (HOG_BINS, hp // cs, wp // cs)
    image = np.arange(gx.size // (hp * wp)).reshape(gx.shape[:-2] + (1, 1))
    cell = np.arange(hp)[:, None] // cs * (wp // cs) + np.arange(wp) // cs
    hist = sum(np.bincount(((image * HOG_BINS + (k0 + k) % HOG_BINS) * (hp // cs) * (wp // cs)
                            + cell).ravel(), v.ravel(), math.prod(shape))
               for k, v in enumerate(m * np.stack([1.0 - frac, frac])))
    return hist.reshape(shape)


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
    cells = _normalize_blocks(_cell_histograms(images)).astype(tc.FLOAT)
    planes = cells.repeat(HOG_CELL, axis=-2).repeat(HOG_CELL, axis=-1)
    return planes[..., :images.shape[-2], :images.shape[-1]]


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


# Pixels per extractor call, 64 images of 32x32: it bounds the chaincode's float64
# arrays, the Gabor spectra and the Sobel temporaries to a few MiB.
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
