"""Directional input planes: Gabor bank, chaincode gradients, HoG maps.

Each extractor turns one grayscale image in [0,1] into a stack of
orientation-indexed planes in [0,1], which stack_input combines (with or
without the original bitmap) into the channel layout the networks consume.
All extractors are pure functions of their arguments.

Image boundaries are handled by edge replication, not zero padding: a zero
border would read as a strong phantom edge around every image and break the
contract that featureless (constant) images produce all-zero planes.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def gabor_bank(spec=None):
    """All D kernels, stacked [D, k, k]."""
    spec = spec or GaborBankSpec()
    return np.stack([gabor_kernel(t, spec) for t in spec.orientations])


_RESCALE_EPS = 1e-6  # spans below this are rounding residue, not signal


def _minmax_rescale(plane):
    lo = plane.min()
    span = plane.max() - lo
    if span <= _RESCALE_EPS:
        return np.zeros_like(plane)
    return (plane - lo) / span


def gabor_responses(image, spec=None):
    """Raw signed same-padded responses [D, H, W], no rescaling.

    Useful for comparing response energy between orientations; the min-max
    rescaling in gabor_maps deliberately equalizes plane ranges and so
    erases that ordering.
    """
    spec = spec or GaborBankSpec()
    image = np.asarray(image, dtype=tc.FLOAT)
    if image.ndim != 2:
        raise tc.ShapeError(f"expected a 2-d grayscale image, got {image.shape}")
    k = spec.kernel_size
    if image.shape[0] < k or image.shape[1] < k:
        raise tc.ShapeError(f"image {image.shape} is smaller than the "
                            f"{k}x{k} kernel")
    r = k // 2
    padded = np.pad(image, r, mode="edge")
    bank = gabor_bank(spec)[:, None]                       # [D,1,k,k]
    bias = np.zeros(spec.orientation_count, dtype=tc.FLOAT)
    return tc.conv2d(padded[None, None], bank, bias)[0]


def gabor_maps(image, spec=None):
    """D same-padded Gabor responses, each plane min-max rescaled to [0,1]."""
    response = gabor_responses(image, spec)
    return np.stack([_minmax_rescale(p) for p in response]).astype(tc.FLOAT)


# ---------------------------------------------------------------------------
# chaincode gradient decomposition

SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=tc.FLOAT)
SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=tc.FLOAT)

# Compass unit vectors 45 degrees apart, east first, counterclockwise,
# in (x east, y north) coordinates.
CHAINCODE_DIRECTIONS = np.array(
    [(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4)) for k in range(8)])


def sobel_gradients(image):
    """(gx, gy) with replicated borders; gx grows rightward, gy downward."""
    image = np.asarray(image, dtype=tc.FLOAT)
    if image.ndim != 2:
        raise tc.ShapeError(f"expected a 2-d grayscale image, got {image.shape}")
    padded = np.pad(image, 1, mode="edge")
    w = np.stack([SOBEL_X, SOBEL_Y])[:, None]
    g = tc.conv2d(padded[None, None], w, np.zeros(2, dtype=tc.FLOAT))[0]
    return g[0], g[1]


def chaincode_decompose(gx, gy):
    """Split each gradient vector onto its two neighboring compass directions.

    gx, gy are the east and north components. Writing the vector as
    a*d_i + b*d_{i+1} over the adjacent 45-degree-spaced unit directions
    gives, by the sine rule, b = m*sin(delta)/sin(45) and
    a = m*sin(45-delta)/sin(45) where delta is the angle past d_i. Both
    coefficients are non-negative and the pair reconstructs the gradient
    exactly. Returns [8, H, W] raw (unscaled) coefficient planes.
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
    planes = np.zeros((8,) + gx.shape)
    rows, cols = np.indices(gx.shape)
    planes[sector, rows, cols] = a
    planes[(sector + 1) % 8, rows, cols] = b
    return planes


def gradient_maps(image):
    """Sobel gradients decomposed onto 8 chaincode planes, globally rescaled.

    The decomposition runs in (east, north) coordinates, so the downward
    image-row gradient is negated first. A single global maximum scales all
    planes together, preserving relative stroke strength across directions.
    """
    gx, gy = sobel_gradients(image)
    planes = chaincode_decompose(gx, -gy)
    peak = planes.max()
    if peak > 0:
        planes = planes / peak
    return planes.astype(tc.FLOAT)


# ---------------------------------------------------------------------------
# HoG planes

@dataclass(frozen=True)
class HogSpec:
    """Unsigned-orientation histograms over [0, pi), as image-sized planes.

    Bins anchor at the representative angles k*pi/bin_count; a gradient
    votes its magnitude into the two nearest anchors by linear
    interpolation (circularly, so angles near pi wrap to bin 0). Cells of
    cell_size^2 pixels accumulate votes; 2x2-cell blocks are L2-normalized
    and each cell's final descriptor averages its normalized appearances;
    nearest-neighbor upsampling returns to pixel resolution.
    """
    bin_count: int = 8
    cell_size: int = 8
    epsilon: float = 1e-5

    def __post_init__(self):
        if self.bin_count < 2:
            raise ValueError("bin_count must be >= 2")
        if self.cell_size < 1:
            raise ValueError("cell_size must be >= 1")


def _cell_histograms(image, spec):
    """Vote planes summed per cell: [bins, Hc, Wc] on the padded grid."""
    h, w = image.shape
    cs = spec.cell_size
    pad_h = (-h) % cs
    pad_w = (-w) % cs
    padded = np.pad(image, ((0, pad_h), (0, pad_w)), mode="edge")
    gx, gy = sobel_gradients(padded)
    m = np.hypot(gx, -gy)
    phi = np.mod(np.arctan2(-gy, gx), math.pi)
    t = phi / (math.pi / spec.bin_count)
    k0 = np.minimum(t.astype(np.int64), spec.bin_count - 1)
    frac = t - k0
    votes = np.zeros((spec.bin_count,) + padded.shape)
    rows, cols = np.indices(padded.shape)
    votes[k0, rows, cols] = (1.0 - frac) * m
    np.add.at(votes, ((k0 + 1) % spec.bin_count, rows, cols), frac * m)
    hc, wc = padded.shape[0] // cs, padded.shape[1] // cs
    return votes.reshape(spec.bin_count, hc, cs, wc, cs).sum(axis=(2, 4))


def _normalize_blocks(hist, spec):
    """Average each cell's L2-normalized appearances across 2x2 blocks."""
    bins, hc, wc = hist.shape
    acc = np.zeros_like(hist)
    count = np.zeros((hc, wc))
    bh, bw = min(2, hc), min(2, wc)
    for by in range(max(1, hc - bh + 1)):
        for bx in range(max(1, wc - bw + 1)):
            block = hist[:, by:by + bh, bx:bx + bw]
            norm = math.sqrt(float((block ** 2).sum()) + spec.epsilon ** 2)
            acc[:, by:by + bh, bx:bx + bw] += block / norm
            count[by:by + bh, bx:bx + bw] += 1
    return acc / count


def hog_maps(image, spec=None):
    """Per-bin HoG planes at input resolution, values in [0,1]."""
    spec = spec or HogSpec()
    image = np.asarray(image, dtype=tc.FLOAT)
    if image.ndim != 2:
        raise tc.ShapeError(f"expected a 2-d grayscale image, got {image.shape}")
    hist = _cell_histograms(image, spec)
    cells = _normalize_blocks(hist, spec)
    planes = cells.repeat(spec.cell_size, axis=1).repeat(spec.cell_size, axis=2)
    return planes[:, :image.shape[0], :image.shape[1]].astype(tc.FLOAT)


# ---------------------------------------------------------------------------
# input stacking

@dataclass(frozen=True)
class FeatureStack:
    planes: np.ndarray          # [C, H, W], float32, values in [0, 1]
    mode: str


MODE_CHANNELS = {
    "original": 1,
    "original+gabor": 9,
    "original+gradient": 9,
    "original+hog": 9,
    "gabor-only": 8,
}


def stack_input(image, mode):
    """Combine the image and/or its directional planes into network input.

    The original bitmap, when present, is always channel 0. Returns a
    FeatureStack whose plane count matches MODE_CHANNELS[mode].
    """
    if mode not in MODE_CHANNELS:
        known = ", ".join(sorted(MODE_CHANNELS))
        raise ValueError(f"unknown input mode {mode!r} (expected one of {known})")
    image = np.asarray(image, dtype=tc.FLOAT)
    if image.ndim != 2:
        raise tc.ShapeError(f"expected a 2-d grayscale image, got {image.shape}")
    if image.min() < 0 or image.max() > 1:
        raise ValueError("image values must lie in [0, 1]")
    parts = []
    if mode != "gabor-only":
        parts.append(image[None])
    if mode in ("original+gabor", "gabor-only"):
        parts.append(gabor_maps(image))
    elif mode == "original+gradient":
        parts.append(gradient_maps(image))
    elif mode == "original+hog":
        parts.append(hog_maps(image))
    planes = np.concatenate(parts, axis=0).astype(tc.FLOAT)
    return FeatureStack(planes, mode)


def stack_batch(images, mode):
    """stack_input over a batch: [N, H, W] images -> [N, C, H, W] input."""
    stacks = [stack_input(im, mode).planes for im in images]
    return np.stack(stacks)
