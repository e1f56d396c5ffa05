"""Tests for the directional feature extractors and input stacking."""

import math

import numpy as np
import pytest

from naive_ref import (SOBEL, conv2d_ref, gradient_maps_ref, hog_cell_histograms_ref,
                       sobel_gemm_ref)

from hccr import directional_features
from hccr.directional_features import (
    CHAINCODE_DIRECTIONS,
    FeatureStack,
    GaborBankSpec,
    MODE_CHANNELS,
    chaincode_decompose,
    gabor_bank,
    gabor_kernel,
    gabor_maps,
    gabor_responses,
    gradient_maps,
    hog_maps,
    sobel_gradients,
    stack_batch,
    stack_input,
)
from hccr.tensor_core import ShapeError


def bar_image(angle, size=48, half_width=1.5):
    """Anti-aliased bright bar through the center, along `angle` (col,row frame)."""
    c = (size - 1) / 2.0
    rows, cols = np.indices((size, size)).astype(float)
    dist = np.abs(-(cols - c) * math.sin(angle) + (rows - c) * math.cos(angle))
    return np.clip(half_width + 0.5 - dist, 0.0, 1.0)


def edge_image(beta, size=32, softness=2.0):
    """Soft step edge whose brightness gradient points at compass angle beta."""
    c = (size - 1) / 2.0
    rows, cols = np.indices((size, size)).astype(float)
    proj = (cols - c) * math.cos(beta) - (rows - c) * math.sin(beta)
    return np.clip(0.5 + proj / (2.0 * softness), 0.0, 1.0)


# ---------------------------------------------------------------------------
# gabor kernels

def test_gabor_kernel_zero_mean():
    spec = GaborBankSpec()
    for theta in spec.orientations:
        assert abs(float(gabor_kernel(theta, spec).sum())) < 1e-6


def test_gabor_kernel_theta0_symmetric_in_y():
    k = gabor_kernel(0.0)
    np.testing.assert_array_equal(k, k[::-1, :])


def test_gabor_kernel_quarter_turn_is_transpose():
    spec = GaborBankSpec()
    np.testing.assert_array_equal(gabor_kernel(math.pi / 2, spec),
                                  gabor_kernel(0.0, spec).T)


def test_gabor_bank_orientations():
    spec = GaborBankSpec()
    assert len(spec.orientations) == 8
    np.testing.assert_allclose(spec.orientations,
                               [k * math.pi / 8 for k in range(8)])
    assert gabor_bank(spec).shape == (8, 11, 11)
    assert gabor_bank(spec) is gabor_bank(GaborBankSpec())   # built once
    assert not gabor_bank(spec).flags.writeable


def test_gabor_bank_is_fixed():
    spec = GaborBankSpec()
    assert (spec.orientation_count, spec.kernel_size, spec.wavelength, spec.sigma,
            spec.aspect, spec.phase) == (8, 11, 8.0, 0.56 * 8.0, 0.5, 0.0)
    with pytest.raises(TypeError):
        GaborBankSpec(kernel_size=11)


# ---------------------------------------------------------------------------
# gabor maps

def test_gabor_maps_constant_image_is_zero():
    maps = gabor_maps(np.full((32, 32), 0.7, dtype=np.float32))
    assert maps.shape == (8, 32, 32)
    np.testing.assert_array_equal(maps, np.zeros_like(maps))


@pytest.mark.parametrize("size", [32, 120])
def test_gabor_maps_constant_images_are_zero(size):
    images = np.stack([np.full((size, size), v, np.float32) for v in (0.0, 0.37, 1.0)])
    maps = gabor_maps(images)
    assert maps.shape == (3, 8, size, size)
    assert not maps.any()


def test_gabor_maps_range_and_shape():
    rng = np.random.default_rng(0)
    maps = gabor_maps(rng.random((40, 33), dtype=np.float32))
    assert maps.shape == (8, 40, 33)
    assert maps.min() >= 0.0 and maps.max() <= 1.0
    assert np.isfinite(maps).all()


def test_gabor_maps_rejects_small_or_non2d_images():
    with pytest.raises(ShapeError):
        gabor_maps(np.zeros((8, 32), dtype=np.float32))
    with pytest.raises(ShapeError):
        gabor_maps(np.zeros((32, 32, 3), dtype=np.float32))


def test_gabor_orientation_selectivity_all_eight():
    # A bright bar along angle k*pi/8 drives the plane whose carrier is
    # perpendicular to it: plane (k+4) mod 8. Energy is compared on the raw
    # signed responses; the per-plane rescale equalizes ranges by design.
    for k in range(8):
        responses = gabor_responses(bar_image(k * math.pi / 8))
        energy = [(p.astype(np.float64) ** 2).sum() for p in responses]
        assert int(np.argmax(energy)) == (k + 4) % 8


# ---------------------------------------------------------------------------
# gradient decomposition

def test_sobel_on_linear_ramps():
    cols = np.tile(np.arange(8, dtype=np.float32) / 8.0, (8, 1))
    gx, gy = sobel_gradients(cols)
    # interior: one-pixel step of 1/8, row weights sum 4, central span 2 -> 1.0
    np.testing.assert_allclose(gx[1:-1, 1:-1], 1.0, atol=1e-6)
    np.testing.assert_allclose(gy[1:-1, 1:-1], 0.0, atol=1e-6)
    gx2, gy2 = sobel_gradients(cols.T)
    np.testing.assert_allclose(gy2[1:-1, 1:-1], 1.0, atol=1e-6)


def test_decompose_exact_on_compass_directions():
    for k in range(8):
        vx, vy = CHAINCODE_DIRECTIONS[k]
        planes = chaincode_decompose(np.array([[vx]]), np.array([[vy]]))
        expected = np.zeros(8)
        expected[k] = 1.0
        np.testing.assert_allclose(planes[:, 0, 0], expected, atol=1e-12)


def test_decompose_thirty_degrees():
    planes = chaincode_decompose(np.array([[math.cos(math.pi / 6)]]),
                                 np.array([[math.sin(math.pi / 6)]]))
    assert planes[0, 0, 0] == pytest.approx(0.3660, abs=1e-4)
    assert planes[1, 0, 0] == pytest.approx(0.7071, abs=1e-4)
    assert np.all(planes[2:] == 0)


def test_decompose_reconstructs_gradient_everywhere():
    rng = np.random.default_rng(3)
    image = rng.random((24, 24), dtype=np.float32)
    gx, gy = sobel_gradients(image)
    gy_up = -gy
    planes = chaincode_decompose(gx, gy_up)
    assert planes.min() >= 0.0
    recon_x = np.tensordot(CHAINCODE_DIRECTIONS[:, 0], planes, axes=1)
    recon_y = np.tensordot(CHAINCODE_DIRECTIONS[:, 1], planes, axes=1)
    np.testing.assert_allclose(recon_x, gx, atol=1e-5)
    np.testing.assert_allclose(recon_y, gy_up, atol=1e-5)


def test_decompose_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        chaincode_decompose(np.zeros((3, 3)), np.zeros((3, 4)))


def test_gradient_maps_flat_image_all_zero():
    planes = gradient_maps(np.full((16, 16), 0.25, dtype=np.float32))
    np.testing.assert_array_equal(planes, np.zeros((8, 16, 16), dtype=np.float32))


def test_gradient_maps_global_rescale():
    planes = gradient_maps(edge_image(0.0))
    assert planes.shape == (8, 32, 32)
    assert planes.max() == pytest.approx(1.0, abs=1e-6)
    assert planes.min() >= 0.0


def test_gradient_plane_tracks_edge_direction_cyclically():
    # A step edge whose gradient points at compass angle k*45deg loads plane k.
    argmaxes = []
    for k in range(8):
        planes = gradient_maps(edge_image(k * math.pi / 4))
        energy = [(p.astype(np.float64) ** 2).sum() for p in planes]
        argmaxes.append(int(np.argmax(energy)))
    assert argmaxes == list(range(8))
    # rotating the stroke by 45 degrees shifts the maximal plane by one, cyclically
    for a, b in zip(argmaxes, argmaxes[1:] + argmaxes[:1]):
        assert (a + 1) % 8 == b


def test_gradient_decomp_spec_defaults():
    assert CHAINCODE_DIRECTIONS.shape == (8, 2)
    np.testing.assert_allclose(np.hypot(*CHAINCODE_DIRECTIONS.T), 1.0)


# ---------------------------------------------------------------------------
# hog maps

def test_hog_flat_image_all_zero():
    planes = hog_maps(np.full((32, 32), 0.5, dtype=np.float32))
    np.testing.assert_array_equal(planes, np.zeros((8, 32, 32), dtype=np.float32))


def test_hog_vertical_edge_votes_bin_zero():
    # The gradient across a vertical edge is horizontal (orientation 0), so
    # bin 0 must dominate the total histogram mass.
    image = np.zeros((32, 32), dtype=np.float32)
    image[:, 16:] = 1.0
    planes = hog_maps(image)
    sums = planes.reshape(8, -1).sum(axis=1)
    assert int(np.argmax(sums)) == 0
    assert sums[0] > 2 * np.delete(sums, 0).max()


def test_hog_block_norm_bound():
    # 16x16 at cell 8 -> a single 2x2 block; the output cells are exactly the
    # normalized block, so their joint L2 norm must respect the bound.
    rng = np.random.default_rng(8)
    image = rng.random((16, 16), dtype=np.float32)
    planes = hog_maps(image)
    cells = planes[:, ::8, ::8]
    assert math.sqrt(float((cells.astype(np.float64) ** 2).sum())) <= 1 + 1e-5


def test_hog_range_and_upsample_shape():
    rng = np.random.default_rng(4)
    image = rng.random((30, 22), dtype=np.float32)   # forces edge-replication pad
    planes = hog_maps(image)
    assert planes.shape == (8, 30, 22)
    assert planes.min() >= 0.0 and planes.max() <= 1.0
    assert np.isfinite(planes).all()


def test_hog_upsample_is_nearest_per_cell():
    rng = np.random.default_rng(5)
    image = rng.random((32, 32), dtype=np.float32)
    planes = hog_maps(image)
    # every 8x8 patch of a plane is constant (one value per cell)
    patch = planes[:, 0:8, 8:16]
    assert np.all(patch == patch[:, :1, :1])


@pytest.mark.parametrize("extract", [gabor_maps, gradient_maps, hog_maps,
                                     sobel_gradients])
def test_extractors_reject_non_finite_pixels(extract):
    with pytest.raises(ValueError, match="finite"):
        extract(np.full((32, 32), np.nan))


# ---------------------------------------------------------------------------
# correlation against the loop oracle

def edge_correlation_ref(images, kernels):
    """conv2d_ref of each edge-padded image with kernels [F, k, k], zero
    bias, in float64: [..., F, H, W]."""
    r = kernels.shape[-1] // 2
    flat = images.reshape((-1, 1) + images.shape[-2:])
    padded = np.pad(flat, ((0, 0), (0, 0), (r, r), (r, r)), mode="edge")
    out = conv2d_ref(padded, kernels[:, None], np.zeros(len(kernels)))
    return out.reshape(images.shape[:-2] + out.shape[1:])


ORACLE_SHAPES = [(13, 17), (2, 3, 13, 17)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_gabor_responses_match_loop_oracle(shape):
    images = np.random.default_rng(21).random(shape, dtype=np.float32)
    got = gabor_responses(images)
    assert got.shape == shape[:-2] + (8,) + shape[-2:]
    np.testing.assert_allclose(got, edge_correlation_ref(images, gabor_bank()),
                               rtol=0, atol=1e-5)


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_sobel_gradients_match_loop_oracle(shape):
    images = np.random.default_rng(22).random(shape, dtype=np.float32)
    want = edge_correlation_ref(images, SOBEL)
    gx, gy = sobel_gradients(images)
    np.testing.assert_allclose(gx, want[..., 0, :, :], rtol=0, atol=1e-5)
    np.testing.assert_allclose(gy, want[..., 1, :, :], rtol=0, atol=1e-5)


# ---------------------------------------------------------------------------
# Sobel, gradient and HoG against their GEMM and float64 vote-volume oracles

def stroke_image(h, w):
    """Binary strokes: a vertical bar, a horizontal bar and a diagonal."""
    rows, cols = np.indices((h, w))
    strokes = (abs(cols - w // 3) < 2) | (abs(rows - h // 2) < 1.5) \
        | (abs(rows * w - cols * h) < 1.5 * max(h, w))
    return strokes.astype(np.float32)


def oracle_images(h, w):
    """Two random images, a constant one and a binary-stroke one: [4, H, W]."""
    rng = np.random.default_rng(h * 1000 + w)
    return np.stack([*rng.random((2, h, w), dtype=np.float32),
                     np.full((h, w), 0.6, np.float32), stroke_image(h, w)])


ORACLE_SIZES = [(32, 32), (13, 17), (114, 114), (120, 120)]


@pytest.mark.parametrize("shape", [(4, h, w) for h, w in ORACLE_SIZES] + [(2, 3, 13, 17)])
def test_sobel_gradients_equal_gemm_oracle(shape):
    images = oracle_images(*shape[-2:]) if len(shape) == 3 else \
        np.random.default_rng(24).random(shape, dtype=np.float32)
    for got, want in zip(sobel_gradients(images), sobel_gemm_ref(images), strict=True):
        assert got.dtype == want.dtype == np.float32
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h,w", ORACLE_SIZES)
def test_gradient_maps_equal_float64_vote_oracle(h, w):
    images = oracle_images(h, w)
    got, want = gradient_maps(images), gradient_maps_ref(images)
    assert got.dtype == want.dtype == np.float32
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h,w", ORACLE_SIZES)
def test_hog_maps_equal_vote_volume_oracle(monkeypatch, h, w):
    images = oracle_images(h, w)
    got = hog_maps(images)
    monkeypatch.setattr(directional_features, "_cell_histograms", hog_cell_histograms_ref)
    want = hog_maps(images)
    assert got.dtype == want.dtype == np.float32
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# stacking

def test_stack_channel_counts_per_mode():
    rng = np.random.default_rng(6)
    image = rng.random((32, 32), dtype=np.float32)
    for mode, channels in MODE_CHANNELS.items():
        stack = stack_input(image, mode)
        assert isinstance(stack, FeatureStack)
        assert stack.planes.shape == (channels, 32, 32)
        assert stack.planes.min() >= 0.0 and stack.planes.max() <= 1.0


def test_stack_original_plane_first():
    rng = np.random.default_rng(7)
    image = rng.random((32, 32), dtype=np.float32)
    for mode in ("original", "original+gabor", "original+gradient", "original+hog"):
        stack = stack_input(image, mode)
        np.testing.assert_array_equal(stack.planes[0], image)


def test_stack_gabor_only_excludes_bitmap():
    rng = np.random.default_rng(9)
    image = rng.random((32, 32), dtype=np.float32)
    stack = stack_input(image, "gabor-only")
    assert stack.planes.shape[0] == 8
    assert not any(np.array_equal(p, image) for p in stack.planes)


def test_stack_mode_alias_and_unknown():
    with pytest.raises(ValueError, match="unknown input mode"):
        stack_input(np.zeros((32, 32), dtype=np.float32), "sobel")


def test_stack_rejects_out_of_range_image():
    for value in (1.5, -0.5, np.nan, np.inf):
        image = np.full((32, 32), value, dtype=np.float32)
        for mode in ("original", "original+hog"):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                stack_input(image, mode)
            batch = np.stack([np.zeros_like(image), image])
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                stack_batch(batch, mode)


def test_stack_deterministic():
    rng = np.random.default_rng(10)
    image = rng.random((32, 32), dtype=np.float32)
    a = stack_input(image, "original+hog").planes
    b = stack_input(image, "original+hog").planes
    np.testing.assert_array_equal(a, b)


def test_stack_batch_shape():
    rng = np.random.default_rng(11)
    images = rng.random((5, 32, 32), dtype=np.float32)
    batch = stack_batch(images, "original+gradient")
    assert batch.shape == (5, 9, 32, 32)
    np.testing.assert_array_equal(batch[2],
                                  stack_input(images[2], "original+gradient").planes)


@pytest.mark.parametrize("mode,h,w", [
    pytest.param(mode, h, w, id=mode if h == w == 32 else f"{mode}-{h}x{w}")
    for h, w in ((32, 32), (114, 114), (120, 120), (31, 29)) for mode in sorted(MODE_CHANNELS)])
def test_stack_batch_equals_one_image_at_a_time(mode, h, w):
    # the preset sizes (32 small, 114 and 120 full) and an odd 31x29; more
    # images than one extractor chunk, and not a multiple of it
    chunk = directional_features._CHUNK_PIXELS // (h * w)
    count = chunk + min(13, chunk - 1)
    rng = np.random.default_rng(12)
    images = rng.random((count, h, w), dtype=np.float32)
    images[chunk + 1] = 0.5     # constant: zero span, zero peak, no HoG votes
    batch = stack_batch(images, mode)
    assert batch.shape == (count, MODE_CHANNELS[mode], h, w)
    for i in range(count):
        np.testing.assert_array_equal(batch[i], stack_batch(images[i:i + 1], mode)[0])
    assert not batch[chunk + 1, 1:].any()
