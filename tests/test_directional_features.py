"""Tests for the directional feature extractors and input stacking."""

import math

import numpy as np
import pytest

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
    spec = GaborBankSpec(aspect=1.0)
    k0 = gabor_kernel(0.0, spec)
    k90 = gabor_kernel(math.pi / 2, spec)
    np.testing.assert_allclose(k90, k0.T, atol=1e-6)


def test_gabor_kernel_rejects_even_size():
    with pytest.raises(ValueError):
        GaborBankSpec(kernel_size=10)
    with pytest.raises(ValueError):
        GaborBankSpec(kernel_size=1)


def test_gabor_bank_orientations():
    spec = GaborBankSpec()
    assert len(spec.orientations) == 8
    np.testing.assert_allclose(spec.orientations,
                               [k * math.pi / 8 for k in range(8)])
    assert gabor_bank(spec).shape == (8, 11, 11)
    assert gabor_bank(spec) is gabor_bank(GaborBankSpec())   # built once
    assert not gabor_bank(spec).flags.writeable


def test_gabor_sigma_default_tracks_wavelength():
    assert GaborBankSpec(wavelength=10.0).sigma == pytest.approx(5.6)
    assert GaborBankSpec(wavelength=10.0, sigma=3.0).sigma == 3.0


# ---------------------------------------------------------------------------
# gabor maps

def test_gabor_maps_constant_image_is_zero():
    maps = gabor_maps(np.full((32, 32), 0.7, dtype=np.float32))
    assert maps.shape == (8, 32, 32)
    np.testing.assert_array_equal(maps, np.zeros_like(maps))


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


@pytest.mark.parametrize("mode", sorted(MODE_CHANNELS))
def test_stack_batch_equals_one_image_at_a_time(mode):
    # more images than one extractor chunk, and not a multiple of it
    chunk = directional_features._CHUNK_PIXELS // (32 * 32)
    rng = np.random.default_rng(12)
    images = rng.random((chunk + 13, 32, 32), dtype=np.float32)
    images[chunk + 3] = 0.5     # constant: zero span, zero peak, no HoG votes
    batch = stack_batch(images, mode)
    assert batch.shape == (chunk + 13, MODE_CHANNELS[mode], 32, 32)
    for i in range(len(images)):
        np.testing.assert_array_equal(batch[i], stack_batch(images[i:i + 1], mode)[0])
    assert not batch[chunk + 3, 1:].any()
