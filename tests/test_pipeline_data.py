"""Tests for preprocessing, dataset io, and the synthetic glyph task."""

import re
import struct

import numpy as np
import pytest

from hccr.pipeline_data import (
    PREPROC_PRESETS,
    Dataset,
    PreprocSpec,
    Sample,
    center_pad,
    invert_gray,
    load_gnt,
    load_image_dir,
    preprocess,
    read_pgm,
    resize_bilinear,
    shuffle_split,
    synth_glyphs,
    write_gnt,
    write_pgm,
)

CHECKER_4X4 = np.array([
    [0, 1 / 3, 2 / 3, 1],
    [1 / 3, 4 / 9, 5 / 9, 2 / 3],
    [2 / 3, 5 / 9, 4 / 9, 1 / 3],
    [1, 2 / 3, 1 / 3, 0],
])


# ---------------------------------------------------------------------------
# gray inversion

def test_invert_endpoints():
    image = np.array([[0.0, 0.5, 1.0]], dtype=np.float32)
    np.testing.assert_array_equal(invert_gray(image),
                                  np.array([[1.0, 0.5, 0.0]], dtype=np.float32))


def test_invert_is_involution():
    rng = np.random.default_rng(0)
    image = rng.random((17, 23), dtype=np.float32)
    np.testing.assert_allclose(invert_gray(invert_gray(image)), image, atol=1e-6)


def test_invert_mean_linearity():
    rng = np.random.default_rng(1)
    image = rng.random((10, 10), dtype=np.float32)
    assert invert_gray(image).mean() == pytest.approx(1.0 - image.mean(), abs=1e-6)


# ---------------------------------------------------------------------------
# bilinear resize

def test_resize_identity_on_own_size():
    rng = np.random.default_rng(2)
    image = rng.random((12, 12), dtype=np.float32)
    out = resize_bilinear(image, 12)
    np.testing.assert_array_equal(out, image)
    assert out is not image


def test_resize_constant_stays_constant():
    image = np.full((5, 9), 0.37, dtype=np.float32)
    for target in (1, 3, 8, 32):
        np.testing.assert_allclose(resize_bilinear(image, target), 0.37, atol=1e-6)


def test_resize_checkerboard_oracle():
    image = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
    np.testing.assert_allclose(resize_bilinear(image, 4), CHECKER_4X4, atol=1e-6)


def test_resize_squares_nonsquare_input():
    rng = np.random.default_rng(3)
    image = rng.random((4, 8), dtype=np.float32)
    out = resize_bilinear(image, 6)
    assert out.shape == (6, 6)
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_resize_rejects_bad_target():
    with pytest.raises(ValueError):
        resize_bilinear(np.zeros((4, 4), dtype=np.float32), 0)


def test_resize_corner_alignment():
    # first and last samples coincide with the source corners
    rng = np.random.default_rng(4)
    image = rng.random((5, 5), dtype=np.float32)
    out = resize_bilinear(image, 9)
    assert out[0, 0] == pytest.approx(image[0, 0], abs=1e-6)
    assert out[-1, -1] == pytest.approx(image[-1, -1], abs=1e-6)
    assert out[0, -1] == pytest.approx(image[0, -1], abs=1e-6)


# ---------------------------------------------------------------------------
# center padding

def test_center_pad_margins_googlenet():
    rng = np.random.default_rng(5)
    image = rng.random((112, 112), dtype=np.float32)
    out = center_pad(image, 120)
    assert out.shape == (120, 120)
    np.testing.assert_array_equal(out[4:116, 4:116], image)
    assert np.all(out[:4] == 0) and np.all(out[116:] == 0)
    assert np.all(out[:, :4] == 0) and np.all(out[:, 116:] == 0)


def test_center_pad_margins_alexnet():
    image = np.ones((108, 108), dtype=np.float32)
    out = center_pad(image, 114)
    np.testing.assert_array_equal(out[3:111, 3:111], image)
    assert out.sum() == image.sum()


def test_center_pad_identity_and_errors():
    image = np.full((6, 6), 0.5, dtype=np.float32)
    np.testing.assert_array_equal(center_pad(image, 6), image)
    with pytest.raises(ValueError):
        center_pad(image, 5)
    with pytest.raises(ValueError):
        center_pad(image, 7)


# ---------------------------------------------------------------------------
# preprocessing pipeline

def test_preproc_presets():
    assert PREPROC_PRESETS["googlenet-full"].target == 112
    assert PREPROC_PRESETS["googlenet-full"].mask == 120
    assert PREPROC_PRESETS["googlenet-full"].margin == 4
    assert PREPROC_PRESETS["alexnet-full"].target == 108
    assert PREPROC_PRESETS["alexnet-full"].mask == 114
    assert PREPROC_PRESETS["alexnet-full"].margin == 3
    assert PREPROC_PRESETS["googlenet-small"].mask == 32
    assert PREPROC_PRESETS["alexnet-small"].mask == 32


def test_preproc_spec_validation():
    with pytest.raises(ValueError):
        PreprocSpec(10, 8)
    with pytest.raises(ValueError):
        PreprocSpec(10, 13)


def test_preprocess_white_background_becomes_zero_margin():
    rng = np.random.default_rng(6)
    image = np.clip(0.9 + 0.1 * rng.random((77, 30)), 0, 1).astype(np.float32)
    sample = Sample(image, 3)
    out = preprocess(sample, PREPROC_PRESETS["googlenet-full"])
    assert out.image.shape == (120, 120)
    assert out.label == 3
    assert out.image[0, 0] == 0.0          # mask margin
    assert out.image[4, 4] <= 0.1 + 1e-6   # inverted near-white scan
    assert out.image.min() >= 0.0 and out.image.max() <= 1.0


def test_preprocess_deterministic():
    rng = np.random.default_rng(7)
    sample = Sample(rng.random((41, 53), dtype=np.float32), 1)
    a = preprocess(sample, PREPROC_PRESETS["alexnet-small"])
    b = preprocess(sample, PREPROC_PRESETS["alexnet-small"])
    np.testing.assert_array_equal(a.image, b.image)


# ---------------------------------------------------------------------------
# GNT records

def gnt_record(tag, width, height, pixel_bytes):
    return (struct.pack("<I", 10 + width * height) + tag +
            struct.pack("<2H", width, height) + pixel_bytes)


def test_load_gnt_hand_built_record(tmp_path):
    path = tmp_path / "one.gnt"
    path.write_bytes(gnt_record(b"AB", 2, 3, bytes(range(6))))
    ds = load_gnt(path)
    assert len(ds) == 1
    assert ds.class_names == ("AB",)
    sample = ds.samples[0]
    assert sample.image.shape == (3, 2)
    assert sample.label == 0
    np.testing.assert_allclose(sample.image,
                               np.arange(6).reshape(3, 2) / 255.0, atol=1e-7)


def test_load_gnt_empty_file(tmp_path):
    path = tmp_path / "empty.gnt"
    path.write_bytes(b"")
    ds = load_gnt(path)
    assert len(ds) == 0 and ds.class_count == 0


def test_load_gnt_size_mismatch_names_offset(tmp_path):
    good = gnt_record(b"AA", 2, 2, bytes(4))
    bad = struct.pack("<I", 99) + b"BB" + struct.pack("<2H", 2, 2) + bytes(4)
    path = tmp_path / "bad.gnt"
    path.write_bytes(good + bad)
    with pytest.raises(ValueError, match=r"byte 14"):
        load_gnt(path)


def test_load_gnt_rejects_empty_images(tmp_path):
    path = tmp_path / "empty.gnt"
    for width, height in ((0, 0), (0, 3), (3, 0)):
        path.write_bytes(gnt_record(b"AA", 1, 1, b"\x00") +
                         gnt_record(b"BB", width, height, b""))
        with pytest.raises(ValueError, match=f"byte 11: empty {width}x{height}"):
            load_gnt(path)


def test_load_gnt_truncated_body(tmp_path):
    path = tmp_path / "trunc.gnt"
    path.write_bytes(gnt_record(b"AA", 4, 4, bytes(16))[:20])
    with pytest.raises(ValueError, match="truncated"):
        load_gnt(path)


def test_load_gnt_new_classes_in_encounter_order(tmp_path):
    path = tmp_path / "multi.gnt"
    path.write_bytes(gnt_record(b"ZZ", 1, 1, b"\x00") +
                     gnt_record(b"AA", 1, 1, b"\xff") +
                     gnt_record(b"ZZ", 1, 1, b"\x80"))
    ds = load_gnt(path)
    assert ds.class_names == ("ZZ", "AA")
    assert [s.label for s in ds.samples] == [0, 1, 0]


def test_gnt_round_trip_byte_exact(tmp_path):
    ds = synth_glyphs(4, 3, 0.2, seed=11)
    first = tmp_path / "a.gnt"
    second = tmp_path / "b.gnt"
    write_gnt(ds, first)
    write_gnt(load_gnt(first), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name", ["ABC", "A", "\u4e00A"])
def test_write_gnt_refuses_names_that_are_not_two_latin1_bytes(tmp_path, name):
    ds = synth_glyphs(2, 1, seed=0)
    ds = Dataset(ds.samples, (ds.class_names[0], name))
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        write_gnt(ds, tmp_path / "x.gnt")
    assert not (tmp_path / "x.gnt").exists()


# ---------------------------------------------------------------------------
# PGM and labeled directories

def test_pgm_round_trip(tmp_path):
    image = (np.arange(30, dtype=np.float32) / 255.0).reshape(5, 6)
    path = tmp_path / "img.pgm"
    write_pgm(path, image)
    np.testing.assert_allclose(read_pgm(path), image, atol=1e-7)


def test_pgm_comment_and_maxval(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n100\n" + bytes([50, 100]))
    np.testing.assert_allclose(read_pgm(path), [[0.5, 1.0]], atol=1e-7)


def test_pgm_rejects_bad_files(tmp_path):
    p2 = tmp_path / "p2.pgm"
    p2.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(ValueError):
        read_pgm(p2)
    wide = tmp_path / "wide.pgm"
    wide.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(wide)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00")
    with pytest.raises(ValueError, match="pixel bytes"):
        read_pgm(short)
    bright = tmp_path / "bright.pgm"
    bright.write_bytes(b"P5\n2 1\n100\n" + bytes([50, 101]))
    with pytest.raises(ValueError, match="exceeds maxval 100"):
        read_pgm(bright)
    for extent in (b"0 3", b"3 0", b"-1 -1"):
        empty = tmp_path / "empty.pgm"
        empty.write_bytes(b"P5\n" + extent + b"\n255\n")
        with pytest.raises(ValueError, match="empty"):
            read_pgm(empty)


def build_image_dir(root, per_class=2):
    for name in ("b", "a"):
        d = root / name
        d.mkdir(parents=True)
        for i in range(per_class):
            value = 128 if name == "a" else 40
            write_pgm(d / f"{i}.pgm", np.full((8, 8), value / 255.0,
                                              dtype=np.float32))


def test_load_image_dir_lexicographic_classes(tmp_path):
    build_image_dir(tmp_path)
    ds = load_image_dir(tmp_path)
    assert ds.class_names == ("a", "b")
    assert len(ds) == 4
    a_sample = next(s for s in ds.samples if s.label == 0)
    assert a_sample.image[0, 0] == pytest.approx(128 / 255.0, abs=1e-7)


def test_load_image_dir_skips_unreadable(tmp_path):
    build_image_dir(tmp_path)
    (tmp_path / "a" / "junk.pgm").write_bytes(b"not an image")
    with pytest.warns(UserWarning, match="skipped 1"):
        ds = load_image_dir(tmp_path)
    assert len(ds) == 4


def test_load_image_dir_empty_root(tmp_path):
    with pytest.raises(ValueError, match="no class subdirectories"):
        load_image_dir(tmp_path)


# ---------------------------------------------------------------------------
# synthetic glyphs

def test_synth_counts_and_determinism():
    a = synth_glyphs(10, 50, 0.0, seed=7)
    b = synth_glyphs(10, 50, 0.0, seed=7)
    assert len(a) == 500
    assert all(np.array_equal(x.image, y.image)
               for x, y in zip(a.samples, b.samples))
    c = synth_glyphs(10, 50, 0.0, seed=8)
    assert any(not np.array_equal(x.image, y.image)
               for x, y in zip(a.samples, c.samples))


def test_synth_images_light_background():
    ds = synth_glyphs(10, 5, 0.0, seed=1)
    for s in ds.samples:
        assert s.image.shape == (48, 48)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        border = np.concatenate([s.image[0], s.image[-1],
                                 s.image[:, 0], s.image[:, -1]])
        assert border.mean() > 0.5


def test_synth_within_class_variation():
    ds = synth_glyphs(3, 4, 0.0, seed=2)
    first = [s for s in ds.samples if s.label == 0]
    assert any(not np.array_equal(first[0].image, s.image) for s in first[1:])


def test_synth_repertoire_bounds():
    with pytest.raises(ValueError):
        synth_glyphs(101, 1)
    with pytest.raises(ValueError):
        synth_glyphs(0, 1)
    ds = synth_glyphs(100, 1, 0.0, seed=0)
    assert ds.class_count == 100
    assert len(set(ds.class_names)) == 100


def test_synth_centroid_classifier_beats_sixty_percent():
    # The task must be learnable from raw pixels but not degenerate: a
    # nearest-centroid baseline lands well above chance.
    ds = synth_glyphs(10, 50, 0.1, seed=7)
    train, test = shuffle_split(ds, 0.8, seed=1)
    X = np.stack([s.image.ravel() for s in train.samples])
    y = train.labels()
    centroids = np.stack([X[y == c].mean(axis=0) for c in range(10)])
    Xt = np.stack([s.image.ravel() for s in test.samples])
    pred = np.argmin(((Xt[:, None] - centroids[None]) ** 2).sum(-1), axis=1)
    assert (pred == test.labels()).mean() > 0.60


# ---------------------------------------------------------------------------
# splitting

def test_split_sizes_and_stratification():
    ds = synth_glyphs(10, 50, 0.0, seed=3)
    train, test = shuffle_split(ds, 0.8, seed=9)
    assert len(train) == 400 and len(test) == 100
    for c in range(10):
        assert (train.labels() == c).sum() == 40
        assert (test.labels() == c).sum() == 10


def test_split_deterministic_and_disjoint():
    ds = synth_glyphs(5, 20, 0.0, seed=4)
    t1, e1 = shuffle_split(ds, 0.7, seed=5)
    t2, e2 = shuffle_split(ds, 0.7, seed=5)
    assert [s.label for s in t1.samples] == [s.label for s in t2.samples]
    assert all(np.array_equal(a.image, b.image)
               for a, b in zip(t1.samples, t2.samples))
    t3, _ = shuffle_split(ds, 0.7, seed=6)
    assert ([id(s) for s in t1.samples] != [id(s) for s in t3.samples])
    assert not (set(id(s) for s in t1.samples) &
                set(id(s) for s in e1.samples))
    assert len(t1) + len(e1) == len(ds)


def test_split_prior_preservation_unbalanced():
    base = synth_glyphs(4, 30, 0.0, seed=5)
    # drop samples to unbalance: class c keeps 30 - 6c samples
    keep = []
    seen = {}
    for i, s in enumerate(base.samples):
        seen[s.label] = seen.get(s.label, 0) + 1
        if seen[s.label] <= 30 - 6 * s.label:
            keep.append(i)
    ds = base.subset(keep)
    train, test = shuffle_split(ds, 0.75, seed=6)
    labels = ds.labels()
    train_labels = train.labels()
    for c in range(4):
        prior = (labels == c).mean()
        got = (train_labels == c).mean()
        assert abs(got - prior) <= 1.0 / len(train) + 1e-12


def test_split_rejects_tiny_classes_and_bad_fraction():
    ds = synth_glyphs(3, 1, 0.0, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        shuffle_split(ds, 0.5, seed=0)
    ok = synth_glyphs(3, 4, 0.0, seed=0)
    with pytest.raises(ValueError):
        shuffle_split(ok, 0.0, seed=0)
    with pytest.raises(ValueError):
        shuffle_split(ok, 1.0, seed=0)


def test_split_every_class_in_both_splits():
    ds = synth_glyphs(10, 200, 0.1, seed=12)
    train, test = shuffle_split(ds, 0.8, seed=13)
    assert set(train.labels()) == set(range(10))
    assert set(test.labels()) == set(range(10))
