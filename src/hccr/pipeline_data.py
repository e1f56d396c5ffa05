"""Dataset ingestion, preprocessing, and the synthetic glyph generator.

Preprocessing follows a fixed recipe: reverse the gray values so ink is
bright on a dark ground, bilinear-resize to the network's inner square,
then center the result inside a slightly larger mask with blank margins.
Ingestion covers GNT binary sample files, directories of PGM images, and
a deterministic synthetic glyph task for desk-scale experiments.
"""

import math
import struct
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor_core as tc


@dataclass(frozen=True)
class Sample:
    image: np.ndarray           # [H, W] grayscale in [0, 1]
    label: int                  # index into its dataset's class_names


@dataclass(frozen=True)
class PreprocSpec:
    """Inner resize target and outer mask size, with margins split evenly."""
    target: int
    mask: int

    def __post_init__(self):
        if self.target < 1:
            raise ValueError(f"target must be >= 1, got {self.target}")
        if self.mask < self.target:
            raise ValueError(f"mask {self.mask} smaller than target {self.target}")
        if (self.mask - self.target) % 2:
            raise ValueError(f"mask - target must be even, got "
                             f"{self.mask} - {self.target}")

    @property
    def margin(self):
        return (self.mask - self.target) // 2


PREPROC_PRESETS = {
    "googlenet-full": PreprocSpec(112, 120),
    "googlenet-small": PreprocSpec(28, 32),
    "alexnet-full": PreprocSpec(108, 114),
    "alexnet-small": PreprocSpec(26, 32),
}


@dataclass
class Dataset:
    samples: list
    class_names: tuple          # dense index -> name

    @property
    def class_count(self):
        return len(self.class_names)

    def __len__(self):
        return len(self.samples)

    def labels(self):
        return np.array([s.label for s in self.samples], dtype=np.int64)

    def subset(self, indices):
        return Dataset([self.samples[i] for i in indices], self.class_names)


# ---------------------------------------------------------------------------
# preprocessing stages

def invert_gray(image):
    """Reverse gray values: v -> 1 - v."""
    return 1.0 - np.asarray(image, dtype=tc.FLOAT)


def resize_bilinear(image, target):
    """Bilinear resample to a target x target square (corner-aligned grid).

    Sample positions map the first and last source pixels onto the first
    and last output pixels; a target of 1 samples the source center.
    Outputs are convex combinations of inputs, so [0,1] stays [0,1].
    """
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    image = np.asarray(image, dtype=tc.FLOAT)
    if image.ndim != 2:
        raise tc.ShapeError(f"expected a 2-d grayscale image, got {image.shape}")
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
    return out.astype(tc.FLOAT)


def center_pad(image, mask):
    """Center the image inside a mask x mask square of background zeros."""
    image = np.asarray(image, dtype=tc.FLOAT)
    h, w = image.shape
    if mask < h or mask < w:
        raise ValueError(f"mask {mask} smaller than image {image.shape}")
    if (mask - h) % 2 or (mask - w) % 2:
        raise ValueError(f"mask {mask} minus image {image.shape} must leave "
                         f"even margins")
    out = np.zeros((mask, mask), dtype=tc.FLOAT)
    my, mx = (mask - h) // 2, (mask - w) // 2
    out[my:my + h, mx:mx + w] = image
    return out


def preprocess(sample, spec):
    """invert -> resize to target -> center-pad into the mask."""
    image = invert_gray(sample.image)
    image = resize_bilinear(image, spec.target)
    image = center_pad(image, spec.mask)
    return replace(sample, image=image)


def preprocess_dataset(dataset, spec):
    return Dataset([preprocess(s, spec) for s in dataset.samples],
                   dataset.class_names)


# ---------------------------------------------------------------------------
# GNT binary records

def load_gnt(path):
    """Read GNT records: u32 size, 2-byte tag, u16 width, u16 height, pixels.

    All integers little-endian; size must equal 10 + width*height. Gray
    bytes are kept as stored, scaled to [0,1].
    """
    data = Path(path).read_bytes()
    samples = []
    names = {}                  # tag -> label, in order of first appearance
    offset = 0
    while offset < len(data):
        if offset + 10 > len(data):
            raise ValueError(f"truncated record header at byte {offset}")
        size, = struct.unpack_from("<I", data, offset)
        tag = data[offset + 4:offset + 6]
        width, height = struct.unpack_from("<2H", data, offset + 6)
        if width == 0 or height == 0:
            raise ValueError(f"record at byte {offset}: empty {width}x{height} image")
        if size != 10 + width * height:
            raise ValueError(f"record at byte {offset}: size field {size} != "
                             f"10 + {width}x{height}")
        if offset + size > len(data):
            raise ValueError(f"truncated record body at byte {offset}: "
                             f"need {size} bytes, have {len(data) - offset}")
        pixels = np.frombuffer(data, dtype=np.uint8, count=width * height,
                               offset=offset + 10)
        image = (pixels.reshape(height, width) / np.float32(255.0)).astype(tc.FLOAT)
        label = names.setdefault(tag.decode("latin-1"), len(names))
        samples.append(Sample(image, label))
        offset += size
    return Dataset(samples, tuple(names))


def write_gnt(dataset, path):
    """Write samples as GNT records (test-fixture writer, byte-exact inverse).

    Each class name is its samples' two-byte tag; a name that is not two
    latin-1 characters raises ValueError, so a round trip renames nothing.
    """
    bad = [name for name in dataset.class_names
           if len(name) != 2 or max(map(ord, name)) > 255]
    if bad:
        raise ValueError(f"GNT tags are two latin-1 bytes; cannot write class "
                         f"name(s) {', '.join(map(repr, bad))}")
    out = bytearray()
    for sample in dataset.samples:
        tag = dataset.class_names[sample.label].encode("latin-1")
        image = np.asarray(sample.image)
        pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
        h, w = pixels.shape
        out += struct.pack("<I", 10 + w * h)
        out += tag
        out += struct.pack("<2H", w, h)
        out += pixels.tobytes()
    Path(path).write_bytes(bytes(out))
    return len(out)


# ---------------------------------------------------------------------------
# PGM (P5) images and labeled directories

def read_pgm(path):
    """P5 grayscale image scaled to [0,1]; maxval up to 255 only."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a P5 image")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ValueError(f"{path}: image extent {width}x{height} is empty")
    if not 0 < maxval <= 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    expected = width * height
    if len(data) - pos < expected:
        raise ValueError(f"{path}: expected {expected} pixel bytes, "
                         f"got {len(data) - pos}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
    if pixels.max() > maxval:
        raise ValueError(f"{path}: pixel value {pixels.max()} exceeds maxval {maxval}")
    return (pixels.reshape(height, width) / np.float32(maxval)).astype(tc.FLOAT)


def write_pgm(path, image):
    """Write [0,1] grayscale as binary P5 with maxval 255."""
    pixels = np.clip(np.rint(np.asarray(image) * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def load_image_dir(root):
    """One subdirectory per class, holding P5 images.

    Class names are the subdirectory names in lexicographic order, giving
    dense indices. Unreadable images are skipped with a warning.
    """
    root = Path(root)
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise ValueError(f"no class subdirectories under {root}")
    samples = []
    skipped = 0
    for index, class_dir in enumerate(class_dirs):
        for file in sorted(class_dir.iterdir()):
            if file.is_dir():
                continue
            try:
                image = read_pgm(file)
            except (ValueError, OSError):
                skipped += 1
                continue
            samples.append(Sample(image, index))
    if skipped:
        warnings.warn(f"skipped {skipped} unreadable image(s) under {root}")
    return Dataset(samples, tuple(d.name for d in class_dirs))


# ---------------------------------------------------------------------------
# synthetic glyphs

GLYPH_SIZE = 48
_C = (GLYPH_SIZE - 1) / 2.0


def _family_segments(family, off):
    c = _C
    if family == 0:     # vertical bar
        return [((c + off, 8), (c + off, 40))]
    if family == 1:     # horizontal bar
        return [((8, c + off), (40, c + off))]
    if family == 2:     # diagonal
        return [((10 + off, 10), (38 + off, 38))]
    if family == 3:     # antidiagonal
        return [((10 + off, 38), (38 + off, 10))]
    if family == 4:     # cross
        return [((c + off, 8), (c + off, 40)), ((8, c + off), (40, c + off))]
    if family == 5:     # X
        return [((10 + off, 10), (38 + off, 38)), ((10 + off, 38), (38 + off, 10))]
    if family == 6:     # box
        a, b = 12 + off, 36 + off
        return [((a, 12), (b, 12)), ((b, 12), (b, 36)),
                ((b, 36), (a, 36)), ((a, 36), (a, 12))]
    if family == 7:     # T
        return [((10, 12 + off), (38, 12 + off)), ((c, 12 + off), (c, 40))]
    if family == 8:     # L
        return [((14 + off, 8), (14 + off, 38)), ((14 + off, 38), (40, 38))]
    if family == 9:     # double bars
        return [((c - 6 + off, 8), (c - 6 + off, 40)),
                ((c + 6 + off, 8), (c + 6 + off, 40))]
    raise ValueError(f"unknown glyph family {family}")


def _render_segments(segments, thickness):
    rows, cols = np.indices((GLYPH_SIZE, GLYPH_SIZE)).astype(np.float64)
    ink = np.zeros((GLYPH_SIZE, GLYPH_SIZE))
    for (x0, y0), (x1, y1) in segments:
        dx, dy = x1 - x0, y1 - y0
        t = np.clip(((cols - x0) * dx + (rows - y0) * dy) / (dx * dx + dy * dy), 0, 1)
        dist = np.hypot(cols - (x0 + t * dx), rows - (y0 + t * dy))
        ink = np.maximum(ink, np.clip(thickness / 2 + 0.5 - dist, 0, 1))
    return (1.0 - ink).astype(tc.FLOAT)   # dark strokes on a white ground


def _perturb(segments, rng):
    angle = math.radians(rng.uniform(-10, 10))
    shift_x = rng.uniform(-3, 3)
    shift_y = rng.uniform(-3, 3)
    cos_a, sin_a = math.cos(angle), math.sin(angle)

    def move(p):
        x, y = p[0] - _C, p[1] - _C
        return (x * cos_a - y * sin_a + _C + shift_x,
                x * sin_a + y * cos_a + _C + shift_y)

    return [(move(p0), move(p1)) for p0, p1 in segments]


def synth_glyphs(class_count, samples_per_class, noise=0.0, seed=0):
    """Deterministic stroke-pattern classification task.

    Classes are drawn from a repertoire of 100 glyphs (10 stroke families
    x 10 offset/thickness variants) rendered dark-on-white at 48x48. Each
    sample perturbs the glyph by a shift of up to 3 px, a rotation of up
    to 10 degrees, and uniform pixel noise of the given amplitude.
    """
    if not 1 <= class_count <= 100:
        raise ValueError(f"class_count must be in 1..100, got {class_count}")
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    class_names = tuple(chr(65 + i // 26) + chr(65 + i % 26)
                        for i in range(class_count))
    samples = []
    for label in range(class_count):
        family, variant = label % 10, label // 10
        off = (variant % 5 - 2) * 1.5
        thickness = 2.0 + (variant // 5)
        base = _family_segments(family, off)
        for _ in range(samples_per_class):
            image = _render_segments(_perturb(base, rng), thickness)
            if noise > 0:
                image = np.clip(
                    image + rng.uniform(-noise, noise, image.shape), 0, 1
                ).astype(tc.FLOAT)
            samples.append(Sample(image, label))
    return Dataset(samples, class_names)


# ---------------------------------------------------------------------------
# splitting

def shuffle_split(dataset, train_fraction, seed):
    """Stratified shuffle into (train, test), deterministic per seed."""
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    by_class = {}
    for i, sample in enumerate(dataset.samples):
        by_class.setdefault(sample.label, []).append(i)
    train_idx, test_idx = [], []
    for label in sorted(by_class):
        indices = by_class[label]
        if len(indices) < 2:
            raise ValueError(f"class {label} has {len(indices)} sample(s); "
                             f"need at least 2 to split")
        order = rng.permutation(len(indices))
        take = int(round(train_fraction * len(indices)))
        take = min(max(take, 1), len(indices) - 1)
        train_idx.extend(indices[j] for j in order[:take])
        test_idx.extend(indices[j] for j in order[take:])
    train_idx = [train_idx[j] for j in rng.permutation(len(train_idx))]
    test_idx = [test_idx[j] for j in rng.permutation(len(test_idx))]
    return dataset.subset(train_idx), dataset.subset(test_idx)
