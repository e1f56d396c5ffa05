"""Byte-mutation properties of the four file readers (HCRM, GNT, PGM, DTNS).

Any truncation or single changed byte of a valid file must give either a
ValueError or a valid object, never another exception. Examples are
derandomized and bounded, so every run checks the same cases.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hccr.tensor_core as tc
from hccr.network_builder import build_net, init_weights, parameter_entries
from hccr.pipeline_data import load_gnt, read_pgm
from hccr.train_eval import load_model, save_model

MUTATION_SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                             deadline=None)


def mutations(good, head):
    """`good` cut to any shorter length, or with one byte changed; changes
    land in the first `head` bytes as often as anywhere in the file."""
    cut = st.integers(0, len(good) - 1).map(lambda n: good[:n])
    where = st.one_of(st.integers(0, head - 1), st.integers(0, len(good) - 1))
    flip = st.tuples(where, st.integers(1, 255)).map(
        lambda at: good[:at[0]] + bytes([good[at[0]] ^ at[1]]) + good[at[0] + 1:])
    return st.one_of(cut, flip)


def read_mutated(reader, path, data):
    """reader(path) on `data`; None when it rejects the bytes with ValueError."""
    path.write_bytes(data)
    try:
        return reader(path)
    except ValueError:
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


def valid_image(image):
    return (image.ndim == 2 and min(image.shape) >= 1 and image.dtype == tc.FLOAT
            and image.min() >= 0 and image.max() <= 1)


@pytest.fixture(scope="module")
def good_model(workdir):
    spec = build_net("googlenet-small", 3, 1)
    path = workdir / "good.hcrm"
    save_model(spec, init_weights(spec, 0), path)
    return path.read_bytes()


@MUTATION_SETTINGS
@given(st.data())
def test_load_model_mutations(workdir, good_model, data):
    loaded = read_mutated(load_model, workdir / "m.hcrm",
                          data.draw(mutations(good_model, 64)))
    if loaded is not None:
        spec, params = loaded
        assert spec.class_count >= 1 and spec.input_shape[0] >= 1
        assert all(params[name].shape == shape for name, shape, _ in parameter_entries(spec))


def gnt_record(tag, width, height):
    return (struct.pack("<I", 10 + width * height) + tag +
            struct.pack("<2H", width, height) + bytes(range(width * height)))


GOOD_GNT = gnt_record(b"AA", 2, 3) + gnt_record(b"BB", 1, 1) + gnt_record(b"AA", 4, 2)


@MUTATION_SETTINGS
@given(mutations(GOOD_GNT, len(GOOD_GNT)))
def test_load_gnt_mutations(workdir, data):
    dataset = read_mutated(load_gnt, workdir / "g.gnt", data)
    if dataset is not None:
        assert all(valid_image(s.image) for s in dataset.samples)
        assert all(0 <= s.label < dataset.class_count for s in dataset.samples)


GOOD_PGM = b"P5\n# comment\n4 3\n255\n" + bytes(range(0, 240, 20))


@MUTATION_SETTINGS
@given(mutations(GOOD_PGM, len(GOOD_PGM)))
@example(GOOD_PGM.replace(b"255", b"155"))   # pixels above the new maxval
def test_read_pgm_mutations(workdir, data):
    image = read_mutated(read_pgm, workdir / "p.pgm", data)
    if image is not None:
        assert valid_image(image)


GOOD_DTNS = (b"DTNS" + bytes([3]) + struct.pack("<3I", 2, 3, 4) +
             np.arange(24, dtype="<f4").tobytes())


@MUTATION_SETTINGS
@given(mutations(GOOD_DTNS, 17))
def test_read_dtns_mutations(workdir, data):
    array = read_mutated(tc.read_dtns, workdir / "t.dtns", data)
    if array is not None:
        assert array.dtype == tc.FLOAT and 4 * array.size == len(data) - 5 - 4 * array.ndim
