"""Tests for training, evaluation, ensembling, and model persistence."""

import math
import os
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hccr import cli
from hccr import tensor_core as tc
from hccr import train_eval
from hccr.network_builder import (
    REFERENCE_NETS,
    Conv,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    ParamStore,
    ReLU,
    Softmax,
    build_hccr_googlenet,
    build_net,
    count_parameters,
    init_weights,
    parameter_entries,
    reference_net,
)
from hccr.pipeline_data import (
    PREPROC_PRESETS,
    Dataset,
    PreprocSpec,
    Sample,
    preprocess_dataset,
    preprocess_images,
    shuffle_split,
    synth_glyphs,
)
from hccr.train_eval import (
    LR_DECAY,
    MODEL_HEADER,
    MODEL_MAGIC,
    MODEL_VERSION,
    TOPK,
    TrainConfig,
    TrainLogEntry,
    ensemble_predict,
    format_training_log,
    load_model,
    model_bytes,
    predict,
    relative_error_reduction,
    save_model,
    topk_percent,
    train,
)
from hccr.directional_features import MODE_CHANNELS, stack_batch
from hccr.network_builder import forward_net

from naive_ref import predict_upfront_ref, rank_classes

# Error-rate reductions implied by accuracy pairs (94.77, 96.74) etc.,
# frozen from hand arithmetic: (baseline_err - new_err) / baseline_err.
REDUCTION_CASES = [
    (92.72, 96.74, 55.22),
    (94.77, 96.74, 37.67),
    (96.06, 96.74, 17.26),
]


def mini_spec(classes=3, size=16, channels=1):
    layers = (Conv(4, 3, pad=1), ReLU(), MaxPool(2, 2),
              FullyConnected(classes), Softmax())
    return NetworkSpec((channels, size, size), layers, classes)


@pytest.fixture(scope="module")
def glyph_splits():
    data = synth_glyphs(3, 30, noise=0.05, seed=1)
    data = preprocess_dataset(data, PreprocSpec(12, 16))
    return shuffle_split(data, 0.8, seed=2)


# ---------------------------------------------------------------------------
# config

def test_config_defaults():
    cfg = TrainConfig()
    assert cfg.batch_size == 64
    assert cfg.lr == pytest.approx(0.01)
    assert LR_DECAY == pytest.approx(0.95)
    assert cfg.momentum == pytest.approx(0.9)


@pytest.mark.parametrize("kwargs", [
    {"batch_size": 0},
    {"lr": -0.1},
    {"momentum": -0.1},
    {"momentum": 1.0},
    {"dropout": 1.0},
    {"epochs": -1},
    {"mode": "spectral"},
    {"lr": float("nan")},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


# ---------------------------------------------------------------------------
# training loop

def test_training_reduces_loss_and_learns(glyph_splits):
    train_set, val_set = glyph_splits
    spec = mini_spec()
    cfg = TrainConfig(epochs=6, batch_size=16, lr=0.1, dropout=0.0, seed=3)
    params, log = train(spec, train_set, cfg, val_set)
    assert len(log) == 6
    assert log[-1].train_loss < log[0].train_loss
    assert log[-1].val_top1 >= 60.0


def test_training_is_deterministic(glyph_splits):
    train_set, val_set = glyph_splits
    spec = mini_spec()
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.05, dropout=0.25, seed=9)
    params_a, log_a = train(spec, train_set, cfg, val_set)
    params_b, log_b = train(spec, train_set, cfg, val_set)
    assert format_training_log(log_a) == format_training_log(log_b)
    for name in params_a.keys():
        assert np.array_equal(params_a[name], params_b[name])


def test_training_walks_a_short_final_batch(glyph_splits, monkeypatch):
    train_set, val_set = glyph_splits           # 72 and 18 samples
    rows = {"train": [], "val": []}
    real_step, real_forward = train_eval.loss_and_grads, train_eval.forward_net
    monkeypatch.setattr(train_eval, "loss_and_grads", lambda spec, params, x, labels, rng:
                        rows["train"].append(len(labels)) or real_step(spec, params, x, labels, rng))
    monkeypatch.setattr(train_eval, "forward_net", lambda spec, params, x:
                        rows["val"].append(len(x)) or real_forward(spec, params, x))
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.05, seed=4)
    _, log = train(mini_spec(), train_set, cfg, val_set)
    assert rows == {"train": [16, 16, 16, 16, 8] * 2, "val": [16, 2] * 2}
    assert len(log) == 2 and all(math.isfinite(e.train_loss) for e in log)


def test_zero_lr_keeps_initial_weights(glyph_splits):
    train_set, _ = glyph_splits
    spec = mini_spec()
    cfg = TrainConfig(epochs=2, batch_size=16, lr=0.0, dropout=0.0, seed=5)
    params, log = train(spec, train_set, cfg)
    reference = init_weights(spec, 5)
    for name in reference.keys():
        assert np.array_equal(params[name], reference[name])
    assert all(math.isnan(e.val_top1) for e in log)


def test_divergence_aborts_with_last_checkpoint(glyph_splits, monkeypatch):
    import hccr.train_eval as te
    train_set, _ = glyph_splits
    spec = mini_spec()
    base = dict(batch_size=16, lr=0.05, dropout=0.0, seed=5)
    clean, _ = train(spec, train_set, TrainConfig(epochs=1, **base))

    batches_per_epoch = math.ceil(len(train_set.samples) / 16)
    real = te.loss_and_grads
    calls = {"n": 0}

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        loss, probs, grads = real(*args, **kwargs)
        if calls["n"] > batches_per_epoch:      # first batch of epoch 1
            return float("nan"), probs, grads
        return loss, probs, grads

    monkeypatch.setattr(te, "loss_and_grads", poisoned)
    params, log = train(spec, train_set, TrainConfig(epochs=4, **base))
    assert len(log) == 2
    assert math.isfinite(log[0].train_loss)
    assert log[-1].epoch == 1 and math.isnan(log[-1].train_loss)
    # the returned weights are the end-of-epoch-0 checkpoint
    for name in clean.keys():
        assert np.array_equal(params[name], clean[name])
        assert np.isfinite(params[name]).all()


def test_class_count_mismatch_rejected(glyph_splits):
    train_set, _ = glyph_splits
    with pytest.raises(ValueError, match="classes"):
        train(mini_spec(classes=7), train_set, TrainConfig(epochs=1))


def test_wrong_channel_mode_rejected(glyph_splits):
    train_set, _ = glyph_splits
    cfg = TrainConfig(epochs=1, batch_size=16, mode="original+gabor")
    with pytest.raises(Exception, match="input"):
        train(mini_spec(channels=1), train_set, cfg)


def test_nine_channel_mode_trains(glyph_splits):
    train_set, val_set = glyph_splits
    spec = mini_spec(channels=9)
    cfg = TrainConfig(epochs=1, batch_size=16, lr=0.05, dropout=0.0, seed=4,
                      mode="original+gradient")
    params, log = train(spec, train_set, cfg, val_set)
    assert len(log) == 1 and math.isfinite(log[0].train_loss)


def test_log_formatting():
    text = format_training_log([TrainLogEntry(0, 1.5, 97.0),
                                TrainLogEntry(1, 0.25, 98.5)])
    assert text == "0\t1.500000\t97.00\n1\t0.250000\t98.50"


# ---------------------------------------------------------------------------
# evaluation

def test_rank_classes_breaks_ties_low_first():
    """topk_percent counts each label's rank; it must equal the label's place
    in the stable argsort oracle, on tied, random and NaN rows, for every k."""
    probs = np.array([[0.2, 0.5, 0.2, 0.1],
                      [0.25, 0.25, 0.25, 0.25]], dtype=np.float32)
    ranked = rank_classes(probs)
    assert ranked[0].tolist() == [1, 0, 2, 3]
    assert ranked[1].tolist() == [0, 1, 2, 3]
    t, rng = 12, np.random.default_rng(5)
    rows = [np.full(t, 1 / t), rng.random(t), rng.integers(0, 3, t) / 4]   # tied, random, ties
    for nans in ([0], [3], [11], [2, 7], [4, 5, 6], list(range(t))):
        row = rng.integers(0, 4, t) / 4
        row[nans] = np.nan
        rows.append(row)
    # every row with every label: the label in and out of ties and NaNs
    probs = np.repeat(np.array(rows, np.float32), t, axis=0)
    labels = np.tile(np.arange(t), len(rows))
    at = np.argmax(rank_classes(probs) == labels[:, None], axis=1)    # oracle ranks
    topk = topk_percent(probs, labels)
    assert list(topk) == list(TOPK)
    for k in TOPK:
        assert topk[k] == 100.0 * int((at < k).sum()) / len(labels)
    # one row at a time, so each label's rank, not only the counts, must agree
    for row, label, rank in zip(probs, labels, at):
        assert topk_percent(row[None], label[None]) == {k: 100.0 * (rank < k) for k in TOPK}


def test_topk_monotone_and_capped_at_class_count(glyph_splits):
    _, val_set = glyph_splits
    spec = mini_spec()          # 3 classes: top-5 and top-10 would read 100%
    params = init_weights(spec, 0)
    probs = predict(spec, params, [s.image for s in val_set.samples], "original", 128)
    topk = topk_percent(probs, val_set.labels())
    assert list(topk) == [1, 2]
    assert topk[1] <= topk[2]
    assert tc.cross_entropy(probs, val_set.labels()) > 0
    assert len(probs) == len(val_set.samples)


# Largest probability change --batch may cause on the small reference nets. Measured
# at most 7.5e-8 on these nets and data, 4.8e-7 on 9-plane alexnet-small elsewhere
# (the block plans and OpenBLAS's kernels depend on the batch size N).
BATCH_TOLERANCE = 1e-6


@pytest.mark.parametrize("net, mode", [("googlenet-small", "original"),
                                       ("googlenet-small", "original+gabor"),
                                       ("alexnet-small", "original+hog")])
def test_batch_size_moves_probabilities_within_tolerance(net, mode):
    """forward_net of 128 images in batches of 1, 7 and 64 agrees with one batch
    of 128 within BATCH_TOLERANCE and on every top-1, on a fixed seed."""
    data = preprocess_dataset(synth_glyphs(16, 8, noise=0.1, seed=2), PREPROC_PRESETS[net])
    x = stack_batch([s.image for s in data.samples], mode)
    spec = build_net(net, data.class_count, MODE_CHANNELS[mode])
    params = init_weights(spec, 3)
    whole = forward_net(spec, params, x)[0]
    for batch in (1, 7, 64):
        parts = np.concatenate([forward_net(spec, params, x[lo:lo + batch])[0]
                                for lo in range(0, len(x), batch)])
        assert np.abs(parts - whole).max() <= BATCH_TOLERANCE
        assert np.array_equal(parts.argmax(axis=1), whole.argmax(axis=1))


def test_report_renderers(monkeypatch, capsys):
    """hccr eval renders fixed scores as key=value lines: top-k with two
    decimals, mean_loss with six, then the sample, parameter and byte counts."""
    spec = mini_spec()
    side = Dataset([Sample(np.zeros((16, 16), np.float32), label) for label in (0, 1)],
                   ("a", "b", "c"))
    # label 1 ties label 2 in the second row and ranks second: top1 50%, top2 100%
    probs = np.array([[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]], np.float32)
    monkeypatch.setattr(cli, "_resolve_models",
                        lambda args, modes: (side, [(spec, None, "original", None)]))
    monkeypatch.setattr(cli, "predict", lambda *args: probs)
    cli.cmd_eval(SimpleNamespace(model=["m.hcrm"], mode=None, batch=128))
    assert capsys.readouterr().out.splitlines() == [
        "top1=50.00", "top2=100.00",
        f"mean_loss={1.5 * math.log(2):.6f}",               # -(ln 0.5 + ln 0.25) / 2
        "samples=2",
        f"parameters={count_parameters(spec)}",
        f"serialized_bytes={model_bytes(spec)}"]


# ---------------------------------------------------------------------------
# ensembling and error-rate arithmetic

def test_single_member_ensemble_is_identity(glyph_splits):
    _, val_set = glyph_splits
    spec = mini_spec()
    params = init_weights(spec, 0)
    images = [s.image for s in val_set.samples]
    expected, _ = forward_net(spec, params, stack_batch(images, "original"),
                              mode="infer")
    got = ensemble_predict([(spec, params, "original")], images)
    assert np.array_equal(got, expected)


def test_ensemble_averages_mixed_modes(glyph_splits):
    _, val_set = glyph_splits
    images = [s.image for s in val_set.samples]
    spec_a, spec_b = mini_spec(channels=1), mini_spec(channels=8)
    params_a, params_b = init_weights(spec_a, 0), init_weights(spec_b, 1)
    probs_a, _ = forward_net(spec_a, params_a,
                             stack_batch(images, "original"), mode="infer")
    probs_b, _ = forward_net(spec_b, params_b,
                             stack_batch(images, "gabor-only"), mode="infer")
    got = ensemble_predict([(spec_a, params_a, "original"),
                            (spec_b, params_b, "gabor-only")], images)
    assert np.allclose(got, (probs_a + probs_b) / 2, atol=1e-7)
    assert np.allclose(got.sum(axis=1), 1.0, atol=1e-5)


def test_inference_stacks_each_batch_just_before_its_pass(glyph_splits, monkeypatch):
    _, val_set = glyph_splits                   # 18 images: batches of 7, 7 and 4
    images = [s.image for s in val_set.samples]
    spec_a, spec_b = mini_spec(channels=1), mini_spec(channels=8)
    members = [(spec_a, init_weights(spec_a, 0), "original"),
               (spec_b, init_weights(spec_b, 1), "gabor-only")]
    stacked = []
    monkeypatch.setattr(train_eval, "stack_batch", lambda batch, mode:
                        stacked.append(len(batch)) or stack_batch(batch, mode))
    alone = predict(spec_a, members[0][1], images, "original", 7)
    got = ensemble_predict(members, images, batch_size=7)
    assert stacked == [7, 7, 4] * 3

    def whole_stack_in_slices(spec, params, mode):
        x = stack_batch(images, mode)
        return np.concatenate([forward_net(spec, params, x[lo:lo + 7])[0]
                               for lo in range(0, len(x), 7)])

    probs_a, probs_b = (whole_stack_in_slices(*m) for m in members)
    assert np.array_equal(alone, probs_a)
    assert np.array_equal(got, (probs_a + probs_b) / 2)


def mixed_shape_images(seed=0):
    """131 raw images in same-shape runs of 40 (48x48), 5 (37x61), 3 (1x9), 4 (9x1),
    70 (48x48) and 9 (37x61): batches of 7 and 128 and preprocessing's runs of 16
    all cut runs short."""
    rng = np.random.default_rng(seed)
    runs = [(40, (48, 48)), (5, (37, 61)), (3, (1, 9)), (4, (9, 1)), (70, (48, 48)),
            (9, (37, 61))]
    return [rng.random(shape, dtype=np.float32) for count, shape in runs
            for _ in range(count)]


@pytest.mark.parametrize("net", ["googlenet-small", "alexnet-small"])
def test_streamed_scoring_keeps_the_bytes_of_upfront_preprocessing(net, monkeypatch):
    """predict with a preset preprocesses each batch of raw images just before
    stacking it, with the bits of preprocessing the whole side first."""
    images, preset, mode = mixed_shape_images(), PREPROC_PRESETS[net], "original+gabor"
    spec = build_net(net, 10, MODE_CHANNELS[mode])
    params = init_weights(spec, 4)
    for batch in (1, 7, 128):
        got = predict(spec, params, images, mode, batch, preset)
        want = predict_upfront_ref(spec, params, images, mode, batch, preset)
        assert got.tobytes() == want.tobytes()
    steps = []
    for name, step in (("preprocess_images", preprocess_images), ("stack_batch", stack_batch)):
        monkeypatch.setattr(train_eval, name, lambda batch, arg, name=name, step=step:
                            steps.append((name, len(batch))) or step(batch, arg))
    predict(spec, params, images, mode, 64, preset)
    assert steps == [(name, size) for size in (64, 64, 3)
                     for name in ("preprocess_images", "stack_batch")]


def test_predict_refuses_zero_images():
    spec = mini_spec()
    params = init_weights(spec, 0)
    with pytest.raises(ValueError, match="no images to score"):
        predict(spec, params, [], "original", 7)
    with pytest.raises(ValueError, match="no images to score"):
        ensemble_predict([(spec, params, "original")], [])


def test_ensemble_rejects_class_mismatch(glyph_splits):
    _, val_set = glyph_splits
    images = [s.image for s in val_set.samples]
    members = [(mini_spec(classes=3), init_weights(mini_spec(classes=3), 0),
                "original"),
               (mini_spec(classes=4), init_weights(mini_spec(classes=4), 0),
                "original")]
    with pytest.raises(ValueError, match="class count"):
        ensemble_predict(members, images)


def test_ensemble_rejects_empty():
    with pytest.raises(ValueError, match="at least one"):
        ensemble_predict([], [np.zeros((16, 16), dtype=np.float32)])


@pytest.mark.parametrize("baseline,new,expected", REDUCTION_CASES)
def test_relative_error_reduction_cases(baseline, new, expected):
    assert relative_error_reduction(baseline, new) == pytest.approx(
        expected, abs=0.01)


def test_relative_error_reduction_validation():
    with pytest.raises(ValueError, match="100"):
        relative_error_reduction(100.0, 99.0)
    with pytest.raises(ValueError):
        relative_error_reduction(-1.0, 50.0)
    with pytest.raises(ValueError):
        relative_error_reduction(50.0, 101.0)
    assert relative_error_reduction(90.0, 80.0) == pytest.approx(-100.0)


# ---------------------------------------------------------------------------
# persistence and size accounting

def saved_spec():
    return build_hccr_googlenet("reference-small", class_count=3)


def test_save_load_round_trip(tmp_path):
    data = preprocess_dataset(synth_glyphs(3, 8, noise=0.05, seed=1),
                              PREPROC_PRESETS["googlenet-small"])
    spec = saved_spec()
    cfg = TrainConfig(epochs=1, batch_size=8, lr=0.05, dropout=0.0, seed=7)
    params, _ = train(spec, data, cfg)
    path = tmp_path / "goog.hcrm"
    written = save_model(spec, params, path)
    assert written == path.stat().st_size
    assert written == model_bytes(spec)
    loaded_spec, loaded_params = load_model(path)
    assert loaded_spec == spec
    x = stack_batch([s.image for s in data.samples], "original")
    before, _ = forward_net(spec, params, x, mode="infer")
    after, _ = forward_net(loaded_spec, loaded_params, x, mode="infer")
    assert np.array_equal(before, after)


def test_weights_section_is_four_bytes_per_parameter(tmp_path):
    spec = saved_spec()
    params = init_weights(spec, 0)
    path = tmp_path / "m.hcrm"
    written = save_model(spec, params, path)
    assert written - 32 == 4 * count_parameters(spec)     # fixed 32-byte header
    assert written == model_bytes(spec)
    assert path.read_bytes()[16:32] == b"googlenet-small\0"


def test_load_rejects_corruption(tmp_path):
    spec = saved_spec()
    path = tmp_path / "m.hcrm"
    save_model(spec, init_weights(spec, 0), path)
    good = path.read_bytes()
    # header: magic, then u32 version, classes, channels, then the 16-byte name
    zero = (0).to_bytes(4, "little")
    cases = [
        ("magic", b"XXXX" + good[4:]),
        ("unsupported version 9", good[:4] + (9).to_bytes(4, "little") + good[8:]),
        ("unsupported version 1", good[:4] + (1).to_bytes(4, "little") + good[8:]),
        ("expected", good[:-5]),
        ("expected", good + b"\x00\x00\x00"),
        ("too short", good[:10]),
        ("unknown network", good[:16] + b"resnet-small".ljust(16, b"\0") + good[32:]),
        ("0 classes", good[:8] + zero + good[12:]),
        ("0 input channels", good[:12] + zero + good[16:]),
    ]
    # the last float32 is the final bias; a NaN weight anywhere else too
    last = parameter_entries(spec)[-1][0]
    inf, nan = np.float32(np.inf).tobytes(), np.float32(np.nan).tobytes()
    cases += [(f"parameter {last} holds non-finite", good[:-4] + inf),
              ("holds non-finite", good[:200] + nan + good[204:])]
    for match, data in cases:
        bad = tmp_path / "bad.hcrm"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=match):
            load_model(bad)


def test_load_refuses_a_file_cut_short_after_its_size_check(tmp_path, monkeypatch):
    """The tensors are read after the size check; a file that shrank in between
    is refused, not read into uninitialised weights."""
    spec = saved_spec()
    path = tmp_path / "m.hcrm"
    save_model(spec, init_weights(spec, 0), path)
    path.write_bytes(path.read_bytes()[:-6])
    monkeypatch.setattr(train_eval.os, "fstat", lambda fd: os.stat_result(
        (0,) * 6 + (model_bytes(spec),) + (0,) * 3))
    with pytest.raises(ValueError, match=f"ends inside parameter {parameter_entries(spec)[-1][0]}"):
        load_model(path)


def test_save_rejects_other_topologies(tmp_path):
    spec = mini_spec()
    with pytest.raises(ValueError, match="reference networks"):
        save_model(spec, init_weights(spec, 0), tmp_path / "mini.hcrm")
    assert not (tmp_path / "mini.hcrm").exists()


def test_storage_projection_for_reference_parameter_count():
    # 7.26 million parameters at 4 bytes each
    weight_bytes = 4 * 7_260_000
    assert weight_bytes == 29_040_000
    assert abs(weight_bytes / 2 ** 20 - 27.68) < 0.05


def test_save_rejects_wrong_shapes(tmp_path):
    spec = saved_spec()
    params = init_weights(spec, 0)
    name = next(iter(params.keys()))
    params[name] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        save_model(spec, params, tmp_path / "bad.hcrm")
    assert not (tmp_path / "bad.hcrm").exists()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_saved_bytes_equal_an_independent_packing(tmp_path, dtype):
    """The header, then each canonical tensor's little-endian float32 bytes;
    float64 weights round to float32 as numpy's cast does."""
    spec = saved_spec()
    rng = np.random.default_rng(5)
    params = ParamStore({name: rng.standard_normal(shape).astype(dtype)
                         for name, shape, _ in parameter_entries(spec)})
    want = MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, spec.class_count,
                             spec.input_shape[0], reference_net(spec).encode())
    want += b"".join(np.asarray(params[name], dtype="<f4").tobytes()
                     for name, _, _ in parameter_entries(spec))
    path = tmp_path / "m.hcrm"
    assert save_model(spec, params, path) == len(want)
    assert path.read_bytes() == want


@pytest.mark.parametrize("net", REFERENCE_NETS)
def test_init_weights_equal_whole_tensor_draws(net):
    """init_weights draws in slices; the bits are those of one draw per tensor."""
    spec = build_net(net, 10, 1)
    params = init_weights(spec, 4)
    rng = np.random.default_rng(4)
    for name, shape, fan_in in parameter_entries(spec):
        if name.endswith(".b"):
            want = np.zeros(shape, dtype=np.float32)
        else:
            want = rng.standard_normal(shape)
            want *= math.sqrt(2.0 / fan_in)
            want = want.astype(np.float32)
        assert params[name].dtype == np.float32 and params[name].tobytes() == want.tobytes()


def traced_peak_mib(call):
    """(result, tracemalloc's peak in MiB over the call)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_model_io_holds_one_copy_of_the_weights(tmp_path):
    """googlenet-full at 3,755 classes: 27.6 MiB of float32 weights. Each call
    holds at most one copy of them, plus temporaries of one tensor."""
    spec = build_net("googlenet-full", 3755, 1)
    weights_mib = 4 * count_parameters(spec) / 2 ** 20
    params, init_peak = traced_peak_mib(lambda: init_weights(spec, 0))
    path = tmp_path / "full.hcrm"
    _, save_peak = traced_peak_mib(lambda: save_model(spec, params, path))
    (_, loaded), load_peak = traced_peak_mib(lambda: load_model(path))
    assert init_peak <= weights_mib + 4
    assert save_peak <= 1
    assert load_peak <= weights_mib + 8
    assert all(np.array_equal(loaded[name], params[name]) for name in params)
