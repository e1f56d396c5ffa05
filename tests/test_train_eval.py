"""Tests for training, evaluation, ensembling, and model persistence."""

import math

import numpy as np
import pytest

from hccr.network_builder import (
    Conv,
    FullyConnected,
    MaxPool,
    NetworkSpec,
    ReLU,
    Softmax,
    build_hccr_googlenet,
    count_parameters,
    init_weights,
)
from hccr.pipeline_data import (
    PREPROC_PRESETS,
    PreprocSpec,
    preprocess_dataset,
    shuffle_split,
    synth_glyphs,
)
from hccr.train_eval import (
    LR_DECAY,
    EvalReport,
    TrainConfig,
    TrainLogEntry,
    ensemble_predict,
    evaluate_topk,
    format_training_log,
    load_model,
    model_bytes,
    rank_classes,
    relative_error_reduction,
    report_keyvalues,
    report_table,
    save_model,
    train,
)
from hccr.directional_features import stack_batch
from hccr.network_builder import forward_net

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
    probs = np.array([[0.2, 0.5, 0.2, 0.1],
                      [0.25, 0.25, 0.25, 0.25]], dtype=np.float32)
    ranked = rank_classes(probs)
    assert ranked[0].tolist() == [1, 0, 2, 3]
    assert ranked[1].tolist() == [0, 1, 2, 3]


def test_topk_monotone_and_overflow_warns(glyph_splits):
    _, val_set = glyph_splits
    spec = mini_spec()
    params = init_weights(spec, 0)
    with pytest.warns(UserWarning) as caught:
        report = evaluate_topk(spec, params, val_set, ks=(1, 2, 5, 10))
    assert [str(w.message).split()[0] for w in caught] == ["top-5", "top-10"]
    assert report.topk[1] <= report.topk[2] <= report.topk[5] <= report.topk[10]
    assert report.topk[5] == 100.0 and report.topk[10] == 100.0
    assert report.mean_loss > 0
    assert report.sample_count == len(val_set.samples)


def test_topk_rejects_nonpositive_k(glyph_splits):
    _, val_set = glyph_splits
    spec = mini_spec()
    with pytest.raises(ValueError, match="k must be"):
        evaluate_topk(spec, init_weights(spec, 0), val_set, ks=(0,))


def test_eval_report_sizes_match_size_report(glyph_splits):
    _, val_set = glyph_splits
    spec = mini_spec()
    report = evaluate_topk(spec, init_weights(spec, 0), val_set, ks=(1,))
    assert report.parameter_count == count_parameters(spec)
    assert report.serialized_bytes == model_bytes(spec)


def test_report_renderers():
    report = EvalReport({1: 50.0, 5: 100.0}, 0.75, 40, 1234, 5000)
    text = report_keyvalues(report)
    assert "top1=50.00" in text
    assert "top5=100.00" in text
    assert "mean_loss=0.750000" in text
    assert "parameters=1234" in text
    assert "serialized_bytes=5000" in text
    table = report_table(report)
    assert "Top1" in table and "1,234" in table


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
    for match, data in cases:
        bad = tmp_path / "bad.hcrm"
        bad.write_bytes(data)
        with pytest.raises(ValueError, match=match):
            load_model(bad)


def test_save_rejects_other_topologies(tmp_path):
    spec = mini_spec()
    with pytest.raises(ValueError, match="reference networks"):
        save_model(spec, init_weights(spec, 0), tmp_path / "mini.hcrm")


def test_storage_projection_for_reference_parameter_count():
    # 7.26 million parameters at 4 bytes each
    weight_bytes = 4 * 7_260_000
    assert weight_bytes == 29_040_000
    assert abs(weight_bytes / 2 ** 20 - 27.68) < 0.05


def test_save_rejects_wrong_shapes(tmp_path):
    spec = saved_spec()
    params = init_weights(spec, 0)
    name = next(iter(params.keys()))
    params.tensors[name] = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ValueError, match="shape"):
        save_model(spec, params, tmp_path / "bad.hcrm")
