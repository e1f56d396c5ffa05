"""End-to-end tests of the command-line interface."""

import gc
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import hccr
from hccr import cli
from hccr import tensor_core as tc
from hccr.cli import main
from hccr.directional_features import stack_input
from hccr.network_builder import build_net, count_parameters, init_weights, reference_net
from hccr.pipeline_data import (PREPROC_PRESETS, Dataset, Sample, load_image_dir,
                                load_gnt, shuffle_split, write_gnt)
from hccr.tensor_core import read_dtns
from hccr.train_eval import load_model, model_bytes, save_model, topk_percent

from naive_ref import predict_upfront_ref
from test_train_eval import traced_peak_mib


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("glyphs") / "data"
    rc = main(["synth", "--classes", "3", "--per-class", "12",
               "--noise", "0.05", "--seed", "1", "--out", str(root)])
    assert rc == 0
    return root


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, data_dir):
    path = tmp_path_factory.mktemp("models") / "mini.hcrm"
    rc = main(["train", "--net", "googlenet-small", "--data", str(data_dir),
               "--epochs", "2", "--batch", "8", "--seed", "0",
               "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def gnt_path(tmp_path_factory):
    """Ten classes of forty glyphs: enough held-out samples to tell presets apart."""
    path = tmp_path_factory.mktemp("gnt") / "g.gnt"
    assert main(["synth", "--classes", "10", "--per-class", "40", "--noise",
                 "0.1", "--seed", "0", "--gnt", str(path)]) == 0
    return path


def seeded_model(path, net="googlenet-small", classes=3, channels=1, seed=1):
    """Save an untrained model of the given network, class and channel count."""
    spec = build_net(net, classes, channels)
    save_model(spec, init_weights(spec, seed), path)
    return path


# ---------------------------------------------------------------------------
# usage errors (exit 2)

def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_missing_required_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["train", "--data", "x"])        # --net missing
    assert info.value.code == 2


def test_bad_flag_value_exits_2(capsys):
    for classes, bound in (("0", ">= 1"), ("101", "<= 100")):   # 100: the repertoire
        with pytest.raises(SystemExit) as info:
            main(["synth", "--classes", classes, "--per-class", "5", "--out", "x"])
        assert info.value.code == 2
        assert f"argument --classes: must be {bound}, got {classes}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "abc", "argument --epochs: invalid int value: 'abc'"),
    ("--lr", "fast", "argument --lr: invalid float value: 'fast'"),
    ("--batch", "0", "argument --batch: must be >= 1, got 0"),
    ("--momentum", "-0.5", "argument --momentum: must be >= 0, got -0.5"),
    ("--lr", "nan", "argument --lr: must be >= 0, got nan"),
])
def test_bad_number_names_the_flag_and_type(flag, value, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--net", "googlenet-small", "--gnt", "x", flag, value])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_nan_noise_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["synth", "--classes", "3", "--per-class", "5", "--gnt", "x",
              "--noise", "nan"])
    assert info.value.code == 2
    assert "argument --noise: must be >= 0, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("noise", ["inf", "1e308"])
def test_overflowing_noise_exits_1_without_traceback(noise, tmp_path, capsys):
    code = main(["synth", "--classes", "1", "--per-class", "1", "--noise", noise,
                 "--gnt", str(tmp_path / "x.gnt")])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: noise must be in") and "Traceback" not in err
    assert not (tmp_path / "x.gnt").exists()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["synth", "--classes", "3", "--per-class", "5", "--out", "x",
              "--turbo"])
    assert info.value.code == 2


def test_bad_momentum_is_a_usage_error_before_any_data_is_read(tmp_path, capsys):
    rc = main(["train", "--net", "googlenet-small", "--gnt",
               str(tmp_path / "missing.gnt"), "--momentum", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "momentum must be in [0, 1)" in err and "No such file" not in err


def test_both_data_and_gnt_exit_2(data_dir, capsys):
    rc = main(["train", "--net", "googlenet-small", "--data", str(data_dir),
               "--gnt", "whatever.gnt"])
    assert rc == 2
    assert "exactly one of --data or --gnt" in capsys.readouterr().err


def test_synth_without_output_exits_2(capsys):
    rc = main(["synth", "--classes", "3", "--per-class", "5"])
    assert rc == 2
    assert "--out or --gnt" in capsys.readouterr().err


def test_eval_rejects_multiple_models(model_path, data_dir, capsys):
    rc = main(["eval", "--model", str(model_path), "--model", str(model_path),
               "--data", str(data_dir)])
    assert rc == 2


def test_ensemble_mode_count_mismatch(model_path, data_dir, capsys):
    rc = main(["ensemble", "--model", str(model_path),
               "--model", str(model_path),
               "--mode", "original", "--mode", "original", "--mode",
               "original", "--data", str(data_dir)])
    assert rc == 2
    assert "--mode" in capsys.readouterr().err


def test_ensemble_nine_channel_model_needs_mode(data_dir, tmp_path, capsys):
    model = seeded_model(tmp_path / "nine.hcrm", channels=9)
    for sub in ("ensemble", "eval"):
        rc = main([sub, "--model", str(model), "--data", str(data_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        for mode in ("original+gabor", "original+gradient", "original+hog"):
            assert mode in err


def test_wrong_mode_for_model_exits_2(model_path, data_dir, capsys):
    rc = main(["eval", "--model", str(model_path), "--data", str(data_dir),
               "--mode", "original+gabor"])
    assert rc == 2
    assert "channel" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["synth", "train", "eval", "extract",
                                 "ensemble", "inspect"])
def test_help_exits_0(sub, capsys):
    with pytest.raises(SystemExit) as info:
        main([sub, "--help"])
    assert info.value.code == 0
    assert "--" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# runtime errors (exit 1)

@pytest.mark.parametrize("target", ["missing/m.hcrm", "."])
def test_train_out_that_cannot_be_written_exits_1_before_training(target, data_dir,
                                                                  tmp_path, capsys):
    out = tmp_path / target             # a file in a missing folder; an existing folder
    rc = main(["train", "--net", "googlenet-small", "--data", str(data_dir),
               "--epochs", "1", "--batch", "8", "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith(f"error: --out {out} ")
    assert "\t" not in stdout            # no epoch line: nothing was trained


def test_missing_model_file_exits_1(data_dir, capsys):
    rc = main(["eval", "--model", "no/such/model.hcrm",
               "--data", str(data_dir)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_model_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.hcrm"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    rc = main(["inspect", "--model", str(bad)])
    assert rc == 1
    assert "magic" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["eval", "inspect"])
def test_unloadable_model_headers_exit_1(sub, model_path, data_dir, tmp_path,
                                         capsys):
    good = model_path.read_bytes()
    zero = (0).to_bytes(4, "little")
    cases = [("version 1", good[:4] + (1).to_bytes(4, "little") + good[8:]),
             ("unknown network", good[:16] + b"lenet".ljust(16, b"\0") + good[32:]),
             ("0 classes", good[:8] + zero + good[12:]),
             ("0 input channels", good[:12] + zero + good[16:])]
    bad = tmp_path / "bad.hcrm"
    argv = [sub, "--model", str(bad)] + (["--data", str(data_dir)] if sub == "eval" else [])
    for message, data in cases:
        bad.write_bytes(data)
        assert main(argv) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["eval", "ensemble", "inspect"])
def test_non_finite_weight_exits_1(sub, data_dir, tmp_path, capsys):
    path = seeded_model(tmp_path / "inf.hcrm")
    path.write_bytes(path.read_bytes()[:-4] + np.float32(np.inf).tobytes())
    argv = [sub, "--model", str(path)] + ([] if sub == "inspect" else ["--data", str(data_dir)])
    assert main(argv) == 1
    assert "18_fullyconnected.b holds non-finite values" in capsys.readouterr().err


def test_train_on_an_empty_gnt_image_exits_1(gnt_path, tmp_path, capsys):
    bad = tmp_path / "empty-image.gnt"
    bad.write_bytes(gnt_path.read_bytes() + (10).to_bytes(4, "little") + b"AA" +
                    bytes(4))
    rc = main(["train", "--net", "googlenet-small", "--gnt", str(bad),
               "--epochs", "0"])
    assert rc == 1
    assert "empty 0x0 image" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["train", "eval", "extract"])
def test_data_without_samples_exits_1(sub, model_path, tmp_path, capsys):
    empty_gnt = tmp_path / "empty.gnt"
    empty_gnt.write_bytes(b"")
    empty_tree = tmp_path / "tree"
    (empty_tree / "AA").mkdir(parents=True)     # a class folder with no images
    flags = {"train": ["--net", "googlenet-small", "--epochs", "0"],
             "eval": ["--model", str(model_path)],
             "extract": ["--out", str(tmp_path / "out")]}[sub]
    for source, path in (("--gnt", empty_gnt), ("--data", empty_tree)):
        assert main([sub, source, str(path), *flags]) == 1
        assert f"no samples in {path}" in capsys.readouterr().err


def test_missing_data_dir_exits_1(model_path, capsys):
    rc = main(["eval", "--model", str(model_path), "--data", "no/such/dir"])
    assert rc == 1


def test_ensemble_class_count_disagreement_exits_1(gnt_path, tmp_path, capsys):
    ten = seeded_model(tmp_path / "ten.hcrm", classes=10)
    seven = seeded_model(tmp_path / "seven.hcrm", classes=7)
    rc = main(["ensemble", "--model", str(ten), "--model", str(seven),
               "--gnt", str(gnt_path)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert "member" not in out          # fails before scoring any member
    assert "class count" in err


@pytest.mark.parametrize("sub", ["eval", "ensemble"])
def test_more_data_classes_than_model_exits_1(sub, model_path, gnt_path,
                                              capsys):
    rc = main([sub, "--model", str(model_path), "--gnt", str(gnt_path)])
    assert rc == 1                      # 10 glyph classes, 3-class model
    out, err = capsys.readouterr()
    assert "top1=" not in out
    assert "10 classes" in err


# ---------------------------------------------------------------------------
# synth

def test_synth_writes_tree_and_manifest(data_dir):
    data = load_image_dir(data_dir)
    assert data.class_names == ("AA", "AB", "AC")
    assert len(data.samples) == 36
    assert not (data_dir / "manifest.tsv").exists()


def test_synth_gnt_round_trip(tmp_path, capsys):
    gnt = tmp_path / "set.gnt"
    rc = main(["synth", "--classes", "2", "--per-class", "3",
               "--seed", "4", "--gnt", str(gnt)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "config: subcommand=synth" in out
    data = load_gnt(gnt)
    assert data.class_count == 2 and len(data.samples) == 6


def test_synth_is_deterministic(tmp_path):
    args = ["synth", "--classes", "2", "--per-class", "2", "--seed", "9"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "AA" / "0000.pgm").read_bytes()
    second = (tmp_path / "b" / "AA" / "0000.pgm").read_bytes()
    assert first == second


# ---------------------------------------------------------------------------
# train / eval / ensemble / inspect / extract

def test_train_prints_log_and_saves(data_dir, tmp_path, capsys):
    out = tmp_path / "m.hcrm"
    rc = main(["train", "--net", "googlenet-small", "--data", str(data_dir),
               "--epochs", "1", "--batch", "8", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "config: subcommand=train" in text
    assert "net=googlenet-small" in text
    lines = [l for l in text.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 1                       # one epoch line
    epoch, loss, top1 = lines[0].split("\t")
    assert epoch == "0" and float(loss) > 0 and 0 <= float(top1) <= 100
    assert out.exists()
    assert f"saved {out}" in text


def test_train_frees_the_raw_glyphs_before_training(gnt_path, monkeypatch):
    """Only the prepared images outlive preprocessing: the raw Dataset and the
    whole-file float32 array under its images are gone when training starts."""
    load_raw, run_train, raw_refs, alive = cli._load_raw, cli.train, [], []

    def tracked_load_raw(args):
        raw = load_raw(args)
        raw_refs.extend([weakref.ref(raw), weakref.ref(raw.samples[0].image.base)])
        return raw

    def checked_train(*args, **kwargs):
        gc.collect()
        alive.extend(ref() is not None for ref in raw_refs)
        return run_train(*args, **kwargs)

    monkeypatch.setattr(cli, "_load_raw", tracked_load_raw)
    monkeypatch.setattr(cli, "train", checked_train)
    assert main(["train", "--net", "googlenet-small", "--gnt", str(gnt_path),
                 "--epochs", "0"]) == 0
    assert alive == [False, False]


def test_eval_reports_topk(gnt_path, tmp_path, capsys):
    """One key=value a line: each top-k with two decimals, mean_loss with six,
    then the sample, parameter and byte counts."""
    model = seeded_model(tmp_path / "ten.hcrm", classes=10)
    rc = main(["eval", "--model", str(model), "--gnt", str(gnt_path),
               "--split", "test", "--seed", "0"])
    assert rc == 0
    pairs = [line.split("=") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [key for key, _ in pairs] == ["top1", "top2", "top5", "top10", "mean_loss",
                                         "samples", "parameters", "serialized_bytes"]
    assert all(re.fullmatch(r"\d+\.\d\d", value) for _, value in pairs[:4])
    assert re.fullmatch(r"\d+\.\d{6}", pairs[4][1])
    assert all(value.isdigit() for _, value in pairs[5:])


def test_eval_report_sizes_match_size_report(gnt_path, tmp_path, capsys):
    """samples is the scored side's length; parameters and serialized_bytes are
    count_parameters and model_bytes, the size of the saved file."""
    model = seeded_model(tmp_path / "ten.hcrm", classes=10)
    assert main(["eval", "--model", str(model), "--gnt", str(gnt_path)]) == 0
    values = dict(line.split("=") for line in capsys.readouterr().out.splitlines()[1:])
    spec, _ = load_model(model)
    assert values["samples"] == "80"            # the test side of 400 glyphs
    assert values["parameters"] == str(count_parameters(spec))
    assert values["serialized_bytes"] == str(model_bytes(spec)) == str(model.stat().st_size)


@pytest.fixture(scope="module")
def mixed_gnt(tmp_path_factory):
    """100 glyphs of ten classes in five interleaved shapes (48x48, 37x61, 1x9,
    9x1, 48x48): the shuffled split leaves short same-shape runs on each side."""
    rng, shapes = np.random.default_rng(5), [(48, 48), (37, 61), (1, 9), (9, 1), (48, 48)]
    samples = [Sample(rng.random(shapes[i % 5], dtype=np.float32), i % 10)
               for i in range(100)]
    path = tmp_path_factory.mktemp("mixed") / "m.gnt"
    write_gnt(Dataset(samples, tuple(f"C{i}" for i in range(10))), path)
    return path


def test_streamed_eval_and_ensemble_report_as_upfront_preprocessing(mixed_gnt, tmp_path,
                                                                    capsys):
    """eval and ensemble at --batch 3 print what preprocessing the whole scored
    side before the first forward pass gives."""
    models = [(seeded_model(tmp_path / "goog.hcrm", "googlenet-small", 10), "original"),
              (seeded_model(tmp_path / "alex.hcrm", "alexnet-small", 10, 9), "original+hog")]
    loaded = []
    for path, mode in models:
        spec, params = load_model(path)
        loaded.append((spec, params, mode, PREPROC_PRESETS[reference_net(spec)]))
    for split in ("test", "train"):
        side = shuffle_split(load_gnt(mixed_gnt), cli.TRAIN_FRACTION, 0)[split == "test"]
        data = ["--gnt", str(mixed_gnt), "--split", split, "--batch", "3"]
        labels, images = side.labels(), [s.image for s in side.samples]
        probs = [predict_upfront_ref(spec, params, images, mode, 3, preset)
                 for spec, params, mode, preset in loaded]
        assert main(["eval", "--model", str(models[1][0]), "--mode", models[1][1]] + data) == 0
        want = [f"top{k}={percent:.2f}" for k, percent in topk_percent(probs[1], labels).items()]
        want += [f"mean_loss={tc.cross_entropy(probs[1], labels):.6f}", f"samples={len(labels)}",
                 f"parameters={count_parameters(loaded[1][0])}",
                 f"serialized_bytes={model_bytes(loaded[1][0])}"]
        assert capsys.readouterr().out.splitlines()[1:] == want
        want = [f"member{i} top1={topk_percent(p, labels)[1]:.2f} mode={mode} ({path})"
                for i, (p, (path, mode)) in enumerate(zip(probs, models))]
        want.append(f"ensemble top1={topk_percent(sum(probs) / 2, labels)[1]:.2f} members=2")
        argv = ["ensemble", "--model", str(models[0][0]), "--model", str(models[1][0]),
                "--mode", "original", "--mode", "original+hog"]
        assert main(argv + data) == 0
        assert capsys.readouterr().out.splitlines()[1:] == want


def test_scoring_holds_the_raw_side_not_the_file(gnt_path, tmp_path, monkeypatch):
    """The scored side's images are uint8 copies: the array over the file's
    bytes is freed when _resolve_models returns, and no name holds the side
    preprocessed."""
    load_raw, raw_refs = cli._load_raw, []

    def tracked_load_raw(args):
        raw = load_raw(args)
        raw_refs.append(raw.samples[0].image.base)
        return raw

    monkeypatch.setattr(cli, "_load_raw", tracked_load_raw)
    model = seeded_model(tmp_path / "ten.hcrm", classes=10)
    args = cli.build_parser().parse_args(["eval", "--model", str(model), "--gnt",
                                          str(gnt_path)])
    side, _ = cli._resolve_models(args, [None])
    file_array = raw_refs.pop()         # np.frombuffer of the file's bytes
    assert isinstance(file_array.base, bytes) and file_array.dtype == np.uint8
    assert len(side) == 80 and all(s.image.dtype == np.uint8 for s in side.samples)
    assert not any(np.shares_memory(s.image, file_array) for s in side.samples)
    file_array = weakref.ref(file_array)
    gc.collect()
    assert file_array() is None

    # Peak memory grows with the raw side, not by a 120x120 float32 image a sample
    model = seeded_model(tmp_path / "full.hcrm", "googlenet-full", classes=10)
    peaks = []
    for per_class in (2, 6):                    # 16 and 48 scored samples
        gnt = tmp_path / f"{per_class}.gnt"
        assert main(["synth", "--classes", "10", "--per-class", str(per_class),
                     "--gnt", str(gnt)]) == 0
        argv = ["eval", "--model", str(model), "--gnt", str(gnt), "--split", "train",
                "--batch", "2"]
        peaks.append(traced_peak_mib(lambda: main(argv))[1])
    assert (peaks[1] - peaks[0]) * 2 ** 20 / 32 < 4 * 120 * 120


@pytest.fixture(scope="module")
def ensemble_peak_growth(tmp_path_factory):
    """Bytes a two-member 9-plane ensemble's tracemalloc peak grows by per
    scored 48x48 sample, between 160 and 480 scored samples."""
    tmp_path = tmp_path_factory.mktemp("ensemble-peak")
    models = [(seeded_model(tmp_path / "goog.hcrm", "googlenet-small", 10, 9), "original+gabor"),
              (seeded_model(tmp_path / "alex.hcrm", "alexnet-small", 10, 9), "original+hog")]
    argv = ["ensemble", "--split", "train", "--batch", "4"]
    for path, mode in models:
        argv += ["--model", str(path), "--mode", mode]
    peaks = []
    for per_class in (20, 60):      # 160 and 480 scored samples: the side sets the peak
        gnt = tmp_path / f"{per_class}.gnt"
        assert main(["synth", "--classes", "10", "--per-class", str(per_class),
                     "--gnt", str(gnt)]) == 0
        peaks.append(traced_peak_mib(lambda: main(argv + ["--gnt", str(gnt)]))[1])
    return (peaks[1] - peaks[0]) * 2 ** 20 / 320


def test_ensemble_peak_grows_by_less_than_a_stack_per_scored_sample(ensemble_peak_growth):
    """A two-member 9-plane ensemble holds the raw side and one stacked batch,
    so its peak grows by less than one 9-plane 32x32 float32 stack a sample."""
    assert ensemble_peak_growth < 4 * 9 * 32 * 32


def test_ensemble_peak_grows_by_less_than_two_uint8_glyphs_per_scored_sample(
        ensemble_peak_growth):
    """The side holds each scored glyph as uint8, and the file's bytes are freed
    before the first forward pass: the peak grows by less than two 48x48 glyphs
    of 1 byte per pixel a sample (float32 copies alongside the file's float32
    array grew it by about 21 KB)."""
    assert ensemble_peak_growth < 2 * 48 * 48


def test_extract_peak_grows_by_less_than_half_a_stack_per_glyph(tmp_path):
    """extract stacks one same-shape run at a time, so its peak grows by less
    than half of one 9-plane 48x48 float32 stack per glyph."""
    peaks = []
    for per_class in (8, 24):                   # 32 and 96 glyphs
        gnt = tmp_path / f"{per_class}.gnt"
        assert main(["synth", "--classes", "4", "--per-class", str(per_class),
                     "--gnt", str(gnt)]) == 0
        argv = ["extract", "--gnt", str(gnt), "--mode", "original+gabor",
                "--out", str(tmp_path / f"out{per_class}")]
        peaks.append(traced_peak_mib(lambda: main(argv))[1])
    assert (peaks[1] - peaks[0]) * 2 ** 20 / 64 < 4 * 9 * 48 * 48 / 2


def test_eval_reports_no_k_above_the_class_count(model_path, data_dir, capsys,
                                                 recwarn):
    assert main(["eval", "--model", str(model_path), "--data", str(data_dir),
                 "--split", "test", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "top2=" in out and "top5=" not in out
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_eval_defaults_to_the_mode_of_the_model(data_dir, tmp_path, capsys):
    """An 8-channel model is scored as gabor-only with no --mode, as in ensemble."""
    model = seeded_model(tmp_path / "eight.hcrm", channels=8)
    top1 = []
    for extra in ([], ["--mode", "gabor-only"]):
        assert main(["eval", "--model", str(model), "--data", str(data_dir)]
                    + extra) == 0
        top1 += [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("top1=")]
    assert len(top1) == 2 and top1[0] == top1[1]


def test_ensemble_runs_and_reports(model_path, data_dir, capsys):
    rc = main(["ensemble", "--model", str(model_path), "--model",
               str(model_path), "--data", str(data_dir), "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "member0 top1=" in out
    assert "member1 top1=" in out
    assert "ensemble top1=" in out
    # two copies of one model average to themselves
    member = float(out.split("member0 top1=")[1].split()[0])
    combined = float(out.split("ensemble top1=")[1].split()[0])
    assert combined == pytest.approx(member)


def test_ensemble_member_top1_equals_eval(gnt_path, tmp_path, capsys):
    """Each member is preprocessed with its own family's preset, as in eval."""
    models = [seeded_model(tmp_path / "goog.hcrm", "googlenet-small", 10),
              seeded_model(tmp_path / "alex.hcrm", "alexnet-small", 10)]
    data = ["--gnt", str(gnt_path), "--split", "test", "--seed", "0"]
    assert main(["ensemble", "--model", str(models[0]), "--model",
                 str(models[1])] + data) == 0
    out = capsys.readouterr().out
    members = [line.split()[1] for line in out.splitlines()
               if line.startswith("member")]
    alone = []
    for model in models:
        assert main(["eval", "--model", str(model)] + data) == 0
        alone += [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("top1=")]
    assert members == alone


@pytest.mark.parametrize("net, channels, mode", [("googlenet-small", 1, []),
                                                 ("alexnet-small", 9, ["--mode", "original+hog"])])
def test_eval_and_a_one_member_ensemble_agree(net, channels, mode, gnt_path, tmp_path, capsys):
    """eval's top1 is a one-member ensemble's member and ensemble top1, at the
    same --batch, --split and --seed."""
    model = seeded_model(tmp_path / "m.hcrm", net, 10, channels)
    argv = ["--model", str(model), "--gnt", str(gnt_path), "--batch", "7",
            "--split", "train", "--seed", "3"] + mode
    assert main(["eval"] + argv) == 0
    top1 = capsys.readouterr().out.splitlines()[1].split("=")[1]
    assert main(["ensemble"] + argv) == 0
    member, ensemble = capsys.readouterr().out.splitlines()[1:]
    assert member.split()[1] == ensemble.split()[1] == f"top1={top1}"
    assert member.startswith("member0 ") and ensemble.endswith(" members=1")


def test_inspect_reports_counts_and_sizes(model_path, capsys):
    rc = main(["inspect", "--model", str(model_path)])
    assert rc == 0
    out = capsys.readouterr().out
    values = dict(line.split("=") for line in out.splitlines()
                  if "=" in line and not line.startswith("config"))
    assert values["inception_modules"] == "4"
    assert int(values["weighted_layers"]) >= 14
    assert int(values["weighted_pooling_io_layers"]) > int(
        values["weighted_layers"])
    assert values["file_bytes"] == values["projected_bytes"]
    assert "MiB" in values["size_human"]


def test_extract_writes_dtns_and_previews(data_dir, tmp_path, capsys):
    out = tmp_path / "feat"
    rc = main(["extract", "--data", str(data_dir), "--mode",
               "original+gradient", "--out", str(out)])
    assert rc == 0
    dumps = sorted(out.glob("*.dtns"))
    assert len(dumps) == 36
    planes = read_dtns(dumps[0])
    assert planes.shape == (9, 48, 48)
    assert np.isfinite(planes).all()
    previews = sorted(out.glob("plane*.pgm"))
    assert len(previews) == 9


def test_extract_escapes_tags_that_are_not_file_names(tmp_path):
    """A GNT tag is any two latin-1 bytes; `/`, NUL and `%` become %XX."""
    image = np.full((6, 6), 0.5)
    write_gnt(Dataset([Sample(image, 0), Sample(image, 1), Sample(image, 2)],
                      ("a/", "b%", "\0c")), tmp_path / "tags.gnt")
    out = tmp_path / "ex"
    assert main(["extract", "--gnt", str(tmp_path / "tags.gnt"), "--mode", "original",
                 "--out", str(out)]) == 0
    assert sorted(p.name for p in out.glob("*.dtns")) == [
        "00000_a%2F.dtns", "00001_b%25.dtns", "00002_%00c.dtns"]


def test_extract_alternating_shapes_keep_their_indices(tmp_path):
    """Each tensor is its own sample's stack, however the shapes interleave."""
    rng = np.random.default_rng(3)
    shapes = [(12, 12), (10, 14), (12, 12), (12, 12), (10, 14), (10, 14), (12, 12)]
    write_gnt(Dataset([Sample(rng.random(shape), i % 2) for i, shape in enumerate(shapes)],
                      ("AA", "AB")), tmp_path / "mixed.gnt")
    out = tmp_path / "ex"
    assert main(["extract", "--gnt", str(tmp_path / "mixed.gnt"), "--mode",
                 "original+gradient", "--out", str(out)]) == 0
    samples = load_gnt(tmp_path / "mixed.gnt").samples
    for index, sample in enumerate(samples):
        planes = read_dtns(out / f"{index:05d}_{('AA', 'AB')[sample.label]}.dtns")
        want = stack_input(sample.image, "original+gradient").planes
        assert planes.tobytes() == want.tobytes() and planes.shape == want.shape


@pytest.mark.parametrize("mode", ["original+gabor", "gabor-only"])
def test_refused_gabor_extract_writes_nothing(mode, mixed_gnt, tmp_path, capsys):
    """The mixed GNT's 1x9 and 9x1 images are smaller than the Gabor kernel: a
    Gabor mode exits 1 before the first write, while original+hog writes every
    tensor and the first sample's previews."""
    out = tmp_path / "ex"
    assert main(["extract", "--gnt", str(mixed_gnt), "--mode", mode, "--out", str(out)]) == 1
    assert "is smaller than the 11x11 kernel" in capsys.readouterr().err
    assert not list(out.glob("*.dtns")) and not list(out.glob("*.pgm"))
    assert main(["extract", "--gnt", str(mixed_gnt), "--mode", "original+hog",
                 "--out", str(out)]) == 0
    assert len(list(out.glob("*.dtns"))) == 100 and len(list(out.glob("plane*.pgm"))) == 9


def test_train_log_deterministic_across_runs(data_dir, tmp_path, capsys):
    argv = ["train", "--net", "alexnet-small", "--data", str(data_dir),
            "--epochs", "1", "--batch", "8", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# every subcommand prints its configuration once, whatever its exit code

CONFIG_RUNS = {     # subcommand -> argv tail per exit code
    "synth": {0: ["--classes", "1", "--per-class", "1", "--gnt", "{tmp}/s.gnt"],
              1: ["--classes", "1", "--per-class", "1", "--noise", "inf",
                  "--gnt", "{tmp}/s.gnt"],
              2: ["--classes", "1", "--per-class", "1"]},
    "train": {0: ["--net", "googlenet-small", "--data", "{data}", "--epochs", "0"],
              1: ["--net", "googlenet-small", "--gnt", "{tmp}/none.gnt"],
              2: ["--net", "googlenet-small", "--data", "{data}", "--gnt", "{tmp}/g"]},
    "eval": {0: ["--model", "{model}", "--data", "{data}"],
             1: ["--model", "{tmp}/none.hcrm", "--data", "{data}"],
             2: ["--model", "{model}", "--model", "{model}", "--data", "{data}"]},
    "extract": {0: ["--data", "{data}", "--mode", "original", "--out", "{tmp}/x"],
                1: ["--data", "{tmp}/none", "--out", "{tmp}/x"],
                2: ["--data", "{data}", "--gnt", "{tmp}/g", "--out", "{tmp}/x"]},
    "ensemble": {0: ["--model", "{model}", "--data", "{data}"],
                 1: ["--model", "{tmp}/none.hcrm", "--data", "{data}"],
                 2: ["--model", "{model}", "--mode", "original", "--mode",
                     "original", "--data", "{data}"]},
    "inspect": {0: ["--model", "{model}"],
                1: ["--model", "{tmp}/none.hcrm"],
                2: ["--model", "{model}", "--model", "{model}"]},
}


@pytest.mark.parametrize("sub, code", [(sub, code) for sub in CONFIG_RUNS for code in (0, 1, 2)])
def test_each_subcommand_prints_one_config_line(sub, code, model_path, data_dir,
                                                tmp_path, capsys):
    tail = [arg.format(tmp=tmp_path, data=data_dir, model=model_path)
            for arg in CONFIG_RUNS[sub][code]]
    assert main([sub, *tail]) == code
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"config: subcommand={sub} ")
    assert sum(line.startswith("config:") for line in lines) == 1


# ---------------------------------------------------------------------------
# seeded bytes across BLAS thread counts

# argv of each child, in order; paths are relative to its working directory,
# because the config line prints them
THREAD_RUNS = [["synth", "--classes", "4", "--per-class", "10", "--noise", "0.05",
                "--seed", "2", "--out", "data"]] + [
    argv for mode in ("original", "original+gabor") for argv in (
        ["train", "--net", "googlenet-small", "--data", "data", "--mode", mode,
         "--epochs", "1", "--batch", "8", "--seed", "5", "--out", f"{mode}.hcrm"],
        ["eval", "--model", f"{mode}.hcrm", "--mode", mode, "--data", "data",
         "--batch", "7"])]
# the live thread count of the OpenBLAS that numpy bundles, or -1 where there is none
LIVE_BLAS_THREADS = """import ctypes, pathlib, numpy
libs = sorted((pathlib.Path(numpy.__file__).parent.parent / "numpy.libs")
              .glob("libscipy_openblas64_*.so"))
if libs:
    get = ctypes.CDLL(str(libs[0])).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
print(get() if libs else -1)"""


def test_seeded_runs_give_the_same_bytes_at_one_and_two_blas_threads(tmp_path):
    """synth, a 1-epoch train and eval, each in a child process at
    OPENBLAS_NUM_THREADS=1 and =2: models, stdout, stderr and exit codes agree."""
    src = str(Path(hccr.__file__).resolve().parents[1])
    results = []
    for threads in (1, 2):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=path)
        live = int(subprocess.run([sys.executable, "-c", LIVE_BLAS_THREADS], env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout)
        # the child really runs that many threads, as many as OpenBLAS finds CPUs for
        assert live == -1 or live == min(threads, len(os.sched_getaffinity(0)))
        runs = [subprocess.run([sys.executable, "-m", "hccr.cli", *argv], cwd=cwd, env=env,
                               capture_output=True, timeout=120) for argv in THREAD_RUNS]
        results.append(([(run.returncode, run.stdout, run.stderr) for run in runs],
                        sorted((p.name, p.read_bytes()) for p in cwd.glob("*.hcrm"))))
    assert [code for code, _, _ in results[0][0]] == [0] * len(THREAD_RUNS)
    assert len(results[0][1]) == 2
    assert results[0] == results[1]
