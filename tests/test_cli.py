"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from hccr.cli import main
from hccr.network_builder import build_net, init_weights
from hccr.pipeline_data import load_image_dir, load_gnt
from hccr.tensor_core import read_dtns
from hccr.train_eval import save_model


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


def test_bad_flag_value_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["synth", "--classes", "0", "--per-class", "5", "--out", "x"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--epochs", "abc", "argument --epochs: invalid int value: 'abc'"),
    ("--lr", "fast", "argument --lr: invalid float value: 'fast'"),
    ("--batch", "0", "argument --batch: must be >= 1, got 0"),
    ("--momentum", "-0.5", "argument --momentum: must be >= 0, got -0.5"),
])
def test_bad_number_names_the_flag_and_type(flag, value, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(["train", "--net", "googlenet-small", "--gnt", "x", flag, value])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["synth", "--classes", "3", "--per-class", "5", "--out", "x",
              "--turbo"])
    assert info.value.code == 2


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


def test_eval_reports_topk(gnt_path, tmp_path, capsys):
    model = seeded_model(tmp_path / "ten.hcrm", classes=10)
    rc = main(["eval", "--model", str(model), "--gnt", str(gnt_path),
               "--split", "test", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    for key in ("top1=", "top2=", "top5=", "top10=", "mean_loss=",
                "serialized_bytes="):
        assert key in out
    assert "Top1" in out                         # human table too


def test_eval_reports_no_k_above_the_class_count(model_path, data_dir, capsys,
                                                 recwarn):
    assert main(["eval", "--model", str(model_path), "--data", str(data_dir),
                 "--split", "test", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "top2=" in out and "top5=" not in out and "Top5" not in out
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


def test_train_log_deterministic_across_runs(data_dir, tmp_path, capsys):
    argv = ["train", "--net", "alexnet-small", "--data", str(data_dir),
            "--epochs", "1", "--batch", "8", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second