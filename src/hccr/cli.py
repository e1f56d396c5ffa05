"""Command-line front end for the recognition pipeline.

Subcommands: synth (generate a glyph dataset), train, eval, extract
(dump stacked feature planes), ensemble (average several models), and
inspect (report a saved model's depth and size). Every invocation prints
its resolved configuration before acting. Exit codes: 0 success, 1
runtime or data error, 2 usage error.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import tensor_core as tc
from .directional_features import MODE_CHANNELS, stack_batch
from .network_builder import (
    REFERENCE_NETS,
    build_net,
    count_inception_modules,
    count_layers,
    count_parameters,
    reference_net,
)
from .pipeline_data import (
    GLYPH_CLASSES,
    PREPROC_PRESETS,
    Sample,
    load_gnt,
    load_image_dir,
    preprocess_dataset,
    same_shape_runs,
    shuffle_split,
    synth_glyphs,
    write_gnt,
    write_pgm,
)
from .train_eval import (
    TrainConfig,
    check_class_counts,
    format_training_log,
    load_model,
    model_bytes,
    predict,
    save_model,
    topk_percent,
    train,
)

TRAIN_FRACTION = 0.8


class UsageError(Exception):
    """Bad flag combination detected after parsing; exits with code 2."""


def _bounded(kind, minimum, maximum=None):
    """argparse type: `kind` of the text, refused below `minimum` or above
    `maximum`; named after `kind`, so malformed text reads "invalid int value"."""
    def parse(text):
        value = kind(text)
        if not value >= minimum:      # NaN compares False both ways
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be <= {maximum}, got {value}")
        return value
    parse.__name__ = kind.__name__
    return parse


def _print_config(args):
    parts = [f"{key.replace('_', '-')}={value}" for key, value in
             vars(args).items() if key not in ("command", "func")]
    print(f"config: subcommand={args.command} " + " ".join(parts))


def _load_raw(args):
    if (args.data is None) == (args.gnt is None):
        raise UsageError("exactly one of --data or --gnt is required")
    raw = load_image_dir(args.data) if args.data else load_gnt(args.gnt)
    if not raw.samples:
        raise ValueError(f"no samples in {args.data or args.gnt}")
    return raw


def _model_mode(spec, mode):
    """`mode`, checked against the model's channels; None picks the one fit."""
    channels = spec.input_shape[0]
    if mode is None:
        fits = [m for m, count in MODE_CHANNELS.items() if count == channels]
        if len(fits) != 1:
            raise UsageError(f"a {channels}-channel model needs --mode (modes "
                             f"stacking {channels}: {', '.join(fits) or 'none'})")
        return fits[0]
    stacked = MODE_CHANNELS[mode]
    if stacked != channels:
        raise UsageError(f"--mode {mode} stacks {stacked} channel(s) but the "
                         f"model expects {channels}")
    return mode


def _resolve_models(args, modes):
    """Load every --model, check each against its mode (one for all models or
    one each) and the data's class count, and return the scored side of the
    held-out split, raw, with (spec, params, mode, preset) per model. The side is
    copied out of the file one same-shape run at a time (GNT's as uint8), freeing it."""
    loaded = [load_model(path) for path in args.model]
    if len(modes) == 1:
        modes = modes * len(loaded)
    if len(modes) != len(loaded):
        raise UsageError(f"got {len(modes)} --mode values for "
                         f"{len(loaded)} models; give one or one each")
    specs = [spec for spec, _ in loaded]
    modes = [_model_mode(spec, mode) for spec, mode in zip(specs, modes)]
    raw = _load_raw(args)
    check_class_counts(specs, raw.class_count)
    side = shuffle_split(raw, TRAIN_FRACTION, args.seed)[args.split == "test"]
    images = [s.image for s in side.samples]
    copies = [im for run in same_shape_runs(images) for im in np.stack([images[i] for i in run])]
    side.samples = [Sample(image, s.label) for image, s in zip(copies, side.samples)]
    return side, [(spec, params, mode, PREPROC_PRESETS[reference_net(spec)])
                  for (spec, params), mode in zip(loaded, modes)]


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args):
    if args.out is None and args.gnt is None:
        raise UsageError("at least one of --out or --gnt is required")
    data = synth_glyphs(args.classes, args.per_class, noise=args.noise,
                        seed=args.seed)
    if args.out is not None:
        root = Path(args.out)
        root.mkdir(parents=True, exist_ok=True)
        counters = {}
        for sample in data.samples:
            class_dir = root / data.class_names[sample.label]
            class_dir.mkdir(exist_ok=True)
            index = counters.get(sample.label, 0)
            counters[sample.label] = index + 1
            write_pgm(class_dir / f"{index:04d}.pgm", sample.image)
        print(f"wrote {len(data.samples)} images in {data.class_count} "
              f"classes under {root}")
    if args.gnt is not None:
        written = write_gnt(data, args.gnt)
        print(f"wrote {written} bytes to {args.gnt}")


def cmd_train(args):
    try:
        config = TrainConfig(epochs=args.epochs, batch_size=args.batch, lr=args.lr,
                             momentum=args.momentum, seed=args.seed, mode=args.mode)
    except ValueError as error:
        raise UsageError(error) from None
    if args.out is not None and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
        raise ValueError(f"--out {args.out} is a directory or lies in a missing one")
    # no name holds the raw glyphs: they are freed before training starts
    prepared = preprocess_dataset(_load_raw(args), PREPROC_PRESETS[args.net])
    train_set, val_set = shuffle_split(prepared, TRAIN_FRACTION, args.seed)
    spec = build_net(args.net, prepared.class_count, MODE_CHANNELS[args.mode])
    params, log = train(spec, train_set, config, val_set)
    print(format_training_log(log))
    if log:
        print(f"final val_top1={log[-1].val_top1:.2f}")
    if args.out is not None:
        written = save_model(spec, params, args.out)
        print(f"saved {args.out} ({written} bytes)")


def cmd_eval(args):
    if len(args.model) != 1:
        raise UsageError("eval takes exactly one --model")
    side, [(spec, params, mode, preset)] = _resolve_models(args, [args.mode])
    labels, images = side.labels(), [s.image for s in side.samples]
    probs = predict(spec, params, images, mode, args.batch, preset)
    for k, percent in topk_percent(probs, labels).items():
        print(f"top{k}={percent:.2f}")
    print(f"mean_loss={tc.cross_entropy(probs, labels):.6f}\nsamples={len(labels)}\n"
          f"parameters={count_parameters(spec)}\nserialized_bytes={model_bytes(spec)}")


def cmd_extract(args):
    raw = _load_raw(args)
    images = [sample.image for sample in raw.samples]
    # the image of smallest side fails first (a Gabor kernel is 11x11): refuse before any write
    stack_batch([min(images, key=lambda image: min(image.shape))], args.mode)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = ["".join(f"%{ord(ch):02X}" if ch in "/\0%" else ch for ch in tag)
             for tag in raw.class_names]        # each one path component
    for run in same_shape_runs(images):
        for index, planes in zip(run, stack_batch([images[i] for i in run], args.mode)):
            tc.write_dtns(out / f"{index:05d}_{names[raw.samples[index].label]}.dtns", planes)
            if index == 0:
                for j, plane in enumerate(planes):
                    write_pgm(out / f"plane{j:02d}.pgm", plane)
    print(f"wrote {len(raw.samples)} tensors ({MODE_CHANNELS[args.mode]} planes "
          f"each) under {out}")


def cmd_ensemble(args):
    side, members = _resolve_models(args, args.mode or [None])
    labels, images = side.labels(), [s.image for s in side.samples]
    member_probs = []
    for i, (spec, params, mode, preset) in enumerate(members):
        probs = predict(spec, params, images, mode, args.batch, preset)
        member_probs.append(probs)
        print(f"member{i} top1={topk_percent(probs, labels)[1]:.2f} mode={mode} "
              f"({args.model[i]})")
    # ensemble_predict's mean; not called, as each member preprocesses in its own preset
    probs = sum(member_probs) / len(member_probs)
    print(f"ensemble top1={topk_percent(probs, labels)[1]:.2f} "
          f"members={len(members)}")


def cmd_inspect(args):
    if len(args.model) != 1:
        raise UsageError("inspect takes exactly one --model")
    path = args.model[0]
    spec, _ = load_model(path)
    size = model_bytes(spec)
    print(f"weighted_layers={count_layers(spec, 'weighted')}")
    print(f"weighted_pooling_io_layers="
          f"{count_layers(spec, 'weighted+pooling+io')}")
    print(f"inception_modules={count_inception_modules(spec)}")
    print(f"parameters={count_parameters(spec)}")
    print(f"file_bytes={Path(path).stat().st_size}")
    print(f"projected_bytes={size}")
    print(f"size_human={size / 2 ** 20:.2f} MiB")


# ---------------------------------------------------------------------------
# parser

def _add_data_flags(sub):
    sub.add_argument("--data", metavar="PATH", default=None,
                     help="dataset directory of per-class PGM folders")
    sub.add_argument("--gnt", metavar="PATH", default=None,
                     help="binary GNT sample file")


def _add_scoring_flags(sub):
    sub.add_argument("--split", choices=("train", "test"), default="test",
                     help="which side of the held-out split to score")
    sub.add_argument("--seed", type=_bounded(int, 0), default=0,
                     help="split seed; match the training run to reuse its split")
    sub.add_argument("--batch", type=_bounded(int, 1), default=128,
                     help="evaluation batch: most images preprocessed and stacked at once")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hccr",
        description="Offline handwritten-character recognition toolkit.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="SUBCOMMAND")
    fmt = argparse.ArgumentDefaultsHelpFormatter

    synth = subs.add_parser("synth", formatter_class=fmt,
                            help="generate a synthetic glyph dataset")
    synth.add_argument("--classes", type=_bounded(int, 1, GLYPH_CLASSES), required=True,
                       help=f"number of glyph classes (1-{GLYPH_CLASSES})")
    synth.add_argument("--per-class", type=_bounded(int, 1), required=True,
                       help="samples per class")
    synth.add_argument("--noise", type=_bounded(float, 0), default=0.0,
                       help="uniform pixel noise amplitude")
    synth.add_argument("--seed", type=_bounded(int, 0), default=0,
                       help="generation seed")
    synth.add_argument("--out", metavar="PATH", default=None,
                       help="directory for per-class PGM folders")
    synth.add_argument("--gnt", metavar="PATH", default=None,
                       help="also write the dataset as one GNT file")
    synth.set_defaults(func=cmd_synth)

    tr = subs.add_parser("train", formatter_class=fmt,
                         help="train a network and save it")
    tr.add_argument("--net", choices=REFERENCE_NETS, required=True,
                    help="architecture and scale")
    _add_data_flags(tr)
    tr.add_argument("--mode", choices=tuple(MODE_CHANNELS), default="original",
                    help="input feature stacking")
    tr.add_argument("--epochs", type=_bounded(int, 0), default=20,
                    help="training epochs")
    tr.add_argument("--batch", type=_bounded(int, 1), default=64,
                    help="minibatch size")
    tr.add_argument("--lr", type=_bounded(float, 0), default=0.01,
                    help="initial learning rate")
    tr.add_argument("--momentum", type=_bounded(float, 0), default=0.9,
                    help="SGD momentum")
    tr.add_argument("--seed", type=_bounded(int, 0), default=0,
                    help="seed for init, shuffling, and the held-out split")
    tr.add_argument("--out", metavar="PATH", default=None,
                    help="model file to write")
    tr.set_defaults(func=cmd_train)

    ev = subs.add_parser("eval", formatter_class=fmt,
                         help="evaluate a saved model")
    ev.add_argument("--model", metavar="PATH", action="append", required=True,
                    help="saved model file")
    _add_data_flags(ev)
    ev.add_argument("--mode", choices=tuple(MODE_CHANNELS), default=None,
                    help="input feature stacking (must match the model); "
                         "default is the one mode that stacks the model's "
                         "channel count")
    _add_scoring_flags(ev)
    ev.set_defaults(func=cmd_eval)

    ex = subs.add_parser("extract", formatter_class=fmt,
                         help="dump stacked feature planes as DTNS tensors")
    _add_data_flags(ex)
    ex.add_argument("--mode", choices=tuple(MODE_CHANNELS), default="original+gabor",
                    help="which planes to stack")
    ex.add_argument("--out", metavar="PATH", required=True,
                    help="output directory (first sample also gets PGM previews)")
    ex.set_defaults(func=cmd_extract)

    en = subs.add_parser("ensemble", formatter_class=fmt,
                         help="average several models' probabilities")
    en.add_argument("--model", metavar="PATH", action="append", required=True,
                    help="member model file (repeat per member)")
    _add_data_flags(en)
    en.add_argument("--mode", choices=tuple(MODE_CHANNELS), action="append",
                    default=None,
                    help="member input mode; one value for all members or one "
                         "per member; default is the one mode that stacks "
                         "each model's channel count")
    _add_scoring_flags(en)
    en.set_defaults(func=cmd_ensemble)

    ins = subs.add_parser("inspect", formatter_class=fmt,
                          help="report a saved model's depth and size")
    ins.add_argument("--model", metavar="PATH", action="append", required=True,
                     help="saved model file")
    ins.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _print_config(args)
        args.func(args)
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 2
    except (OSError, ValueError, tc.ShapeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
