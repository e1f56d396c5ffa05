"""Training loop, scoring, ensembling, persistence and model size.

Training is plain minibatch SGD with momentum and a per-epoch multiplicative
learning-rate decay, fully deterministic for a given seed, one taped
loss_and_grads pass per step; its splits are stacked once. Evaluation and
ensembling stack each batch just before its inference-only forward_net pass
(predict), which given a preset first preprocesses each batch of raw images.
Every top-k, the training log's too, counts by topk_percent.
Models persist to a small binary container, HCRM v2: a 32-byte header
(magic "HCRM", then u32 version, class count and input channels, then the
reference network's name NUL-padded to 16 bytes), followed by the raw
little-endian float32 parameters in canonical order. All integers are
little-endian; the loader rebuilds the topology from the name.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .directional_features import MODE_CHANNELS, stack_batch
from .network_builder import (
    ParamStore,
    build_net,
    count_parameters,
    forward_net,
    init_weights,
    loss_and_grads,
    parameter_entries,
    reference_net,
    with_dropout_rate,
)
from .pipeline_data import preprocess_images

MODEL_MAGIC = b"HCRM"
# Bump whenever a reference topology changes: files store only its name.
MODEL_VERSION = 2
MODEL_HEADER = struct.Struct("<4s3I16s")    # magic, version, classes, channels, net
LR_DECAY = 0.95         # per-epoch learning-rate multiplier
TOPK = (1, 2, 5, 10)    # k of each reported top-k accuracy, up to the class count


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    lr: float = 0.01
    momentum: float = 0.9
    dropout: float = 0.5
    seed: int = 0
    mode: str = "original"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not self.lr >= 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.mode not in MODE_CHANNELS:
            raise ValueError(f"unknown input mode {self.mode!r}")


@dataclass(frozen=True)
class TrainLogEntry:
    epoch: int
    train_loss: float
    val_top1: float             # percent; nan when no validation set was given


def format_training_log(log):
    """Line-oriented text: epoch, tab, train loss, tab, validation top-1."""
    return "\n".join(f"{e.epoch}\t{e.train_loss:.6f}\t{e.val_top1:.2f}"
                     for e in log)


def predict(spec, params, images, mode, batch_size, preset=None):
    """Infer-mode probabilities [N, T] of images [N, H, W], each batch stacked in
    `mode` just before its forward pass: at most batch_size at once. With a
    `preset` the images are raw, and each batch is preprocessed before stacking."""
    if len(images) == 0:
        raise ValueError("no images to score")
    batches = (images[lo:lo + batch_size] for lo in range(0, len(images), batch_size))
    if preset is not None:
        batches = (preprocess_images(batch, preset) for batch in batches)
    return np.concatenate([forward_net(spec, params, stack_batch(batch, mode))[0]
                           for batch in batches], axis=0)


def topk_percent(probs, labels):
    """Percent of rows whose label ranks below k, for each k of TOPK up to the
    row length. A label's rank is its place in a stable best-first argsort
    (ties toward the lower index, NaNs last), found by counting."""
    n, p = len(labels), probs[np.arange(len(labels)), labels][:, None]
    lower = np.arange(probs.shape[1]) < labels[:, None]
    rank = ((probs > p) | (probs == p) & lower
            | np.isnan(p) & (lower | ~np.isnan(probs))).sum(axis=1)
    return {k: 100.0 * int((rank < k).sum()) / n for k in TOPK if k <= probs.shape[1]}


def check_class_counts(specs, data_class_count=0):
    """ValueError unless the models share one class count covering the data's."""
    counts = sorted({spec.class_count for spec in specs})
    if len(counts) > 1:
        raise ValueError(f"members disagree on class count: {counts}")
    if data_class_count > counts[0]:
        raise ValueError(f"data has {data_class_count} classes, the model "
                         f"scores {counts[0]}")


def train(spec, train_set, config, val_set=None):
    """Minibatch SGD over a preprocessed dataset. Returns (params, log).

    The input mode of `config` decides which feature planes are stacked
    under each sample. One checkpoint is kept per completed epoch; if the
    loss ever goes non-finite the run aborts, appends a nan log entry, and
    returns the last checkpoint (the initial weights when epoch 0 fails).
    Identical configs and datasets give bit-identical results.
    """
    if train_set.class_count != spec.class_count:
        raise ValueError(f"dataset has {train_set.class_count} classes, "
                         f"network expects {spec.class_count}")
    run_spec = with_dropout_rate(spec, config.dropout)
    params = init_weights(run_spec, config.seed)
    rng = np.random.default_rng([config.seed, 1])
    x = stack_batch([s.image for s in train_set.samples], config.mode)
    labels = train_set.labels()
    if val_set is not None:     # stacked once; every epoch scores the same planes
        val_x = stack_batch([s.image for s in val_set.samples], config.mode)
    log = []
    checkpoint = params.copy()
    velocity = {}
    lr = config.lr
    for epoch in range(config.epochs):
        order = rng.permutation(len(labels))
        loss_sum = 0.0
        for lo in range(0, len(labels), config.batch_size):
            batch = order[lo:lo + config.batch_size]
            loss, _, grads = loss_and_grads(run_spec, params, x[batch],
                                            labels[batch], rng=rng)
            if not math.isfinite(loss):
                log.append(TrainLogEntry(epoch, float("nan"), float("nan")))
                return checkpoint, log
            if lr > 0:
                tc.sgd_step(params, grads, lr, config.momentum, velocity)
            loss_sum += loss * len(batch)
        train_loss = loss_sum / len(labels)
        val_top1 = float("nan") if val_set is None else topk_percent(np.concatenate(
            [forward_net(run_spec, params, val_x[lo:lo + config.batch_size])[0]
             for lo in range(0, len(val_x), config.batch_size)]), val_set.labels())[1]
        log.append(TrainLogEntry(epoch, train_loss, val_top1))
        checkpoint = params.copy()
        lr *= LR_DECAY
    return params, log


# ---------------------------------------------------------------------------
# ensembling

def ensemble_predict(members, images, batch_size=128):
    """Arithmetic mean of member softmax outputs on shared raw images.

    members: sequence of (spec, params, mode) triples; each member stacks
    its own feature planes from the same preprocessed images, so members
    with different input modes can vote together.
    """
    if not members:
        raise ValueError("ensemble needs at least one member")
    check_class_counts([spec for spec, _, _ in members])
    images = list(images)
    total = sum(predict(spec, params, images, mode, batch_size)
                for spec, params, mode in members)
    return total / len(members)


def relative_error_reduction(baseline_acc, new_acc):
    """Percent reduction of the error rate when accuracy moves baseline -> new."""
    for name, value in (("baseline", baseline_acc), ("new", new_acc)):
        if not 0 <= value <= 100:
            raise ValueError(f"{name} accuracy must be in [0, 100], got {value}")
    if baseline_acc == 100:
        raise ValueError("baseline accuracy of 100% leaves no error to reduce")
    baseline_err = 100.0 - baseline_acc
    new_err = 100.0 - new_acc
    return (baseline_err - new_err) / baseline_err * 100.0


# ---------------------------------------------------------------------------
# persistence and size accounting

def save_model(spec, params, path):
    """Write the HCRM container of a reference network, once every check has
    passed, each tensor as it stands (float32 is not copied); returns the byte count."""
    header = MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, spec.class_count,
                               spec.input_shape[0], reference_net(spec).encode("ascii"))
    for name, shape, _ in parameter_entries(spec):
        if tuple(params[name].shape) != shape:
            raise ValueError(f"parameter {name} has shape {params[name].shape}, "
                             f"spec wants {shape}")
    with open(path, "wb") as out:
        out.write(header)
        for name, _, _ in parameter_entries(spec):
            out.write(np.ascontiguousarray(params[name], dtype="<f4"))
    return model_bytes(spec)


def load_model(path):
    """Read an HCRM container back into (spec, ParamStore), each tensor straight
    into its own array; bad files raise ValueError."""
    with open(path, "rb") as f:
        head, size = f.read(MODEL_HEADER.size), os.fstat(f.fileno()).st_size
        if head[:4] != MODEL_MAGIC:
            raise ValueError(f"{path}: bad magic {head[:4]!r}")
        if size < MODEL_HEADER.size:
            raise ValueError(f"{path}: {size} bytes is too short for an HCRM header")
        _, version, class_count, channels, name = MODEL_HEADER.unpack(head)
        if version != MODEL_VERSION:
            raise ValueError(f"{path}: unsupported version {version} "
                             f"(this build reads version {MODEL_VERSION})")
        if class_count < 1 or channels < 1:
            raise ValueError(f"{path}: {class_count} classes and {channels} input "
                             f"channels; both must be >= 1")
        try:
            spec = build_net(name.rstrip(b"\0").decode("latin-1"), class_count, channels)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        expected = model_bytes(spec)
        if size != expected:
            raise ValueError(f"{path}: expected {expected} bytes, file has {size}")
        tensors = {}
        for name, shape, _ in parameter_entries(spec):
            tensor = np.empty(shape, dtype="<f4")
            if f.readinto(tensor) != tensor.nbytes:     # the file shrank since the check
                raise ValueError(f"{path}: file ends inside parameter {name}")
            if not np.isfinite(tensor).all():
                raise ValueError(f"{path}: parameter {name} holds non-finite values")
            tensors[name] = tensor.astype(tc.FLOAT, copy=False)
    return spec, ParamStore(tensors)


def model_bytes(spec):
    """Exact size of the file save_model writes for `spec`."""
    return MODEL_HEADER.size + 4 * count_parameters(spec)
