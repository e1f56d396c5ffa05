"""Training loop, top-k evaluation, ensembling, persistence and model size.

Training is plain minibatch SGD with momentum and a per-epoch multiplicative
learning-rate decay, fully deterministic for a given seed, one taped
loss_and_grads pass per step. Validation, evaluation and ensembling score
through predict on the inference-only forward_net, ranking classes by
probability with ties resolved toward the lower class index.
Models persist to a small binary container, HCRM v2: a 32-byte header
(magic "HCRM", then u32 version, class count and input channels, then the
reference network's name NUL-padded to 16 bytes), followed by the raw
little-endian float32 parameters in canonical order. All integers are
little-endian; the loader rebuilds the topology from the name.
"""

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

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

MODEL_MAGIC = b"HCRM"
# Bump whenever a reference topology changes: files store only its name.
MODEL_VERSION = 2
MODEL_HEADER = struct.Struct("<4s3I16s")    # magic, version, classes, channels, net
LR_DECAY = 0.95         # per-epoch learning-rate multiplier


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
        if self.lr < 0:
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


def _stacked_inputs(dataset, mode):
    images = [s.image for s in dataset.samples]
    return stack_batch(images, mode), dataset.labels()


def _batch_ranges(n, batch_size):
    return [(lo, min(lo + batch_size, n)) for lo in range(0, n, batch_size)]


def predict(spec, params, x, batch_size):
    """Infer-mode probabilities [N, T] of stacked input x, batch by batch."""
    parts = [forward_net(spec, params, x[lo:hi])[0]
             for lo, hi in _batch_ranges(len(x), batch_size)]
    return np.concatenate(parts, axis=0)


def top1_percent(probs, labels):
    """Percent of rows whose most probable class is the label."""
    hits = int((probs.argmax(axis=1) == labels).sum())
    return 100.0 * hits / len(labels)


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
    x, labels = _stacked_inputs(train_set, config.mode)
    if x.shape[1:] != tuple(run_spec.input_shape):
        raise tc.ShapeError(f"stacked input {x.shape[1:]} does not match "
                            f"network input {tuple(run_spec.input_shape)}")
    if val_set is not None:
        val_x, val_labels = _stacked_inputs(val_set, config.mode)
    log = []
    checkpoint = params.copy()
    lr = config.lr
    for epoch in range(config.epochs):
        order = rng.permutation(len(labels))
        loss_sum = 0.0
        for lo, hi in _batch_ranges(len(labels), config.batch_size):
            batch = order[lo:hi]
            loss, _, grads = loss_and_grads(run_spec, params, x[batch],
                                            labels[batch], rng=rng)
            if not math.isfinite(loss):
                log.append(TrainLogEntry(epoch, float("nan"), float("nan")))
                return checkpoint, log
            if lr > 0:
                tc.sgd_step(params.tensors, grads, lr, config.momentum,
                            params.velocity)
            loss_sum += loss * len(batch)
        train_loss = loss_sum / len(labels)
        val_top1 = float("nan") if val_set is None else top1_percent(
            predict(run_spec, params, val_x, config.batch_size), val_labels)
        log.append(TrainLogEntry(epoch, train_loss, val_top1))
        checkpoint = params.copy()
        lr *= LR_DECAY
    return params, log


# ---------------------------------------------------------------------------
# evaluation

@dataclass(frozen=True)
class EvalReport:
    topk: dict                  # k -> accuracy percent
    mean_loss: float
    sample_count: int
    parameter_count: int
    serialized_bytes: int


def rank_classes(probs):
    """Class indices best-first; equal probabilities keep lower index first."""
    return np.argsort(-probs, axis=1, kind="stable")


def evaluate_topk(spec, params, dataset, ks=(1, 2, 5, 10), mode="original",
                  batch_size=128):
    """Top-k accuracies, mean loss, and size accounting on a dataset."""
    ks = tuple(sorted(set(int(k) for k in ks)))
    for k in ks:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > spec.class_count:
            warnings.warn(f"top-{k} requested with only {spec.class_count} "
                          f"classes; reporting 100%")
    x, labels = _stacked_inputs(dataset, mode)
    probs = predict(spec, params, x, batch_size)
    at_label = rank_classes(probs) == labels[:, None]    # where each label ranks
    n = len(labels)
    topk = {k: 100.0 * int(at_label[:, :k].sum()) / n for k in ks}
    return EvalReport(topk, tc.cross_entropy(probs, labels), n,
                      count_parameters(spec), model_bytes(spec))


def report_keyvalues(report):
    lines = [f"top{k}={report.topk[k]:.2f}" for k in sorted(report.topk)]
    lines += [f"mean_loss={report.mean_loss:.6f}",
              f"samples={report.sample_count}",
              f"parameters={report.parameter_count}",
              f"serialized_bytes={report.serialized_bytes}"]
    return "\n".join(lines)


def report_table(report):
    header = " ".join(f"Top{k} (%)" for k in sorted(report.topk))
    values = " ".join(f"{report.topk[k]:8.2f}" for k in sorted(report.topk))
    return (f"{header}\n{values}\n"
            f"samples: {report.sample_count}   "
            f"mean loss: {report.mean_loss:.4f}\n"
            f"parameters: {report.parameter_count:,}   "
            f"size: {report.serialized_bytes / 2 ** 20:.2f} MiB")


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
    total = sum(predict(spec, params, stack_batch(images, mode), batch_size)
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
    """Write the HCRM container of a reference network; returns the byte count."""
    tensors = params.tensors if isinstance(params, ParamStore) else params
    out = bytearray(MODEL_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, spec.class_count,
                                      spec.input_shape[0],
                                      reference_net(spec).encode("ascii")))
    for name, shape, _ in parameter_entries(spec):
        tensor = tensors[name]
        if tuple(tensor.shape) != shape:
            raise ValueError(f"parameter {name} has shape {tensor.shape}, "
                             f"spec wants {shape}")
        out += np.ascontiguousarray(tensor, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(out))
    return len(out)


def load_model(path):
    """Read an HCRM container back into (spec, ParamStore); bad files raise ValueError."""
    data = Path(path).read_bytes()
    if data[:4] != MODEL_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}")
    if len(data) < MODEL_HEADER.size:
        raise ValueError(f"{path}: {len(data)} bytes is too short for an HCRM header")
    _, version, class_count, channels, name = MODEL_HEADER.unpack_from(data)
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
    offset = MODEL_HEADER.size
    expected = model_bytes(spec)
    if len(data) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, file has "
                         f"{len(data)}")
    tensors = {}
    for name, shape, _ in parameter_entries(spec):
        count = int(np.prod(shape))
        flat = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        tensors[name] = flat.reshape(shape).astype(tc.FLOAT)
        offset += 4 * count
    return spec, ParamStore(tensors)


def model_bytes(spec):
    """Exact size of the file save_model writes for `spec`."""
    return MODEL_HEADER.size + 4 * count_parameters(spec)
