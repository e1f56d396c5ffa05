"""Span tracing of the hccr modules from outside the package.

A Tracer replaces every public function of the six hccr modules, in every
module namespace that holds it, with a wrapper that records a span. It also
wraps Tape.record, so each op's backward closure gets a span, and
Tape.backward, so the replay loop gets one. Spans live in memory as
[name, start, end, parent, run, work] and are written out when the
benchmark ends; `layer_metrics` turns one run's spans into the per-layer
metrics.

Self time is a span's duration minus its children's. Every span below a
directional_features span is charged to directional_features, so a
tc.conv2d called by the Gabor or Sobel extractors does not count as
network work.
"""

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "train_eval", "network_builder", "tensor_core",
          "directional_features", "pipeline_data")
FEATURES = "directional_features"
MIB = 2.0 ** 20

# Tape op name -> name of its forward kernel in tensor_core.
OPS = {"conv2d": "conv2d", "maxpool2d": "maxpool2d", "relu": "relu",
       "concat": "concat_channels", "fully_connected": "fully_connected",
       "softmax": "softmax", "dropout": "dropout"}
STACK_MODES = {"original+gabor": "gabor", "gabor-only": "gabor",
               "original+gradient": "gradient", "original+hog": "hog"}
EXTRACTORS = ("gabor_maps", "gradient_maps", "hog_maps")

# Metrics computed from tensor shapes and call structure, not from clocks;
# they must repeat exactly from one traced run to the next.
COMPUTED = ("tensor_core.conv2d.calls", "tensor_core.conv2d.fwd_gflop",
            "tensor_core.conv2d.im2col_mib", "tensor_core.maxpool2d.window_mib",
            "network_builder.forward_net.calls",
            "directional_features.conv2d_calls_per_image",
            "train_eval.ensemble_predict.member_passes")


def _conv_work(n, c, ho, wo, f, kh, kw, itemsize):
    """(GEMM FLOPs, im2col bytes) of one conv2d forward pass."""
    unfolded = n * ho * wo * c * kh * kw
    return 2 * unfolded * f, unfolded * itemsize


def _conv2d_work(args, kwargs, result):
    x, w = args[0], args[1]
    n, f, ho, wo = result.shape
    _, c, kh, kw = w.shape
    return _conv_work(n, c, ho, wo, f, kh, kw, x.dtype.itemsize)


def _maxpool2d_work(args, kwargs, result):
    """Bytes of the window tensor the kernel flattens: (N, C, Ho, Wo, k*k)."""
    out, window = result[0], args[1]
    return out.size * window * window * out.dtype.itemsize


# Span name -> function of (args, kwargs, result) giving the span's work.
WORK = {"tensor_core.conv2d": _conv2d_work,
        "tensor_core.maxpool2d": _maxpool2d_work,
        "directional_features.stack_batch":
            lambda args, kwargs, result: (args[1], len(result)),
        "train_eval.ensemble_predict":
            lambda args, kwargs, result: len(args[0]),
        "pipeline_data.load_gnt":
            lambda args, kwargs, result: len(result.samples)}


class Tracer:
    """Installs span-recording wrappers; `install` and `uninstall` pair up."""

    def __init__(self, modules, tape_class):
        self.modules = modules          # layer name -> module object
        self.tape_class = tape_class
        self.spans = []
        self._stack = []
        self._run = 0
        self._saved = []                # (owner, attribute, original value)

    def _open(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self._run, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if work is not None:
                record[5] = work(args, kwargs, result)
            return result
        return traced

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, run):
        """Wrap every public function wherever a module looks it up."""
        self._run = run
        wrapped = {}
        for layer, module in self.modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(module, attr, entry[1])
        self._wrap_tape()

    def _wrap_tape(self):
        tracer = self
        record_op = self.tape_class.record
        replay = self.tape_class.backward

        def record(tape, name, inputs, output, backward):
            span = f"tensor_core.{name}.bwd"
            work = None
            if name == "conv2d":
                x, w = inputs[0].value, inputs[1].value
                n, f, ho, wo = output.value.shape
                flops, cols = _conv_work(n, x.shape[1], ho, wo, f,
                                         w.shape[2], w.shape[3],
                                         x.dtype.itemsize)
                work = (2 * flops, cols)    # dW and dX GEMMs; cols rebuilt

            def timed(g):
                rec = tracer._open(span)
                try:
                    return backward(g)
                finally:
                    tracer._close(rec)
                    rec[5] = work
            return record_op(tape, name, inputs, output, timed)

        @functools.wraps(replay)
        def backward(tape, *args, **kwargs):
            rec = tracer._open("tensor_core.tape_backward")
            try:
                return replay(tape, *args, **kwargs)
            finally:
                tracer._close(rec)

        self._set(self.tape_class, "record", record)
        self._set(self.tape_class, "backward", backward)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one JSON list per line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")


def layer_metrics(spans, run, wall_s):
    """Per-layer metrics of one traced run whose command took `wall_s`."""
    charged = {}
    child_s = defaultdict(float)
    for i, (name, start, end, parent, span_run, _) in enumerate(spans):
        if span_run != run:
            continue
        layer = name.split(".", 1)[0]
        charged[i] = FEATURES if parent >= 0 and charged[parent] == FEATURES \
            else layer
        if parent >= 0:
            child_s[parent] += end - start

    incl = defaultdict(float)           # (name, charged layer) -> seconds
    calls = defaultdict(int)
    self_s = defaultdict(float)         # name -> seconds
    layer_self = dict.fromkeys(LAYERS, 0.0)
    work = defaultdict(list)            # (name, charged layer) -> work items
    for i, layer in charged.items():
        name, start, end, _, _, item = spans[i]
        key = (name, layer)
        incl[key] += end - start
        calls[key] += 1
        own = end - start - child_s[i]
        self_s[name] += own
        layer_self[layer] += own
        if item is not None:
            work[key].append(item)

    def ms(name, layer="tensor_core"):
        return 1e3 * incl[(name, layer)]

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    m = {}
    for op, kernel in OPS.items():
        m[f"tensor_core.{op}.fwd_ms"] = ms(f"tensor_core.{kernel}")
        m[f"tensor_core.{op}.bwd_ms"] = ms(f"tensor_core.{op}.bwd")
    conv_fwd = work[("tensor_core.conv2d", "tensor_core")]
    conv_bwd = work[("tensor_core.conv2d.bwd", "tensor_core")]
    fwd_flops = sum(flops for flops, _ in conv_fwd)
    bwd_flops = sum(flops for flops, _ in conv_bwd)
    m["tensor_core.conv2d.calls"] = calls[("tensor_core.conv2d", "tensor_core")]
    m["tensor_core.conv2d.fwd_gflop"] = fwd_flops / 1e9
    m["tensor_core.conv2d.fwd_gflops_rate"] = per(
        fwd_flops / 1e9, incl[("tensor_core.conv2d", "tensor_core")])
    m["tensor_core.conv2d.bwd_gflops_rate"] = per(
        bwd_flops / 1e9, incl[("tensor_core.conv2d.bwd", "tensor_core")])
    m["tensor_core.conv2d.im2col_mib"] = sum(
        cols for _, cols in conv_fwd + conv_bwd) / MIB
    m["tensor_core.maxpool2d.window_mib"] = sum(
        work[("tensor_core.maxpool2d", "tensor_core")]) / MIB
    m["tensor_core.sgd_step.ms"] = ms("tensor_core.sgd_step")
    m["tensor_core.tape_backward.self_ms"] = 1e3 * self_s["tensor_core.tape_backward"]

    m["network_builder.forward_net.self_ms"] = 1e3 * self_s["network_builder.forward_net"]
    m["network_builder.forward_net.calls"] = calls[
        ("network_builder.forward_net", "network_builder")]
    m["network_builder.loss_and_grads.self_ms"] = 1e3 * self_s[
        "network_builder.loss_and_grads"]

    for extractor in EXTRACTORS:
        key = (f"{FEATURES}.{extractor}", FEATURES)
        m[f"{FEATURES}.{extractor}.ms_per_image"] = per(1e3 * incl[key], calls[key])
    stacked_s = defaultdict(float)
    stacked_images = defaultdict(int)
    for i, layer in charged.items():
        name, start, end, _, _, item = spans[i]
        if name == f"{FEATURES}.stack_batch":
            mode = STACK_MODES.get(item[0], "original")
            stacked_s[mode] += end - start
            stacked_images[mode] += item[1]
    for mode in ("gabor", "gradient", "hog"):
        m[f"{FEATURES}.stack_batch.{mode}.ms_per_image"] = per(
            1e3 * stacked_s[mode], stacked_images[mode])
    m[f"{FEATURES}.conv2d_calls_per_image"] = per(
        calls[("tensor_core.conv2d", FEATURES)], sum(stacked_images.values()))

    loaded = sum(work[("pipeline_data.load_gnt", "pipeline_data")])
    m["pipeline_data.load_gnt.ms_per_image"] = per(
        ms("pipeline_data.load_gnt", "pipeline_data"), loaded)
    key = ("pipeline_data.preprocess", "pipeline_data")
    m["pipeline_data.preprocess.ms_per_image"] = per(1e3 * incl[key], calls[key])
    m["train_eval.load_model.ms"] = ms("train_eval.load_model", "train_eval")
    m["train_eval.ensemble_predict.member_passes"] = sum(
        work[("train_eval.ensemble_predict", "train_eval")])
    m["train_eval.train.self_ms"] = 1e3 * self_s["train_eval.train"]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * layer_self[layer]
    m["trace.wall_ms"] = 1e3 * wall_s
    m["trace.coverage"] = sum(layer_self.values()) / wall_s
    return m
