"""Network assembly: layer descriptors, reference topologies, parameters.

A NetworkSpec is an immutable ordered list of layer descriptors validated
at build time by shape inference. Parameters are one dict keyed by layer
path, in a fixed canonical order (also the serialization order):
init_weights makes a ParamStore, and any plain dict works in its place.
The reference networks are named in REFERENCE_NETS; a saved model stores
that name, not its layers.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor_core as tc
from .tensor_core import Node, ShapeError, Tape


# ---------------------------------------------------------------------------
# layer descriptors

def _window_shape(shape, kernel=1, stride=1, pad=0):
    """(C, Ho, Wo) of a sliding window over a C,H,W shape (the identity by default)."""
    if len(shape) != 3:
        raise ShapeError(f"needs a C,H,W input, got {shape}")
    c, h, w = shape
    return (c, tc.conv_output_extent(h, kernel, stride, pad),
            tc.conv_output_extent(w, kernel, stride, pad))


class _Layer:
    """One frozen dataclass per layer kind owns its shape rule, parameters,
    forward pass and depth."""
    depth = 0           # weighted layers it counts as
    pooling = False     # a standalone pooling layer

    def out_shape(self, shape):
        return shape

    def param_entries(self, name, shape):
        """(name, shape, fan_in) of each parameter, given the input shape."""
        return []


def _weight_and_bias(name, out, weight_shape):
    fan_in = int(np.prod(weight_shape))
    return [(f"{name}.w", (out, *weight_shape), fan_in), (f"{name}.b", (out,), None)]


@dataclass(frozen=True)
class Conv(_Layer):
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0
    depth = 1

    def out_shape(self, shape):
        return (self.out_channels,
                *_window_shape(shape, self.kernel, self.stride, self.pad)[1:])

    def param_entries(self, name, shape):
        return _weight_and_bias(name, self.out_channels,
                                (shape[0], self.kernel, self.kernel))

    def forward(self, tape, x, param, rng):
        return tc.conv2d_taped(tape, x, param("w"), param("b"), self.stride, self.pad)


@dataclass(frozen=True)
class MaxPool(_Layer):
    window: int
    stride: int
    pad: int = 0
    pooling = True

    def out_shape(self, shape):
        return _window_shape(shape, self.window, self.stride, self.pad)

    def forward(self, tape, x, param, rng):
        return tc.maxpool2d_taped(tape, x, self.window, self.stride, self.pad)


@dataclass(frozen=True)
class ReLU(_Layer):
    def forward(self, tape, x, param, rng):
        return tc.relu_taped(tape, x)


@dataclass(frozen=True)
class Dropout(_Layer):
    rate: float = 0.5

    def forward(self, tape, x, param, rng):
        return tc.dropout_taped(tape, x, self.rate, rng)


def _divided(widths, divisor):
    """Each width divided by `divisor`, rounded up, never below 1."""
    return tuple(max(1, math.ceil(v / divisor)) for v in widths)


@dataclass(frozen=True)
class InceptionSpec:
    """Channel widths of the four parallel branches.

    c1: 1x1 branch; r3 -> c3: 1x1 reduction then 3x3; r5 -> c5: 1x1
    reduction then 5x5; pp: 1x1 projection after 3x3 max pooling. Every
    branch keeps the spatial extent (stride 1, same-padding; the pooling
    branch uses window 3, stride 1, pad 1).
    """
    c1: int
    r3: int
    c3: int
    r5: int
    c5: int
    pp: int

    def __post_init__(self):
        for field in ("c1", "r3", "c3", "r5", "c5", "pp"):
            if getattr(self, field) < 1:
                raise ValueError(f"inception width {field} must be >= 1, "
                                 f"got {getattr(self, field)}")

    @property
    def out_channels(self):
        return self.c1 + self.c3 + self.c5 + self.pp

    def scaled(self, divisor):
        """Every width divided by `divisor` (see `_divided`)."""
        return InceptionSpec(*_divided(
            (self.c1, self.r3, self.c3, self.r5, self.c5, self.pp), divisor))


@dataclass(frozen=True)
class Inception(_Layer):
    spec: InceptionSpec
    depth = 2           # its longest branch: reduction plus convolution

    def out_shape(self, shape):
        return (self.spec.out_channels, *_window_shape(shape)[1:])

    def param_entries(self, name, shape):
        s, cin = self.spec, shape[0]
        entries = []
        for tag, cout, bcin, k in (("b1", s.c1, cin, 1), ("b3r", s.r3, cin, 1),
                                   ("b3", s.c3, s.r3, 3), ("b5r", s.r5, cin, 1),
                                   ("b5", s.c5, s.r5, 5), ("proj", s.pp, cin, 1)):
            entries += _weight_and_bias(f"{name}.{tag}", cout, (bcin, k, k))
        return entries

    def forward(self, tape, x, param, rng):
        # Ops are recorded b1, b3r, b3, b5r, b5, pool, proj: the backward pass
        # adds the branch gradients into x in reverse of that order.
        def conv_relu(tag, inp, pad=0):
            conv = tc.conv2d_taped(tape, inp, param(f"{tag}.w"), param(f"{tag}.b"), 1, pad)
            return tc.relu_taped(tape, conv)

        b1 = conv_relu("b1", x)
        b3 = conv_relu("b3", conv_relu("b3r", x), 1)
        b5 = conv_relu("b5", conv_relu("b5r", x), 2)
        pp = conv_relu("proj", tc.maxpool2d_taped(tape, x, 3, 1, 1))
        return tc.concat_channels_taped(tape, [b1, b3, b5, pp])


@dataclass(frozen=True)
class GlobalAvgPool(_Layer):
    pooling = True

    def out_shape(self, shape):
        return _window_shape(shape)[:1]

    def forward(self, tape, x, param, rng):
        return tc.mean_pool_taped(tape, x)


@dataclass(frozen=True)
class FullyConnected(_Layer):
    out_features: int
    depth = 1

    def out_shape(self, shape):
        return (self.out_features,)

    def param_entries(self, name, shape):
        return _weight_and_bias(name, self.out_features, (int(np.prod(shape)),))

    def forward(self, tape, x, param, rng):
        return tc.fully_connected_taped(tape, x, param("w"), param("b"))


@dataclass(frozen=True)
class Softmax(_Layer):
    """Terminal layer: forward_net applies it, loss_and_grads fuses it into the loss."""


@dataclass(frozen=True)
class NetworkSpec:
    input_shape: tuple          # (C, H, W)
    layers: tuple
    class_count: int


# ---------------------------------------------------------------------------
# shape inference and validation

def infer_shapes(spec):
    """Per-layer output shapes; raises ShapeError naming the failing layer."""
    shapes = []
    shape = tuple(spec.input_shape)
    for i, layer in enumerate(spec.layers):
        try:
            shape = layer.out_shape(shape)
        except (ShapeError, ValueError) as err:
            raise ShapeError(f"layer {i} ({type(layer).__name__.lower()}): {err}") from err
        shapes.append(shape)
    return shapes


def validate_spec(spec):
    if len(spec.input_shape) != 3 or any(e < 1 for e in spec.input_shape):
        raise ShapeError(f"input shape must be (C, H, W) with positive extents, "
                         f"got {spec.input_shape}")
    if spec.class_count < 1:
        raise ShapeError(f"class count must be >= 1, got {spec.class_count}")
    softmax_positions = [i for i, l in enumerate(spec.layers)
                         if isinstance(l, Softmax)]
    if softmax_positions != [len(spec.layers) - 1]:
        raise ShapeError("spec must end with exactly one terminal softmax")
    shapes = infer_shapes(spec)
    final = shapes[-1]
    if final != (spec.class_count,):
        raise ShapeError(f"terminal shape {final} does not match class count "
                         f"{spec.class_count}")
    return shapes


# ---------------------------------------------------------------------------
# parameters

def _layer_name(index, layer):
    return f"{index:02d}_{type(layer).__name__.lower()}"


def parameter_entries(spec):
    """Canonical (name, shape, fan_in) walk: spec order, branches b1/b3r/b3/b5r/b5/proj."""
    shapes = [tuple(spec.input_shape), *infer_shapes(spec)]     # each layer's input
    return [entry for i, layer in enumerate(spec.layers)
            for entry in layer.param_entries(_layer_name(i, layer), shapes[i])]


class ParamStore(dict):
    """Parameter tensors keyed by layer path; `tensors` is the store itself."""

    @property
    def tensors(self):
        return self

    def total_count(self):
        return sum(t.size for t in self.values())

    def astype(self, dtype):
        return ParamStore({k: v.astype(dtype) for k, v in self.items()})

    def copy(self):
        return ParamStore({k: v.copy() for k, v in self.items()})


INIT_DRAW = 1 << 16     # normals per draw: 512 KiB per float64 temporary


def init_weights(spec, seed):
    """He-normal weights (variance 2/fan_in), zero biases, deterministic per seed;
    drawn INIT_DRAW at a time into float32, the same stream and bits as one draw."""
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape, fan_in in parameter_entries(spec):
        tensor = tensors[name] = np.zeros(shape, dtype=tc.FLOAT)
        if not name.endswith(".b"):
            flat, std = tensor.reshape(-1), math.sqrt(2.0 / fan_in)
            for lo in range(0, flat.size, INIT_DRAW):
                part = flat[lo:lo + INIT_DRAW]
                part[...] = rng.standard_normal(part.size) * std
    return ParamStore(tensors)


def count_parameters(spec):
    return sum(int(np.prod(shape)) for _, shape, _ in parameter_entries(spec))


def count_layers(spec, convention="weighted"):
    """Depth under a counting convention.

    weighted: layers owning parameters; an inception module counts as 2
    (its longest branch: reduction plus convolution). weighted+pooling+io
    adds standalone pooling layers (max and global-average), the input
    layer and the softmax output; concat layers are never counted.
    """
    weighted = sum(layer.depth for layer in spec.layers)
    pooling = sum(layer.pooling for layer in spec.layers)
    if convention == "weighted":
        return weighted
    if convention == "weighted+pooling+io":
        return weighted + pooling + 2
    raise ValueError(f"unknown counting convention {convention!r}")


def count_inception_modules(spec):
    return sum(isinstance(l, Inception) for l in spec.layers)


# ---------------------------------------------------------------------------
# reference topologies

GOOGLENET_FULL_INCEPTIONS = (
    InceptionSpec(64, 96, 128, 16, 32, 32),
    InceptionSpec(128, 128, 192, 32, 96, 64),
    InceptionSpec(192, 96, 208, 16, 48, 64),
    InceptionSpec(160, 112, 224, 24, 64, 64),
)
GOOGLENET_FULL_STEM = (64, 64, 192)
GOOGLENET_FULL_TAIL = (272, 256)

ALEXNET_FULL_CONVS = (96, 256, 384, 384, 256)
ALEXNET_FULL_FC = (1024, 1024)

DROPOUT_RATE = 0.5      # stored in the spec; training may override it


def _scale(scale, class_count):
    """(width divisor, class count or the scale's default) of a reference scale."""
    scales = {"reference-full": (1, 3755), "reference-small": (8, 10)}
    if scale not in scales:
        raise ValueError(f"unknown scale {scale!r}")
    divisor, default_count = scales[scale]
    return divisor, default_count if class_count is None else class_count


def build_hccr_googlenet(scale="reference-full", *, class_count=None, in_channels=1):
    """Inception network: conv stem, 4 inception modules, 3 interleaved pools.

    reference-full takes 120x120 input and lands near 7.26M parameters at
    3755 classes; reference-small divides every width by 8 and takes 32x32
    input for desk-scale training.
    """
    divisor, class_count = _scale(scale, class_count)
    stem = _divided(GOOGLENET_FULL_STEM, divisor)
    tail = _divided(GOOGLENET_FULL_TAIL, divisor)
    incs = tuple(s.scaled(divisor) for s in GOOGLENET_FULL_INCEPTIONS)
    input_size = 120 if divisor == 1 else 32

    layers = (
        Conv(stem[0], 7, stride=2, pad=3), ReLU(), MaxPool(3, 2, 1),
        Conv(stem[1], 1), ReLU(), Conv(stem[2], 3, pad=1), ReLU(), MaxPool(3, 2, 1),
        Inception(incs[0]), Inception(incs[1]), MaxPool(3, 2, 1),
        Inception(incs[2]), Inception(incs[3]),
        Conv(tail[0], 3, stride=2, pad=1), ReLU(),
        Conv(tail[1], 3, stride=2, pad=1), ReLU(),
        Dropout(DROPOUT_RATE), FullyConnected(class_count), Softmax(),
    )
    spec = NetworkSpec((in_channels, input_size, input_size), layers, class_count)
    validate_spec(spec)
    return spec


def build_hccr_alexnet(scale="reference-full", *, class_count=None, in_channels=1):
    """Eight weighted layers: five convolutional, three fully connected.

    Max pooling follows conv groups 1, 2 and 5; dropout precedes the first
    two fully-connected layers. reference-full takes 114x114 input.
    """
    divisor, class_count = _scale(scale, class_count)
    convs = _divided(ALEXNET_FULL_CONVS, divisor)
    fcs = _divided(ALEXNET_FULL_FC, divisor)
    input_size = 114 if divisor == 1 else 32

    layers = (
        Conv(convs[0], 7, stride=2, pad=3), ReLU(), MaxPool(3, 2, 1),
        Conv(convs[1], 5, pad=2), ReLU(), MaxPool(3, 2, 1),
        Conv(convs[2], 3, pad=1), ReLU(),
        Conv(convs[3], 3, pad=1), ReLU(),
        Conv(convs[4], 3, pad=1), ReLU(), MaxPool(3, 2, 1),
        Dropout(DROPOUT_RATE), FullyConnected(fcs[0]), ReLU(),
        Dropout(DROPOUT_RATE), FullyConnected(fcs[1]), ReLU(),
        FullyConnected(class_count), Softmax(),
    )
    spec = NetworkSpec((in_channels, input_size, input_size), layers, class_count)
    validate_spec(spec)
    return spec


REFERENCE_NETS = ("googlenet-small", "googlenet-full", "alexnet-small", "alexnet-full")


def build_net(name, class_count, in_channels):
    """The reference network `name` (family-scale, see REFERENCE_NETS)."""
    if name not in REFERENCE_NETS:
        raise ValueError(f"unknown network {name!r} (expected one of "
                         f"{', '.join(REFERENCE_NETS)})")
    family, size = name.rsplit("-", 1)
    build = build_hccr_googlenet if family == "googlenet" else build_hccr_alexnet
    return build(f"reference-{size}", class_count=class_count, in_channels=in_channels)


def reference_net(spec):
    """The name in REFERENCE_NETS whose build equals `spec`; ValueError if none."""
    for name in REFERENCE_NETS:
        if build_net(name, spec.class_count, spec.input_shape[0]) == spec:
            return name
    raise ValueError("network is none of the reference networks "
                     f"({', '.join(REFERENCE_NETS)})")


def with_dropout_rate(spec, rate):
    """Copy of `spec` with every dropout layer set to `rate`."""
    layers = tuple(Dropout(rate) if isinstance(l, Dropout) else l for l in spec.layers)
    return replace(spec, layers=layers)


# ---------------------------------------------------------------------------
# forward execution

def _forward_logits(spec, params, x, tape=None, rng=None):
    """Run every layer before the terminal softmax, recording on `tape` if given.

    Returns (logits node [T, N], parameter nodes by name). The NCHW input is
    transposed once, and every tensor after it is batch-last: [C, H, W, N],
    or [D, N] once flat (see tensor_core). The tape gets the input batch as
    an input that needs no gradient.
    """
    x = np.asarray(x)
    if x.ndim != 4 or x.shape[1:] != tuple(spec.input_shape):
        raise ShapeError(f"input shape {x.shape} does not match network input "
                         f"(N, {', '.join(map(str, spec.input_shape))})")
    *body, head = spec.layers
    if not isinstance(head, Softmax):
        raise ShapeError("spec must end with a softmax")
    nodes = {k: Node(v) for k, v in params.items()}
    cur = Node(np.ascontiguousarray(x.transpose(1, 2, 3, 0)))
    if tape is not None:
        tape.inputs = (cur,)
    for i, layer in enumerate(body):
        name = _layer_name(i, layer)
        try:
            cur = layer.forward(tape, cur, lambda tag: nodes[f"{name}.{tag}"], rng)
        except (ShapeError, ValueError) as err:
            raise type(err)(f"layer {i} ({type(layer).__name__.lower()}): {err}") from None
    return cur, nodes


def forward_net(spec, params, x, mode="infer"):
    """Probabilities of a batch, dropout off and nothing recorded, as
    (probabilities, None). "infer" is the only mode; training runs loss_and_grads."""
    if mode != "infer":
        raise ValueError(f"unknown mode {mode!r}")
    return tc.softmax(_forward_logits(spec, params, x)[0].value.T), None


def loss_and_grads(spec, params, x, labels, rng=None):
    """One taped forward/backward pass: (loss, probabilities, gradient dict)."""
    tape = Tape()
    logits, nodes = _forward_logits(spec, params, x, tape, rng)
    loss, probs = tc.softmax_cross_entropy_taped(tape, logits, labels)
    tape.backward()
    return float(loss.value), probs, {k: n.grad for k, n in nodes.items()}


def grad_check_network(spec, params, x, labels, epsilon=1e-5, tolerance=1e-4,
                       min_checks=100, rng=None):
    """Finite-difference audit of the whole network in float64, dropout off."""
    spec64 = with_dropout_rate(spec, 0.0)
    p64 = {k: v.astype(np.float64) for k, v in params.items()}
    x64 = np.asarray(x, dtype=np.float64)

    def loss_fn(p):
        probs, _ = forward_net(spec64, p, x64, mode="infer")
        return tc.cross_entropy(probs, labels)

    def grads_fn(p):
        return loss_and_grads(spec64, p, x64, labels)[2]

    return tc.grad_check(loss_fn, grads_fn, p64, epsilon=epsilon,
                         tolerance=tolerance, min_checks=min_checks, rng=rng)
