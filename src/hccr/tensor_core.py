"""Dense tensor kernels and reverse-mode differentiation.

Everything operates on plain numpy arrays. Working precision is float32;
the same kernels run unchanged on float64 arrays, which is how gradient
checking gets its extra headroom. Layout for image tensors is NCHW,
row-major.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

FLOAT = np.float32

DTNS_MAGIC = b"DTNS"


class ShapeError(ValueError):
    """Operands whose shapes cannot be combined."""


def conv_output_extent(size, kernel, stride, pad):
    """Output extent of a sliding window: floor((size + 2*pad - kernel)/stride) + 1."""
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"padding must be >= 0, got {pad}")
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ShapeError(
            f"window {kernel} (stride {stride}, pad {pad}) does not fit input extent {size}"
        )
    return out


def _windows(x, kh, kw, stride, pad):
    """Strided view of the sliding windows of a zero-padded NCHW tensor,
    shape (N, C, Ho, Wo, kh, kw)."""
    n, c, h, w = x.shape
    ho = conv_output_extent(h, kh, stride, pad)
    wo = conv_output_extent(w, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    view = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return view[:, :, ::stride, ::stride][:, :, :ho, :wo]


def conv2d(x, w, b, stride=1, pad=0):
    """Cross-correlation of x[N,C,H,W] with w[F,C,Kh,Kw] plus bias[F].

    Padding is symmetric zero-fill and every output map reads every input
    map. No kernel flip; accumulation runs channel-major then kernel rows
    then columns, so results are reproducible bit for bit.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and weights, got {x.shape} and {w.shape}")
    n, c, h, wd = x.shape
    f, cw, kh, kw = w.shape
    if c != cw:
        raise ShapeError(f"input has {c} channels but weights expect {cw}")
    if b.shape != (f,):
        raise ShapeError(f"bias shape {b.shape} does not match {f} filters")
    view = _windows(x, kh, kw, stride, pad)
    ho, wo = view.shape[2], view.shape[3]
    # one GEMM: (N*Ho*Wo, C*Kh*Kw) @ (C*Kh*Kw, F), on an unfold freed right after
    out = (view.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
           @ w.reshape(f, c * kh * kw).T)
    out += b
    return out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2).copy()


def _conv2d_backward(g, x, w, stride, pad, need_dx=True):
    """Gradients of conv2d w.r.t. (input, weights, bias) given upstream
    g[N,F,Ho,Wo]; the input's is None, and costs nothing, unless need_dx."""
    n, c, h, wd = x.shape
    f, _, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    view = _windows(x, kh, kw, stride, pad)
    gmat = g.transpose(0, 2, 3, 1).reshape(n * ho * wo, f)
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    dw = (gmat.T @ cols).reshape(f, c, kh, kw)
    db = gmat.sum(axis=0)
    if not need_dx:
        return None, dw, db
    dcols = (gmat @ w.reshape(f, c * kh * kw)).reshape(n, ho, wo, c, kh, kw)
    dxp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * ho:stride, j:j + stride * wo:stride] += \
                dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    dx = dxp[:, :, pad:pad + h, pad:pad + wd] if pad else dxp
    return dx, dw, db


def _pool_slices(window, stride, ho, wo):
    """Row-major slices of an H,W grid; slice (i, j) is cell (i, j) of every window."""
    return [(slice(i, i + stride * (ho - 1) + 1, stride),
             slice(j, j + stride * (wo - 1) + 1, stride))
            for i in range(window) for j in range(window)]


def maxpool2d(x, window, stride, pad=0):
    """Max over each window: a running maximum over the window**2 slices of
    a -inf-padded channel-last copy [H, W, N, C], whose slices are long
    contiguous runs. Returns (output, saved for maxpool2d_backward)."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects a 4-D tensor, got {x.shape}")
    if window < 1:
        raise ShapeError(f"window must be >= 1, got {window}")
    n, c, h, w = x.shape
    ho = conv_output_extent(h, window, stride, pad)
    wo = conv_output_extent(w, window, stride, pad)
    xl = np.full((h + 2 * pad, w + 2 * pad, n, c), -np.inf, dtype=x.dtype)
    xl[pad:pad + h, pad:pad + w] = x.transpose(2, 3, 0, 1)
    first, *rest = _pool_slices(window, stride, ho, wo)
    out = xl[first].copy()
    for s in rest:
        np.maximum(out, xl[s], out=out)
    y = np.ascontiguousarray(out.transpose(2, 3, 0, 1))
    return y, (xl, out, window, stride, pad)


def maxpool2d_backward(g, saved):
    """Give each upstream element to the first row-major cell of its window
    that holds the max. A cell shared by overlapping windows sums them in
    output row-major order, the reverse of slice order. A non-finite
    upstream element also puts NaN in the other cells of its window."""
    xl, out, window, stride, pad = saved
    slices = _pool_slices(window, stride, *out.shape[:2])
    free, wins = np.ones(out.shape, dtype=bool), []     # free: no winner yet
    for s in slices:
        wins.append((xl[s] == out) & free)
        free ^= wins[-1]
    gl = np.ascontiguousarray(g.transpose(2, 3, 0, 1))
    dl = np.zeros(xl.shape, dtype=g.dtype)
    for s, win in zip(reversed(slices), reversed(wins)):
        dl[s] += gl * win
    hp, wp = xl.shape[:2]
    return np.ascontiguousarray(dl[pad:hp - pad, pad:wp - pad].transpose(2, 3, 0, 1))


def relu(x):
    return np.maximum(x, 0)


def _relu_backward(g, x):
    # subgradient at exactly 0 is 0
    return g * (x > 0)


def concat_channels(inputs):
    """Stack NCHW tensors along the channel axis, in argument order."""
    if not inputs:
        raise ShapeError("concat_channels needs at least one input")
    base = inputs[0].shape
    for i, t in enumerate(inputs):
        if t.ndim != 4 or t.shape[0] != base[0] or t.shape[2:] != base[2:]:
            raise ShapeError(
                "concat_channels inputs disagree on N/H/W: "
                + ", ".join(str(t.shape) for t in inputs)
            )
    return np.concatenate(inputs, axis=1)


def fully_connected(x, w, b):
    """x[N,D] @ w[T,D]^T + b[T]."""
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"fully_connected expects 2-D operands, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"input width {x.shape[1]} does not match weight width {w.shape[1]}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {b.shape} does not match {w.shape[0]} outputs")
    return x @ w.T + b


def softmax(logits):
    """Row-wise softmax with max-subtraction for stability."""
    if logits.ndim != 2:
        raise ShapeError(f"softmax expects [N,T] logits, got {logits.shape}")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs, labels):
    """Mean negative log probability of the true class."""
    labels = np.asarray(labels)
    n, t = probs.shape
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= t:
        raise ValueError(f"labels must lie in [0, {t}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    picked = probs[np.arange(n), labels]
    return float(-np.mean(np.log(np.maximum(picked, np.finfo(np.float64).tiny))))


def sgd_step(params, grads, lr, momentum=0.0, velocity=None):
    """In-place momentum SGD: v <- mu*v - lr*g; p <- p + v.

    `params`, `grads`, `velocity` are dicts keyed by parameter name;
    velocity entries are created lazily. With momentum 0 this is plain SGD.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if velocity is None:
        velocity = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter "
                             f"{name} shape {p.shape}")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(p)
            velocity[name] = v
        v *= p.dtype.type(momentum)
        v -= p.dtype.type(lr) * g
        p += v
    return params


# ---------------------------------------------------------------------------
# reverse-mode tape

class Node:
    """A value passed between the *_taped ops; Tape.backward fills `grad`."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = value
        self.grad = None


class Tape:
    """Ordered record of forward operations, replayed in reverse for gradients.

    Single use: after backward() the tape refuses a second replay, because
    the saved auxiliaries belong to exactly one forward pass.
    """

    def __init__(self):
        self._records = []      # (op name, inputs, output node, backward fn)
        self._consumed = False
        self.params = {}        # name -> Node, registered by the network runner
        self.inputs = ()        # leaves whose gradient nobody reads; ops may skip it
        self.output = None      # terminal node of the forward pass

    def record(self, name, inputs, output, backward):
        self._records.append((name, inputs, output, backward))
        self.output = output
        return output

    def backward(self, seed=1.0):
        """Seed the terminal node and propagate gradients in reverse order."""
        if self._consumed:
            raise RuntimeError("tape already replayed; run a new forward pass first")
        if not self._records:
            raise RuntimeError("tape is empty; nothing was recorded")
        self._consumed = True
        out = self.output
        seed = np.asarray(seed, dtype=out.value.dtype)
        if seed.shape not in ((), out.value.shape):
            raise ShapeError(f"seed gradient shape {seed.shape} does not match "
                             f"output shape {out.value.shape}")
        out.grad = np.broadcast_to(seed, out.value.shape).astype(out.value.dtype)
        for name, inputs, output, backward in reversed(self._records):
            g = output.grad
            if g is None:
                continue
            for node, contrib in backward(g):
                if node.grad is None:
                    node.grad = contrib.copy()
                else:
                    node.grad += contrib

    def param_grads(self):
        """Gradient per registered parameter; zeros for parameters off the loss path."""
        out = {}
        for name, node in self.params.items():
            if node.grad is None:
                out[name] = np.zeros_like(node.value)
            else:
                out[name] = node.grad
        return out


def _record(tape, name, inputs, output, backward):
    """Every *_taped op records through here; with tape=None it only computes."""
    return output if tape is None else tape.record(name, inputs, output, backward)


def conv2d_taped(tape, x, w, b, stride=1, pad=0):
    out = Node(conv2d(x.value, w.value, b.value, stride, pad))
    need_dx = tape is not None and x not in tape.inputs  # no tape in the closure

    def backward(g):
        dx, dw, db = _conv2d_backward(g, x.value, w.value, stride, pad, need_dx)
        grads = [(w, dw), (b, db)]
        return grads if dx is None else [(x, dx)] + grads

    return _record(tape, "conv2d", (x, w, b), out, backward)


def maxpool2d_taped(tape, x, window, stride, pad=0):
    y, saved = maxpool2d(x.value, window, stride, pad)
    out = Node(y)

    def backward(g):
        return [(x, maxpool2d_backward(g, saved))]

    return _record(tape, "maxpool2d", (x,), out, backward)


def relu_taped(tape, x):
    out = Node(relu(x.value))

    def backward(g):
        return [(x, _relu_backward(g, x.value))]

    return _record(tape, "relu", (x,), out, backward)


def dropout_taped(tape, x, rate, rng):
    """Train-mode inverted dropout; the identity with no tape or a zero rate.

    Zeroes each element with probability `rate` and scales survivors by
    1/(1-rate) so the expectation is preserved.
    """
    if tape is None or rate == 0:
        return x
    if not 0 < rate < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    dtype = x.value.dtype
    mask = (rng.random(x.value.shape) >= rate).astype(dtype) / dtype.type(1 - rate)
    out = Node(x.value * mask)

    def backward(g):
        return [(x, g * mask)]

    return tape.record("dropout", (x,), out, backward)


def concat_channels_taped(tape, xs):
    out = Node(concat_channels([x.value for x in xs]))
    bounds = np.cumsum([0] + [x.value.shape[1] for x in xs])

    def backward(g):
        return [(x, g[:, bounds[i]:bounds[i + 1]]) for i, x in enumerate(xs)]

    return _record(tape, "concat", tuple(xs), out, backward)


def fully_connected_taped(tape, x, w, b):
    """fully_connected over x flattened to [N, D]; dx keeps x's shape."""
    shape = x.value.shape
    flat = x.value.reshape(shape[0], int(np.prod(shape[1:])))
    out = Node(fully_connected(flat, w.value, b.value))

    def backward(g):
        return [(x, (g @ w.value).reshape(shape)), (w, g.T @ flat), (b, g.sum(axis=0))]

    return _record(tape, "fully_connected", (x, w, b), out, backward)


def mean_pool_taped(tape, x):
    """Global average pooling: NCHW -> NC."""
    n, c, h, w = x.value.shape
    out = Node(x.value.mean(axis=(2, 3)))

    def backward(g):
        dx = np.broadcast_to(g[:, :, None, None] / g.dtype.type(h * w), x.value.shape)
        return [(x, np.ascontiguousarray(dx))]

    return _record(tape, "mean_pool", (x,), out, backward)


def softmax_cross_entropy_taped(tape, logits, labels):
    """Mean cross-entropy of softmax(logits) against integer class labels.

    Returns (scalar loss node, probabilities). The backward pass gives the
    logits the exact gradient (p - onehot)/N.
    """
    labels = np.asarray(labels)
    p = softmax(logits.value)
    out = Node(np.asarray(cross_entropy(p, labels), dtype=p.dtype))
    n = p.shape[0]

    def backward(g):
        d = p.copy()
        d[np.arange(n), labels] -= 1
        d *= g / p.dtype.type(n)
        return [(logits, d)]

    return _record(tape, "softmax_cross_entropy", (logits,), out, backward), p


# ---------------------------------------------------------------------------
# gradient checking

@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    checked: int
    tolerance: float

    @property
    def passed(self):
        return self.max_rel_error < self.tolerance


def grad_check(loss_fn, grads_fn, params, epsilon=1e-5, tolerance=1e-4,
               min_checks=100, rng=None):
    """Compare analytic gradients against central finite differences.

    loss_fn(params) -> float; grads_fn(params) -> dict of analytic gradients.
    Checks a random subset of at least `min_checks` parameter coordinates
    (all of them when the model is smaller than that). Run this on float64
    parameters; float32 has too little headroom for epsilon = 1e-5.
    """
    rng = rng or np.random.default_rng(0)
    analytic = grads_fn(params)
    coords = []
    for name in sorted(params):
        size = params[name].size
        total = sum(params[k].size for k in params)
        want = max(1, round(min_checks * size / total))
        idx = rng.choice(size, size=min(size, want), replace=False)
        coords.extend((name, int(i)) for i in idx)
    worst = 0.0
    for name, i in coords:
        flat = params[name].reshape(-1)
        keep = flat[i]
        flat[i] = keep + epsilon
        up = loss_fn(params)
        flat[i] = keep - epsilon
        down = loss_fn(params)
        flat[i] = keep
        numeric = (up - down) / (2 * epsilon)
        a = float(analytic[name].reshape(-1)[i])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return GradCheckReport(worst, len(coords), tolerance)


# ---------------------------------------------------------------------------
# raw tensor dumps

def write_dtns(path, array):
    """Dump an array: magic "DTNS", u8 rank, u32 LE extents, f32 LE values."""
    a = np.ascontiguousarray(array, dtype="<f4")     # numpy caps the rank at 64
    with open(path, "wb") as f:
        f.write(DTNS_MAGIC)
        f.write(struct.pack("<B", a.ndim))
        f.write(struct.pack(f"<{a.ndim}I", *a.shape))
        f.write(a.tobytes())


def read_dtns(path):
    """Load a write_dtns dump; a malformed file raises ValueError."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != DTNS_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}, expected {DTNS_MAGIC!r}")
    if len(data) < 5 or len(data) < 5 + 4 * data[4]:
        raise ValueError(f"{path}: header of {len(data)} bytes is truncated")
    shape = struct.unpack_from(f"<{data[4]}I", data, 5)
    offset = 5 + 4 * len(shape)
    if len(data) - offset != 4 * math.prod(shape):
        raise ValueError(f"{path}: extents {shape} need {4 * math.prod(shape)} "
                         f"bytes of values, found {len(data) - offset}")
    return np.frombuffer(data, "<f4", offset=offset).reshape(shape).astype(FLOAT)
