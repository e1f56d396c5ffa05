"""Dense tensor kernels and reverse-mode differentiation.

Everything operates on plain numpy arrays. Working precision is float32;
the same kernels run unchanged on float64 arrays, which is how gradient
checking gets its extra headroom. Every tensor in the network is
features-first and batch-last: images [C, H, W, N] row-major, flat
features [D, N], logits [T, N]. That is the layout of im2col-lowered
convolution: a conv is one GEMM whose product is already the next layer's
input, and a 1x1 stride-1 conv needs no unfold at all. A taped conv whose
unfold fits _COLS_BYTES runs as one GEMM and keeps its unfold for the
backward's dW until the tape replays it; every other conv runs one GEMM per
cache-sized block of output rows, or of one row's columns, equal to one GEMM
within rounding (see _conv). Windows pay for no np.pad: the conv unfolds a
padded copy (np.zeros plus one slice assignment), max pooling reads its
input in place, and both backward passes add each window cell's gradient
into its in-range slice of the unpadded input (_window_cells). NCHW exists
only at the network input and in the public conv2d and maxpool2d, which
transpose around the same kernels and serve only the acceptance oracles.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

FLOAT = np.float32

DTNS_MAGIC = b"DTNS"
_COLS_BYTES = 8 << 20       # most bytes of one im2col block (see _conv)
# most unfold bytes per filter of a block no tape keeps: the GEMM does 2F flops per
# unfolded element, so a small-F block must stay in L2. On a 2-vCPU Xeon (2 MiB L2
# per core) the F = 8 stem of batch-128 9-plane googlenet-small took 14 ms at
# F x 64 KiB against 22 ms at 8 MiB; googlenet-full's convs timed equal
_FILTER_COLS_BYTES = 64 << 10


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


def _padded(x, pad):
    """x[C, H, W, N] with `pad` zero cells around H and W (x itself if none):
    the bytes of np.pad, from np.zeros and one slice assignment."""
    if not pad:
        return x
    c, h, w, n = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x
    return xp


def _in_range(i, stride, pad, extent, size):
    """(outputs, x's cells) along an axis where window cell i lies in x, not padding."""
    lo = max(0, -((i - pad) // stride))                 # ceil((pad - i) / stride)
    hi = max(lo, min(size, (extent - 1 + pad - i) // stride + 1))
    first = stride * lo + i - pad                       # x's cell for output lo
    return slice(lo, hi), slice(first, first + stride * (hi - lo), stride)


def _window_cells(kh, kw, stride, pad, x_shape, out_shape):
    """(output slice, x slice) of [C, H, W, N] grids for each window cell in
    row-major order: the outputs whose cell (i, j) lies in x, not padding."""
    ys, xs = ([_in_range(i, stride, pad, x_shape[a], out_shape[a]) for i in range(k)]
              for a, k in ((1, kh), (2, kw)))
    return [((slice(None), oy, ox), (slice(None), iy, ix)) for oy, iy in ys for ox, ix in xs]


def _unfold(xp, kh, kw, stride, rows, columns, buf=None):
    """cols[C*kh*kw, R*W*N] of output rows r0:r1 and columns w0:w1 of a padded
    xp[C, H, W, N]: one strided view of every window, copied once, into `buf`
    if given; a 1x1 stride-1 conv reads xp."""
    (r0, r1), (w0, w1) = rows, columns
    c, n = xp.shape[0], xp.shape[3]
    if kh * kw == stride == 1:
        return xp[:, r0:r1, w0:w1].reshape(c, -1)
    sc, sh, sw, sn = xp.strides
    shape = (c, kh, kw, r1 - r0, w1 - w0, n)
    cols = np.empty(shape, xp.dtype) if buf is None else buf[:math.prod(shape)].reshape(shape)
    np.copyto(cols, np.lib.stride_tricks.as_strided(
        xp[:, stride * r0:, stride * w0:], shape, (sc, sh, sw, stride * sh, stride * sw, sn)))
    return cols.reshape(c * kh * kw, -1)


def _ranges(size, step):
    """(start, stop) of consecutive `step`-long ranges over 0:size; a shorter
    tail joins the last range."""
    edges = [*range(0, max(size - step, 0) + 1, step), size]
    return list(zip(edges, edges[1:]))


def _conv(x, w, b, stride=1, pad=0, keep=False):
    """conv2d of batch-last x[C, H, W, N]: the GEMM w[F, K] @ cols, K = C*kh*kw,
    is already the output [F, Ho, Wo, N]. With `keep` (a tape's backward will
    read the unfold) an unfold that fits _COLS_BYTES runs as one GEMM and is
    returned. Every other conv runs one GEMM per block of at most
    min(_COLS_BYTES, F * _FILTER_COLS_BYTES) of unfold, unfolded into one reused
    buffer and written into its view of the output: whole output rows, or
    column ranges of one row when a row is larger. Blocks end on whole
    8-column tiles, and a shorter tail joins the block before it. OpenBLAS
    picks its kernel by matrix size, so a block may round unlike one GEMM:
    within (K + 2) eps |w| |x|, and bit for bit on the benchmark's float32
    shapes. Returns (output, the kept unfold or None)."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input and weights, got {x.shape} and {w.shape}")
    c, h, wd, n = x.shape
    f, cw, kh, kw = w.shape
    if c != cw:
        raise ShapeError(f"input has {c} channels but weights expect {cw}")
    if b.shape != (f,):
        raise ShapeError(f"bias shape {b.shape} does not match {f} filters")
    ho = conv_output_extent(h, kh, stride, pad)
    wo = conv_output_extent(wd, kw, stride, pad)
    wm, xp = w.reshape(f, -1), _padded(x, pad)
    k = wm.shape[1]
    budget = _COLS_BYTES if keep and k * ho * wo * n * x.itemsize <= _COLS_BYTES else min(
        _COLS_BYTES, f * _FILTER_COLS_BYTES)
    span = budget // (k * x.itemsize)                   # GEMM columns a block holds
    tile = 8 // math.gcd(wo * n, 8)         # output rows per whole 8-column tile
    rows = ho if kh * kw == stride == 1 or ho * wo * n <= span else span // (wo * n) // tile * tile
    tile = 8 // math.gcd(n, 8)              # output columns per whole 8-column tile
    # with no whole row in the budget (rows == 0) a block is a column range of one row
    blocks = [(r, cs) for r in _ranges(ho, rows or 1)
              for cs in _ranges(wo, wo if rows else max(tile, span // n // tile * tile))]
    (r0, r1), (w0, w1) = blocks[-1]         # the largest block: a tail joins it
    buf = np.empty(k * (r1 - r0) * (w1 - w0) * n, x.dtype) if len(blocks) > 1 else None
    out = np.empty((f, ho, wo, n), np.result_type(wm, x))
    for (r0, r1), (w0, w1) in blocks:
        cols = _unfold(xp, kh, kw, stride, (r0, r1), (w0, w1), buf)
        np.matmul(wm, cols, out=out[:, r0:r1, w0:w1].reshape(f, -1))
    out += b[:, None, None, None]
    return out, cols if keep and buf is None else None


def _conv_backward(g, x, w, stride, pad, need_dx=True, cols=None):
    """Gradients of _conv w.r.t. (input, weights, bias) given upstream
    g[F, Ho, Wo, N]; dW reads the forward's `cols`, or unfolds x again if
    there are none. The input's is None, and costs nothing, unless need_dx:
    each window cell's slice of the unfold's gradient, added in row-major
    order into its in-range slice of dx (a 1x1 stride-1 conv's is as is)."""
    c, n = x.shape[0], x.shape[3]
    f, _, kh, kw = w.shape
    ho, wo = g.shape[1], g.shape[2]
    gm = g.reshape(f, -1)
    if cols is None:
        cols = _unfold(_padded(x, pad), kh, kw, stride, (0, ho), (0, wo))
    dw = (gm @ cols.T).reshape(w.shape)
    db = gm.sum(axis=1)
    if not need_dx:
        return None, dw, db
    dcols = (w.reshape(f, -1).T @ gm).reshape(c, kh * kw, ho, wo, n)
    if kh * kw == stride == 1 and not pad:
        return dcols.reshape(x.shape), dw, db
    dx = np.zeros(x.shape, dtype=x.dtype)
    for k, (o, i) in enumerate(_window_cells(kh, kw, stride, pad, x.shape, g.shape)):
        dx[i] += dcols[:, k][o]
    return dx, dw, db


def _to_last(x):
    """NCHW -> batch-last [C, H, W, N]."""
    if x.ndim != 4:
        raise ShapeError(f"expected a 4-D NCHW tensor, got {x.shape}")
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0))


def conv2d(x, w, b, stride=1, pad=0):
    """Cross-correlation of x[N,C,H,W] with w[F,C,Kh,Kw] plus bias[F].

    Padding is symmetric zero-fill and every output map reads every input
    map. No kernel flip; the GEMM's inner dimension runs channel-major then
    kernel rows then columns, so results are reproducible bit for bit.
    """
    return _conv(_to_last(x), w, b, stride, pad)[0].transpose(3, 0, 1, 2).copy()


def _running_max(x, axis, window, stride, pad, size):
    """Max along `axis` over `window` cells at `stride` of x as if padded by
    `pad` -inf cells: each cell's in-range strided slice of x is read in place
    into its output range of a -inf-filled result of `size` cells."""
    out = np.full(x.shape[:axis] + (size,) + x.shape[axis + 1:], -np.inf, x.dtype)
    at = (slice(None),) * axis
    for i in range(window):
        dst, src = _in_range(i, stride, pad, x.shape[axis], size)
        np.maximum(out[at + (dst,)], x[at + (src,)], out=out[at + (dst,)])
    return out


def _maxpool(x, window, stride, pad=0):
    """Max over each window of batch-last x[C, H, W, N], separably and with
    no padded copy: a running max along H, then along W, each at the pool's
    stride. A max is exact, so taking it in this order changes no value.
    Returns (output, saved for _maxpool_backward)."""
    if window < 1:
        raise ShapeError(f"window must be >= 1, got {window}")
    c, h, w, n = x.shape
    ho = conv_output_extent(h, window, stride, pad)
    wo = conv_output_extent(w, window, stride, pad)
    rows = _running_max(x, 1, window, stride, pad, ho)
    out = _running_max(rows, 2, window, stride, pad, wo)
    return out, (x, out, window, stride, pad)


def _maxpool_backward(g, saved):
    """Give each upstream element to the first row-major cell of its window
    that holds the max, comparing each cell's in-range slice of the unpadded
    input in place. A cell shared by overlapping windows sums them in output
    row-major order, the reverse of cell order. A non-finite upstream
    element also puts NaN in the other cells of its window."""
    x, out, window, stride, pad = saved
    cells = _window_cells(window, window, stride, pad, x.shape, out.shape)
    # a -inf window goes to its first cell, which may be padding (as -inf)
    free, wins = out != -np.inf, []                     # free: no winner yet
    free[cells[0][0]] = True
    for o, i in cells:
        wins.append((x[i] == out[o]) & free[o])
        free[o] ^= wins[-1]
    dx = np.zeros(x.shape, dtype=g.dtype)
    for (o, i), win in zip(reversed(cells), reversed(wins)):
        dx[i] += g[o] * win
    return dx


def maxpool2d(x, window, stride, pad=0):
    """Max pooling of x[N,C,H,W]. Returns (output, batch-last saved state)."""
    y, saved = _maxpool(_to_last(x), window, stride, pad)
    return y.transpose(3, 0, 1, 2).copy(), saved


def relu(x):
    return np.maximum(x, 0)


def _relu_backward(g, x):
    # subgradient at exactly 0 is 0
    return g * (x > 0)


def concat_channels(inputs):
    """Join batch-last [C, H, W, N] tensors along C, in argument order."""
    if not inputs:
        raise ShapeError("concat_channels needs at least one input")
    if len({t.shape[1:] for t in inputs}) > 1 or any(t.ndim != 4 for t in inputs):
        raise ShapeError("concat_channels inputs disagree on H/W/N: "
                         + ", ".join(str(t.shape) for t in inputs))
    return np.concatenate(inputs)


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


def sgd_step(params, grads, lr, momentum, velocity):
    """In-place momentum SGD: v <- mu*v - lr*g; p <- p + v.

    `params`, `grads`, `velocity` are dicts keyed by parameter name; the
    caller owns `velocity`, whose entries are created on first use. With
    momentum 0 this is plain SGD.
    """
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
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
        self._records = []      # (output node, backward fn)
        self._consumed = False
        self.inputs = ()        # leaves whose gradient nobody reads; ops may skip it

    def record(self, name, inputs, output, backward):
        # name and inputs go unused here; perfbench's tracer wraps record and reads them
        self._records.append((output, backward))
        return output

    def backward(self):
        """Seed the last recorded output with ones; propagate in reverse order,
        releasing each record, and the unfold or activation it saved, as it replays."""
        if self._consumed:
            raise RuntimeError("tape already replayed; run a new forward pass first")
        if not self._records:
            raise RuntimeError("tape is empty; nothing was recorded")
        self._consumed = True
        out = self._records[-1][0]
        out.grad = np.ones_like(out.value)
        while self._records:
            output, backward = self._records.pop()
            g = output.grad
            if g is None:
                continue
            for node, contrib in backward(g):
                if node.grad is None:   # copying was measured faster than adopting contrib
                    node.grad = contrib.copy()
                else:
                    node.grad += contrib


def _record(tape, name, inputs, value, backward):
    """Every *_taped op makes its output node here; with tape=None it only computes."""
    return Node(value) if tape is None else tape.record(name, inputs, Node(value), backward)


def conv2d_taped(tape, x, w, b, stride=1, pad=0):
    y, cols = _conv(x.value, w.value, b.value, stride, pad, tape is not None)
    need_dx = tape is not None and x not in tape.inputs  # no tape in the closure

    def backward(g):    # only a tape holds it, so with none cols dies on return
        dx, dw, db = _conv_backward(g, x.value, w.value, stride, pad, need_dx, cols)
        grads = [(w, dw), (b, db)]
        return grads if dx is None else [(x, dx)] + grads

    return _record(tape, "conv2d", (x, w, b), y, backward)


def maxpool2d_taped(tape, x, window, stride, pad=0):
    y, saved = _maxpool(x.value, window, stride, pad)

    def backward(g):
        return [(x, _maxpool_backward(g, saved))]

    return _record(tape, "maxpool2d", (x,), y, backward)


def relu_taped(tape, x):
    def backward(g):
        return [(x, _relu_backward(g, x.value))]

    return _record(tape, "relu", (x,), relu(x.value), backward)


def dropout_taped(tape, x, rate, rng):
    """Train-mode inverted dropout; the identity with no tape or a zero rate.

    Zeroes each element with probability `rate` and scales survivors by
    1/(1-rate) so the expectation is preserved. The mask is drawn in NCHW
    order, then moved to x's batch-last layout.
    """
    if tape is None or rate == 0:
        return x
    if not 0 < rate < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    dtype = x.value.dtype
    *features, n = x.value.shape
    mask = (rng.random((n, *features)) >= rate).astype(dtype) / dtype.type(1 - rate)
    mask = np.moveaxis(mask, 0, -1)

    def backward(g):
        return [(x, g * mask)]

    return _record(tape, "dropout", (x,), x.value * mask, backward)


def concat_channels_taped(tape, xs):
    """concat_channels of batch-last tensors; each gradient is a contiguous view."""
    y = concat_channels([x.value for x in xs])
    bounds = np.cumsum([0] + [x.value.shape[0] for x in xs])

    def backward(g):
        return [(x, g[bounds[i]:bounds[i + 1]]) for i, x in enumerate(xs)]

    return _record(tape, "concat", tuple(xs), y, backward)


def fully_connected_taped(tape, x, w, b):
    """fully_connected of batch-last x flattened to [D, N]; the output is
    [T, N] and dx keeps x's shape."""
    shape = x.value.shape
    # contiguous [N, D] rows: the GEMM's bits are those of NCHW input rows
    flat = np.ascontiguousarray(x.value.reshape(-1, shape[-1]).T)

    def backward(g):
        gn = np.ascontiguousarray(g.T)      # [N, T], as the forward's product
        return [(x, (gn @ w.value).T.reshape(shape)), (w, gn.T @ flat), (b, gn.sum(axis=0))]

    return _record(tape, "fully_connected", (x, w, b),
                   fully_connected(flat, w.value, b.value).T, backward)


def mean_pool_taped(tape, x):
    """Global average pooling [C, H, W, N] -> [C, N], summed in NCHW order."""
    h, w = x.value.shape[1:3]

    def backward(g):
        return [(x, np.broadcast_to(g[:, None, None] / g.dtype.type(h * w), x.value.shape))]

    return _record(tape, "mean_pool", (x,), np.ascontiguousarray(
        x.value.transpose(0, 3, 1, 2)).mean(axis=(2, 3)), backward)


def softmax_cross_entropy_taped(tape, logits, labels):
    """Mean cross-entropy of softmax(logits) against integer class labels.

    Takes logits [T, N]; returns (scalar loss node, probabilities [N, T]).
    The backward pass gives the logits the exact gradient (p - onehot)/N.
    """
    labels = np.asarray(labels)
    p = softmax(logits.value.T)
    loss = np.asarray(cross_entropy(p, labels), dtype=p.dtype)
    n = p.shape[0]

    def backward(g):
        d = p.copy()
        d[np.arange(n), labels] -= 1
        d *= g / p.dtype.type(n)
        return [(logits, d.T)]

    return _record(tape, "softmax_cross_entropy", (logits,), loss, backward), p


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
    total = sum(p.size for p in params.values())
    for name in sorted(params):
        size = params[name].size
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
