import gc
import math
import struct
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hccr import network_builder as nb, tensor_core as tc

from naive_ref import (conv2d_backward_ref, conv2d_ref, conv_dx_scatter_ref,
                       maxpool2d_backward_ref, maxpool2d_ref, matmul_ref, unfold_ref)


def rnd(shape, rng, dtype=np.float32):
    return rng.standard_normal(shape).astype(dtype)


def last(a):
    """NCHW -> the network's batch-last [C, H, W, N]."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def first(a):
    """Batch-last [C, H, W, N] -> NCHW."""
    return a.transpose(3, 0, 1, 2)


# every kernel / stride / pad the batch-last kernels must handle, at C=1
# (the stem and the Gabor bank) and C=3
WINDOWS = [(k, s, p, c) for k in (1, 3, 5, 7) for s in (1, 2) for p in range(4)
           for c in (1, 3)]


# ---------------------------------------------------------------------------
# conv2d

def test_conv2d_identity_kernel():
    x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
    w = np.zeros((1, 1, 3, 3), dtype=np.float32)
    w[0, 0, 1, 1] = 1.0
    b = np.zeros(1, dtype=np.float32)
    out = tc.conv2d(x, w, b, stride=1, pad=1)
    np.testing.assert_allclose(out, x)


def test_conv2d_all_ones_sums_input():
    x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
    w = np.ones((1, 1, 3, 3), dtype=np.float32)
    b = np.zeros(1, dtype=np.float32)
    out = tc.conv2d(x, w, b)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 45.0


def test_conv2d_matches_naive_reference():
    rng = np.random.default_rng(7)
    x = rnd((2, 3, 8, 8), rng)
    w = rnd((4, 3, 3, 3), rng)
    b = rnd(4, rng)
    out = tc.conv2d(x, w, b, stride=2, pad=1)
    ref = conv2d_ref(x, w, b, stride=2, pad=1)
    np.testing.assert_allclose(out, ref, atol=1e-5)


@pytest.mark.parametrize("kernel,stride,pad,c", WINDOWS)
def test_batch_last_conv_and_backward_match_loop_references(kernel, stride, pad, c):
    rng = np.random.default_rng(kernel * 100 + stride * 10 + pad)
    x = rng.standard_normal((2, c, kernel + 2, kernel + 3))
    w = rng.standard_normal((3, c, kernel, kernel))
    b = rng.standard_normal(3)
    out = tc._conv(last(x), w, b, stride, pad)[0]
    np.testing.assert_allclose(first(out), conv2d_ref(x, w, b, stride, pad), atol=1e-10)
    g = rng.standard_normal(out.shape)
    dx, dw, db = tc._conv_backward(g, last(x), w, stride, pad)
    ref_dx, ref_dw, ref_db = conv2d_backward_ref(x, w, first(g), stride, pad)
    np.testing.assert_allclose(first(dx), ref_dx, atol=1e-10)
    np.testing.assert_allclose(dw, ref_dw, atol=1e-10)
    np.testing.assert_allclose(db, ref_db, atol=1e-10)
    assert tc._conv_backward(g, last(x), w, stride, pad, need_dx=False)[0] is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_in_row_blocks_equals_one_gemm(monkeypatch, dtype):
    # stride 2, pad 1: 13 output rows of 7 x 4 columns; F = 5 filters of 5 rows'
    # unfold each fit the budget, rounded down to 4 rows so each block ends on a
    # whole 8-column tile, and the 1-row tail joins the last block. A taped conv
    # whose whole unfold fits _COLS_BYTES runs as one GEMM and keeps its unfold
    rng = np.random.default_rng(31)
    x = rng.standard_normal((3, 25, 13, 4)).astype(dtype)
    w = rng.standard_normal((5, 3, 3, 3)).astype(dtype)
    b = rng.standard_normal(5).astype(dtype)
    blocks, unfold = [], tc._unfold
    monkeypatch.setattr(tc, "_unfold", lambda *a: blocks.append(a[4:6]) or unfold(*a))
    monkeypatch.setattr(tc, "_FILTER_COLS_BYTES", 27 * 7 * 4 * x.itemsize)
    whole, cols = tc._conv(x, w, b, stride=2, pad=1, keep=True)
    assert blocks == [((0, 13), (0, 7))] and cols.shape == (27, 13 * 7 * 4)
    blocks.clear()
    blocked, cols = tc._conv(x, w, b, stride=2, pad=1)
    assert blocks == [((0, 4), (0, 7)), ((4, 8), (0, 7)), ((8, 13), (0, 7))] and cols is None
    assert blocked.dtype == dtype
    np.testing.assert_array_equal(blocked, whole)
    np.testing.assert_allclose(first(blocked), conv2d_ref(first(x), w, b, 2, 1),
                               rtol=0, atol=1e-4)


def test_stem_runs_in_column_blocks_within_the_filter_budget(monkeypatch):
    """The 9-plane 7x7 stride-2 stem at batch 128 with F = 8: one output row
    unfolds 3.6 MB, above min(_COLS_BYTES, F * _FILTER_COLS_BYTES), so each
    row runs as 8 blocks of 2 columns (its bits: the property test below)."""
    rng = np.random.default_rng(33)
    x, w, b = rnd((9, 32, 32, 128), rng), rnd((8, 9, 7, 7), rng), rnd(8, rng)
    blocks, unfold = [], tc._unfold
    monkeypatch.setattr(tc, "_unfold", lambda *a: blocks.append(a[4:6]) or unfold(*a))
    assert tc._conv(x, w, b, 2, 3)[1] is None
    assert blocks == [((r, r + 1), (c, c + 2)) for r in range(16) for c in range(0, 16, 2)]
    budget = min(tc._COLS_BYTES, 8 * tc._FILTER_COLS_BYTES)
    assert all(441 * (r1 - r0) * (c1 - c0) * 128 * 4 <= budget for (r0, r1), (c0, c1) in blocks)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", range(1, 8))
def test_unfold_is_the_per_cell_copy_byte_for_byte(kernel, dtype):
    """One strided copy equals one slice copy per kernel cell, for whole
    unfolds, row ranges and column ranges, into a fresh array or a buffer."""
    rng = np.random.default_rng(kernel)
    for stride in (1, 2, 3):
        for pad in range(4):
            kw = int(rng.integers(1, 8))
            x = rng.standard_normal((2, kernel + int(rng.integers(0, 9)),
                                     kw + int(rng.integers(0, 9)), 3)).astype(dtype)
            xp = tc._padded(x, pad)
            ho = tc.conv_output_extent(x.shape[1], kernel, stride, pad)
            wo = tc.conv_output_extent(x.shape[2], kw, stride, pad)
            r0, c0 = int(rng.integers(0, ho)), int(rng.integers(0, wo))
            r1, c1 = int(rng.integers(r0 + 1, ho + 1)), int(rng.integers(c0 + 1, wo + 1))
            buf = np.full(2 * kernel * kw * ho * wo * 3, np.nan, dtype)
            for rows, columns, into in (((0, ho), (0, wo), None), ((r0, r1), (0, wo), buf),
                                        ((r0, r0 + 1), (c0, c1), buf), ((r0, r1), (c0, c1), None)):
                got = tc._unfold(xp, kernel, kw, stride, rows, columns, into)
                want = unfold_ref(xp, kernel, kw, stride, rows, columns)
                assert got.dtype == dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def _bits(a):
    """a's bytes with every NaN made +NaN: numpy's SIMD add gives NaN + NaN
    the sign of either operand, by where the element falls in its loop."""
    return np.where(np.isnan(a), np.nan, a).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel", range(1, 8))
def test_conv_dx_equals_the_padded_scatter_byte_for_byte(kernel, dtype):
    """Scattering each window cell into its in-range slice of an unpadded dx
    equals scattering into a zero-padded grid and cropping it, bit for bit
    but for the sign of a NaN, for upstream gradients that hold +-0.0, +-inf
    and NaN; a 1x1 stride-1 conv returns the unfold's gradient itself."""
    rng = np.random.default_rng([kernel, 7])
    cases = [(kw, stride, pad) for kw in rng.integers(1, 8, 4) for stride in (1, 2, 3)
             for pad in range(4)] + [(1, 1, 0)] * (kernel == 1)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.0], dtype)
    seen = np.zeros(2, bool)
    for kw, stride, pad in cases:
        f = int(rng.integers(1, 4))
        x = rng.standard_normal((2, kernel + int(rng.integers(0, 9)),
                                 kw + int(rng.integers(0, 9)), 3)).astype(dtype)
        w = rng.standard_normal((f, 2, kernel, kw)).astype(dtype)
        ho = tc.conv_output_extent(x.shape[1], kernel, stride, pad)
        wo = tc.conv_output_extent(x.shape[2], kw, stride, pad)
        g = rng.choice(specials, (f, ho, wo, 3))
        with np.errstate(invalid="ignore"):            # inf - inf in the GEMMs and db
            dx = tc._conv_backward(g, x, w, stride, pad)[0]
            want = conv_dx_scatter_ref(g, x, w, stride, pad)
        assert dx.dtype == dtype and dx.shape == x.shape
        assert _bits(dx) == _bits(want)
        seen |= np.isnan(want).any(), np.isinf(want).any()
    assert seen.all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kernel,stride,pad", [(1, 1, 0), (3, 1, 1), (5, 1, 2), (7, 2, 3)])
def test_conv_backward_reads_the_kept_unfold_bit_for_bit(kernel, stride, pad, dtype):
    # the network's windows: 1x1 projections, 3x3 and 5x5 inception branches, the stem
    rng = np.random.default_rng([kernel, stride, pad])
    x = rng.standard_normal((6, 15, 15, 16)).astype(dtype)
    w = rng.standard_normal((8, 6, kernel, kernel)).astype(dtype)
    b = rng.standard_normal(8).astype(dtype)
    out, cols = tc._conv(x, w, b, stride, pad, keep=True)
    assert cols is not None and np.shares_memory(cols, x) == (kernel == 1)
    assert tc._conv(x, w, b, stride, pad)[1] is None        # nobody reads it untaped
    g = rng.standard_normal(out.shape).astype(dtype)
    for need_dx in (True, False):
        kept = tc._conv_backward(g, x, w, stride, pad, need_dx, cols)
        again = tc._conv_backward(g, x, w, stride, pad, need_dx)
        assert (kept[0] is None) == (again[0] is None) == (not need_dx)
        for a, b in zip(kept, again):
            assert a is None or (a.dtype == dtype and a.tobytes() == b.tobytes())


def test_blocked_conv_backward_unfolds_again(monkeypatch):
    """A taped conv whose unfold exceeds _COLS_BYTES runs in blocks of at most
    F * _FILTER_COLS_BYTES and keeps no unfold (its buffer holds only the
    last block), so its backward unfolds x once more and gives the bits of
    the unkept route."""
    rng = np.random.default_rng(32)
    x, w, b = rnd((3, 25, 13, 4), rng), rnd((5, 3, 3, 3), rng), rnd(5, rng)
    monkeypatch.setattr(tc, "_COLS_BYTES", 27 * 13 * 7 * 4 * x.itemsize - 1)
    monkeypatch.setattr(tc, "_FILTER_COLS_BYTES", 27 * 7 * 4 * x.itemsize)
    blocks, unfold = [], tc._unfold
    monkeypatch.setattr(tc, "_unfold", lambda *a: blocks.append(a[4:6]) or unfold(*a))
    tape, nodes = tc.Tape(), [tc.Node(v) for v in (x, w, b)]
    out = tc.conv2d_taped(tape, *nodes, 2, 1)
    tape.backward()
    # three blocks, then dW's unfold
    assert blocks == [((0, 4), (0, 7)), ((4, 8), (0, 7)), ((8, 13), (0, 7)), ((0, 13), (0, 7))]
    ones = np.ones_like(out.value)
    for node, again in zip(nodes, tc._conv_backward(ones, x, w, 2, 1)):
        assert node.grad.tobytes() == again.tobytes()


@st.composite
def _blocked_convs(draw):
    """A conv of 16-41 output rows and a budget of at most half of them, or of
    less than one output row, so at least two blocks (unless it is 1x1 stride
    1, which never unfolds). N = 1-3 makes 8-column tiles span several output
    columns."""
    c, f = draw(st.integers(1, 9)), draw(st.integers(1, 8))
    kh, kw = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    ho = draw(st.integers(16, 41))
    h = (ho - 1) * stride + kh - 2 * pad + draw(st.integers(0, stride - 1))
    wd = draw(st.integers(max(1, kw - 2 * pad), 41))
    wo = tc.conv_output_extent(wd, kw, stride, pad)
    n = draw(st.one_of(st.integers(1, 3),
                       st.integers(1, max(1, min(48, 2_000_000 // (c * kh * kw * ho * wo))))))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if draw(st.booleans()):
        columns = draw(st.integers(1, ho // 2)) * wo * n    # whole output rows
    else:
        columns = draw(st.integers(1, max(1, wo * n - 1)))  # part of one row
    return (c, f, kh, kw, stride, pad, h, wd, n, dtype,
            columns * c * kh * kw * np.dtype(dtype).itemsize)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_blocked_convs())
@example((9, 5, 3, 3, 1, 1, 41, 41, 47, np.float32, 8 << 20))   # 8-row steps, a 1-row tail
@example((9, 8, 7, 7, 2, 3, 32, 32, 128, np.float32, 8 << 16))  # the 9-plane stem
@example((2, 3, 3, 3, 1, 1, 20, 21, 3, np.float32, 20 * 18 * 4))  # 8-column tiles, a tail
def test_blocked_conv_matches_one_gemm_on_random_shapes(conv):
    # OpenBLAS picks its kernel by matrix size, so a block's GEMM may round
    # its length-K dot products in another order than one whole GEMM: the
    # claim is agreement within that rounding, |error| <= (K + 2) eps |w| |x|;
    # the 9-plane stem at batch 128 must match bit for bit
    c, f, kh, kw, stride, pad, h, wd, n, dtype, budget = conv
    rng = np.random.default_rng([c, f, kh, kw, stride, pad, h, wd, n])
    x = rng.standard_normal((c, h, wd, n)).astype(dtype)
    w = rng.standard_normal((f, c, kh, kw)).astype(dtype)
    b = rng.standard_normal(f).astype(dtype)
    blocks, unfold = [], tc._unfold
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tc, "_COLS_BYTES", 1 << 62)
        patch.setattr(tc, "_FILTER_COLS_BYTES", 1 << 62)
        whole = tc._conv(x, w, b, stride, pad)[0]
        scale = tc._conv(np.abs(x), np.abs(w), np.abs(b), stride, pad)[0]
        patch.setattr(tc, "_COLS_BYTES", budget)
        patch.setattr(tc, "_unfold", lambda *a: blocks.append(a[4:6]) or unfold(*a))
        blocked = tc._conv(x, w, b, stride, pad)[0]
    assert len(blocks) > 1 or kh * kw == stride == 1
    if (c, f, kh, h, n) == (9, 8, 7, 32, 128):
        assert blocked.tobytes() == whole.tobytes()
    bound = (c * kh * kw + 2) * np.finfo(dtype).eps * scale
    assert (np.abs(blocked - whole) <= bound).all()


def test_conv2d_rejects_channel_mismatch():
    rng = np.random.default_rng(0)
    with pytest.raises(tc.ShapeError):
        tc.conv2d(rnd((1, 2, 4, 4), rng), rnd((1, 3, 3, 3), rng), np.zeros(1, np.float32))


def test_conv2d_rejects_zero_sized_output():
    rng = np.random.default_rng(0)
    with pytest.raises(tc.ShapeError):
        tc.conv2d(rnd((1, 1, 2, 2), rng), rnd((1, 1, 5, 5), rng), np.zeros(1, np.float32))


# ---------------------------------------------------------------------------
# maxpool2d

def test_maxpool_basic():
    x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
    out, _ = tc.maxpool2d(x, window=2, stride=2)
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 4.0


def test_maxpool_constant_map():
    x = np.full((1, 2, 6, 6), 3.5, dtype=np.float32)
    out, _ = tc.maxpool2d(x, window=3, stride=3)
    assert np.all(out == 3.5)


def test_maxpool_matches_naive_reference():
    rng = np.random.default_rng(11)
    x = rnd((1, 1, 6, 6), rng)
    out, _ = tc.maxpool2d(x, window=3, stride=3)
    np.testing.assert_allclose(out, maxpool2d_ref(x, 3, 3), atol=1e-6)


def test_maxpool_tie_breaks_first_row_major():
    x = np.zeros((1, 1, 2, 2), dtype=np.float32)
    out, saved = tc.maxpool2d(x, window=2, stride=2)
    dx = first(tc._maxpool_backward(last(np.ones_like(out)), saved))
    # top-left wins the all-zero window and takes the whole gradient
    np.testing.assert_array_equal(dx[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_maxpool_rejects_oversized_window():
    x = np.zeros((1, 1, 4, 4), dtype=np.float32)
    with pytest.raises(tc.ShapeError):
        tc.maxpool2d(x, window=7, stride=1)


def test_maxpool_backward_routes_to_argmax_and_conserves_sum():
    rng = np.random.default_rng(3)
    x = rnd((2, 2, 6, 6), rng)
    out, saved = tc.maxpool2d(x, window=3, stride=2, pad=1)
    g = rnd(out.shape, rng)
    dx = first(tc._maxpool_backward(last(g), saved))
    assert dx.shape == x.shape
    assert math.isclose(dx.sum(), g.sum(), rel_tol=1e-5)
    # with a one-hot upstream, exactly one input position receives gradient
    g1 = np.zeros_like(g)
    g1[0, 0, 0, 0] = 1.0
    _, saved2 = tc.maxpool2d(x, window=3, stride=2, pad=1)
    dx1 = tc._maxpool_backward(last(g1), saved2)
    assert (dx1 != 0).sum() == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window,stride,pad", [(3, 1, 1), (3, 2, 1), (2, 2, 0)])
def test_maxpool_and_backward_equal_loop_references(window, stride, pad, dtype):
    rng = np.random.default_rng(window * 10 + stride)
    x = rng.integers(-2, 3, (2, 3, 7, 6)).astype(dtype)     # many ties
    out, saved = tc.maxpool2d(x, window, stride, pad)
    np.testing.assert_array_equal(out, maxpool2d_ref(x, window, stride, pad))
    # non-integer gradients, so a different summation order changes bits
    g = rng.standard_normal(out.shape).astype(dtype)
    dx = first(tc._maxpool_backward(last(g), saved))
    assert dx.dtype == dtype and dx.shape == x.shape
    np.testing.assert_array_equal(dx, maxpool2d_backward_ref(x, g, window, stride, pad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window,stride,pad,c", WINDOWS)
def test_batch_last_maxpool_and_backward_equal_loop_references(window, stride, pad, c, dtype):
    rng = np.random.default_rng(window * 100 + stride * 10 + pad)
    x = rng.integers(-2, 3, (2, c, window + 2, window + 3)).astype(dtype)
    out, saved = tc._maxpool(last(x), window, stride, pad)
    np.testing.assert_array_equal(first(out), maxpool2d_ref(x, window, stride, pad))
    g = rng.standard_normal(out.shape).astype(dtype)
    dx = tc._maxpool_backward(g, saved)
    assert dx.dtype == dtype
    np.testing.assert_array_equal(
        first(dx), maxpool2d_backward_ref(x, first(g), window, stride, pad))


@st.composite
def _pools(draw):
    """A pool with pad up to the window, so some windows lie wholly in the
    padding, on integer inputs with ties and some +-inf."""
    window, stride = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    pad = draw(st.integers(0, window))
    h, w = (draw(st.integers(max(1, window - 2 * pad), 13)) for _ in range(2))
    c, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.integers(-2, 3, (n, c, h, w)).astype(dtype)
    x[rng.random(x.shape) < 0.05] = np.inf
    x[rng.random(x.shape) < 0.05] = -np.inf
    return x, window, stride, pad, rng


@settings(derandomize=True, database=None, max_examples=250, deadline=None)
@given(_pools())
def test_separable_maxpool_and_backward_equal_loop_references(pool):
    x, window, stride, pad, rng = pool
    xl = last(x)
    out, saved = tc._maxpool(xl, window, stride, pad)
    np.testing.assert_array_equal(first(out), maxpool2d_ref(x, window, stride, pad))
    assert saved[0] is xl           # the forward keeps x itself, not a padded copy
    g = rng.standard_normal(out.shape).astype(x.dtype)
    np.testing.assert_array_equal(
        first(tc._maxpool_backward(g, saved)),
        maxpool2d_backward_ref(x, first(g), window, stride, pad))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [1, 3])
def test_padded_equals_np_pad_byte_for_byte(pad, dtype):
    x = rnd((3, 5, 4, 2), np.random.default_rng(pad), dtype)
    want = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    got = tc._padded(x, pad)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert tc._padded(x, 0) is x


@pytest.mark.parametrize("net", ["googlenet-small", "alexnet-small"])
def test_network_passes_call_no_np_pad(monkeypatch, net):
    spec = nb.build_net(net, 5, 1)
    params = nb.init_weights(spec, seed=0)
    x = np.random.default_rng(1).random((3, *spec.input_shape), dtype=np.float32)

    def no_pad(*args, **kwargs):
        raise AssertionError("np.pad called on a network pass")

    monkeypatch.setattr(np, "pad", no_pad)
    probs, _ = nb.forward_net(spec, params, x)
    loss, _, grads = nb.loss_and_grads(spec, params, x, np.array([0, 2, 4]),
                                       np.random.default_rng(2))
    assert probs.shape == (3, 5) and np.isfinite(loss)
    assert set(grads) == set(params)


# ---------------------------------------------------------------------------
# relu / dropout

def test_relu_values():
    x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
    np.testing.assert_array_equal(tc.relu(x), [0.0, 0.0, 2.0])


def test_relu_all_negative():
    x = -np.abs(np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)) - 0.1
    assert np.all(tc.relu(x) == 0)


def test_relu_idempotent():
    x = np.random.default_rng(1).standard_normal((5, 5)).astype(np.float32)
    np.testing.assert_array_equal(tc.relu(tc.relu(x)), tc.relu(x))


def test_relu_backward_subgradient_zero_at_zero():
    x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
    g = np.ones(3, dtype=np.float32)
    np.testing.assert_array_equal(tc._relu_backward(g, x), [0.0, 0.0, 1.0])


def test_backward_skips_a_record_whose_output_got_no_gradient():
    tape = tc.Tape()
    dead, live = tc.Node(np.array([1.0, -1.0], np.float32)), tc.Node(np.ones(2, np.float32))
    tc.relu_taped(tape, dead)       # nothing downstream reads this output
    tc.relu_taped(tape, live)
    tape.backward()
    assert dead.grad is None
    np.testing.assert_array_equal(live.grad, [1.0, 1.0])


def test_dropout_zero_rate_is_identity():
    tape = tc.Tape()
    node = tc.Node(np.ones((4, 4), dtype=np.float32))
    assert tc.dropout_taped(tape, node, 0.0, np.random.default_rng(0)) is node
    assert not tape._records        # nothing recorded: no mask to apply


def test_dropout_infer_is_identity():
    node = tc.Node(np.random.default_rng(0).random((4, 4)).astype(np.float32))
    assert tc.dropout_taped(None, node, 0.7, None) is node


def test_dropout_preserves_expectation():
    node = tc.Node(np.ones(1_000_000, dtype=np.float32))
    out = tc.dropout_taped(tc.Tape(), node, 0.5, np.random.default_rng(42))
    assert abs(out.value.mean() - 1.0) < 0.01


def test_dropout_mask_follows_nchw_draw_order():
    """A batch-last tensor gets the mask a seed draws for its NCHW layout."""
    n, c, h, w, rate = 3, 2, 4, 5, 0.3
    x = tc.Node(np.ones((c, h, w, n), np.float32))
    tape = tc.Tape()
    out = tc.dropout_taped(tape, x, rate, np.random.default_rng(7))
    drawn = np.random.default_rng(7).random((n, c, h, w)) >= rate
    expected = drawn.astype(np.float32) / np.float32(1 - rate)
    np.testing.assert_array_equal(out.value.transpose(3, 0, 1, 2), expected)
    tape.backward()
    np.testing.assert_array_equal(x.grad, out.value)


def test_dropout_rejects_rate_one():
    with pytest.raises(ValueError):
        tc.dropout_taped(tc.Tape(), tc.Node(np.ones(3, np.float32)), 1.0,
                         np.random.default_rng(0))


# ---------------------------------------------------------------------------
# concat

def test_concat_single_input_identity():
    x = np.random.default_rng(0).random((3, 4, 4, 2)).astype(np.float32)
    np.testing.assert_array_equal(tc.concat_channels([x]), x)


def test_concat_stacks_in_order():
    a = np.full((2, 3, 3, 1), 1.0, dtype=np.float32)
    b = np.full((3, 3, 3, 1), 2.0, dtype=np.float32)
    out = tc.concat_channels([a, b])
    assert out.shape == (5, 3, 3, 1)
    assert np.all(out[:2] == 1.0) and np.all(out[2:] == 2.0)


def test_concat_rejects_spatial_mismatch():
    a = np.zeros((2, 3, 3, 1), dtype=np.float32)
    b = np.zeros((2, 4, 4, 1), dtype=np.float32)
    with pytest.raises(tc.ShapeError, match="4, 4"):
        tc.concat_channels([a, b])
    with pytest.raises(tc.ShapeError, match="H/W/N"):
        tc.concat_channels([a, np.zeros((2, 3, 3, 2), dtype=np.float32)])


def test_concat_backward_roundtrip():
    """The taped concat joins batch-last tensors on axis 0 and hands each
    input a contiguous view of the upstream gradient."""
    rng = np.random.default_rng(5)
    tape = tc.Tape()
    xs = [tc.Node(rnd((c, 4, 4, 2), rng)) for c in (1, 3, 2)]
    out = tc.concat_channels_taped(tape, xs)
    np.testing.assert_array_equal(out.value, np.concatenate([x.value for x in xs]))
    g = rnd(out.value.shape, rng)
    contribs = tape._records[-1][1](g)
    assert [node for node, _ in contribs] == xs
    for _, contrib in contribs:
        assert contrib.flags.c_contiguous and np.shares_memory(contrib, g)
    np.testing.assert_array_equal(contribs[0][1], g[:1])
    np.testing.assert_array_equal(contribs[1][1], g[1:4])
    np.testing.assert_array_equal(contribs[2][1], g[4:])


# ---------------------------------------------------------------------------
# fully connected / softmax / cross-entropy

def test_fc_identity_weights():
    x = np.random.default_rng(0).random((3, 4)).astype(np.float32)
    w = np.eye(4, dtype=np.float32)
    out = tc.fully_connected(x, w, np.zeros(4, np.float32))
    np.testing.assert_allclose(out, x, rtol=1e-6)


def test_fc_hand_example():
    x = np.array([[1.0, 2.0]], dtype=np.float32)
    w = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.float32)
    out = tc.fully_connected(x, w, np.zeros(2, np.float32))
    np.testing.assert_array_equal(out, [[3.0, -1.0]])


def test_fc_matches_naive_matmul():
    rng = np.random.default_rng(13)
    x, w, b = rnd((3, 7), rng), rnd((5, 7), rng), rnd(5, rng)
    np.testing.assert_allclose(tc.fully_connected(x, w, b), matmul_ref(x, w, b), atol=1e-5)


def test_fc_rejects_dim_mismatch():
    with pytest.raises(tc.ShapeError):
        tc.fully_connected(np.zeros((1, 3), np.float32), np.zeros((2, 4), np.float32),
                           np.zeros(2, np.float32))


def test_fc_taped_on_batch_last_equals_nchw_rows_bit_for_bit():
    """The taped FC of [C, H, W, N] computes from contiguous NCHW rows:
    forward, dx, dw and db are those of the [N, D] formulas, bit for bit."""
    rng = np.random.default_rng(12)
    x_nchw, w, b = rnd((64, 32, 2, 2), rng), rnd((10, 128), rng), rnd(10, rng)
    rows, g = x_nchw.reshape(64, -1), rnd((64, 10), rng)
    tape = tc.Tape()
    x, wn, bn = tc.Node(x_nchw.transpose(1, 2, 3, 0).copy()), tc.Node(w), tc.Node(b)
    out = tc.fully_connected_taped(tape, x, wn, bn)
    np.testing.assert_array_equal(out.value.T, tc.fully_connected(rows, w, b))
    (_, dx), (_, dw), (_, db) = tape._records[-1][1](g.T.copy())
    np.testing.assert_array_equal(dx.transpose(3, 0, 1, 2), (g @ w).reshape(x_nchw.shape))
    np.testing.assert_array_equal(dw, g.T @ rows)
    np.testing.assert_array_equal(db, g.sum(axis=0))


def test_mean_pool_taped_on_batch_last_equals_nchw_mean_bit_for_bit():
    rng = np.random.default_rng(13)
    x_nchw = rnd((3, 5, 7, 9), rng)
    tape = tc.Tape()
    x = tc.Node(x_nchw.transpose(1, 2, 3, 0).copy())
    out = tc.mean_pool_taped(tape, x)
    np.testing.assert_array_equal(out.value.T, x_nchw.mean(axis=(2, 3)))
    g = rnd((5, 3), rng)
    [(_, dx)] = tape._records[-1][1](g)
    np.testing.assert_array_equal(dx, np.broadcast_to(g[:, None, None] / 63, x.value.shape))


def test_softmax_uniform():
    out = tc.softmax(np.zeros((1, 3), dtype=np.float32))
    np.testing.assert_allclose(out, [[1 / 3] * 3], rtol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(2)
    logits = rnd((4, 6), rng)
    shifted = logits + rng.standard_normal((4, 1)).astype(np.float32)
    np.testing.assert_allclose(tc.softmax(logits), tc.softmax(shifted), atol=1e-6)


def test_softmax_large_logits_stable():
    out = tc.softmax(np.array([[1000.0, 0.0]], dtype=np.float32))
    assert np.isfinite(out).all()
    # extended-precision oracle: 1/(1+exp(-1000)) == 1 to any representable precision
    np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = tc.softmax(rnd((3, 11), rng) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(p >= 0)


@pytest.mark.parametrize("t", [2, 10, 100])
def test_cross_entropy_uniform_is_log_t(t):
    probs = np.full((4, t), 1.0 / t, dtype=np.float32)
    labels = np.arange(4) % t
    assert abs(tc.cross_entropy(probs, labels) - math.log(t)) < 1e-6


def test_cross_entropy_perfect_prediction_zero_loss():
    probs = np.zeros((2, 5), dtype=np.float32)
    probs[0, 3] = 1.0
    probs[1, 0] = 1.0
    assert tc.cross_entropy(probs, np.array([3, 0])) == 0.0


def test_cross_entropy_rejects_bad_labels():
    probs = np.full((2, 4), 0.25, dtype=np.float32)
    with pytest.raises(ValueError):
        tc.cross_entropy(probs, np.array([0, 4]))


def test_softmax_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    logits = rng.standard_normal((6, 3))        # [T, N], as the network's
    labels = np.array([2, 0, 5])

    def loss_at(z):
        return tc.cross_entropy(tc.softmax(z.T), labels)

    tape = tc.Tape()
    node = tc.Node(logits.copy())
    tc.softmax_cross_entropy_taped(tape, node, labels)
    tape.backward()
    eps = 1e-6
    for i in range(logits.size):
        z = logits.copy().reshape(-1)
        z[i] += eps
        up = loss_at(z.reshape(logits.shape))
        z[i] -= 2 * eps
        down = loss_at(z.reshape(logits.shape))
        numeric = (up - down) / (2 * eps)
        analytic = node.grad.reshape(-1)[i]
        assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8) < 1e-4


def test_fused_backward_equals_probs_minus_onehot_over_n():
    rng = np.random.default_rng(8)
    logits = rng.standard_normal((4, 7))
    labels = np.array([1, 6, 0, 3])
    tape = tc.Tape()
    node = tc.Node(logits.T)                    # [T, N]
    _, probs = tc.softmax_cross_entropy_taped(tape, node, labels)
    tape.backward()
    expected = tc.softmax(logits)
    np.testing.assert_array_equal(probs, expected)
    expected[np.arange(4), labels] -= 1
    expected /= 4
    np.testing.assert_allclose(node.grad, expected.T, atol=1e-12)


# ---------------------------------------------------------------------------
# sgd

def test_sgd_plain_step():
    p = {"w": np.array([1.0], dtype=np.float32)}
    g = {"w": np.array([0.5], dtype=np.float32)}
    tc.sgd_step(p, g, lr=0.1, momentum=0.0, velocity={})
    np.testing.assert_allclose(p["w"], [0.95])


def test_sgd_zero_gradient_leaves_params():
    p = {"w": np.arange(4, dtype=np.float32)}
    g = {"w": np.zeros(4, dtype=np.float32)}
    before = p["w"].copy()
    vel = {}
    for _ in range(5):
        tc.sgd_step(p, g, lr=0.1, momentum=0.9, velocity=vel)
    np.testing.assert_array_equal(p["w"], before)


def test_sgd_converges_on_quadratic_bowl():
    p = {"w": np.array([1.0], dtype=np.float64)}
    vel = {}
    for _ in range(100):
        g = {"w": 2 * p["w"]}
        tc.sgd_step(p, g, lr=0.1, momentum=0.0, velocity=vel)
    assert abs(p["w"][0]) < 1e-8


def test_sgd_rejects_nonpositive_lr():
    with pytest.raises(ValueError):
        tc.sgd_step({"w": np.ones(1, np.float32)}, {"w": np.ones(1, np.float32)},
                    lr=0.0, momentum=0.0, velocity={})


# ---------------------------------------------------------------------------
# tape mechanics

def test_tape_single_relu_node():
    tape = tc.Tape()
    x = tc.Node(np.array([-1.0, 2.0], dtype=np.float32))
    tc.relu_taped(tape, x)
    tape.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_tape_is_freed_without_the_cycle_collector():
    """No backward closure refers to its tape, so the saved activations go
    as soon as the tape does."""
    rng = np.random.default_rng(4)
    tape = tc.Tape()
    x = tc.Node(rnd((3, 6, 6, 2), rng))     # batch-last, as the network runs
    h = tc.conv2d_taped(tape, x, tc.Node(rnd((4, 3, 3, 3), rng)), tc.Node(rnd(4, rng)), 1, 1)
    h = tc.maxpool2d_taped(tape, tc.relu_taped(tape, h), 3, 2, 1)
    h = tc.dropout_taped(tape, tc.concat_channels_taped(tape, [h, h]), 0.5, rng)
    tc.fully_connected_taped(tape, h, tc.Node(rnd((3, 72), rng)), tc.Node(rnd(3, rng)))
    tape.backward()
    gone = weakref.ref(tape)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del tape
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


def test_tape_rejects_second_replay():
    tape = tc.Tape()
    x = tc.Node(np.array([1.0], dtype=np.float32))
    tc.relu_taped(tape, x)
    tape.backward()
    with pytest.raises(RuntimeError):
        tape.backward()


def test_tape_releases_each_kept_unfold_as_it_replays(monkeypatch):
    """The forward's unfolds live exactly until the tape replays their conv:
    the tape itself is still alive after backward, and still refuses a
    second replay."""
    rng = np.random.default_rng(8)
    kept, unfold = [], tc._unfold
    monkeypatch.setattr(tc, "_unfold", lambda *a: kept.append(weakref.ref(r := unfold(*a))) or r)
    tape = tc.Tape()
    h = tc.Node(rnd((3, 8, 8, 4), rng))
    for kernel, pad in ((3, 1), (1, 0), (5, 2)):
        w = tc.Node(rnd((3, 3, kernel, kernel), rng))
        h = tc.relu_taped(tape, tc.conv2d_taped(tape, h, w, tc.Node(rnd(3, rng)), 1, pad))
    assert len(kept) == 3 and all(ref() is not None for ref in kept)
    tape.backward()
    assert len(kept) == 3 and all(ref() is None for ref in kept)
    with pytest.raises(RuntimeError, match="already replayed"):
        tape.backward()


def test_grad_check_two_layer_net_64bit():
    rng = np.random.default_rng(17)
    params = {
        "fc1.w": rng.standard_normal((5, 4)),
        "fc1.b": rng.standard_normal(5),
        "fc2.w": rng.standard_normal((3, 5)),
        "fc2.b": rng.standard_normal(3),
    }
    x = rng.standard_normal((2, 4))
    labels = np.array([0, 2])

    def run(p):
        t = tc.Tape()
        nodes = {k: tc.Node(v) for k, v in p.items()}
        h = tc.relu_taped(t, tc.fully_connected_taped(
            t, tc.Node(x.T), nodes["fc1.w"], nodes["fc1.b"]))
        logits = tc.fully_connected_taped(t, h, nodes["fc2.w"], nodes["fc2.b"])
        loss, _ = tc.softmax_cross_entropy_taped(t, logits, labels)
        return float(loss.value), t, nodes

    def loss_fn(p):
        return run(p)[0]

    def grads_fn(p):
        _, tape, nodes = run(p)
        tape.backward()
        return {k: n.grad for k, n in nodes.items()}

    report = tc.grad_check(loss_fn, grads_fn, params, epsilon=1e-5, tolerance=1e-4)
    assert report.passed, report
    assert report.checked >= 37  # every coordinate of this small model


def test_grad_check_linear_net_is_nearly_exact():
    rng = np.random.default_rng(23)
    params = {"fc.w": rng.standard_normal((3, 4)), "fc.b": rng.standard_normal(3)}
    x = rng.standard_normal((2, 4))

    # pure linear map: check d(sum(out))/dparam, exact up to float64 rounding
    def loss_fn(p):
        return float(tc.fully_connected(x, p["fc.w"], p["fc.b"]).sum())

    def grads_fn(p):
        tape = tc.Tape()
        nodes = {k: tc.Node(v) for k, v in p.items()}
        tc.fully_connected_taped(tape, tc.Node(x.T), nodes["fc.w"], nodes["fc.b"])
        tape.backward()         # seeds ones: the gradient of sum(out)
        return {k: n.grad for k, n in nodes.items()}

    report = tc.grad_check(loss_fn, grads_fn, params, epsilon=1e-5, tolerance=1e-7)
    assert report.passed, report


# ---------------------------------------------------------------------------
# kernel oracle sweep (200 random shapes split across the three kernels)

def test_kernel_oracles_random_shapes():
    rng = np.random.default_rng(99)
    for _ in range(70):
        n, c, f = rng.integers(1, 3), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        pad = int(rng.integers(0, 2))
        stride = int(rng.integers(1, 3))
        h = int(rng.integers(k + stride, 10))
        w = int(rng.integers(k + stride, 10))
        x = rnd((n, c, h, w), rng)
        wt = rnd((f, c, k, k), rng)
        b = rnd(f, rng)
        out = tc.conv2d(x, wt, b, stride, pad)
        np.testing.assert_allclose(out, conv2d_ref(x, wt, b, stride, pad), atol=1e-5)
    for _ in range(70):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 4))
        h = int(rng.integers(k + 1, 11))
        w = int(rng.integers(k + 1, 11))
        x = rnd((n, c, h, w), rng)
        out, _ = tc.maxpool2d(x, k, stride)
        np.testing.assert_allclose(out, maxpool2d_ref(x, k, stride), atol=1e-6)
    for _ in range(60):
        n, d, t = int(rng.integers(1, 5)), int(rng.integers(1, 9)), int(rng.integers(1, 7))
        x, w, b = rnd((n, d), rng), rnd((t, d), rng), rnd(t, rng)
        np.testing.assert_allclose(tc.fully_connected(x, w, b), matmul_ref(x, w, b),
                                   atol=1e-5)


# ---------------------------------------------------------------------------
# DTNS dumps

def test_dtns_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    a = rng.standard_normal((2, 3, 4)).astype(np.float32)
    path = tmp_path / "t.dtns"
    tc.write_dtns(path, a)
    back = tc.read_dtns(path)
    np.testing.assert_array_equal(back, a)
    raw = path.read_bytes()
    assert raw[:4] == b"DTNS"
    assert raw[4] == 3
    assert len(raw) == 4 + 1 + 12 + 4 * a.size


def test_dtns_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.dtns"
    path.write_bytes(b"XXXX\x01\x01\x00\x00\x00\x00\x00\x80\x3f")
    with pytest.raises(ValueError):
        tc.read_dtns(path)


def test_dtns_rejects_truncated_header(tmp_path):
    path = tmp_path / "t.dtns"
    tc.write_dtns(path, np.ones((2, 3), dtype=np.float32))
    raw = path.read_bytes()
    for cut in (4, 5, 9, 12):       # magic only, rank only, part of the extents
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="truncated"):
            tc.read_dtns(path)


def test_dtns_rejects_extents_the_file_cannot_hold(tmp_path):
    path = tmp_path / "t.dtns"
    tc.write_dtns(path, np.ones((2, 3), dtype=np.float32))
    raw = path.read_bytes()
    huge = raw[:5] + struct.pack("<2I", 2 ** 31, 2 ** 31) + raw[13:]
    for bad in (huge, raw[:-4], raw + b"\0"):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match="bytes of values"):
            tc.read_dtns(path)
