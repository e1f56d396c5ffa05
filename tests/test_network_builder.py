"""Tests for network assembly: topology math, counting, forward execution."""

import numpy as np
import pytest

import hccr.tensor_core as tc
from hccr.network_builder import (
    ALEXNET_FULL_CONVS,
    Conv,
    Dropout,
    FullyConnected,
    GlobalAvgPool,
    Inception,
    InceptionSpec,
    MaxPool,
    NetworkSpec,
    REFERENCE_NETS,
    ParamStore,
    ReLU,
    Softmax,
    build_hccr_alexnet,
    build_hccr_googlenet,
    build_net,
    count_inception_modules,
    count_layers,
    count_parameters,
    forward_net,
    grad_check_network,
    infer_shapes,
    init_weights,
    loss_and_grads,
    parameter_entries,
    reference_net,
    validate_spec,
    with_dropout_rate,
)
from hccr.tensor_core import ShapeError

# Hand-summed parameter counts for the frozen reference topologies. Each
# branch is out*in*k*k + out; totals were accumulated independently of the
# enumeration code under test.
INCEPTION_3A_AT_192 = 163_696          # (64,96,128,16,32,32) on 192 channels
GOOGLENET_FULL_PARAMS = 7_225_379
ALEXNET_FULL_PARAMS = 25_393_771


def tiny_spec(rate=0.5):
    """Small network touching every layer kind."""
    layers = (
        Conv(4, 3, pad=1), ReLU(), MaxPool(2, 2),
        Inception(InceptionSpec(2, 2, 3, 1, 2, 2)),
        GlobalAvgPool(), Dropout(rate), FullyConnected(3), Softmax(),
    )
    return NetworkSpec((1, 8, 8), layers, 3)


# ---------------------------------------------------------------------------
# inception module

def test_inception_output_channels():
    s = InceptionSpec(64, 96, 128, 16, 32, 32)
    assert s.out_channels == 64 + 128 + 32 + 32 == 256


def test_inception_parameter_count_oracle():
    spec = NetworkSpec((192, 15, 15),
                       (Inception(InceptionSpec(64, 96, 128, 16, 32, 32)),
                        GlobalAvgPool(), FullyConnected(2), Softmax()), 2)
    inc_params = sum(int(np.prod(shape))
                     for name, shape, _ in parameter_entries(spec)
                     if "inception" in name)
    assert inc_params == INCEPTION_3A_AT_192


def test_inception_branch_order_and_concat():
    # Zero weights with distinct branch biases make each branch emit a constant
    # plane; global average pooling then hands the classifier the raw channel
    # blocks, and an identity classifier exposes them (up to the softmax shift)
    # as log-probabilities. Verifies the concat order 1x1 / 3x3 / 5x5 / pool-proj.
    spec = NetworkSpec((3, 6, 6),
                       (Inception(InceptionSpec(2, 2, 3, 1, 2, 2)),
                        GlobalAvgPool(), FullyConnected(9), Softmax()), 9)
    params = init_weights(spec, seed=0)
    for name in params.keys():
        params.tensors[name] = np.zeros_like(params[name])
    for tag, bias in (("b1", 1.0), ("b3", 2.0), ("b5", 3.0), ("proj", 4.0)):
        params.tensors[f"00_inception.{tag}.b"][:] = bias
    params.tensors["02_fullyconnected.w"] = np.eye(9, dtype=np.float32)
    x = np.random.default_rng(0).random((1, 3, 6, 6), dtype=np.float32)
    probs, _ = forward_net(spec, params, x, mode="infer")
    expected = np.repeat([1.0, 2.0, 3.0, 4.0], [2, 3, 2, 2])
    recovered = np.log(probs[0]) - np.log(probs[0][0])
    np.testing.assert_allclose(recovered, expected - expected[0], atol=1e-5)


def test_inception_preserves_odd_spatial_extents():
    spec = NetworkSpec((2, 7, 5),
                       (Inception(InceptionSpec(1, 1, 1, 1, 1, 1)),
                        GlobalAvgPool(), FullyConnected(2), Softmax()), 2)
    shapes = validate_spec(spec)
    assert shapes[0] == (4, 7, 5)


def test_inception_counts_as_two_weighted_layers():
    spec = tiny_spec()
    # conv + inception(2) + fc
    assert count_layers(spec, "weighted") == 4
    # + maxpool + global-average pool + input + softmax
    assert count_layers(spec, "weighted+pooling+io") == 8


def test_build_inception_rejects_nonpositive_widths():
    with pytest.raises(ValueError):
        InceptionSpec(0, 1, 1, 1, 1, 1)


def test_inception_scaled_widths():
    s = InceptionSpec(64, 96, 128, 16, 32, 32).scaled(8)
    assert s == InceptionSpec(8, 12, 16, 2, 4, 4)
    assert InceptionSpec(208, 96, 26, 16, 9, 7).scaled(8) == \
        InceptionSpec(26, 12, 4, 2, 2, 1)


# ---------------------------------------------------------------------------
# reference topologies

def test_googlenet_full_parameter_count():
    spec = build_hccr_googlenet("reference-full")
    assert count_parameters(spec) == GOOGLENET_FULL_PARAMS


def test_googlenet_full_layer_counts():
    spec = build_hccr_googlenet("reference-full")
    assert count_layers(spec, "weighted") == 14
    assert count_layers(spec, "weighted+pooling+io") == 19
    assert count_inception_modules(spec) == 4


def test_googlenet_full_shape_chain():
    spec = build_hccr_googlenet("reference-full")
    shapes = infer_shapes(spec)
    by_kind = [(type(l).__name__, s) for l, s in zip(spec.layers, shapes)]
    assert by_kind[0] == ("Conv", (64, 60, 60))
    assert by_kind[2] == ("MaxPool", (64, 30, 30))
    assert by_kind[7] == ("MaxPool", (192, 15, 15))
    assert by_kind[8] == ("Inception", (256, 15, 15))
    assert by_kind[9] == ("Inception", (480, 15, 15))
    assert by_kind[10] == ("MaxPool", (480, 8, 8))
    assert by_kind[11] == ("Inception", (512, 8, 8))
    assert by_kind[12] == ("Inception", (512, 8, 8))
    assert by_kind[13] == ("Conv", (272, 4, 4))
    assert by_kind[15] == ("Conv", (256, 2, 2))
    assert shapes[-1] == (3755,)


def test_googlenet_small_shape_chain_and_width_scaling():
    spec = build_hccr_googlenet("reference-small")
    assert spec.input_shape == (1, 32, 32)
    incs = [l.spec for l in spec.layers if isinstance(l, Inception)]
    assert incs[0] == InceptionSpec(8, 12, 16, 2, 4, 4)
    assert incs[2] == InceptionSpec(24, 12, 26, 2, 6, 8)
    shapes = infer_shapes(spec)
    assert shapes[-1] == (10,)
    assert count_layers(spec, "weighted") == 14


def test_alexnet_full_counts():
    spec = build_hccr_alexnet("reference-full")
    assert count_layers(spec, "weighted") == 8
    convs = [l for l in spec.layers if isinstance(l, Conv)]
    fcs = [l for l in spec.layers if isinstance(l, FullyConnected)]
    assert len(convs) == 5 and len(fcs) == 3
    assert tuple(c.out_channels for c in convs) == ALEXNET_FULL_CONVS
    assert count_parameters(spec) == ALEXNET_FULL_PARAMS
    assert count_layers(spec, "weighted+pooling+io") == 13


def test_alexnet_pooling_after_groups_1_2_5():
    spec = build_hccr_alexnet("reference-full")
    conv_seen = 0
    pools_after = []
    for layer in spec.layers:
        if isinstance(layer, Conv):
            conv_seen += 1
        elif isinstance(layer, MaxPool):
            pools_after.append(conv_seen)
    assert pools_after == [1, 2, 5]


def test_alexnet_dropout_before_first_two_fc():
    spec = build_hccr_alexnet("reference-small")
    layers = spec.layers
    fc_positions = [i for i, l in enumerate(layers) if isinstance(l, FullyConnected)]
    assert isinstance(layers[fc_positions[0] - 1], Dropout)
    assert isinstance(layers[fc_positions[1] - 1], Dropout)
    assert not isinstance(layers[fc_positions[2] - 1], Dropout)


def test_alexnet_full_shape_chain():
    spec = build_hccr_alexnet("reference-full")
    shapes = infer_shapes(spec)
    assert shapes[0] == (96, 57, 57)
    assert shapes[2] == (96, 29, 29)
    assert shapes[5] == (256, 15, 15)
    assert shapes[12] == (256, 8, 8)
    assert shapes[-1] == (3755,)


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        build_hccr_googlenet("medium")
    with pytest.raises(ValueError):
        build_hccr_alexnet("medium")


# ---------------------------------------------------------------------------
# validation

def test_validate_names_failing_layer():
    spec = NetworkSpec((1, 4, 4), (Conv(2, 5), ReLU(), GlobalAvgPool(),
                                   FullyConnected(2), Softmax()), 2)
    with pytest.raises(ShapeError, match=r"layer 0 \(conv\)"):
        validate_spec(spec)


def test_validate_names_failing_pool_layer():
    spec = NetworkSpec((1, 8, 8), (Conv(2, 3, pad=1), MaxPool(9, 2),
                                   GlobalAvgPool(), FullyConnected(2), Softmax()), 2)
    with pytest.raises(ShapeError, match=r"layer 1 \(maxpool\)"):
        validate_spec(spec)


def test_validate_requires_terminal_softmax():
    with pytest.raises(ShapeError, match="softmax"):
        validate_spec(NetworkSpec((1, 8, 8), (Conv(2, 3), GlobalAvgPool(),
                                              FullyConnected(2)), 2))
    with pytest.raises(ShapeError, match="softmax"):
        validate_spec(NetworkSpec((1, 8, 8), (Softmax(), Conv(2, 3), GlobalAvgPool(),
                                              FullyConnected(2), Softmax()), 2))


def test_validate_checks_class_count():
    spec = NetworkSpec((1, 8, 8), (GlobalAvgPool(), FullyConnected(5), Softmax()), 3)
    with pytest.raises(ShapeError, match="class count"):
        validate_spec(spec)


def test_zero_classes_are_refused_not_defaulted():
    spec = NetworkSpec((1, 8, 8), (GlobalAvgPool(), FullyConnected(0), Softmax()), 0)
    with pytest.raises(ShapeError, match="class count must be >= 1, got 0"):
        validate_spec(spec)
    for name in REFERENCE_NETS:
        with pytest.raises(ShapeError, match="class count must be >= 1, got 0"):
            build_net(name, 0, 1)
    assert build_hccr_googlenet("reference-small").class_count == 10
    assert build_hccr_alexnet("reference-full").class_count == 3755


def test_fc_after_flatten_shape():
    spec = tiny_spec()
    shapes = infer_shapes(spec)
    assert shapes[3] == (9, 4, 4)   # inception output
    assert shapes[4] == (9,)        # global average pool
    assert shapes[-1] == (3,)


# ---------------------------------------------------------------------------
# parameters

def test_parameter_entries_order_and_store():
    spec = tiny_spec()
    names = [n for n, _, _ in parameter_entries(spec)]
    assert names == [
        "00_conv.w", "00_conv.b",
        "03_inception.b1.w", "03_inception.b1.b",
        "03_inception.b3r.w", "03_inception.b3r.b",
        "03_inception.b3.w", "03_inception.b3.b",
        "03_inception.b5r.w", "03_inception.b5r.b",
        "03_inception.b5.w", "03_inception.b5.b",
        "03_inception.proj.w", "03_inception.proj.b",
        "06_fullyconnected.w", "06_fullyconnected.b",
    ]
    params = init_weights(spec, seed=3)
    assert params.total_count() == count_parameters(spec)
    assert set(params.keys()) == set(names)


def test_init_weights_he_variance():
    # fc 1000 -> 1000: variance should sit near 2/1000
    fc_spec = NetworkSpec((1000, 1, 1), (FullyConnected(1000), Softmax()), 1000)
    params = init_weights(fc_spec, seed=11)
    w = params["00_fullyconnected.w"]
    assert w.shape == (1000, 1000)
    assert abs(w.var() - 2e-3) / 2e-3 < 0.10
    assert np.all(params["00_fullyconnected.b"] == 0)


def test_init_weights_deterministic_per_seed():
    spec = tiny_spec()
    a = init_weights(spec, seed=7)
    b = init_weights(spec, seed=7)
    c = init_weights(spec, seed=8)
    for name in a.keys():
        np.testing.assert_array_equal(a[name], b[name])
    assert any(not np.array_equal(a[name], c[name]) for name in a.keys())


def test_param_store_astype_and_copy():
    params = init_weights(tiny_spec(), seed=1)
    p64 = params.astype(np.float64)
    assert all(v.dtype == np.float64 for v in p64.tensors.values())
    dup = params.copy()
    dup.tensors["00_conv.b"][:] = 5.0
    assert not np.array_equal(dup["00_conv.b"], params["00_conv.b"])


# ---------------------------------------------------------------------------
# forward execution

def test_forward_infer_prob_rows():
    spec = build_hccr_googlenet("reference-small")
    params = init_weights(spec, seed=0)
    x = np.random.default_rng(5).random((3, 1, 32, 32), dtype=np.float32)
    probs, tape = forward_net(spec, params, x, mode="infer")
    assert tape is None
    assert probs.shape == (3, 10)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-5)
    assert np.all(probs >= 0)


def test_forward_train_matches_infer_without_dropout():
    for spec in (tiny_spec(), build_hccr_googlenet("reference-small"),
                 build_hccr_alexnet("reference-small")):
        spec = with_dropout_rate(spec, 0.0)
        params = init_weights(spec, seed=2)
        x = np.random.default_rng(9).random((2, *spec.input_shape), dtype=np.float32)
        p_infer, _ = forward_net(spec, params, x, mode="infer")
        p_train = loss_and_grads(spec, params, x, np.array([0, 1]))[1]
        np.testing.assert_array_equal(p_infer, p_train)


def test_forward_dropout_needs_rng():
    spec = tiny_spec(rate=0.5)
    params = init_weights(spec, seed=2)
    x = np.zeros((1, 1, 8, 8), dtype=np.float32)
    with pytest.raises(ValueError, match="rng"):
        loss_and_grads(spec, params, x, np.array([0]))


def test_forward_rejects_wrong_input_shape():
    spec = tiny_spec()
    params = init_weights(spec, seed=0)
    with pytest.raises(ShapeError, match="does not match"):
        forward_net(spec, params, np.zeros((2, 1, 9, 8), dtype=np.float32))
    with pytest.raises(ShapeError):
        forward_net(spec, params, np.zeros((1, 8, 8), dtype=np.float32))


def test_forward_rejects_unknown_mode():
    spec = tiny_spec()
    params = init_weights(spec, seed=0)
    for mode in ("test", "train"):      # training goes through loss_and_grads
        with pytest.raises(ValueError, match=f"unknown mode '{mode}'"):
            forward_net(spec, params, np.zeros((1, 1, 8, 8), dtype=np.float32), mode=mode)


def test_loss_and_grads_covers_every_parameter():
    spec = with_dropout_rate(tiny_spec(), 0.0)
    params = init_weights(spec, seed=4)
    x = np.random.default_rng(0).random((4, 1, 8, 8), dtype=np.float32)
    labels = np.array([0, 1, 2, 0])
    loss, probs, grads = loss_and_grads(spec, params, x, labels)
    assert loss > 0
    assert set(grads.keys()) == set(params.keys())
    for name in params.keys():
        assert grads[name].shape == params[name].shape


def test_loss_and_grads_computes_no_input_gradient(monkeypatch):
    """The stem conv skips dx of the network input; no gradient changes."""
    spec = build_hccr_googlenet("reference-small", class_count=10)
    params = init_weights(spec, seed=2)
    x = np.random.default_rng(3).random((4, 1, 32, 32), dtype=np.float32)
    labels = np.array([0, 3, 7, 9])
    backward = tc._conv2d_backward
    calls = []

    def spy(g, xv, w, stride, pad, need_dx=True):
        calls.append((xv is x, need_dx))
        return backward(g, xv, w, stride, pad, need_dx)

    monkeypatch.setattr(tc, "_conv2d_backward", spy)
    loss, _, grads = loss_and_grads(spec, params, x, labels, np.random.default_rng(1))
    assert [need for is_input, need in calls if is_input] == [False]
    assert all(need for is_input, need in calls if not is_input)
    # every conv computing dx, the input's included, gives the same gradients
    monkeypatch.setattr(tc, "_conv2d_backward",
                        lambda g, xv, w, stride, pad, need_dx: backward(g, xv, w, stride, pad))
    loss_dx, _, grads_dx = loss_and_grads(spec, params, x, labels,
                                          np.random.default_rng(1))
    assert loss == loss_dx
    for name in params.keys():
        np.testing.assert_array_equal(grads[name], grads_dx[name])


def test_final_fc_bias_gradient_is_mean_residual():
    spec = with_dropout_rate(tiny_spec(), 0.0)
    params = init_weights(spec, seed=4)
    x = np.random.default_rng(1).random((4, 1, 8, 8), dtype=np.float32)
    labels = np.array([2, 0, 1, 1])
    loss, probs, grads = loss_and_grads(spec, params, x, labels)
    onehot = np.eye(3, dtype=probs.dtype)[labels]
    np.testing.assert_allclose(grads["06_fullyconnected.b"],
                               (probs - onehot).mean(axis=0), atol=1e-6)


def test_gradient_audit_every_layer_kind():
    spec = tiny_spec(rate=0.5)   # rate forced to zero inside the audit
    params = init_weights(spec, seed=6)
    # Zero-initialized biases can leave a whole branch sitting exactly on the
    # relu kink (subgradient 0 there, one-sided slope under finite differences).
    # Jitter the biases so the audit runs at a differentiable point.
    jitter = np.random.default_rng(42)
    for name in params.keys():
        if name.endswith(".b"):
            params.tensors[name] = (params[name] +
                                    jitter.normal(0, 0.05, params[name].shape)
                                    ).astype(params[name].dtype)
    x = np.random.default_rng(2).random((2, 1, 8, 8))
    labels = np.array([0, 2])
    report = grad_check_network(spec, params, x, labels,
                                rng=np.random.default_rng(3))
    assert report.passed, report
    assert report.checked >= 100


def test_short_training_run_decreases_loss():
    spec = with_dropout_rate(build_hccr_googlenet("reference-small"), 0.0)
    params = init_weights(spec, seed=0)
    rng = np.random.default_rng(12)
    x = rng.random((16, 1, 32, 32), dtype=np.float32)
    labels = rng.integers(0, 10, size=16)
    decreased = False
    for lr in (0.1, 0.01, 0.001):
        trial = params.copy()
        losses = []
        for _ in range(20):
            loss, _, grads = loss_and_grads(spec, trial, x, labels)
            losses.append(loss)
            tc.sgd_step(trial.tensors, grads, lr=lr, momentum=0.9,
                        velocity=trial.velocity)
        if losses[-1] < losses[0] and min(losses[1:]) < losses[0]:
            decreased = True
            break
    assert decreased, f"no learning-rate produced a loss decrease: {losses[:5]}..."


# ---------------------------------------------------------------------------
# reference networks

def test_build_net_matches_the_family_builders():
    assert build_net("googlenet-full", 5, 9) == build_hccr_googlenet(
        "reference-full", class_count=5, in_channels=9)
    assert build_net("alexnet-small", 3, 1) == build_hccr_alexnet(
        "reference-small", class_count=3)
    with pytest.raises(ValueError, match="unknown network"):
        build_net("resnet-small", 3, 1)


def test_reference_net_names_each_build():
    for name in REFERENCE_NETS:
        for classes, channels in ((3, 1), (7, 9)):
            assert reference_net(build_net(name, classes, channels)) == name


def test_reference_net_rejects_other_topologies():
    with pytest.raises(ValueError, match="none of the reference networks"):
        reference_net(tiny_spec())
    changed = with_dropout_rate(build_net("googlenet-small", 3, 1), 0.25)
    with pytest.raises(ValueError, match="none of the reference networks"):
        reference_net(changed)
