"""Acceptance gate: eight pass/fail criteria with pinned tolerances.

Each test prints exactly one verdict line to the real terminal (bypassing
capture) of the form `[criterion N] PASS/FAIL - summary`, then asserts.
Budgeted runtimes are enforced with wall-clock checks inside the tests.
"""

import math
import time

import numpy as np
import pytest

from naive_ref import conv2d_ref, maxpool2d_ref, matmul_ref

import hccr.tensor_core as tc
from hccr.directional_features import (
    CHAINCODE_DIRECTIONS,
    GaborBankSpec,
    MODE_CHANNELS,
    chaincode_decompose,
    gabor_responses,
    sobel_gradients,
    stack_batch,
    stack_input,
)
from hccr.network_builder import (
    Conv,
    Dropout,
    FullyConnected,
    GlobalAvgPool,
    Inception,
    InceptionSpec,
    MaxPool,
    NetworkSpec,
    ReLU,
    Softmax,
    build_hccr_alexnet,
    build_hccr_googlenet,
    count_inception_modules,
    count_layers,
    count_parameters,
    forward_net,
    grad_check_network,
    init_weights,
    parameter_entries,
)
from hccr.pipeline_data import (
    PREPROC_PRESETS,
    PreprocSpec,
    invert_gray,
    load_gnt,
    preprocess,
    preprocess_dataset,
    shuffle_split,
    synth_glyphs,
    write_gnt,
)
from hccr.train_eval import (
    TrainConfig,
    ensemble_predict,
    format_training_log,
    load_model,
    relative_error_reduction,
    save_model,
    train,
)


def _verdict(capfd, number, passed, summary):
    status = "PASS" if passed else "FAIL"
    with capfd.disabled():
        print(f"[criterion {number}] {status} - {summary}")
    assert passed, f"criterion {number}: {summary}"


# ---------------------------------------------------------------------------
# 1. gradient correctness on a net containing every layer type

def test_criterion_1_gradient_correctness(capfd):
    spec = NetworkSpec((1, 8, 8), (
        Conv(4, 3, pad=1),
        ReLU(),
        MaxPool(2, 2),
        Inception(InceptionSpec(2, 2, 3, 1, 2, 2)),
        GlobalAvgPool(),
        Dropout(0.5),               # audited with the rate forced to zero
        FullyConnected(3),
        Softmax(),
    ), 3)
    params = init_weights(spec, 6)
    # jitter biases off zero so no pre-activation sits exactly on the
    # relu kink, where one-sided numeric slopes disagree with subgradients
    jitter = np.random.default_rng(42)
    for name, _, fan_in in parameter_entries(spec):
        if fan_in is None:          # bias tensor
            params.tensors[name] = params[name] + jitter.normal(
                0, 0.05, params[name].shape).astype(tc.FLOAT)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, (2, 1, 8, 8))
    labels = np.array([0, 2])
    started = time.perf_counter()
    report = grad_check_network(spec, params, x, labels, epsilon=1e-5,
                                tolerance=1e-4, min_checks=120, rng=rng)
    elapsed = time.perf_counter() - started
    passed = report.passed and elapsed < 60.0
    _verdict(capfd, 1, passed,
             f"max relative gradient error {report.max_rel_error:.2e} over "
             f"{report.checked} parameters (tolerance 1e-4) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. kernel oracles on 200 random shapes

def test_criterion_2_kernel_oracles(capfd):
    rng = np.random.default_rng(123)
    started = time.perf_counter()
    worst = 0.0
    cases = 0
    for _ in range(70):                     # convolution
        n, c, f = rng.integers(1, 4), rng.integers(1, 4), rng.integers(1, 5)
        k = int(rng.integers(1, 5))
        stride, pad = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        size = int(rng.integers(max(1, k - 2 * pad), 10))
        if size + 2 * pad < k:
            size = k
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        w = rng.standard_normal((f, c, k, k)).astype(np.float32)
        b = rng.standard_normal(f).astype(np.float32)
        out = tc.conv2d(x, w, b, stride=stride, pad=pad)
        ref = conv2d_ref(x, w, b, stride=stride, pad=pad)
        worst = max(worst, float(np.abs(out - ref).max()))
        cases += 1
    for _ in range(65):                     # max pooling
        n, c = rng.integers(1, 4), rng.integers(1, 5)
        window = int(rng.integers(1, 4))
        stride, pad = int(rng.integers(1, 4)), int(rng.integers(0, window))
        size = int(rng.integers(max(1, window - 2 * pad), 11))
        if size + 2 * pad < window:
            size = window
        x = rng.standard_normal((n, c, size, size)).astype(np.float32)
        out, _ = tc.maxpool2d(x, window, stride, pad)
        ref = maxpool2d_ref(x, window, stride, pad)
        worst = max(worst, float(np.abs(out - ref).max()))
        cases += 1
    for _ in range(65):                     # fully connected
        n, d, m = rng.integers(1, 6), rng.integers(1, 12), rng.integers(1, 9)
        x = rng.standard_normal((n, d)).astype(np.float32)
        w = rng.standard_normal((m, d)).astype(np.float32)
        b = rng.standard_normal(m).astype(np.float32)
        out = tc.fully_connected(x, w, b)
        worst = max(worst, float(np.abs(out - matmul_ref(x, w, b)).max()))
        cases += 1
    elapsed = time.perf_counter() - started
    passed = cases == 200 and worst < 1e-5 and elapsed < 30.0
    _verdict(capfd, 2, passed,
             f"{cases} random shapes, worst absolute deviation {worst:.2e} "
             f"(tolerance 1e-5) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. published arithmetic: error-rate reductions and storage projection

def test_criterion_3_reported_arithmetic(capfd):
    started = time.perf_counter()
    reductions = [relative_error_reduction(base, new)
                  for base, new in ((92.72, 96.74), (94.77, 96.74),
                                    (96.06, 96.74))]
    expected = (55.22, 37.67, 17.26)
    arithmetic_ok = all(abs(got - want) <= 0.01
                        for got, want in zip(reductions, expected))
    mib = 4 * 7_260_000 / 2 ** 20
    storage_ok = abs(mib - 27.68) < 0.05
    elapsed = time.perf_counter() - started
    passed = arithmetic_ok and storage_ok and elapsed < 1.0
    _verdict(capfd, 3, passed,
             f"error reductions {[f'{r:.2f}' for r in reductions]} vs "
             f"{expected}; 7.26e6 params -> {mib:.2f} MiB vs 27.68")


# ---------------------------------------------------------------------------
# 4. topology audit of the reference-full networks

def test_criterion_4_topology_audit(capfd):
    goog = build_hccr_googlenet("reference-full")
    alex = build_hccr_alexnet("reference-full")
    inceptions = count_inception_modules(goog)
    goog_weighted = count_layers(goog, "weighted")
    alex_weighted = count_layers(alex, "weighted")
    goog_params = count_parameters(goog)
    alex_params = count_parameters(alex)
    enum_ok = (init_weights(goog, 0).total_count() == goog_params
               and init_weights(alex, 0).total_count() == alex_params)
    passed = (inceptions == 4 and goog_weighted >= 14
              and alex_weighted == 8 and enum_ok)
    _verdict(capfd, 4, passed,
             f"inception modules {inceptions}, weighted layers "
             f"{goog_weighted} / {alex_weighted}, parameters "
             f"{goog_params:,} / {alex_params:,} (enumeration exact)")


# ---------------------------------------------------------------------------
# 5. preprocessing exactness

def test_criterion_5_preprocessing(capfd):
    margins = (PreprocSpec(112, 120).margin, PreprocSpec(108, 114).margin)
    rng = np.random.default_rng(5)
    image = rng.uniform(0, 1, (40, 40)).astype(np.float32)
    involution_ok = np.allclose(invert_gray(invert_gray(image)), image,
                                atol=1e-6)
    data = synth_glyphs(3, 2, noise=0.1, seed=1)
    shapes_ok, range_ok = True, True
    for preset in PREPROC_PRESETS.values():
        for sample in data.samples:
            out = preprocess(sample, preset).image
            shapes_ok &= out.shape == (preset.mask, preset.mask)
            range_ok &= bool((out >= 0).all() and (out <= 1).all())
    passed = margins == (4, 3) and involution_ok and shapes_ok and range_ok
    _verdict(capfd, 5, passed,
             f"margins {margins} (want (4, 3)); inversion involutive; all "
             f"preset outputs mask-sized in [0,1]")


# ---------------------------------------------------------------------------
# 6. feature-map properties

def _bar_image(angle, size=48, half_width=1.5):
    """Anti-aliased bright bar through the center, along `angle`."""
    center = (size - 1) / 2.0
    rows, cols = np.indices((size, size)).astype(float)
    distance = np.abs(-(cols - center) * math.sin(angle)
                      + (rows - center) * math.cos(angle))
    return np.clip(half_width + 0.5 - distance, 0.0, 1.0)


def test_criterion_6_feature_maps(capfd):
    rng = np.random.default_rng(6)
    rows, cols = np.mgrid[0:40, 0:40] / 40.0
    image = (0.4 + 0.3 * np.sin(6.0 * rows + 2.0)
             + 0.3 * np.cos(5.0 * cols + 1.0) * np.sin(3.0 * rows)
             ).astype(np.float32)
    gx, gy = sobel_gradients(image)
    planes = chaincode_decompose(gx, -gy)
    recon = np.tensordot(CHAINCODE_DIRECTIONS, planes, axes=(0, 0))
    recon_err = max(float(np.abs(recon[0] - gx).max()),
                    float(np.abs(recon[1] - (-gy)).max()))
    nonneg = bool((planes >= 0).all())

    spec = GaborBankSpec()
    tracked = []
    for k in range(8):
        bar = _bar_image(k * math.pi / 8)
        responses = gabor_responses(bar, spec).astype(np.float64)
        energy = (responses ** 2).sum(axis=(1, 2))
        tracked.append(int(energy.argmax()) == (k + 4) % 8)
    gabor_ok = all(tracked)

    image01 = rng.uniform(0, 1, (32, 32)).astype(np.float32)
    counts = {mode: stack_input(image01, mode).planes.shape[0]
              for mode in MODE_CHANNELS}
    counts_ok = (sorted(counts.values()) == [1, 8, 9, 9, 9]
                 and counts == dict(MODE_CHANNELS))

    passed = recon_err < 1e-5 and nonneg and gabor_ok and counts_ok
    _verdict(capfd, 6, passed,
             f"gradient reconstruction error {recon_err:.2e} (nonneg "
             f"{nonneg}); gabor tracked {sum(tracked)}/8 orientations; "
             f"channel counts {sorted(counts.values())}")


# ---------------------------------------------------------------------------
# 7. end-to-end scaled experiment

def test_criterion_7_end_to_end(capfd):
    data = synth_glyphs(10, 200, noise=0.1, seed=0)
    prepared = preprocess_dataset(data, PREPROC_PRESETS["googlenet-small"])
    train_set, val_set = shuffle_split(prepared, 0.8, seed=0)

    started = time.perf_counter()
    spec = build_hccr_googlenet("reference-small")
    config = TrainConfig(seed=0)            # stock defaults, 20 epochs
    _, log = train(spec, train_set, config, val_set)
    train_time = time.perf_counter() - started
    best_original = max(entry.val_top1 for entry in log)
    accuracy_ok = best_original >= 95.0 and train_time < 600.0

    spec9 = build_hccr_googlenet("reference-small", in_channels=9)
    config9 = TrainConfig(seed=0, mode="original+gabor")
    _, log9 = train(spec9, train_set, config9, val_set)
    best_gabor = max(entry.val_top1 for entry in log9)
    gabor_ok = best_gabor >= best_original - 2.0

    small = synth_glyphs(10, 60, noise=0.15, seed=3)
    small = preprocess_dataset(small, PREPROC_PRESETS["googlenet-small"])
    member_train, member_val = shuffle_split(small, 0.8, seed=3)
    images = [s.image for s in member_val.samples]
    labels = member_val.labels()
    wins = 0
    for trial in range(5):
        members, member_scores = [], []
        for m in range(4):
            member_spec = build_hccr_googlenet("reference-small")
            member_cfg = TrainConfig(epochs=6, batch_size=32, dropout=0.25,
                                     seed=100 * trial + m)
            member_params, _ = train(member_spec, member_train, member_cfg)
            members.append((member_spec, member_params, "original"))
            probs = ensemble_predict([members[-1]], images)
            member_scores.append(
                100.0 * float((probs.argmax(axis=1) == labels).mean()))
        probs = ensemble_predict(members, images)
        combined = 100.0 * float((probs.argmax(axis=1) == labels).mean())
        wins += combined >= float(np.mean(member_scores))
    ensemble_ok = wins >= 4

    passed = accuracy_ok and gabor_ok and ensemble_ok
    _verdict(capfd, 7, passed,
             f"best held-out top1 {best_original:.2f}% in {train_time:.0f}s "
             f"(bar 95%/600s); +gabor {best_gabor:.2f}%; ensemble beat "
             f"member mean in {wins}/5 trials")


# ---------------------------------------------------------------------------
# 8. persistence and determinism

def test_criterion_8_persistence_determinism(capfd, tmp_path):
    data = synth_glyphs(4, 12, noise=0.1, seed=2)
    prepared = preprocess_dataset(data, PREPROC_PRESETS["googlenet-small"])
    train_set, val_set = shuffle_split(prepared, 0.8, seed=2)
    spec = build_hccr_googlenet("reference-small", class_count=4)
    config = TrainConfig(epochs=2, batch_size=8, seed=1)
    params, log_a = train(spec, train_set, config, val_set)

    path = tmp_path / "round.hcrm"
    save_model(spec, params, path)
    loaded_spec, loaded_params = load_model(path)
    x = stack_batch([s.image for s in val_set.samples], "original")
    before, _ = forward_net(spec, params, x, mode="infer")
    after, _ = forward_net(loaded_spec, loaded_params, x, mode="infer")
    round_trip_ok = np.array_equal(before, after)

    _, log_b = train(spec, train_set, config, val_set)
    logs_ok = format_training_log(log_a) == format_training_log(log_b)

    gnt_a = tmp_path / "a.gnt"
    gnt_b = tmp_path / "b.gnt"
    write_gnt(data, gnt_a)
    write_gnt(load_gnt(gnt_a), gnt_b)
    gnt_ok = gnt_a.read_bytes() == gnt_b.read_bytes()

    passed = round_trip_ok and logs_ok and gnt_ok
    _verdict(capfd, 8, passed,
             f"save/load inference bit-identical {round_trip_ok}; seeded "
             f"logs identical {logs_ok}; container round-trip byte-exact "
             f"{gnt_ok}")
