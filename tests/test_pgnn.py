import hashlib

import numpy as np
import pytest

from gatesim import pgnn
from gatesim.fitting import TrainingSample
from gatesim.pgnn import (
    HIDDEN_SIZES,
    V_MAX,
    V_MIN,
    TrainConfig,
    init_params,
    load_params,
    loss_terms,
    mlp_forward,
    pgnn_loss_grads,
    save_params,
    train_pgnn,
    training_batch,
    trajectory_time,
    write_loss_curve_csv,
)
from gatesim.planner import MinJerkTrajectory


def toy_samples():
    return [
        TrainingSample(3.0, 2.0, np.array([1.0, 0.0, 0.0, 0.0, 0.0])),
        TrainingSample(4.0, 3.0, np.array([0.0, 1.0, 0.0, 0.0, 0.0])),
    ]


class TestForward:
    def test_infer_mode_deterministic(self):
        params = init_params(0)
        a = mlp_forward(params, 4.0)
        b = mlp_forward(params, 4.0)
        assert a == b

    def test_output_clamped(self):
        params = init_params(0)
        depths = np.array([0.01, 0.5, 2.0, 6.0, 50.0, 1000.0])
        out = mlp_forward(params, depths)
        assert np.all(out >= V_MIN) and np.all(out <= V_MAX)

    def test_nonpositive_depth(self):
        with pytest.raises(ValueError, match="depth must be positive"):
            mlp_forward(init_params(0), 0.0)
        with pytest.raises(ValueError, match="depth must be positive"):
            mlp_forward(init_params(0), np.array([2.0, -1.0]))
        with pytest.raises(ValueError, match="depth must be positive"):
            mlp_forward(init_params(0), float("nan"))
        with pytest.raises(ValueError, match="depth must be positive"):
            mlp_forward(init_params(0), np.array([2.0, np.nan]))

    # float.hex of infer-mode predictions at these depths, for the initial
    # network and for 50 epochs on the default dataset
    PINNED_DEPTHS = (2.0, 2.137, 3.0, 4.0, 5.0, 6.0)
    PINNED_INFER = {
        "init": [
            "0x1.52a2ea8b4ff49p+3", "0x1.535d46b630f3ap+3", "0x1.57f265a9a78bbp+3",
            "0x1.5d3f82b691163p+3", "0x1.628979dc09bfep+3", "0x1.67cf8520579bfp+3",
        ],
        "fifty-epochs": [
            "0x1.663062eab1210p+3", "0x1.659437c3a9041p+3", "0x1.6e58a76e1ff91p+3",
            "0x1.6e5429bd705f9p+3", "0x1.774b23d3b0e0cp+3", "0x1.791f85767244cp+3",
        ],
    }

    @pytest.mark.parametrize("net", list(PINNED_INFER))
    def test_infer_outputs_pinned(self, net, dataset):
        if net == "init":
            params = init_params(0)
        else:
            params, _ = train_pgnn(dataset, TrainConfig(epochs=50), record_history=False)
        scalar = [mlp_forward(params, d) for d in self.PINNED_DEPTHS]
        assert all(type(v) is float for v in scalar)
        assert [v.hex() for v in scalar] == self.PINNED_INFER[net]
        # the array path and a 0-d array give the same bits per element
        array = mlp_forward(params, np.array(self.PINNED_DEPTHS))
        assert array.tobytes() == np.array(scalar).tobytes()
        zero_d = mlp_forward(params, np.array(self.PINNED_DEPTHS[1]))
        assert type(zero_d) is float and zero_d == scalar[1]

    def test_sigmoid_matches_two_branch_formula(self):
        z = np.array([-800.0, -30.0, -1e-300, -0.0, 0.0, 1e-300, 30.0, 800.0, np.nan])
        z = z.reshape(-1, 1)  # the output layer's column
        want = np.empty_like(z)
        pos = z >= 0
        want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        want[~pos] = ez / (1.0 + ez)
        assert pgnn._sigmoid(z).tobytes() == want.tobytes()

    def test_architecture_sizes(self):
        params = init_params(0)
        shapes = [w.shape for w in params.weights]
        assert shapes == [(1, 64), (64, 128), (128, 128), (128, 1)]
        assert tuple(g.shape[0] for g in params.bn_gamma) == HIDDEN_SIZES

    def test_batchnorm_normalizes_batch(self):
        # fresh parameters: gamma=1, beta=0, so layer outputs before the
        # rectifier must be normalized over the batch
        params = init_params(0)
        rng = np.random.default_rng(5)
        depths = rng.uniform(2.0, 6.0, 64)
        _, caches = pgnn._forward(params, depths, "train")
        for cache in caches[:-1]:
            normalized = cache["xhat"]
            assert np.abs(normalized.mean(axis=0)).max() < 1e-6
            assert np.abs(normalized.var(axis=0) - 1.0).max() < 1e-6


class TestLoss:
    def test_hand_computed_toy_loss(self):
        # sample 1: constraint (1,0,0,0,0) at v*=2 -> 1*1*2^0 = 1
        # sample 2: constraint (0,1,0,0,0) at v*=3 -> 2*1*3^1 = 6
        preds = np.array([2.5, 2.0])
        mse, phys, total = loss_terms(preds, training_batch(toy_samples()), lam=0.1)
        assert mse == pytest.approx(((2.0 - 2.5) ** 2 + (3.0 - 2.0) ** 2) / 2, abs=1e-12)
        assert phys == pytest.approx(7.0, abs=1e-12)
        assert total == pytest.approx(mse + 0.1 * 7.0, abs=1e-12)

    def test_zero_lambda_reduces_to_mse(self):
        params = init_params(1)
        batch = training_batch(toy_samples())
        preds = pgnn._forward(params, batch[0], "train")[0]
        mse = float(np.mean((np.array([2.0, 3.0]) - preds) ** 2))
        assert pgnn_loss_grads(params, batch, 0.0)[0] == pytest.approx(mse, rel=1e-12)

    def test_perfect_predictions_leave_only_physics(self):
        preds = np.array([2.0, 3.0])
        mse, phys, total = loss_terms(preds, training_batch(toy_samples()), lam=1e-4)
        assert mse == 0.0
        assert total == pytest.approx(1e-4 * phys, abs=1e-18)

    def test_lambda_linearity(self):
        params = init_params(2)
        batch = training_batch(toy_samples())
        l1 = pgnn_loss_grads(params, batch, 0.01)[0]
        l2 = pgnn_loss_grads(params, batch, 0.07)[0]
        _, phys, _ = loss_terms(
            pgnn._forward(params, np.array([3.0, 4.0]), "train")[0], batch, 0.0
        )
        assert l2 - l1 == pytest.approx((0.07 - 0.01) * phys, rel=1e-9)

    def test_empty_dataset(self):
        with pytest.raises(ValueError, match="no training samples"):
            training_batch([])

    def test_default_dataset_loss_and_grads_pinned(self, dataset):
        # Pins the bits of one training step's inputs at init_params(0):
        # the loss, every gradient array, the batch statistics, and the
        # (mse, physics, total) terms of the train-mode predictions.
        params = init_params(0)
        batch = training_batch(dataset)
        loss, grads, batch_stats = pgnn_loss_grads(params, batch, 1e-2)
        terms = loss_terms(pgnn._forward(params, batch[0], "train")[0], batch, 1e-2)
        digest = hashlib.sha256(np.array([loss, *terms]).tobytes())
        for arr in [*grads, *(a for pair in batch_stats for a in pair)]:
            digest.update(arr.tobytes())
        assert digest.hexdigest() == (
            "b6b647da0723cc4387d2d3b89f0397887c312678bd5acbd07660044276561c77"
        )


def relative_error(a, b, floor=1e-5):
    # central differences of a float64 loss cannot resolve gradients below
    # ~1e-6; entries under the floor are numerically zero on both sides
    return abs(a - b) / max(abs(a), abs(b), floor)


class TestGradients:
    def test_matches_finite_differences(self, dataset):
        params = init_params(0)
        samples = dataset[:10]
        depths = np.array([s.depth for s in samples])
        batch = training_batch(samples)
        _, grads, _ = pgnn_loss_grads(params, batch, 1e-2)
        arrays = params.trainable()
        rng = np.random.default_rng(4)
        eps = 1e-5

        def loss_and_pattern():
            v, caches = pgnn._forward(params, depths, "train")
            pattern = [c["y"] > 0 for c in caches[:-1]]
            total = loss_terms(v, batch, 1e-2)[2]
            return total, pattern

        analytic, numeric = [], []
        checked = 0
        while checked < 20:
            ai = int(rng.integers(len(arrays)))
            arr = arrays[ai]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            lp, pat_p = loss_and_pattern()
            arr[idx] = orig - eps
            lm, pat_m = loss_and_pattern()
            arr[idx] = orig
            if any(np.any(a != b) for a, b in zip(pat_p, pat_m)):
                continue  # rectifier kink inside the probe interval
            fd = (lp - lm) / (2 * eps)
            assert relative_error(fd, grads[ai][idx]) < 1e-4
            analytic.append(grads[ai][idx])
            numeric.append(fd)
            checked += 1
        analytic, numeric = np.array(analytic), np.array(numeric)
        norm = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
        assert np.linalg.norm(analytic - numeric) / norm < 1e-4


class TestTraining:
    def test_seeded_training_is_bit_identical(self, dataset):
        config = TrainConfig(epochs=40, seed=123)
        pa, ha = train_pgnn(dataset, config)
        pb, hb = train_pgnn(dataset, config)
        for a, b in zip(pa.trainable(), pb.trainable()):
            assert np.array_equal(a, b)
        assert ha == hb

    def test_short_training_reaches_targets(self, dataset):
        params, history = train_pgnn(dataset, TrainConfig(epochs=400, seed=0))
        assert history[-1][1] <= 0.25  # final training MSE
        depths = np.array([s.depth for s in dataset])
        targets = np.array([s.v_star for s in dataset])
        preds = mlp_forward(params, depths)
        assert np.abs(preds - targets).max() <= 0.5

    def test_too_few_samples(self, dataset):
        with pytest.raises(ValueError, match="need >= 8 training samples"):
            train_pgnn(dataset[:5], TrainConfig(epochs=1))

    @pytest.mark.parametrize("lam", [-1e-4, float("nan"), float("inf")])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be"):
            TrainConfig(lam=lam)

    @pytest.mark.parametrize("name, value", [
        ("epochs", 2.5), ("epochs", True), ("epochs", 0),
        ("seed", 1.5), ("seed", True), ("seed", -1),
    ])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**{name: value})

    def test_divergence_detected(self, dataset):
        poisoned = list(dataset[:8])
        poisoned[0] = TrainingSample(3.0, float("nan"), np.zeros(5))
        with pytest.raises(ValueError, match="loss became nan"):
            train_pgnn(poisoned, TrainConfig(epochs=2))

    def test_lambda_does_not_change_the_trained_network(self, dataset):
        # The physics term is evaluated at the targets, so it has no gradient
        # and every lam trains the same bits; build_default_models relies on
        # this to share one training between the pgnn and vanilla-ann
        # planners.  If this fails, the planners need separate trainings.
        trained = [
            train_pgnn(dataset, TrainConfig(lam=lam, epochs=50))[0]
            for lam in (0.0, 1e-4, 1.0)
        ]
        for other in trained[1:]:
            for a, b in zip(
                trained[0].trainable() + trained[0].bn_mean + trained[0].bn_var,
                other.trainable() + other.bn_mean + other.bn_var,
            ):
                assert np.array_equal(a, b)

    def test_fifty_epochs_pinned(self, dataset):
        # Pins the trained bits of full-batch Adam (lr 1e-3, BN momentum 0.9):
        # parameters, running statistics and the loss history.
        params, history = train_pgnn(dataset, TrainConfig(epochs=50))
        digest = hashlib.sha256()
        for arr in params.trainable() + params.bn_mean + params.bn_var:
            digest.update(arr.tobytes())
        digest.update(np.array(history).tobytes())
        assert digest.hexdigest() == (
            "44a33b09bcfe4392efc22b13a8934a32ad93d96eb93df42768e31d700acf4432"
        )


def reference_train(samples, config, record_history):
    """train_pgnn with the allocating adaptive-moment update it was first
    written with: every expression builds fresh vectors."""
    batch = training_batch(samples)
    params = init_params(config.seed)
    flat = np.concatenate(params.trainable(), axis=None)
    start = 0
    for group in (params.weights, params.biases, params.bn_gamma, params.bn_beta):
        for i, arr in enumerate(group):
            group[i] = flat[start:start + arr.size].reshape(arr.shape)
            start += arr.size
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m_state = np.zeros_like(flat)
    v_state = np.zeros_like(flat)
    history = []
    for epoch in range(config.epochs):
        loss, grads, batch_stats = pgnn_loss_grads(params, batch, config.lam)
        step = epoch + 1
        grad = np.concatenate(grads, axis=None)
        m_state = beta1 * m_state + (1 - beta1) * grad
        v_state = beta2 * v_state + (1 - beta2) * grad**2
        m_hat = m_state / (1 - beta1**step)
        v_hat = v_state / (1 - beta2**step)
        flat -= pgnn.LEARNING_RATE * m_hat / (np.sqrt(v_hat) + eps)
        for i, (mu, var) in enumerate(batch_stats):
            params.bn_mean[i] = pgnn.BN_MOMENTUM * params.bn_mean[i] + (1 - pgnn.BN_MOMENTUM) * mu
            params.bn_var[i] = pgnn.BN_MOMENTUM * params.bn_var[i] + (1 - pgnn.BN_MOMENTUM) * var
        if record_history:
            preds, _ = pgnn._forward(params, batch[0], "infer")
            history.append((epoch, *loss_terms(preds, batch, config.lam)))
    return params, history


@pytest.mark.parametrize("seed, record_history", [(0, False), (3, False), (3, True)])
def test_training_matches_allocating_reference(dataset, seed, record_history):
    config = TrainConfig(lam=1e-4, epochs=60, seed=seed)
    params, history = train_pgnn(dataset, config, record_history=record_history)
    want, want_history = reference_train(dataset, config, record_history)
    got_arrays = params.trainable() + params.bn_mean + params.bn_var
    want_arrays = want.trainable() + want.bn_mean + want.bn_var
    assert len(got_arrays) == len(want_arrays) == 20
    for a, b in zip(got_arrays, want_arrays):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert history == want_history
    assert len(history) == (config.epochs if record_history else 0)
    # the trainable arrays are still views into one flat vector, in order
    flat = params.weights[0].base
    assert flat is not None and flat.ndim == 1
    assert flat.size == sum(a.size for a in params.trainable())
    offset = 0
    for arr in params.trainable():
        assert arr.base is flat and np.shares_memory(arr, flat)
        assert np.array_equal(flat[offset:offset + arr.size], arr.ravel())
        offset += arr.size


class TestTrajectoryTime:
    def test_examples(self):
        assert trajectory_time(8.0, 4.0) == pytest.approx(0.5)
        assert trajectory_time(3.7, 3.7) == pytest.approx(1.0)
        assert trajectory_time(V_MIN, 6.0) == pytest.approx(12.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="v_pred .* is not positive"):
            trajectory_time(0.0, 4.0)
        with pytest.raises(ValueError, match="depth .* is not positive"):
            trajectory_time(8.0, 0.0)
        with pytest.raises(ValueError, match="v_pred .* is not positive"):
            trajectory_time(float("nan"), 4.0)
        with pytest.raises(ValueError, match="depth .* is not positive"):
            trajectory_time(8.0, float("nan"))


@pytest.mark.parametrize("flight_input, message", [
    (lambda: mlp_forward(init_params(0), np.inf), "depth must be positive and finite"),
    (lambda: mlp_forward(init_params(0), np.array([2.0, np.inf])), "depth must be positive and finite"),
    (lambda: trajectory_time(np.inf, 4.0), "v_pred inf is not positive and finite"),
    (lambda: trajectory_time(1.0, np.inf), "depth inf is not positive and finite"),
    (lambda: MinJerkTrajectory([0.0], [1.0], np.inf), "duration inf is not positive and finite"),
], ids=["mlp_forward", "mlp_forward_array", "v_pred", "depth", "duration"])
def test_infinite_flight_input_rejected(flight_input, message):
    # unchecked, these give a NaN velocity, an infinite flight time, or an
    # OverflowError (which the CLI does not catch) when the trajectory is sampled
    with pytest.raises(ValueError, match=message):
        flight_input()


def test_params_roundtrip(tmp_path, dataset):
    params, history = train_pgnn(dataset, TrainConfig(epochs=10))
    path = tmp_path / "params.npz"
    save_params(params, path)
    assert np.load(path).files == [
        f"{prefix}{i}"
        for prefix, n in (("w", 4), ("b", 4), ("g", 3), ("s", 3), ("rm", 3), ("rv", 3))
        for i in range(n)
    ]
    loaded = load_params(path)
    for a, b in zip(params.trainable(), loaded.trainable()):
        assert np.array_equal(a, b)
    for a, b in zip(params.bn_mean + params.bn_var, loaded.bn_mean + loaded.bn_var):
        assert np.array_equal(a, b)
    assert mlp_forward(loaded, 4.0) == mlp_forward(params, 4.0)

    curve = tmp_path / "curve.csv"
    write_loss_curve_csv(history, curve)
    lines = curve.read_text().splitlines()
    assert lines[0] == "epoch,mse,physics_term,total"
    assert len(lines) == 11


@pytest.mark.parametrize("edit, match", [
    (lambda a: a.pop("b2"), "missing array 'b2'"),
    (lambda a: a.pop("rv2"), "missing array 'rv2'"),
    (lambda a: [a.pop(k) for k in list(a) if k != "w0"], "missing array 'w1'"),
    (lambda a: a.update(w4=np.zeros((1, 1))), "unexpected array 'w4'"),
    (lambda a: a.update(extra=np.zeros(3)), "unexpected array 'extra'"),
    (lambda a: a.update(w1=np.zeros((64, 127))), r"'w1' .* shape \(64, 127\), expected \(64, 128\)"),
    (lambda a: a.update(g0=np.zeros((64, 1))), r"'g0' .* shape \(64, 1\), expected \(64,\)"),
    (lambda a: a.update(rm2=np.float64(1.0)), r"'rm2' .* shape \(\), expected \(128,\)"),
])
def test_load_params_rejects_other_architectures(tmp_path, edit, match):
    arrays = pgnn._npz_arrays(init_params(0))
    edit(arrays)
    path = tmp_path / "params.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=match):
        load_params(path)
