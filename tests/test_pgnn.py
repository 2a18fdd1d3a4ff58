import hashlib

import numpy as np
import pytest

from gatesim import pgnn
from gatesim.errors import (
    DivergenceDetected,
    EmptyDataset,
    NonPositiveDepth,
    NonPositiveVelocity,
)
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
    pgnn_loss,
    pgnn_loss_grads,
    save_params,
    train_pgnn,
    trajectory_time,
    write_loss_curve_csv,
)


def toy_samples():
    return [
        TrainingSample(3.0, 2.0, np.array([1.0, 0.0, 0.0, 0.0, 0.0])),
        TrainingSample(4.0, 3.0, np.array([0.0, 1.0, 0.0, 0.0, 0.0])),
    ]


class TestForward:
    def test_infer_mode_deterministic(self):
        params = init_params(0)
        a = mlp_forward(params, 4.0, "infer")
        b = mlp_forward(params, 4.0, "infer")
        assert a == b

    def test_output_clamped(self):
        params = init_params(0)
        depths = np.array([0.01, 0.5, 2.0, 6.0, 50.0, 1000.0])
        out = mlp_forward(params, depths, "infer")
        assert np.all(out >= V_MIN) and np.all(out <= V_MAX)

    def test_nonpositive_depth(self):
        with pytest.raises(NonPositiveDepth):
            mlp_forward(init_params(0), 0.0)
        with pytest.raises(NonPositiveDepth):
            mlp_forward(init_params(0), np.array([2.0, -1.0]))

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
        mse, phys, total = loss_terms(preds, toy_samples(), lam=0.1)
        assert mse == pytest.approx(((2.0 - 2.5) ** 2 + (3.0 - 2.0) ** 2) / 2, abs=1e-12)
        assert phys == pytest.approx(7.0, abs=1e-12)
        assert total == pytest.approx(mse + 0.1 * 7.0, abs=1e-12)

    def test_zero_lambda_reduces_to_mse(self):
        params = init_params(1)
        samples = toy_samples()
        depths = np.array([s.depth for s in samples])
        preds = mlp_forward(params, depths, "train")
        mse = float(np.mean((np.array([2.0, 3.0]) - preds) ** 2))
        assert pgnn_loss(params, samples, 0.0) == pytest.approx(mse, rel=1e-12)

    def test_perfect_predictions_leave_only_physics(self):
        samples = toy_samples()
        preds = np.array([2.0, 3.0])
        mse, phys, total = loss_terms(preds, samples, lam=1e-4)
        assert mse == 0.0
        assert total == pytest.approx(1e-4 * phys, abs=1e-18)

    def test_lambda_linearity(self):
        params = init_params(2)
        samples = toy_samples()
        l1 = pgnn_loss(params, samples, 0.01)
        l2 = pgnn_loss(params, samples, 0.07)
        _, phys, _ = loss_terms(
            mlp_forward(params, np.array([3.0, 4.0]), "train"), samples, 0.0
        )
        assert l2 - l1 == pytest.approx((0.07 - 0.01) * phys, rel=1e-9)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            pgnn_loss(init_params(0), [], 0.0)


def relative_error(a, b, floor=1e-5):
    # central differences of a float64 loss cannot resolve gradients below
    # ~1e-6; entries under the floor are numerically zero on both sides
    return abs(a - b) / max(abs(a), abs(b), floor)


class TestGradients:
    def test_matches_finite_differences(self, dataset):
        params = init_params(0)
        samples = dataset[:10]
        depths = np.array([s.depth for s in samples])
        _, grads, _ = pgnn_loss_grads(params, samples, 1e-2)
        arrays = params.trainable()
        rng = np.random.default_rng(4)
        eps = 1e-5

        def loss_and_pattern():
            v, caches = pgnn._forward(params, depths, "train")
            pattern = [c["y"] > 0 for c in caches[:-1]]
            total = loss_terms(v, samples, 1e-2)[2]
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
        preds = mlp_forward(params, depths, "infer")
        assert np.abs(preds - targets).max() <= 0.5

    def test_too_few_samples(self, dataset):
        with pytest.raises(EmptyDataset):
            train_pgnn(dataset[:5], TrainConfig(epochs=1))

    @pytest.mark.parametrize("lam", [-1e-4, float("nan"), float("inf")])
    def test_bad_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="lam must be"):
            TrainConfig(lam=lam)

    def test_divergence_detected(self, dataset):
        poisoned = list(dataset[:8])
        poisoned[0] = TrainingSample(3.0, float("nan"), np.zeros(5))
        with pytest.raises(DivergenceDetected):
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


class TestTrajectoryTime:
    def test_examples(self):
        assert trajectory_time(8.0, 4.0) == pytest.approx(0.5)
        assert trajectory_time(3.7, 3.7) == pytest.approx(1.0)
        assert trajectory_time(V_MIN, 6.0) == pytest.approx(12.0)

    def test_errors(self):
        with pytest.raises(NonPositiveVelocity):
            trajectory_time(0.0, 4.0)
        with pytest.raises(NonPositiveDepth):
            trajectory_time(8.0, 0.0)


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
