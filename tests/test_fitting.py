import numpy as np
import pytest

from gatesim.errors import DegenerateDesignMatrix, InsufficientSamples
from gatesim.fitting import (
    QuinticFit,
    build_dataset,
    default_training_depths,
    fit_quintic,
    optimal_velocity,
    physics_term,
    read_dataset_csv,
    write_dataset_csv,
)
from gatesim.motor import energy_velocity_profile


def brute_force_argmin(fit: QuinticFit, step=0.001) -> float:
    grid = np.arange(fit.v_lo, fit.v_hi + step / 2, step)
    return float(grid[np.argmin(fit.energy(grid))])


class TestFitQuintic:
    def test_recovers_own_model_class(self):
        rng = np.random.default_rng(3)
        v = np.arange(1.0, 17.0)
        for _ in range(10):
            coeffs = rng.uniform(-1, 1, 6)
            e = np.polynomial.polynomial.polyval(v, coeffs)
            fit = fit_quintic(np.column_stack([v, e]))
            assert np.allclose(fit.coeffs, coeffs, rtol=1e-8, atol=1e-8)
            scale = max(np.abs(e).max(), 1.0)
            assert fit.residual_rms / scale < 1e-8

    def test_parabola_argmin(self):
        v = np.arange(1.0, 17.0)
        e = (v - 8.0) ** 2 + 100.0
        fit = fit_quintic(np.column_stack([v, e]))
        v_star, at_endpoint = optimal_velocity(fit)
        assert not at_endpoint
        assert abs(v_star - brute_force_argmin(fit, 0.01)) < 0.25
        assert v_star == pytest.approx(8.0, abs=1e-6)

    def test_insufficient_samples(self):
        v = np.arange(1.0, 6.0)
        with pytest.raises(InsufficientSamples):
            fit_quintic(np.column_stack([v, v]))

    def test_duplicate_velocities(self):
        v = np.array([1.0, 2.0, 2.0, 4.0, 5.0, 6.0])
        with pytest.raises(DegenerateDesignMatrix):
            fit_quintic(np.column_stack([v, v]))


class TestOptimalVelocity:
    def test_monotone_profile_hits_lower_endpoint(self):
        v = np.arange(1.0, 17.0)
        fit = fit_quintic(np.column_stack([v, 3.0 * v + 1.0]))
        v_star, at_endpoint = optimal_velocity(fit)
        assert at_endpoint
        assert v_star == pytest.approx(1.0)

    def test_symmetric_parabola_vertex(self):
        # pure quadratic written as a quintic with zero upper coefficients
        fit = QuinticFit(
            np.array([164.0, -16.0, 1.0, 0.0, 0.0, 0.0]), 0.0, 1.0, 16.0
        )
        v_star, at_endpoint = optimal_velocity(fit)
        assert v_star == pytest.approx(8.0, abs=1e-6)
        assert not at_endpoint

    def test_matches_grid_oracle_on_random_fits(self):
        rng = np.random.default_rng(7)
        v = np.arange(1.0, 17.0)
        for _ in range(10):
            a = rng.uniform(50, 400)
            m = rng.uniform(4, 12)
            b = rng.uniform(0.3, 3.0)
            e = a / v + b * (v - m) ** 2 + rng.uniform(10, 50)
            fit = fit_quintic(np.column_stack([v, e]))
            v_star, _ = optimal_velocity(fit)
            assert abs(v_star - brute_force_argmin(fit)) <= 0.01

    def test_never_outside_domain(self):
        rng = np.random.default_rng(11)
        v = np.arange(1.0, 17.0)
        for _ in range(20):
            e = rng.uniform(-5, 5, len(v))
            fit = fit_quintic(np.column_stack([v, e]))
            v_star, _ = optimal_velocity(fit)
            assert fit.v_lo <= v_star <= fit.v_hi


class TestBuildDataset:
    def test_one_sample_per_depth(self, coeffs, flight):
        samples = build_dataset([2.0, 3.0, 4.0, 5.0, 6.0], coeffs, flight)
        assert len(samples) == 5
        for s in samples:
            assert 1.0 <= s.v_star <= 16.0

    def test_constraint_residual_near_zero(self, coeffs, flight):
        samples = build_dataset([2.0, 3.0, 4.0, 5.0, 6.0], coeffs, flight)
        for s in samples:
            if not s.at_endpoint:
                scale = max(abs(k) for k in s.constraint)
                residual = physics_term(s.constraint[None], np.array([s.v_star]))
                assert abs(residual) < 1e-6 * max(scale, 1.0)

    def test_duplicate_depth_rejected(self, coeffs, flight):
        with pytest.raises(ValueError):
            build_dataset([2.0, 2.0, 3.0], coeffs, flight)

    def test_nonpositive_depth_rejected(self, coeffs, flight):
        with pytest.raises(ValueError):
            build_dataset([2.0, -1.0], coeffs, flight)

    @pytest.mark.parametrize("depth", [float("nan"), float("inf")])
    def test_non_finite_depth_rejected(self, coeffs, flight, depth):
        with pytest.raises(ValueError, match="depths must be finite"):
            build_dataset([2.0, depth], coeffs, flight)

    def test_default_depths(self):
        depths = default_training_depths()
        assert len(depths) == 21
        assert depths[0] == 2.0 and depths[-1] == 6.0
        assert np.allclose(np.diff(depths), 0.2)

    def test_dataset_matches_per_depth_fit(self, coeffs, flight, dataset):
        sample = dataset[10]
        profile = energy_velocity_profile(coeffs, flight, sample.depth)
        fit = fit_quintic(profile)
        assert np.allclose(fit.derivative_coeffs(), sample.constraint, rtol=1e-12)


def test_dataset_csv_roundtrip(tmp_path, dataset):
    path = tmp_path / "dataset.csv"
    write_dataset_csv(dataset, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "depth,v_star,k1,k2,k3,k4,k5"
    assert len(lines) == len(dataset) + 1
    loaded = read_dataset_csv(path)
    for a, b in zip(dataset, loaded):
        assert a.depth == pytest.approx(b.depth, abs=1e-6)
        assert a.v_star == pytest.approx(b.v_star, abs=1e-9)
        assert np.allclose(a.constraint, b.constraint, rtol=1e-11)
