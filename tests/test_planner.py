import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatesim.planner import (
    MinJerkTrajectory,
    predict_intercept,
    sample_arrays,
    write_trajectory_csv,
)
from gatesim.scene import step_gate


def two_branch_intercept(t_traj, bound, y1, y2, dt) -> float:
    """Reference intercept: separate right- and left-moving case analyses."""
    if y1 == y2:
        return y2

    v_r = (y2 - y1) / dt
    d1 = abs(v_r) * t_traj
    L = bound

    def fold():
        return step_gate(float(np.clip(y2, -L, L)), v_r, L, t_traj)[0]

    if y2 > y1:
        if y2 > 0:
            d2 = L - y2
        else:
            d2 = L + abs(y2)
        if d1 - d2 > 2.0 * L:
            return fold()
        if d1 > d2:
            return L - d1 + d2
        return y2 + d1

    if y2 < 0:
        d2 = abs(-L - y2)
    else:
        d2 = L + y2
    if d1 - d2 > 2.0 * L:
        return fold()
    if d1 > d2:
        return -L + d1 - d2
    return y2 - d1


# fractions of the bound, with the walls and both zeros drawn often
UNIT = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 1.0]), st.floats(-1.0, 1.0))


class TestPredictIntercept:
    @given(
        bound=st.floats(0.1, 10.0),
        u1=UNIT,
        u2=UNIT,
        t_traj=st.floats(1e-3, 20.0),
        dt=st.floats(1e-3, 1.0),
    )
    @example(bound=2.0, u1=0.9, u2=1.0, t_traj=0.5, dt=0.1)
    @example(bound=2.0, u1=-0.9, u2=-1.0, t_traj=0.5, dt=0.1)
    @example(bound=2.0, u1=0.1, u2=-0.0, t_traj=0.5, dt=0.1)
    @example(bound=2.0, u1=-0.1, u2=0.0, t_traj=0.5, dt=0.1)
    @settings(max_examples=1000, deadline=None)
    def test_matches_two_branch_reference(self, bound, u1, u2, t_traj, dt):
        inp = (t_traj, bound, u1 * bound, u2 * bound, dt)
        assert predict_intercept(*inp) == two_branch_intercept(*inp)

    def test_straight_run_moving_right(self):
        assert predict_intercept(1.0, 2.0, 0.4, 0.5, 0.1) == pytest.approx(1.5, abs=1e-12)

    def test_bounce_moving_right(self):
        assert predict_intercept(1.0, 2.0, 1.7, 1.8, 0.1) == pytest.approx(1.2, abs=1e-12)

    def test_bounce_moving_left(self):
        assert predict_intercept(1.0, 2.0, -1.7, -1.8, 0.1) == pytest.approx(-1.2, abs=1e-12)

    def test_stationary_gate_flagged(self):
        assert predict_intercept(1.0, 2.0, 0.5, 0.5, 0.1) == 0.5

    @given(
        y2=st.floats(-1.99, 1.99),
        v=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3),
        t_traj=st.floats(0.05, 3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_single_bounce_oracle_equivalence(self, y2, v, t_traj):
        L = 2.0
        dt = 0.1
        y1 = y2 - v * dt
        if abs(y1) > L:
            return
        d1 = abs(v) * t_traj
        y_star = predict_intercept(t_traj, L, y1, y2, dt)
        truth = step_gate(y2, v, L, t_traj)[0]
        assert y_star == pytest.approx(truth, abs=1e-9)
        assert abs(y_star) <= L + 1e-9

    @given(
        y1=st.floats(-1.9, 1.9),
        y2=st.floats(-1.9, 1.9),
        t_traj=st.floats(0.05, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_mirror_symmetry(self, y1, y2, t_traj):
        if y1 == y2:
            return
        a = predict_intercept(t_traj, 2.0, y1, y2, 0.1)
        b = predict_intercept(t_traj, 2.0, -y1, -y2, 0.1)
        assert a == pytest.approx(-b, abs=1e-9)

    def test_mirror_symmetry_is_exact_past_the_wall(self):
        # predict_intercept accepts positions up to 1e-9 beyond the wall; a
        # left-moving gate there is the exact mirror of a right-moving one
        a = predict_intercept(0.5, 2.0, -1.9, -2.0 - 5e-10, 0.1)
        b = predict_intercept(0.5, 2.0, 1.9, 2.0 + 5e-10, 0.1)
        assert a == -b

    def test_multi_bounce_clamped_to_kinematics(self):
        # gate travels 4.5 corridor widths: far outside the case analysis
        y_star = predict_intercept(t_traj=9.0, bound=2.0, y1=0.4, y2=0.5, dt=0.1)
        truth = step_gate(0.5, 1.0, 2.0, 9.0)[0]
        assert y_star == pytest.approx(truth, abs=1e-9)
        assert abs(y_star) <= 2.0

    def test_clamped_fold_starts_at_the_wall(self):
        # y2 lies past the wall but within predict_intercept's 1e-9 tolerance;
        # the fold starts from the wall, which moves y* by 5e-10 here
        y2 = 2.0 + 5e-10
        y_star = predict_intercept(t_traj=9.0, bound=2.0, y1=1.0, y2=y2, dt=1.0)
        assert y_star == step_gate(2.0, (y2 - 1.0) / 1.0, 2.0, 9.0)[0]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            predict_intercept(0.0, 2.0, 0.1, 0.2, 0.1)
        with pytest.raises(ValueError):
            predict_intercept(1.0, -2.0, 0.1, 0.2, 0.1)
        with pytest.raises(ValueError):
            predict_intercept(1.0, 2.0, 2.5, 0.2, 0.1)
        with pytest.raises(ValueError):
            predict_intercept(1.0, 2.0, 0.1, 0.2, 0.0)
        nan = float("nan")
        for args in [(nan, 2.0, 0.1, 0.2, 0.1), (1.0, nan, 0.1, 0.2, 0.1),
                     (1.0, 2.0, nan, 0.2, 0.1), (1.0, 2.0, 0.1, nan, 0.1),
                     (1.0, 2.0, 0.1, 0.2, nan)]:
            with pytest.raises(ValueError):
                predict_intercept(*args)

    @pytest.mark.parametrize("name", ["t_traj", "bound", "dt"])
    def test_infinite_input_rejected(self, name):
        # unchecked, an infinite flight time gives a NaN y*, an infinite bound or dt a finite one
        args = {**dict(t_traj=1.0, bound=2.0, y1=0.4, y2=0.5, dt=0.1), name: float("inf")}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            predict_intercept(**args)


def jerk_integral(positions, dt):
    jerk = np.diff(positions, 3, axis=0) / dt**3
    return float(np.sum(jerk**2) * dt)


class TestMinJerk:
    def test_boundary_conditions_exact(self):
        traj = MinJerkTrajectory([0.0, 1.0], [4.0, -2.0], 0.7)
        _, pos, vel, acc = sample_arrays(traj)
        assert np.array_equal(pos[0], [0.0, 1.0])
        assert np.array_equal(pos[-1], [4.0, -2.0])
        assert np.all(vel[[0, -1]] == 0.0)
        assert np.all(acc[[0, -1]] == 0.0)

    def test_midpoint_symmetry(self):
        # a 1 s path at the default 1 ms sample period has its midpoint on row 500
        times, pos, _, _ = sample_arrays(MinJerkTrajectory([0.0], [1.0], 1.0))
        assert times[500] == 0.5
        assert pos[500, 0] == pytest.approx(0.5, abs=1e-12)  # 10/8 - 15/16 + 6/32

    def test_peak_speed(self):
        traj = MinJerkTrajectory([0.0], [4.0], 0.5)
        times, _, vel, _ = sample_arrays(traj)
        assert times[250] == 0.25
        assert vel[250, 0] == pytest.approx(1.875 * 4.0 / 0.5, rel=1e-12)
        assert np.abs(vel).max() <= 15.0 + 1e-9

    def test_velocity_matches_finite_differences(self):
        # central differences of the sampled positions, at every interior row
        times, pos, vel, _ = sample_arrays(MinJerkTrajectory([1.0], [5.0], 2.0, sample_dt=1e-4))
        fd = (pos[2:, 0] - pos[:-2, 0]) / (times[2:] - times[:-2])
        v = vel[1:-1, 0]
        assert np.all(np.abs(v - fd) / np.maximum(np.abs(v), 1.0) < 1e-6)

    def test_acceleration_matches_finite_differences(self):
        # central differences of the sampled velocities, at every interior row
        times, _, vel, acc = sample_arrays(MinJerkTrajectory([0.0], [3.0], 1.5, sample_dt=1e-4))
        fd = (vel[2:, 0] - vel[:-2, 0]) / (times[2:] - times[:-2])
        a = acc[1:-1, 0]
        assert np.all(np.abs(a - fd) / np.maximum(np.abs(a), 1.0) < 1e-5)

    def test_zero_displacement_is_identically_at_rest(self):
        traj = MinJerkTrajectory([2.0], [2.0], 1.0)
        _, pos, vel, acc = sample_arrays(traj)
        assert np.all(pos == 2.0)
        assert np.all(vel == 0.0) and np.all(acc == 0.0)

    def test_jerk_minimality_among_perturbed_quintics(self):
        # perturbations tau^3 (1-tau)^3 keep all six boundary conditions
        duration, delta = 0.8, 3.0
        dt = 1e-4
        tau = np.arange(0.0, 1.0 + dt / 2, dt)
        canonical = delta * tau**3 * (10 - 15 * tau + 6 * tau**2)
        base_cost = jerk_integral(canonical[:, None], dt * duration)
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha = rng.uniform(-5.0, 5.0)
            if abs(alpha) < 1e-3:
                continue
            perturbed = canonical + alpha * tau**3 * (1 - tau) ** 3
            cost = jerk_integral(perturbed[:, None], dt * duration)
            assert cost > base_cost

    def test_domain_and_duration_errors(self):
        with pytest.raises(ValueError, match="duration .* is not positive"):
            MinJerkTrajectory([0.0], [1.0], 0.0)
        with pytest.raises(ValueError, match="duration .* is not positive"):
            MinJerkTrajectory([0.0], [1.0], float("nan"))
        with pytest.raises(ValueError):
            MinJerkTrajectory([0.0], [1.0], 1.0, sample_dt=float("nan"))
        with pytest.raises(ValueError):
            MinJerkTrajectory(np.zeros(2), np.zeros(3), 1.0)

    @pytest.mark.parametrize("sample_dt", [float("inf"), float("nan"), 0.0, -1e-3])
    def test_sample_dt_must_be_positive_and_finite(self, sample_dt):
        # unchecked, an infinite step gave one sample at the end time and a RuntimeWarning
        with pytest.raises(ValueError, match="sample_dt .* is not positive and finite"):
            MinJerkTrajectory([0.0, 0.0], [1.0, 1.0], 1.0, sample_dt=sample_dt)

    def test_sample_arrays_cover_duration(self):
        traj = MinJerkTrajectory([0.0], [1.0], 0.3337)
        times, pos, _, _ = sample_arrays(traj)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.3337, abs=1e-12)
        assert pos[-1, 0] == pytest.approx(1.0, abs=1e-12)


def test_trajectory_csv(tmp_path):
    traj = MinJerkTrajectory([2.0, 0.0], [-2.0, 1.5], 0.5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,vx,vy,ax,ay"
    assert len(lines) == 502  # 501 millisecond samples + header
    with pytest.raises(ValueError):
        write_trajectory_csv(MinJerkTrajectory([0.0], [1.0], 0.5), path)
