import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatesim.errors import NonPositiveDuration, OutOfDomain
from gatesim.planner import (
    InterceptResult,
    MinJerkTrajectory,
    PlannerInput,
    min_jerk_trajectory,
    predict_intercept,
    sample_arrays,
    sample_state,
    write_trajectory_csv,
)
from gatesim.scene import GateState, step_gate


def two_branch_intercept(inp: PlannerInput) -> InterceptResult:
    """Reference intercept: separate right- and left-moving case analyses."""
    if inp.y1 == inp.y2:
        d2 = inp.bound - abs(inp.y2)
        return InterceptResult(inp.y2, False, 0.0, d2, stationary=True)

    v_r = (inp.y2 - inp.y1) / inp.dt
    d1 = abs(v_r) * inp.t_traj
    L, y2 = inp.bound, inp.y2

    def fold():
        gate = GateState(y=float(np.clip(y2, -L, L)), velocity=v_r, bound=L)
        return step_gate(gate, inp.t_traj).y

    if y2 > inp.y1:
        if y2 > 0:
            d2 = L - y2
        else:
            d2 = L + abs(y2)
        if d1 - d2 > 2.0 * L:
            return InterceptResult(fold(), True, d1, d2, clamped=True)
        if d1 > d2:
            return InterceptResult(L - d1 + d2, True, d1, d2)
        return InterceptResult(y2 + d1, False, d1, d2)

    if y2 < 0:
        d2 = abs(-L - y2)
    else:
        d2 = L + y2
    if d1 - d2 > 2.0 * L:
        return InterceptResult(fold(), True, d1, d2, clamped=True)
    if d1 > d2:
        return InterceptResult(-L + d1 - d2, True, d1, d2)
    return InterceptResult(y2 - d1, False, d1, d2)


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
        inp = PlannerInput(t_traj, bound, u1 * bound, u2 * bound, dt)
        assert predict_intercept(inp) == two_branch_intercept(inp)

    def test_straight_run_moving_right(self):
        res = predict_intercept(PlannerInput(1.0, 2.0, 0.4, 0.5, 0.1))
        assert res.y_star == pytest.approx(1.5, abs=1e-12)
        assert not res.direction_changed
        assert res.d1 == pytest.approx(1.0, abs=1e-12)
        assert res.d2 == pytest.approx(1.5, abs=1e-12)

    def test_bounce_moving_right(self):
        res = predict_intercept(PlannerInput(1.0, 2.0, 1.7, 1.8, 0.1))
        assert res.y_star == pytest.approx(1.2, abs=1e-12)
        assert res.direction_changed
        assert res.d2 == pytest.approx(0.2, abs=1e-12)

    def test_bounce_moving_left(self):
        res = predict_intercept(PlannerInput(1.0, 2.0, -1.7, -1.8, 0.1))
        assert res.y_star == pytest.approx(-1.2, abs=1e-12)
        assert res.direction_changed
        assert res.d2 == pytest.approx(0.2, abs=1e-12)

    def test_stationary_gate_flagged(self):
        res = predict_intercept(PlannerInput(1.0, 2.0, 0.5, 0.5, 0.1))
        assert res.stationary
        assert res.y_star == 0.5
        assert res.d1 == 0.0

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
        res = predict_intercept(PlannerInput(t_traj, L, y1, y2, dt))
        if res.clamped:
            return
        truth = step_gate(GateState(y=y2, velocity=v, bound=L), t_traj).y
        assert res.y_star == pytest.approx(truth, abs=1e-9)
        assert abs(res.y_star) <= L + 1e-9

    @given(
        y1=st.floats(-1.9, 1.9),
        y2=st.floats(-1.9, 1.9),
        t_traj=st.floats(0.05, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_mirror_symmetry(self, y1, y2, t_traj):
        if y1 == y2:
            return
        a = predict_intercept(PlannerInput(t_traj, 2.0, y1, y2, 0.1))
        b = predict_intercept(PlannerInput(t_traj, 2.0, -y1, -y2, 0.1))
        assert a.y_star == pytest.approx(-b.y_star, abs=1e-9)

    def test_mirror_symmetry_is_exact_past_the_wall(self):
        # PlannerInput accepts positions up to 1e-9 beyond the wall; a
        # left-moving gate there is the exact mirror of a right-moving one
        a = predict_intercept(PlannerInput(0.5, 2.0, -1.9, -2.0 - 5e-10, 0.1))
        b = predict_intercept(PlannerInput(0.5, 2.0, 1.9, 2.0 + 5e-10, 0.1))
        assert a.y_star == -b.y_star
        assert (a.direction_changed, a.d1, a.d2) == (b.direction_changed, b.d1, b.d2)

    def test_multi_bounce_clamped_to_kinematics(self):
        # gate travels 4.5 corridor widths: far outside the case analysis
        inp = PlannerInput(t_traj=9.0, bound=2.0, y1=0.4, y2=0.5, dt=0.1)
        res = predict_intercept(inp)
        assert res.clamped
        truth = step_gate(GateState(y=0.5, velocity=1.0, bound=2.0), 9.0).y
        assert res.y_star == pytest.approx(truth, abs=1e-9)
        assert abs(res.y_star) <= 2.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            PlannerInput(0.0, 2.0, 0.1, 0.2, 0.1)
        with pytest.raises(ValueError):
            PlannerInput(1.0, -2.0, 0.1, 0.2, 0.1)
        with pytest.raises(ValueError):
            PlannerInput(1.0, 2.0, 2.5, 0.2, 0.1)
        with pytest.raises(ValueError):
            PlannerInput(1.0, 2.0, 0.1, 0.2, 0.0)


def jerk_integral(positions, dt):
    jerk = np.diff(positions, 3, axis=0) / dt**3
    return float(np.sum(jerk**2) * dt)


class TestMinJerk:
    def test_boundary_conditions_exact(self):
        traj = min_jerk_trajectory([0.0, 1.0], [4.0, -2.0], 0.7)
        p0, v0, a0 = sample_state(traj, 0.0)
        pT, vT, aT = sample_state(traj, 0.7)
        assert np.array_equal(p0, [0.0, 1.0])
        assert np.array_equal(pT, [4.0, -2.0])
        assert np.all(v0 == 0.0) and np.all(vT == 0.0)
        assert np.all(a0 == 0.0) and np.all(aT == 0.0)

    def test_midpoint_symmetry(self):
        traj = min_jerk_trajectory([0.0], [1.0], 1.0)
        p, _, _ = sample_state(traj, 0.5)
        assert p[0] == pytest.approx(0.5, abs=1e-12)  # 10/8 - 15/16 + 6/32

    def test_peak_speed(self):
        traj = min_jerk_trajectory([0.0], [4.0], 0.5)
        _, v, _ = sample_state(traj, 0.25)
        assert v[0] == pytest.approx(1.875 * 4.0 / 0.5, rel=1e-12)
        times, _, vel, _ = sample_arrays(traj)
        assert np.abs(vel).max() <= 15.0 + 1e-9

    def test_velocity_matches_finite_differences(self):
        traj = min_jerk_trajectory([1.0], [5.0], 2.0)
        rng = np.random.default_rng(0)
        h = 1e-6
        for t in rng.uniform(h, 2.0 - h, 100):
            _, v, _ = sample_state(traj, t)
            pp, _, _ = sample_state(traj, t + h)
            pm, _, _ = sample_state(traj, t - h)
            fd = (pp[0] - pm[0]) / (2 * h)
            assert abs(v[0] - fd) / max(abs(v[0]), 1.0) < 1e-6

    def test_acceleration_matches_finite_differences(self):
        traj = min_jerk_trajectory([0.0], [3.0], 1.5)
        h = 1e-5
        for t in np.linspace(0.1, 1.4, 20):
            _, _, a = sample_state(traj, t)
            _, vp, _ = sample_state(traj, t + h)
            _, vm, _ = sample_state(traj, t - h)
            fd = (vp[0] - vm[0]) / (2 * h)
            assert abs(a[0] - fd) / max(abs(a[0]), 1.0) < 1e-5

    def test_zero_displacement_is_identically_at_rest(self):
        traj = min_jerk_trajectory([2.0], [2.0], 1.0)
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
        with pytest.raises(NonPositiveDuration):
            min_jerk_trajectory([0.0], [1.0], 0.0)
        traj = min_jerk_trajectory([0.0], [1.0], 1.0)
        with pytest.raises(OutOfDomain):
            sample_state(traj, -0.1)
        with pytest.raises(OutOfDomain):
            sample_state(traj, 1.1)
        with pytest.raises(ValueError):
            MinJerkTrajectory(np.zeros(2), np.zeros(3), 1.0)

    def test_sample_arrays_cover_duration(self):
        traj = min_jerk_trajectory([0.0], [1.0], 0.3337)
        times, pos, _, _ = sample_arrays(traj)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.3337, abs=1e-12)
        assert pos[-1, 0] == pytest.approx(1.0, abs=1e-12)


def test_trajectory_csv(tmp_path):
    traj = min_jerk_trajectory([2.0, 0.0], [-2.0, 1.5], 0.5)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,vx,vy,ax,ay"
    assert len(lines) == 502  # 501 millisecond samples + header
    with pytest.raises(ValueError):
        write_trajectory_csv(min_jerk_trajectory([0.0], [1.0], 0.5), path)
