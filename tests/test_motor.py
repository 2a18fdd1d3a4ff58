import dataclasses

import numpy as np
import pytest

from gatesim import motor
from gatesim.motor import (
    HOVER_POWER_W,
    OMEGA_MAX,
    VELOCITY_GRID,
    FlightModel,
    RotorSpeedProfile,
    calibration_report,
    energy_coefficients,
    energy_velocity_profile,
    hover_rotor_speed,
    motor_power,
    rotor_speeds,
    trajectory_energy,
    write_profile_csv,
)


def voltage_current_power(omega, domega=0.0):
    """Independent oracle: assemble power directly as voltage times current.

    Current balances friction, viscous damping, aerodynamic load and the
    inertial torque; the steady-state voltage is the resistive drop plus the
    back EMF.
    """
    j = motor.ROTOR_INERTIA + 0.25 * motor.N_BLADES * motor.BLADE_MASS * (
        motor.BLADE_RADIUS - motor.BLADE_CLEARANCE
    ) ** 2
    current = (
        motor.FRICTION_TORQUE
        + motor.DAMPING * omega
        + motor.LOAD_TORQUE_COEFF * omega**2
        + j * domega
    ) / motor.K_T
    voltage = motor.RESISTANCE * current + motor.K_T * omega
    return voltage * current


class TestLoadInertia:
    def test_default_value(self):
        # 0.25 * 3 * 0.001 * 0.077^2, written out independently
        expected = 0.25 * 3 * 0.001 * (0.1 - 0.023) ** 2
        assert motor.LOAD_INERTIA == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(4.44675e-6, rel=1e-9)


class TestEnergyCoefficients:
    def test_constant_term_hand_value(self, coeffs):
        expected = 0.3 * 0.0187**2 / 0.532**2
        assert coeffs.c0 == pytest.approx(expected, rel=1e-12)
        assert coeffs.c0 == pytest.approx(3.707e-4, rel=2e-3)

    def test_quartic_term_hand_value(self, coeffs):
        expected = 0.3 * 9.04969e-9**2 / 0.532**2
        assert coeffs.c4 == pytest.approx(expected, rel=1e-12)
        assert coeffs.c4 == pytest.approx(8.682e-17, rel=2e-3)

    def test_linear_and_cubic_hand_values(self, coeffs):
        assert coeffs.c1 == pytest.approx(
            (0.0187 / 0.532) * (2 * 0.3 * 2e-4 / 0.532 + 0.532), rel=1e-12
        )
        assert coeffs.c3 == pytest.approx(
            (9.04969e-9 / 0.532) * (2 * 0.3 * 2e-4 / 0.532 + 0.532), rel=1e-12
        )

    def test_total_inertia(self, coeffs):
        assert coeffs.j_total == pytest.approx(4.9e-6 + 4.44675e-6, rel=1e-9)

    def test_frictionless_dragless_motor_vanishes(self, monkeypatch):
        for name in ("FRICTION_TORQUE", "DAMPING", "LOAD_TORQUE_COEFF"):
            monkeypatch.setattr(motor, name, 0.0)
        c = energy_coefficients()
        assert (c.c0, c.c1, c.c2, c.c3, c.c4, c.c5) == (0, 0, 0, 0, 0, 0)

    def test_nonnegative_for_defaults(self, coeffs):
        for value in (coeffs.c0, coeffs.c1, coeffs.c2, coeffs.c3, coeffs.c4, coeffs.c5):
            assert value >= 0


class TestMotorPower:
    def test_static_floor(self, coeffs):
        assert motor_power(coeffs, 0.0, 0.0) == pytest.approx(coeffs.c0, rel=1e-12)

    def test_oracle_equivalence_random(self, coeffs):
        rng = np.random.default_rng(0)
        omegas = rng.uniform(0.0, OMEGA_MAX, 1000)
        domegas = rng.uniform(-5000.0, 5000.0, 1000)
        got = motor_power(coeffs, omegas, domegas)
        want = voltage_current_power(omegas, domegas)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_strictly_increasing_in_omega(self, coeffs):
        omegas = np.linspace(0.0, 800.0, 200)
        powers = motor_power(coeffs, omegas)
        assert np.all(np.diff(powers) > 0)

    def test_hover_anchor(self, coeffs):
        omega_h = hover_rotor_speed(coeffs)
        assert 4.0 * motor_power(coeffs, omega_h) == pytest.approx(HOVER_POWER_W, rel=1e-9)
        assert omega_h < OMEGA_MAX
        # per-motor hover power is ~31 W in the low hundreds of rad/s
        assert motor_power(coeffs, 340.0) == pytest.approx(31.0, rel=0.05)


class TestTrajectoryEnergy:
    def test_zero_speed_profile(self, coeffs):
        n, dt = 1001, 1e-3
        profile = RotorSpeedProfile(np.zeros(n), dt)
        # constant power 4*c0 over (n-1)*dt seconds
        expected = 4.0 * coeffs.c0 * (n - 1) * dt
        assert trajectory_energy(coeffs, profile) == pytest.approx(expected, rel=1e-12)

    def test_hover_for_one_second(self, coeffs):
        omega_h = hover_rotor_speed(coeffs)
        profile = RotorSpeedProfile(np.full(1001, omega_h), 1e-3)
        assert trajectory_energy(coeffs, profile) == pytest.approx(124.0, rel=1e-6)

    def test_halving_sample_period_converges(self, coeffs):
        omega_h = hover_rotor_speed(coeffs)

        def energy(dt):
            t = np.arange(0.0, 1.0 + dt / 2, dt)
            omega = omega_h + 30.0 * np.sin(2 * np.pi * t)
            return trajectory_energy(coeffs, RotorSpeedProfile(omega, dt))

        coarse, fine = energy(1e-3), energy(5e-4)
        assert abs(fine - coarse) / fine < 1e-3

    def test_cumulative_energy_nondecreasing_with_floor(self, coeffs):
        omega_h = hover_rotor_speed(coeffs)
        dt = 1e-3
        t = np.arange(0.0, 0.5, dt)
        omega = omega_h * (1.0 + 0.3 * np.sin(4 * np.pi * t))
        energies = [
            trajectory_energy(coeffs, RotorSpeedProfile(omega[: k + 2], dt))
            for k in range(len(t) - 1)
        ]
        diffs = np.diff(energies)
        assert np.all(diffs > 0)
        for k, e in enumerate(energies):
            assert e >= 4.0 * coeffs.c0 * (k + 1) * dt

    def test_short_profiles_pinned(self, coeffs):
        # float.hex of 2-, 3- and 4-sample profiles: one-sided rotor
        # accelerations at both ends, central ones between
        omegas = [350.0, 380.0, 445.0, 530.0]
        pinned = {2: "0x1.17745f6c3e329p-1", 3: "0x1.b87efb5a24c46p+0", 4: "0x1.c0bbd5998773dp+1"}
        for n, want in pinned.items():
            assert trajectory_energy(coeffs, RotorSpeedProfile(omegas[:n], 1e-3)).hex() == want
        assert trajectory_energy(coeffs, RotorSpeedProfile(omegas[:1], 1e-3)) == 0.0

    def test_empty_profile(self):
        with pytest.raises(ValueError, match="profile has no samples"):
            RotorSpeedProfile(np.zeros(0), 1e-3)

    def test_shape_and_bounds_validation(self):
        with pytest.raises(ValueError, match=r"shape \(n,\)"):
            RotorSpeedProfile(np.zeros((10, 4)), 1e-3)
        with pytest.raises(ValueError):
            RotorSpeedProfile(np.full(10, -1.0), 1e-3)
        with pytest.raises(ValueError):
            RotorSpeedProfile(np.full(10, 1e6), 1e-3)
        with pytest.raises(ValueError):
            RotorSpeedProfile([1.0, np.nan], 1e-3)
        with pytest.raises(ValueError):
            RotorSpeedProfile(np.ones(10), np.nan)


class TestFlightModel:
    def test_hover_at_zero_speed(self, flight):
        assert rotor_speeds(flight, 0.0) == pytest.approx(flight.hover_speed)

    def test_dragless_model_is_flat(self, flight):
        fm = dataclasses.replace(flight, drag_coeff=0.0)
        for v in (0.0, 4.0, 16.0):
            assert rotor_speeds(fm, v) == pytest.approx(fm.hover_speed)

    def test_monotone_and_within_limit(self, flight):
        omegas = rotor_speeds(flight, np.linspace(0.0, 16.0, 50))
        assert np.all(np.diff(omegas) >= 0)
        assert omegas[-1] <= flight.omega_max

    def test_limit_exceeded(self, coeffs):
        fm = FlightModel(hover_speed=800.0, drag_coeff=1.0)
        assert rotor_speeds(fm, 16.0) > fm.omega_max  # the map does not clip
        with pytest.raises(ValueError, match="exceeds the motor limit"):
            energy_velocity_profile(coeffs, fm, 4.0)

    @pytest.mark.parametrize("name, bad", [
        ("mass", 0.0), ("gravity", 0.0), ("drag_coeff", -0.01), ("hover_speed", -1.0),
        ("omega_max", -1.0), ("omega_max", 0.0),
    ])
    def test_flight_settings_rejected(self, name, bad):
        for value in (bad, float("nan")):
            with pytest.raises(ValueError):
                FlightModel(**{name: value})

    def test_array_map_matches_scalar_map_bit_for_bit(self, flight):
        omegas = rotor_speeds(flight, VELOCITY_GRID)
        assert omegas.tolist() == [float(rotor_speeds(flight, v)) for v in VELOCITY_GRID]


class TestEnergyVelocityProfile:
    def test_u_shape_unique_interior_minimum(self, coeffs, flight):
        for depth in (2.0, 3.0, 4.0, 5.0, 6.0):
            profile = energy_velocity_profile(coeffs, flight, depth)
            energies = profile[:, 1]
            sign_changes = np.sum(np.diff(np.sign(np.diff(energies))) != 0)
            assert sign_changes == 1  # falls then rises exactly once
            assert 1.0 < profile[np.argmin(energies), 0] < 16.0

    def test_energy_highest_at_slowest_speed(self, coeffs, flight):
        for depth in (2.0, 4.0, 6.0):
            profile = energy_velocity_profile(coeffs, flight, depth)
            assert np.argmax(profile[:, 1]) == 0

    def test_doubling_depth_doubles_energy(self, coeffs, flight):
        a = energy_velocity_profile(coeffs, flight, 3.0)
        b = energy_velocity_profile(coeffs, flight, 6.0)
        assert np.allclose(b[:, 1], 2.0 * a[:, 1], rtol=1e-12)

    def test_grid_crossing_the_rotor_limit_rejected(self, coeffs):
        # hover at 800 rad/s with heavy drag: the 837 rad/s limit is passed
        # between 1 and 2 m/s, so 2 m/s is the first grid speed over it
        fm = FlightModel(hover_speed=800.0, drag_coeff=1.0)
        assert rotor_speeds(fm, 1.0) <= fm.omega_max
        with pytest.raises(ValueError, match=r"omega\(2\.0\)"):
            energy_velocity_profile(coeffs, fm, 4.0)

    def test_grid_validation(self, coeffs, flight):
        with pytest.raises(ValueError):
            energy_velocity_profile(coeffs, flight, -1.0)

    @pytest.mark.parametrize("depth", [float("nan"), float("inf")])
    def test_non_finite_depth_rejected(self, coeffs, flight, depth):
        with pytest.raises(ValueError, match="depth must be finite"):
            energy_velocity_profile(coeffs, flight, depth)


def test_profile_csv_and_report(tmp_path, coeffs, flight):
    profiles = {4.0: energy_velocity_profile(coeffs, flight, 4.0)}
    path = tmp_path / "profile.csv"
    write_profile_csv(profiles, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "depth,v,energy_J"
    assert len(lines) == 17
    report = calibration_report(coeffs, flight)
    assert "hover" in report and "124.0000 W" in report
