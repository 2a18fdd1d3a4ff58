"""Brushless-motor actuation energy model and the velocity-to-rotor-speed flight map.

The electrical model is a resistive winding in series with the back EMF.  At
steady state the per-motor power e(t)*i(t) expands into a quartic polynomial
in rotor speed plus spin-up terms in the rotor acceleration.  The flight model
is symmetric-thrust, so the four motors share one rotor speed; integrating
four times that motor's power over a flight gives the actuation energy.

All angular speeds are in rad/s internally.  The drone has one motor type,
so its datasheet values are module constants: the 7994 rpm speed limit
``OMEGA_MAX`` beside ``RESISTANCE``, ``FRICTION_TORQUE``,
``LOAD_TORQUE_COEFF``, ``DAMPING``, ``K_T``, ``ROTOR_INERTIA`` and the blade
constants that give ``LOAD_INERTIA``.  The torque constant doubles as the
back-EMF constant (same SI value in V*s/rad and N*m/A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .csvio import write_csv

RPM_TO_RAD = 2.0 * np.pi / 60.0

OMEGA_MAX = 7994.0 * RPM_TO_RAD  # motor speed limit [rad/s]

#: Cruise speeds at which the energy-velocity profile is priced [m/s].
VELOCITY_GRID = np.arange(1.0, 17.0)

#: Total instantaneous power of the calibrated hover configuration [W].
HOVER_POWER_W = 124.0

# Physical constants of one rotor motor and its propeller load.
RESISTANCE = 0.3                 # winding resistance [ohm]
FRICTION_TORQUE = 0.0187         # static motor friction [N*m]
LOAD_TORQUE_COEFF = 9.04969e-09  # aerodynamic load torque k * omega^2 [N*m*s^2/rad^2]
DAMPING = 2e-04                  # viscous damping [N*m*s/rad]
K_T = 0.532                      # torque constant [N*m/A] == back-EMF [V*s/rad]
ROTOR_INERTIA = 4.9e-06          # [kg*m^2]
N_BLADES = 3
BLADE_MASS = 0.001               # [kg]
BLADE_RADIUS = 0.1               # [m]
BLADE_CLEARANCE = 0.023          # hub clearance between blade and motor [m]

#: Propeller load inertia: n_blades * blade_mass * (r - clearance)^2 / 4 [kg*m^2].
LOAD_INERTIA = 0.25 * N_BLADES * BLADE_MASS * (BLADE_RADIUS - BLADE_CLEARANCE) ** 2


@dataclass(frozen=True)
class EnergyCoefficients:
    """Per-motor power expansion coefficients.

    Steady-state power is the quartic c0 + c1 w + c2 w^2 + c3 w^3 + c4 w^4.
    The spin-up contribution from the inertial current J dw/dt expands to
    (accel_lin + accel_cross w + c5 w^2) dw + accel_quad dw^2, with c5 the
    inertia-load cross coefficient 2 R J k / Kt^2.
    """

    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    j_total: float
    accel_lin: float
    accel_cross: float
    accel_quad: float


def energy_coefficients() -> EnergyCoefficients:
    """Expand the motor's e(t)*i(t) into rotor-speed polynomial coefficients."""
    r = RESISTANCE
    kt = K_T
    ke = K_T  # back-EMF constant equals the torque constant
    tf = FRICTION_TORQUE
    df = DAMPING
    kl = LOAD_TORQUE_COEFF
    j = ROTOR_INERTIA + LOAD_INERTIA

    c0 = r * tf**2 / kt**2
    c1 = (tf / kt) * (2.0 * r * df / kt + ke)
    c2 = (df / kt) * (r * df / kt + ke) + 2.0 * r * tf * kl / kt**2
    c3 = (kl / kt) * (2.0 * r * df / kt + ke)
    c4 = r * kl**2 / kt**2
    c5 = 2.0 * r * j * kl / kt**2
    accel_lin = 2.0 * r * tf * j / kt**2
    accel_cross = (2.0 * r * df / kt + ke) * j / kt
    accel_quad = r * j**2 / kt**2
    return EnergyCoefficients(
        c0, c1, c2, c3, c4, c5, j, accel_lin, accel_cross, accel_quad
    )


def motor_power(c: EnergyCoefficients, omega, domega=0.0):
    """Instantaneous per-motor electrical power [W] at rotor speed and acceleration.

    Exactly equals the product of motor voltage and current; at constant
    rotor speed it reduces to the quartic c0 + c1 w + ... + c4 w^4.
    Accepts scalars or arrays.
    """
    omega = np.asarray(omega, dtype=float)
    domega = np.asarray(domega, dtype=float)
    steady = c.c0 + omega * (c.c1 + omega * (c.c2 + omega * (c.c3 + omega * c.c4)))
    spin = (c.accel_lin + c.accel_cross * omega + c.c5 * omega**2) * domega
    spin = spin + c.accel_quad * domega**2
    out = steady + spin
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RotorSpeedProfile:
    """Uniformly sampled rotor speed shared by the 4 motors: shape (n,), dt apart."""

    omegas: np.ndarray
    dt: float
    omega_max: float = OMEGA_MAX

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        object.__setattr__(self, "omegas", omegas)
        if omegas.ndim != 1:
            raise ValueError("profile must have shape (n,)")
        if len(omegas) == 0:
            raise ValueError("rotor speed profile has no samples")
        if not self.dt > 0:
            raise ValueError("sample period must be positive")
        if not np.all((omegas >= 0) & (omegas <= self.omega_max + 1e-9)):
            raise ValueError("rotor speeds must lie in [0, omega_max]")


def trajectory_energy(c: EnergyCoefficients, profile: RotorSpeedProfile) -> float:
    """Actuation energy [J]: trapezoidal integral of the summed 4-motor power.

    Rotor accelerations come from central finite differences of the sampled
    profile (one-sided at the ends), as np.gradient(omegas, dt) computes them.
    """
    omegas, dt = profile.omegas, profile.dt
    if len(omegas) == 1:
        return 0.0
    domegas = np.empty_like(omegas)
    domegas[1:-1] = (omegas[2:] - omegas[:-2]) / (2.0 * dt)
    domegas[0] = (omegas[1] - omegas[0]) / dt
    domegas[-1] = (omegas[-1] - omegas[-2]) / dt
    p = motor_power(c, omegas, domegas)
    # The four motors' powers are added one by one, as a per-sample sum of
    # four equal columns adds them; 4 * p is exact and can differ from that
    # sum in a rounding tie.
    return float(np.trapezoid(p + p + p + p, dx=dt))


def hover_rotor_speed(c: EnergyCoefficients) -> float:
    """Rotor speed at which the 4 motors together dissipate ``HOVER_POWER_W``.

    The steady-state power is strictly increasing in omega, so the root is
    unique on [0, OMEGA_MAX].
    """
    def gap(w):
        return 4.0 * motor_power(c, w) - HOVER_POWER_W

    if gap(OMEGA_MAX) < 0:
        raise ValueError("target power unreachable below omega_max")
    return float(optimize.brentq(gap, 0.0, OMEGA_MAX, xtol=1e-12, rtol=1e-15))


@dataclass(frozen=True)
class FlightModel:
    """Symmetric-thrust quadrotor cruise model mapping airspeed to rotor speed.

    In steady flight the per-motor thrust balances weight and quadratic body
    drag; rotor speed scales with the square root of thrust from its hover
    value.
    """

    mass: float = 0.5           # [kg]
    gravity: float = 9.81       # [m/s^2]
    drag_coeff: float = 0.05    # body drag [N*s^2/m^2]
    hover_speed: float = 0.0    # rotor speed at hover [rad/s]
    omega_max: float = OMEGA_MAX

    def __post_init__(self):
        if not (self.mass > 0 and self.gravity > 0 and self.hover_speed >= 0):
            raise ValueError("mass, gravity and hover speed must be positive")
        if not self.omega_max > 0:
            raise ValueError("rotor speed limit must be positive")
        if not self.drag_coeff >= 0:
            raise ValueError("drag coefficient must be >= 0")


def default_energy_model() -> tuple[EnergyCoefficients, FlightModel]:
    """Coefficients of the motor and a flight model with the hover
    rotor speed calibrated to ``HOVER_POWER_W``."""
    c = energy_coefficients()
    return c, FlightModel(hover_speed=hover_rotor_speed(c))


def rotor_speeds(fm: FlightModel, speeds):
    """Steady-flight rotor speed [rad/s] at each airspeed [m/s], not clipped
    to the motor limit; omega(0) is the hover speed."""
    drag_accel = fm.drag_coeff * np.asarray(speeds, dtype=float)**2 / fm.mass
    return fm.hover_speed * np.sqrt(np.hypot(fm.gravity, drag_accel) / fm.gravity)


def energy_velocity_profile(
    c: EnergyCoefficients,
    fm: FlightModel,
    depth: float,
) -> np.ndarray:
    """Cruise energy to traverse ``depth`` at each speed of ``VELOCITY_GRID``.

    Flight time is depth / v and the energy is time * 4-motor steady power
    (acceleration transients excluded).  Returns an (n, 2) array of
    (velocity, energy) rows.  Raises ValueError naming the first
    grid speed whose rotor speed exceeds the motor limit.
    """
    if not 0 < depth < np.inf:
        raise ValueError(f"depth must be finite and positive, got {depth}")
    omegas = rotor_speeds(fm, VELOCITY_GRID)
    over = np.flatnonzero(omegas > fm.omega_max)
    if over.size:
        v, omega = VELOCITY_GRID[over[0]], omegas[over[0]]
        raise ValueError(f"omega({v}) = {omega:.1f} rad/s exceeds the motor limit")
    return np.column_stack([VELOCITY_GRID, depth / VELOCITY_GRID * 4.0 * motor_power(c, omegas)])


def write_profile_csv(profiles: dict[float, np.ndarray], path) -> None:
    """Export energy-velocity profiles as CSV: depth,v,energy_J."""
    rows = ((depth, v, e) for depth in sorted(profiles) for v, e in profiles[depth])
    write_csv(path, dict.fromkeys(("depth", "v", "energy_J"), ".6f"), rows)


def calibration_report(c: EnergyCoefficients, fm: FlightModel) -> str:
    """Human-readable summary of the calibrated hover configuration."""
    hover_total = 4.0 * motor_power(c, fm.hover_speed)
    lines = [
        "hover calibration",
        f"  hover rotor speed : {fm.hover_speed:.4f} rad/s "
        f"({fm.hover_speed / RPM_TO_RAD:.1f} rpm)",
        f"  hover total power : {hover_total:.4f} W",
        f"  drag coefficient  : {fm.drag_coeff:.6f} N*s^2/m^2",
        f"  rotor speed limit : {fm.omega_max:.2f} rad/s",
    ]
    return "\n".join(lines)
