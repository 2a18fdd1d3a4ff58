"""Symbolic intercept prediction and minimum-jerk trajectory generation.

The intercept predictor extrapolates the gate's bouncing motion over the
planned flight time by explicit case analysis (moving right/left, bounce or
no bounce) and returns the lateral position where the drone should cross the
gate plane.  The trajectory generator produces the rest-to-rest quintic that
minimizes integrated squared jerk between two points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .errors import NonPositiveDuration, OutOfDomain
from .scene import GateState, step_gate


@dataclass(frozen=True)
class PlannerInput:
    """Inputs to the intercept predictor.

    ``y1`` and ``y2`` are consecutive tracked gate centers ``dt`` apart;
    ``bound`` is the known reversal distance of the gate corridor.
    """

    t_traj: float
    bound: float
    y1: float
    y2: float
    dt: float

    def __post_init__(self):
        if self.t_traj <= 0:
            raise ValueError("t_traj must be positive")
        if self.bound <= 0:
            raise ValueError("bound must be positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if max(abs(self.y1), abs(self.y2)) > self.bound + 1e-9:
            raise ValueError("tracked positions must lie within [-bound, +bound]")


@dataclass(frozen=True)
class InterceptResult:
    """Predicted gate-plane crossing point.

    ``d1`` is the distance the gate travels during the flight time, ``d2``
    its distance to the approaching wall.  ``direction_changed`` marks the
    bounce branch, ``stationary`` a gate with no measured motion, and
    ``clamped`` inputs beyond the single-bounce case analysis that were
    resolved by direct kinematic simulation.
    """

    y_star: float
    direction_changed: bool
    d1: float
    d2: float
    stationary: bool = False
    clamped: bool = False


def _simulate_fold(y2: float, v_r: float, bound: float, t: float) -> float:
    y2 = float(np.clip(y2, -bound, bound))
    gate = GateState(y=y2, velocity=v_r, bound=bound)
    return step_gate(gate, t).y


def predict_intercept(inp: PlannerInput) -> InterceptResult:
    """Case analysis of the bouncing gate over the flight time.

    A stationary gate (y1 == y2) short-circuits to y2.  A left-moving gate
    is solved as the mirror image of a right-moving one.  Horizons implying
    two or more wall contacts fall outside the case analysis and are
    resolved by simulating the bounce kinematics directly (flagged).
    """
    if inp.y1 == inp.y2:
        d2 = inp.bound - abs(inp.y2)
        return InterceptResult(inp.y2, False, 0.0, d2, stationary=True)

    v_r = (inp.y2 - inp.y1) / inp.dt
    d1 = abs(v_r) * inp.t_traj
    L = inp.bound
    sign = 1.0 if inp.y2 > inp.y1 else -1.0
    y = sign * inp.y2  # position along the direction of travel
    d2 = L - y
    if d1 - d2 > 2.0 * L:
        y_star = _simulate_fold(inp.y2, v_r, L, inp.t_traj)
        return InterceptResult(y_star, True, d1, d2, clamped=True)
    if d1 > d2:
        return InterceptResult(sign * (L - d1 + d2), True, d1, d2)
    return InterceptResult(sign * (y + d1), False, d1, d2)


@dataclass(frozen=True)
class MinJerkTrajectory:
    """Rest-to-rest quintic path: s(tau) = 10 tau^3 - 15 tau^4 + 6 tau^5.

    Position, velocity and acceleration are available in closed form at any
    time in [0, duration]; velocity and acceleration vanish exactly at both
    ends.  Peak per-axis speed is 1.875 * |end - start| / duration at the
    midpoint.
    """

    start: np.ndarray
    end: np.ndarray
    duration: float
    sample_dt: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "start", np.atleast_1d(np.asarray(self.start, float)))
        object.__setattr__(self, "end", np.atleast_1d(np.asarray(self.end, float)))
        if self.start.shape != self.end.shape:
            raise ValueError("start and end must have matching axes")
        if self.duration <= 0:
            raise NonPositiveDuration(f"duration {self.duration} is not positive")
        if self.sample_dt <= 0:
            raise ValueError("sample_dt must be positive")


def min_jerk_trajectory(start, end, duration: float, sample_dt: float = 1e-3) -> MinJerkTrajectory:
    """Construct the rest-to-rest minimum-jerk trajectory between two points."""
    return MinJerkTrajectory(start, end, duration, sample_dt)


def _shape(tau):
    s = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
    ds = 30.0 * tau**2 - 60.0 * tau**3 + 30.0 * tau**4
    dds = 60.0 * tau - 180.0 * tau**2 + 120.0 * tau**3
    return s, ds, dds


def sample_state(traj: MinJerkTrajectory, t: float):
    """(position, velocity, acceleration) per axis at time t in [0, duration]."""
    if t < 0 or t > traj.duration:
        raise OutOfDomain(f"t {t} outside [0, {traj.duration}]")
    tau = t / traj.duration
    s, ds, dds = _shape(tau)
    delta = traj.end - traj.start
    pos = traj.start + delta * s
    vel = delta * ds / traj.duration
    acc = delta * dds / traj.duration**2
    return pos, vel, acc


def sample_arrays(traj: MinJerkTrajectory):
    """Uniform samples of (t, position, velocity, acceleration) at sample_dt.

    The final sample lands exactly on the trajectory duration.
    """
    n = int(np.floor(traj.duration / traj.sample_dt))
    times = np.arange(n + 1) * traj.sample_dt
    if times[-1] < traj.duration - 1e-12:
        times = np.append(times, traj.duration)
    else:
        times[-1] = traj.duration
    tau = times / traj.duration
    s, ds, dds = _shape(tau)
    delta = (traj.end - traj.start)[None, :]
    pos = traj.start[None, :] + delta * s[:, None]
    vel = delta * ds[:, None] / traj.duration
    acc = delta * dds[:, None] / traj.duration**2
    return times, pos, vel, acc


def write_trajectory_csv(traj: MinJerkTrajectory, path) -> None:
    """Export a planned 2-axis trajectory as CSV: t,x,y,vx,vy,ax,ay."""
    if traj.start.shape != (2,):
        raise ValueError("trajectory export expects exactly 2 axes (x, y)")
    times, pos, vel, acc = sample_arrays(traj)
    columns = {"t": ".6f", **dict.fromkeys(("x", "y", "vx", "vy", "ax", "ay"), ".9f")}
    write_csv(path, columns, np.column_stack([times, pos, vel, acc]))
