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
from .scene import step_gate


def predict_intercept(t_traj: float, bound: float, y1: float, y2: float, dt: float) -> float:
    """Crossing point y* of the bouncing gate after the flight time ``t_traj``.

    ``y1`` and ``y2`` are consecutive tracked gate centers ``dt`` apart;
    ``bound`` is the known reversal distance of the gate corridor.  A
    stationary gate (y1 == y2) stays at y2.  A left-moving gate is solved as
    the mirror image of a right-moving one: ``d1`` is the distance the gate
    travels during the flight, ``d2`` its distance to the approaching wall.
    Horizons implying two or more wall contacts fall outside the case
    analysis and fold through ``step_gate`` from the wall-clipped ``y2``.
    """
    if not 0 < t_traj < np.inf:
        raise ValueError("t_traj must be positive and finite")
    if not 0 < bound < np.inf:
        raise ValueError("bound must be positive and finite")
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if not all(abs(y) <= bound + 1e-9 for y in (y1, y2)):
        raise ValueError("tracked positions must lie within [-bound, +bound]")
    if y1 == y2:
        return y2

    v_r = (y2 - y1) / dt
    d1 = abs(v_r) * t_traj
    L = bound
    sign = 1.0 if y2 > y1 else -1.0
    y = sign * y2  # position along the direction of travel
    d2 = L - y
    if d1 - d2 > 2.0 * L:
        return step_gate(float(np.clip(y2, -L, L)), v_r, L, t_traj)[0]
    if d1 > d2:
        return sign * (L - d1 + d2)
    return sign * (y + d1)


@dataclass(frozen=True)
class MinJerkTrajectory:
    """Rest-to-rest quintic path: s(tau) = 10 tau^3 - 15 tau^4 + 6 tau^5.

    ``sample_arrays`` evaluates position, velocity and acceleration in
    closed form; velocity and acceleration vanish exactly at both ends.
    Peak per-axis speed is 1.875 * |end - start| / duration at the midpoint.
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
        if not 0 < self.duration < np.inf:
            raise ValueError(f"duration {self.duration} is not positive and finite")
        if not 0 < self.sample_dt < np.inf:
            raise ValueError(f"sample_dt {self.sample_dt} is not positive and finite")


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
    tau2, tau3 = tau**2, tau**3
    s = tau3 * (10.0 - 15.0 * tau + 6.0 * tau2)
    ds = 30.0 * tau2 - 60.0 * tau3 + 30.0 * tau**4
    dds = 60.0 * tau - 180.0 * tau2 + 120.0 * tau3
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
