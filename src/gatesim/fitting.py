"""Quintic fits to energy-velocity profiles and the regression training dataset.

Each depth's cruise-energy profile is fitted with a 5th-order polynomial; the
near-optimal velocity is the energy minimum over the fitted polynomial's
stationary points and domain endpoints.  One (depth, optimal velocity,
derivative coefficients) row per depth forms the training dataset for the
velocity-prediction network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csvio import read_csv, write_csv
from .errors import DegenerateDesignMatrix, InsufficientSamples
from .motor import EnergyCoefficients, FlightModel, energy_velocity_profile

_SCAN_INTERVALS = 200
_BISECT_TOL = 1e-9


@dataclass(frozen=True)
class QuinticFit:
    """Least-squares quintic E(v) over a velocity domain.

    ``coeffs`` are ascending powers: E(v) = coeffs[0] + coeffs[1] v + ... +
    coeffs[5] v^5.
    """

    coeffs: np.ndarray
    residual_rms: float
    v_lo: float
    v_hi: float

    def energy(self, v):
        return np.polynomial.polynomial.polyval(v, self.coeffs)

    def derivative_coeffs(self) -> np.ndarray:
        """The five dE/dv coefficients (k1..k5): dE/dv = sum_j j * k_j * v^(j-1)."""
        return self.coeffs[1:].copy()


def fit_quintic(profile: np.ndarray) -> QuinticFit:
    """Fit a 5th-order polynomial to (velocity, energy) pairs by least squares."""
    profile = np.asarray(profile, dtype=float)
    v, e = profile[:, 0], profile[:, 1]
    if len(v) < 6:
        raise InsufficientSamples(f"need >= 6 samples, got {len(v)}")
    if len(np.unique(v)) != len(v):
        raise DegenerateDesignMatrix("duplicate velocities in profile")
    vander = np.vander(v, 6, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vander, e, rcond=None)
    residual = vander @ coeffs - e
    rms = float(np.sqrt(np.mean(residual**2)))
    return QuinticFit(coeffs, rms, float(v.min()), float(v.max()))


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if hi - lo < _BISECT_TOL or fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_velocity(fit: QuinticFit) -> tuple[float, bool]:
    """Energy-minimizing velocity of the fitted polynomial over its domain.

    Stationary points are located by a sign-change scan of dE/dv over 200
    subintervals refined by bisection; the minimum over stationary points and
    the two endpoints is returned along with a flag marking an endpoint
    minimum (no interior optimum).
    """
    k = fit.derivative_coeffs()
    dcoeffs = k * np.arange(1, 6)  # derivative in ascending powers

    def deriv(v):
        return float(np.polynomial.polynomial.polyval(v, dcoeffs))

    grid = np.linspace(fit.v_lo, fit.v_hi, _SCAN_INTERVALS + 1)
    values = [deriv(v) for v in grid]
    candidates = [fit.v_lo, fit.v_hi]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa == 0.0:
            candidates.append(float(a))
        elif fa * fb < 0:
            candidates.append(_bisect(deriv, float(a), float(b)))
    if values[-1] == 0.0:
        candidates.append(fit.v_hi)

    energies = [float(fit.energy(v)) for v in candidates]
    best = int(np.argmin(energies))
    v_star = float(candidates[best])
    at_endpoint = best < 2
    return v_star, at_endpoint


@dataclass(frozen=True)
class TrainingSample:
    """One dataset row: depth, its near-optimal velocity, and the fit's
    derivative coefficients (the stationarity constraint at that depth)."""

    depth: float
    v_star: float
    constraint: np.ndarray  # k1..k5 of dE/dv
    at_endpoint: bool = False


def physics_term(constraints: np.ndarray, velocities: np.ndarray) -> float:
    """Stationarity penalty: sum_i sum_j j * k_ij * v_i^(j-1), the sum of
    each sample's dE/dv at its velocity."""
    j = np.arange(1, 6)
    powers = velocities[:, None] ** (j - 1)
    return float(np.sum(j * constraints * powers))


def build_dataset(
    depths,
    c: EnergyCoefficients,
    fm: FlightModel,
    v_grid=None,
) -> list[TrainingSample]:
    """One training sample per depth: profile -> quintic fit -> optimal velocity."""
    depths = [float(d) for d in depths]
    if len(set(depths)) != len(depths):
        raise ValueError("duplicate depths in dataset")
    if not all(0 < d < np.inf for d in depths):
        raise ValueError("depths must be finite and positive")
    samples = []
    for depth in depths:
        profile = energy_velocity_profile(c, fm, depth, v_grid)
        fit = fit_quintic(profile)
        v_star, at_endpoint = optimal_velocity(fit)
        samples.append(
            TrainingSample(depth, v_star, fit.derivative_coeffs(), at_endpoint)
        )
    return samples


def default_training_depths() -> np.ndarray:
    """21 depths from 2.0 m to 6.0 m in 0.2 m steps."""
    return np.round(np.arange(2.0, 6.0 + 1e-9, 0.2), 10)


_DATASET_COLUMNS = {"depth": ".6f", "v_star": ".9f", **{f"k{j}": ".12e" for j in range(1, 6)}}


def write_dataset_csv(samples, path) -> None:
    """Export training samples as CSV: depth,v_star,k1,k2,k3,k4,k5."""
    write_csv(path, _DATASET_COLUMNS, ((s.depth, s.v_star, *s.constraint) for s in samples))


def _dataset_sample(row: dict) -> TrainingSample:
    if not 0 < row["depth"] < np.inf:
        raise ValueError(f"depth must be finite and positive, got {row['depth']}")
    return TrainingSample(row["depth"], row["v_star"], np.array([row[f"k{j}"] for j in range(1, 6)]))


def read_dataset_csv(path) -> list[TrainingSample]:
    """Load training samples written by write_dataset_csv; a missing or
    unknown column, a short row, a non-number or a depth that is not finite
    and positive raises ValueError naming it."""
    return read_csv(path, dict.fromkeys(_DATASET_COLUMNS, float), build=_dataset_sample)
