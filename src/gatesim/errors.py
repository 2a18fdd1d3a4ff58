"""Exception types raised by the simulator's operation contracts, and the
integer check shared by its configs."""

import numbers


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ValueError naming ``name`` unless value is an integer (not a
    bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


class GateSimError(Exception):
    """Base class for all gatesim errors."""


class NonPositiveDepth(GateSimError):
    """A point at or behind the camera plane cannot be projected."""


class DimensionMismatch(GateSimError):
    """Frame dimensions do not match the neuron grid."""


class InvalidExtents(GateSimError):
    """Bounding-box extents with min > max."""


class BladeClearanceExceedsRadius(GateSimError):
    """Blade clearance larger than the propeller radius."""


class ZeroTorqueConstant(GateSimError):
    """Motor torque constant must be positive."""


class EmptyProfile(GateSimError):
    """Rotor-speed profile contains no samples."""


class ExceedsMaxRotorSpeed(GateSimError):
    """Requested flight speed needs a rotor speed above the motor limit."""


class InsufficientSamples(GateSimError):
    """Too few samples for the requested polynomial fit."""


class DegenerateDesignMatrix(GateSimError):
    """Duplicate velocities make the fit underdetermined."""


class EmptyDataset(GateSimError):
    """Loss or training requested on an empty dataset."""


class DivergenceDetected(GateSimError):
    """Training loss became non-finite."""


class NonPositiveVelocity(GateSimError):
    """Trajectory time requires a positive velocity."""


class NonPositiveDuration(GateSimError):
    """Trajectory duration must be positive."""


class OutOfDomain(GateSimError):
    """Sample time outside the trajectory's [0, T] domain."""
