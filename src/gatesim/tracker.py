"""Spiking gate tracker: a single leaky integrate-and-fire layer over the pixel grid.

Each pixel drives one LIF neuron through a small weighted neighborhood kernel.
Dense event activity (fast apparent motion) pushes membrane potentials past
threshold; sparse activity leaks away.  The bounding box of the events
recovered around spiking neurons localizes the moving gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .csvio import write_csv
from .errors import DimensionMismatch, InvalidExtents, NonPositiveDepth, ZeroInterval
from .scene import CameraModel, events_to_frame


def _default_kernel() -> np.ndarray:
    return np.full((3, 3), 0.15)


@dataclass(frozen=True)
class LifConfig:
    """Leaky integrate-and-fire layer parameters (reset-to-zero)."""

    leak: float = 0.1
    threshold: float = 1.75
    kernel: np.ndarray = field(default_factory=_default_kernel)

    def __post_init__(self):
        if not 0.0 < self.leak < 1.0:
            raise ValueError("leak factor must be in (0, 1)")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if np.any(np.asarray(self.kernel) < 0):
            raise ValueError("kernel weights must be nonnegative")


def new_membrane_grid(shape: tuple[int, int]) -> np.ndarray:
    """Fresh all-zero membrane potential grid, one neuron per pixel."""
    return np.zeros(shape, dtype=np.float64)


def lif_step(
    grid: np.ndarray, config: LifConfig, frame: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One LIF update: U <- leak * U + kernel (x) frame; spike and reset at threshold.

    ``frame`` holds per-pixel event counts for the time bin (zero-padded
    borders for the neighborhood sum).  Returns the new membrane grid and a
    boolean spike frame.
    """
    frame = np.asarray(frame)
    if frame.shape != grid.shape:
        raise DimensionMismatch(f"frame {frame.shape} vs grid {grid.shape}")
    if np.any(frame < 0):
        raise ValueError("event counts must be nonnegative")
    drive = ndimage.correlate(
        frame.astype(np.float64), np.asarray(config.kernel), mode="constant", cval=0.0
    )
    membrane = config.leak * grid + drive
    spikes = membrane >= config.threshold
    membrane = np.where(spikes, 0.0, membrane)
    return membrane, spikes


@dataclass(frozen=True)
class BoundingBox:
    """Pixel-extent box with its integer center."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int
    center_x: int
    center_y: int


def bbox_center(x_min: int, x_max: int, y_min: int, y_max: int) -> tuple[int, int]:
    """Integer box center: min + floor(extent / 2) on each axis."""
    if x_min > x_max or y_min > y_max:
        raise InvalidExtents(f"({x_min},{x_max},{y_min},{y_max})")
    return x_min + (x_max - x_min) // 2, y_min + (y_max - y_min) // 2


def make_bbox(x_min: int, x_max: int, y_min: int, y_max: int) -> BoundingBox:
    cx, cy = bbox_center(x_min, x_max, y_min, y_max)
    return BoundingBox(x_min, x_max, y_min, y_max, cx, cy)


def track_bbox(spikes: np.ndarray, prev_frame: np.ndarray) -> BoundingBox | None:
    """Box over the previous bin's events recovered around spiking neurons.

    Event pixels within the 3x3 neighborhood of any spiking neuron are
    recovered (one-bin delay); returns None when nothing spiked or no events
    fall in the spiking neighborhoods.
    """
    spikes = np.asarray(spikes, dtype=bool)
    prev_frame = np.asarray(prev_frame)
    if spikes.shape != prev_frame.shape:
        raise DimensionMismatch(f"spikes {spikes.shape} vs events {prev_frame.shape}")
    if not spikes.any():
        return None
    neighborhood = ndimage.maximum_filter(spikes, size=3, mode="constant", cval=False)
    recovered = neighborhood & (prev_frame > 0)
    if not recovered.any():
        return None
    ys, xs = np.nonzero(recovered)
    return make_bbox(int(xs.min()), int(xs.max()), int(ys.min()), int(ys.max()))


def pixel_center_to_world(
    center: tuple[float, float], depth: float, camera: CameraModel
) -> tuple[float, float, float]:
    """Back-project a pixel center at a known depth to world coordinates."""
    if depth <= 0:
        raise NonPositiveDepth(f"depth {depth} is not positive")
    px, py = center
    rel = (
        depth * np.asarray(camera.forward)
        + depth * (px - camera.cx) / camera.focal_px * np.asarray(camera.right)
        + depth * (camera.cy - py) / camera.focal_px * np.asarray(camera.up)
    )
    world = np.asarray(camera.position) + rel
    return float(world[0]), float(world[1]), float(world[2])


def estimate_gate_velocity(y1: float, y2: float, dt: float) -> float:
    """Finite-difference lateral gate velocity from two tracked positions."""
    if dt <= 0:
        raise ZeroInterval(f"dt {dt} is not positive")
    return (y2 - y1) / dt


@dataclass(frozen=True)
class GateTrack:
    """One tracker output: world-frame gate center fused from pixels and depth."""

    world_x: float
    world_y: float
    world_z: float
    pixel_x: int
    pixel_y: int
    depth: float
    t: float


class SnnGateTracker:
    """Stateful per-bin tracking pipeline for one event stream.

    Bins must be processed in order: each call integrates the bin's event
    counts into the LIF layer and recovers the box from the previous bin's
    events.  Depth comes from a simulated depth sensor (ground truth plus
    optional Gaussian noise).
    """

    def __init__(
        self,
        camera: CameraModel,
        config: LifConfig | None = None,
        depth_noise_sigma: float = 0.0,
        seed: int = 0,
    ):
        self.camera = camera
        self.config = config if config is not None else LifConfig()
        self.depth_noise_sigma = depth_noise_sigma
        self._rng = np.random.default_rng(seed)
        self.membrane = new_membrane_grid(camera.shape)
        self.prev_frame: np.ndarray | None = None

    def measure_depth(self, true_depth: float) -> float:
        if self.depth_noise_sigma > 0:
            return true_depth + self.depth_noise_sigma * self._rng.standard_normal()
        return true_depth

    def process_bin(
        self, events: np.ndarray, t: float, true_depth: float
    ) -> GateTrack | None:
        """Consume one sensing bin of events; returns a track when a box is found."""
        frame = events_to_frame(events, self.camera.shape)
        self.membrane, spikes = lif_step(self.membrane, self.config, frame)
        box = None
        if self.prev_frame is not None:
            box = track_bbox(spikes, self.prev_frame)
        self.prev_frame = frame
        if box is None:
            return None
        depth = self.measure_depth(true_depth)
        wx, wy, wz = pixel_center_to_world(
            (box.center_x, box.center_y), depth, self.camera
        )
        return GateTrack(wx, wy, wz, box.center_x, box.center_y, depth, t)


def write_track_csv(tracks, path) -> None:
    """Export a track log as CSV: t,center_x,center_y,depth,world_y per sensing step."""
    columns = {"t": ".6f", "center_x": "", "center_y": "", "depth": ".6f", "world_y": ".6f"}
    write_csv(path, columns, ((tr.t, tr.pixel_x, tr.pixel_y, tr.depth, tr.world_y) for tr in tracks))
