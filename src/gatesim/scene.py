"""Synthetic world: a bouncing circular gate, a pinhole camera, and a DVS-style event generator.

The gate is a hoop of fixed radius moving laterally at constant speed between
two reversal walls.  Its state is the pair (y, velocity), advanced by
``step_gate``; every other gate setting is a ``WorldConfig`` field.  The
camera has fixed intrinsics (500 px focal length, 640x480 sensor) and looks
along -x from the drone, so projection is a few scalar formulas.  A
simulated event camera watches the gate plane and emits per-pixel polarity
events whenever the rasterized hoop annulus covers or uncovers a pixel
between consecutive frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .csvio import write_csv
from .errors import check_integer

# One event per row: timestamp [s], pixel column, pixel row, polarity {+1, -1}.
EVENT_DTYPE = np.dtype([("t", "f8"), ("x", "i4"), ("y", "i4"), ("p", "i1")])


def step_gate(y: float, velocity: float, bound: float, dt: float) -> tuple[float, float]:
    """Advance the gate (y, velocity) by dt with reflective (billiard) bouncing on [-bound, +bound].

    Total function: any dt >= 0 is folded through the reversal walls, keeping
    |velocity| unchanged and flipping its sign once per wall contact.  The
    gate runs backwards in time when stepped with its velocity negated.
    """
    if not dt >= 0:
        raise ValueError("dt must be >= 0")
    if dt == 0.0 or velocity == 0.0:
        return y, velocity
    L = bound
    speed = abs(velocity)
    # Phase of the equivalent triangle wave, period 4L in distance traveled.
    if velocity > 0:
        phase = y + L
    else:
        phase = 3.0 * L - y
    phase = (phase + speed * dt) % (4.0 * L)
    if phase <= 2.0 * L:
        return phase - L, speed
    return 3.0 * L - phase, -speed


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera at ``position``, looking along -x.

    World +y maps to increasing pixel column and +z to decreasing pixel row.
    The intrinsics are the one sensor's constants.
    """

    focal_px: ClassVar[float] = 500.0
    cx: ClassVar[float] = 320.0
    cy: ClassVar[float] = 240.0
    width: ClassVar[int] = 640
    height: ClassVar[int] = 480
    shape: ClassVar[tuple[int, int]] = (height, width)
    position: tuple[float, float, float] = (2.0, 0.0, 0.0)


def project_to_pixels(camera: CameraModel, point) -> tuple[float, float]:
    """Project a world point to (sub-pixel) image coordinates.

    The result may lie outside the sensor bounds; callers clip.  Raises
    ValueError for a point at or behind the camera plane or a non-finite one.
    """
    x, y, z = camera.position
    depth = float(x - point[0])
    if not 0 < depth < math.inf:
        raise ValueError(f"point depth {depth} is not positive and finite")
    dy, dz = float(point[1] - y), float(point[2] - z)
    if not (-math.inf < dy < math.inf and -math.inf < dz < math.inf):
        raise ValueError(f"point offset ({dy}, {dz}) from the camera is not finite")
    return (camera.cx + camera.focal_px * dy / depth,
            camera.cy - camera.focal_px * dz / depth)


# Rounding moves the hypot test and the squared-distance test by a few ulps
# of the band's outer radius: below 1e-12 px for rings under 1000 px.  So a
# pixel whose squared distance clears the band's squared edges by a margin of
# 1e-6 of that radius is decided alike by both, and only the rest needs hypot.
_EDGE_MARGIN = 1e-6


def _ring_coverage(world: WorldConfig, gate_ys):
    """Candidate pixels of the world's ring at several lateral positions, and which each covers.

    Returns sorted flat indices (row * width + col) and ``covered[k, j]``:
    whether the anti-aliased coverage of candidate j by the ring centred at
    ``gate_ys[k]`` (1 inside the band |rho - r| <= thickness/2 around the ring
    radius, falling off linearly over one pixel outside it) reaches the
    world's ``event_threshold``.  The positions share a centre row, as a gate
    moves only laterally.  The candidates are each row's columns whose offset
    from some centre can put them within c = thickness/2 + 0.5 - threshold of
    the radius, with a pixel to spare on either side.
    """
    camera = world.camera()
    centres = np.array([project_to_pixels(camera, (world.gate_plane_x, y, 0.0)) for y in gate_ys])
    pxs, py = centres[:, 0], centres[0, 1]
    r_px = camera.focal_px * world.gate_radius / world.depth
    half = world.ring_thickness_px / 2.0
    c = half + 0.5 - world.event_threshold
    outer = r_px + c + 1.0
    inner = max(r_px - c - 1.0, 0.0)
    rows = np.arange(max(math.floor(py - outer), 0), min(math.ceil(py + outer) + 1, camera.height))
    dy2 = (rows - py) ** 2
    reach = np.sqrt(np.maximum(outer * outer - dy2, 0.0))
    hole = np.sqrt(np.maximum(inner * inner - dy2, 0.0))
    # per row, a left span of columns [lo[:, 0], hi[:, 0]) with
    # hole - 1 <= px - x <= reach + 1 for some centre px, and the mirrored
    # right one, which starts no earlier than the left one ends
    lo = np.empty((len(rows), 2))
    hi = np.empty_like(lo)
    lo[:, 0] = np.ceil(pxs.min() - reach) - 1.0
    hi[:, 0] = np.floor(pxs.max() - hole) + 2.0
    lo[:, 1] = np.ceil(pxs.min() + hole) - 1.0
    hi[:, 1] = np.floor(pxs.max() + reach) + 2.0
    lo[:, 1] = np.maximum(lo[:, 1], hi[:, 0])
    lo = np.clip(lo, 0, camera.width).astype(np.int64).ravel()
    lengths = np.maximum(np.clip(hi, 0, camera.width).astype(np.int64).ravel() - lo, 0)

    # ragged arange: the columns of every span, row-major
    ends = np.cumsum(lengths)
    xs = np.arange(lengths.sum()) + np.repeat(lo - (ends - lengths), lengths)
    ys = np.repeat(np.repeat(rows, 2), lengths)
    d2 = xs - pxs[:, None]  # in place from here: a fresh array per step costs page faults
    d2 *= d2
    d2 += (ys - py) ** 2
    m = _EDGE_MARGIN * outer
    covered = (d2 >= max(r_px - c + m, 0.0) ** 2) & (d2 <= (r_px + c - m) ** 2)
    edge = (d2 >= max(r_px - c - m, 0.0) ** 2) & (d2 <= (r_px + c + m) ** 2) & ~covered
    k, j = np.divmod(np.flatnonzero(edge), len(xs))
    rho = np.hypot(xs[j] - pxs[k], ys[j] - py)
    # for a threshold in (0, 1], clipping the coverage to [0, 1] changes no pixel
    covered[k, j] = half + 0.5 - np.abs(rho - r_px) >= world.event_threshold
    return ys * camera.width + xs, covered


def annulus_mask(world: WorldConfig, y: float) -> np.ndarray:
    """The world's ring centred at lateral position ``y``: its covered pixels
    as sorted flat indices (row * width + col); see _ring_coverage."""
    if not math.isfinite(y):
        raise ValueError(f"gate position must be finite, got {y}")
    pixels, covered = _ring_coverage(world, [y])
    return pixels[covered[0]]


def annulus_bbox(world: WorldConfig, y: float):
    """Pixel bounding box (x_min, x_max, y_min, y_max) of the visible annulus, or None."""
    pixels = annulus_mask(world, y)
    if not len(pixels):
        return None
    xs = pixels % CameraModel.width
    return (int(xs.min()), int(xs.max()),
            int(pixels[0] // CameraModel.width), int(pixels[-1] // CameraModel.width))


def events_to_frame(events: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """A bin's event record: the pixels that saw an event, and each one's count.

    Returns ``(pixels, counts)``: the flat indices (row * width + column)
    into a frame of ``shape`` pixels that saw an event, sorted and unique,
    and their event counts over both polarities.  An event outside the frame
    raises ValueError.  The name is kept from the dense count frame this
    once built, because profilers look the stage up by it.
    """
    h, w = shape
    ys, xs = events["y"], events["x"]
    if len(events) and (ys.min() < 0 or ys.max() >= h or xs.min() < 0 or xs.max() >= w):
        raise ValueError(f"events fall outside the {h}x{w} frame")
    return np.unique(ys * w + xs, return_counts=True)


def write_events_csv(events: np.ndarray, path) -> None:
    """Export an event stream as CSV with header t,x,y,p (t to microseconds)."""
    write_csv(path, {"t": ".6f", "x": "", "y": "", "p": ""}, events.tolist())


@dataclass(frozen=True)
class WorldConfig:
    """Full description of one synthetic world: drone, gate and event camera.

    The field order is the order of the ``[world]`` section of an episode
    config file.  The seed determines every stochastic draw (spurious
    events, sensor noise); two worlds with equal configs produce
    bit-identical event streams.
    """

    drone_x: float = 2.0
    drone_y: float = 0.0
    gate_y0: float = 2.0
    gate_speed: float = 0.5
    gate_bound: float = 2.0
    gate_radius: float = 1.0
    gate_plane_x: float = -2.0
    sensing_dt: float = 0.1
    frame_dt: float = 0.01
    event_threshold: float = 0.5
    spurious_rate: float = 0.0  # expected spurious events per second, whole sensor
    ring_thickness_px: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0 < self.depth < math.inf:
            raise ValueError(f"drone_x = {self.drone_x} is not in front of gate_plane_x = "
                             f"{self.gate_plane_x} by a finite depth")
        if self.gate_bound <= 0:
            raise ValueError(f"gate_bound must be positive, got {self.gate_bound}")
        if self.gate_radius <= 0:
            raise ValueError(f"gate_radius must be positive, got {self.gate_radius}")
        if abs(self.gate_y0) > self.gate_bound + 1e-12:
            raise ValueError(f"gate_y0 = {self.gate_y0} is outside [-gate_bound, +gate_bound]")
        # the tracker's sensing bins hold whole frames
        bins = self.sensing_dt / self.frame_dt if self.frame_dt > 0 else 0.0
        if round(bins) < 1 or abs(bins - round(bins)) > 1e-9 * bins:
            raise ValueError("sensing_dt must be a positive integer multiple of frame_dt")
        if not 0.0 < self.event_threshold <= 1.0:
            raise ValueError(f"event_threshold must be in (0, 1], got {self.event_threshold}")
        if not self.ring_thickness_px > 0.0:
            raise ValueError(f"ring_thickness_px must be positive, got {self.ring_thickness_px}")
        if self.spurious_rate < 0:
            raise ValueError(f"spurious_rate must be >= 0, got {self.spurious_rate}")
        check_integer("seed", self.seed, 0)

    @property
    def depth(self) -> float:
        return self.drone_x - self.gate_plane_x

    def camera(self) -> CameraModel:
        return CameraModel(position=(self.drone_x, self.drone_y, 0.0))


class EventCameraSim:
    """Frame-stepped event generator for one world.

    Frames are spaced ``frame_dt`` apart; each frame advances the gate's
    (y, velocity) pair with ``step_gate`` and emits the coverage-change
    events, timestamped at the new frame time.  ``gate`` defaults to
    ``(gate_y0, gate_speed)``.  Optionally injects spurious events at
    uniformly random pixels.
    """

    def __init__(self, config: WorldConfig, start_time: float = 0.0,
                 gate: tuple[float, float] | None = None):
        self.config = config
        self.camera = config.camera()
        self.time = start_time
        self.gate = gate if gate is not None else (config.gate_y0, config.gate_speed)
        self._rng = np.random.default_rng(config.seed)

    def step(self, frames: int = 1) -> tuple[float, tuple[float, float], np.ndarray]:
        """Advance ``frames`` frames; returns (last frame time, its gate (y, velocity), events):
        frame by frame, the coverage changes in row-major order, +1 where the
        new frame covers, then that frame's spurious events."""
        check_integer("frames", frames, 1)
        cfg = self.config
        # one fold per frame: the position at t * k directly would round differently
        y, velocity = self.gate
        gate_ys, times = [y], []
        for _ in range(frames):
            y, velocity = step_gate(y, velocity, cfg.gate_bound, cfg.frame_dt)
            gate_ys.append(y)
            self.time += cfg.frame_dt
            times.append(self.time)
        self.gate = y, velocity
        pixels, covered = _ring_coverage(cfg, gate_ys)
        frame, j = np.divmod(np.flatnonzero(covered[1:] != covered[:-1]), len(pixels))
        events = np.empty(len(j), dtype=EVENT_DTYPE)
        events["t"] = np.array(times)[frame]
        events["y"], events["x"] = np.divmod(pixels[j], self.camera.width)
        events["p"] = np.where(covered[frame + 1, j], 1, -1)
        if cfg.spurious_rate > 0:
            # Per frame, the count, columns, rows and polarities are drawn in
            # that order: the generator's stream is part of the output.
            rng, w, h = self._rng, self.camera.width, self.camera.height
            draws = []
            for _ in times:
                n = rng.poisson(cfg.spurious_rate * cfg.frame_dt)
                draws.append((rng.integers(0, w, n), rng.integers(0, h, n), rng.integers(0, 2, n)))
            # one array for the bin: each frame's ring events, then its spurious ones
            ring = events
            events = np.empty(len(ring) + sum(len(d[0]) for d in draws), dtype=EVENT_DTYPE)
            bounds = np.searchsorted(frame, range(frames + 1)).tolist()
            shift = 0  # spurious events placed so far
            for t, start, end, (xs, ys, ps) in zip(times, bounds, bounds[1:], draws):
                events[start + shift:end + shift] = ring[start:end]
                shift += len(xs)
                noise = events[end + shift - len(xs):end + shift]
                noise["t"], noise["x"], noise["y"] = t, xs, ys
                noise["p"] = np.where(ps, 1, -1)
        return self.time, self.gate, events
