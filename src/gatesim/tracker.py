"""Spiking gate tracker: a single leaky integrate-and-fire layer over the pixel grid.

Each pixel drives one LIF neuron through the fixed 3x3 kernel ``KERNEL``; the
neurons share the constants ``LEAK`` and ``THRESHOLD``.  Dense event activity
(fast apparent motion) pushes membrane potentials past threshold; sparse
activity leaks away.  The bounding box of the events
recovered around spiking neurons localizes the moving gate in pixels; the
harness back-projects the box center's column at a depth reading
(``pixel_to_world_y``) and records the fix as a ``GateTrack``.

``lif_step`` updates the membrane it is given in place; the tracker hands it
a crop of its full-sensor membrane.  Its work follows the events: the kernel
drive is scattered from the bin's event pixels, so its cost grows with the
pixels that saw an event, not with the area of the crop.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .csvio import write_csv
from .scene import CameraModel, events_to_frame

# the layer's LIF neurons (reset-to-zero) and the 3x3 kernel weighting each
# neuron's neighbourhood of event counts
LEAK = 0.1
THRESHOLD = 1.75
KERNEL = np.full((3, 3), 0.15)
KERNEL.flags.writeable = False


def _drive(frame: np.ndarray) -> np.ndarray:
    """KERNEL's correlation with ``frame``, zero outside it, scattered from the event pixels.

    A source at least one pixel inside the frame drives only pixels of the
    frame, so each tap shifts it by one flat offset; the few sources on the
    border drop the targets that fall outside.
    """
    h, w = frame.shape
    # allocated before the small temporaries below, so that a free block of
    # exactly its size (the int64 counts events_to_frame has just freed) can
    # hold it whole, rather than the heap growing by a frame in many bins
    drive = np.zeros(frame.shape)
    src = np.flatnonzero(frame > 0)
    counts = frame.take(src).astype(np.float64)
    ys, xs = np.divmod(src, w)
    inner = (ys >= 1) & (ys < h - 1) & (xs >= 1) & (xs < w - 1)
    edge_ys, edge_xs, edge_counts = ys[~inner], xs[~inner], counts[~inner]
    src, counts = src[inner], counts[inner]
    flat = drive.ravel()
    for (dy, dx), weight in np.ndenumerate(KERNEL):
        dy, dx = dy - 1, dx - 1
        np.add.at(flat, src - (dy * w + dx), counts * weight)
        if len(edge_counts):
            ty, tx = edge_ys - dy, edge_xs - dx
            keep = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
            np.add.at(flat, (ty * w + tx)[keep], edge_counts[keep] * weight)
    return drive


def lif_step(grid: np.ndarray, frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LIF update in place: U <- LEAK * U + KERNEL (x) frame; spike and reset at THRESHOLD.

    ``grid`` must be a writable float64 array; ``frame`` holds per-pixel event
    counts for the time bin (zero-padded borders for the neighborhood sum).

    The drive ``KERNEL (x) frame`` is scattered from the frame's nonzero
    pixels, one kernel tap at a time in row-major order, into a zeroed
    accumulator: each tap adds ``float(count) * weight`` to the pixel its
    source drives.  This has the bits of ``scipy.ndimage.correlate``
    (``mode="constant"``), which sums the same products over the taps in the
    same order from 0.0.  A zero count adds +0.0, which changes no
    nonnegative sum; and within one tap every target is distinct, so each
    target sees the same additions in the same order.

    Returns ``(grid, spikes)``: ``grid`` itself, updated, and a boolean spike
    frame.  ``frame`` is not written.  Every check runs before the first
    write, so a call that raises leaves ``grid`` as it was: a shape mismatch
    or a negative or NaN count raises ValueError, and a grid of another type
    or dtype, or a read-only one, TypeError.
    """
    if not (isinstance(grid, np.ndarray) and grid.dtype == np.float64 and grid.flags.writeable):
        raise TypeError("grid must be a writable float64 array")
    frame = np.asarray(frame)
    if frame.shape != grid.shape:
        raise ValueError(f"frame {frame.shape} vs grid {grid.shape}")
    if not (frame >= 0).all():
        raise ValueError("event counts must be nonnegative")
    drive = _drive(frame)
    grid *= LEAK
    grid += drive
    spikes = grid >= THRESHOLD
    grid[spikes] = 0.0
    return grid, spikes


@dataclass(frozen=True)
class BoundingBox:
    """Pixel-extent box, inclusive on both ends."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int

    @property
    def center(self) -> tuple[int, int]:
        """Integer box center (x, y): min + floor(extent / 2) on each axis."""
        return (self.x_min + (self.x_max - self.x_min) // 2,
                self.y_min + (self.y_max - self.y_min) // 2)


# row and column offsets of a pixel's 3x3 neighbourhood
_NEIGHBOUR_DY, _NEIGHBOUR_DX = np.mgrid[-1:2, -1:2].reshape(2, 9)


def track_bbox(spikes: np.ndarray, prev_frame: np.ndarray) -> BoundingBox | None:
    """Box over the previous bin's events recovered around spiking neurons.

    Event pixels within the 3x3 neighborhood of any spiking neuron are
    recovered (one-bin delay); returns None when nothing spiked or no events
    fall in the spiking neighborhoods.  Only the spikes' neighbours are read:
    clipping an off-frame neighbour to the frame lands on the pixel beside
    it, itself a neighbour, so the recovered set is that of a 3x3 maximum
    filter of the spikes masked by the events.
    """
    spikes = np.asarray(spikes, dtype=bool)
    prev_frame = np.asarray(prev_frame)
    if spikes.shape != prev_frame.shape:
        raise ValueError(f"spikes {spikes.shape} vs events {prev_frame.shape}")
    h, w = spikes.shape
    ys, xs = np.divmod(np.flatnonzero(spikes), w)
    if not len(ys):
        return None
    ys = np.clip(ys[:, None] + _NEIGHBOUR_DY, 0, h - 1)
    xs = np.clip(xs[:, None] + _NEIGHBOUR_DX, 0, w - 1)
    recovered = prev_frame[ys, xs] > 0
    if not recovered.any():
        return None
    ys, xs = ys[recovered], xs[recovered]
    return BoundingBox(int(xs.min()), int(xs.max()), int(ys.min()), int(ys.max()))


def pixel_to_world_y(center: tuple[float, float], depth: float, camera: CameraModel) -> float:
    """World y (lateral) coordinate of a pixel center back-projected at a known depth."""
    if depth <= 0:
        raise ValueError(f"depth {depth} is not positive")
    return float(camera.position[1] + depth * (center[0] - camera.cx) / camera.focal_px)


@dataclass(frozen=True)
class GateTrack:
    """One gate fix, in track-CSV column order: its time, box center, depth and world y."""

    t: float
    center_x: int
    center_y: int
    depth: float
    world_y: float


class SnnGateTracker:
    """Stateful per-bin spiking layer for one event stream.

    Bins must be processed in order: each call integrates the bin's event
    counts into the LIF layer and recovers the box from the previous bin's
    events.

    Each bin updates only a region of the grid: the *live box*, which holds
    every nonzero potential, joined with the bin's events and widened by the
    kernel's one-pixel reach.  Outside it the potential is +0.0 and gets no
    drive, so it stays +0.0 and cannot reach the positive threshold; the
    result is the full-grid update, bit for bit.
    """

    def __init__(self, camera: CameraModel):
        self.camera = camera
        self.membrane = np.zeros(camera.shape)
        # (y0, y1, x0, x1), half-open: the previous bin's region, which holds
        # every nonzero potential, and its event pixels; None before any
        self._live: tuple[int, int, int, int] | None = None
        self._live_events: np.ndarray | None = None

    def _region(self, events: np.ndarray):
        """This bin's update box: the live box and the events, widened by the
        kernel's one-pixel reach and clipped to the sensor."""
        boxes = [self._live] if self._live is not None else []
        if len(events):
            ys, xs = events["y"], events["x"]
            boxes.append((int(ys.min()), int(ys.max()) + 1, int(xs.min()), int(xs.max()) + 1))
        if not boxes:
            return 0, 0, 0, 0
        y0, y1, x0, x1 = zip(*boxes)
        h, w = self.camera.shape
        return max(min(y0) - 1, 0), min(max(y1) + 1, h), max(min(x0) - 1, 0), min(max(x1) + 1, w)

    def process_bin(self, events: np.ndarray) -> BoundingBox | None:
        """Consume one sensing bin of events; returns the gate's pixel box, if found."""
        region = y0, y1, x0, x1 = self._region(events)
        frame = events_to_frame(events, (y1 - y0, x1 - x0), (y0, x0))
        _, spikes = lif_step(self.membrane[y0:y1, x0:x1], frame)
        box = None
        if self._live is not None:
            # the region holds the previous one, so every event a spike's
            # neighbourhood can recover lies on this crop
            prev = self._live_events
            if self._live != region:
                prev = np.zeros(frame.shape, dtype=bool)
                py0, py1, px0, px1 = self._live
                prev[py0 - y0:py1 - y0, px0 - x0:px1 - x0] = self._live_events
            found = track_bbox(spikes, prev)
            if found is not None:
                box = BoundingBox(found.x_min + x0, found.x_max + x0,
                                  found.y_min + y0, found.y_max + y0)
        if y0 < y1:  # else no events and nothing live: no state to keep
            self._live, self._live_events = region, frame > 0
        return box


def write_track_csv(tracks, path) -> None:
    """Export a track log as CSV: t,center_x,center_y,depth,world_y per sensing step."""
    columns = {"t": ".6f", "center_x": "", "center_y": "", "depth": ".6f", "world_y": ".6f"}
    write_csv(path, columns, map(astuple, tracks))
