"""Spiking gate tracker: a single leaky integrate-and-fire layer over the pixel grid.

Each pixel drives one LIF neuron through the fixed 3x3 kernel ``KERNEL``; the
neurons share the constants ``LEAK`` and ``THRESHOLD``.  Dense event activity
(fast apparent motion) pushes membrane potentials past threshold; sparse
activity leaks away.  The bounding box of the events
recovered around spiking neurons localizes the moving gate in pixels; the
harness back-projects the box center's column at a depth reading
(``pixel_to_world_y``) and records the fix as a ``GateTrack``.

A bin reaches the layer as one sparse record from ``EventCameraSim.step``: its
event pixels as sorted, unique flat indices, and their counts.  ``lif_step``
updates, in place, the crop of the full-sensor membrane the tracker hands it;
its kernel drive is scattered from the record, so its cost follows the pixels
that saw an event, not the crop's area, with the bits of a dense correlation.
``track_bbox`` reads the crop's spike frame, dilated by 3x3 in one row and one
column pass, at the previous bin's event pixels; clipped neighbours land on
other neighbours, so this is a 3x3 maximum filter of the spikes.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .csvio import write_csv
# events_to_frame is unused here, but perfbench's tracer reads tracker.events_to_frame
from .scene import CameraModel, events_to_frame  # noqa: F401

# the layer's LIF neurons (reset-to-zero) and the 3x3 kernel weighting each
# neuron's neighbourhood of event counts
LEAK = 0.1
THRESHOLD = 1.75
KERNEL = np.full((3, 3), 0.15)
KERNEL.flags.writeable = False


def lif_step(grid: np.ndarray, pixels: np.ndarray,
             counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LIF update in place: U <- LEAK * U + KERNEL (x) frame; spike and reset at THRESHOLD.

    ``grid`` must be a writable float64 array.  ``frame`` is the bin's count
    frame over the grid, zero outside it, given as ``EventCameraSim.step``'s
    record: ``pixels``, strictly increasing flat indices (row * width +
    column) into the grid, and their ``counts``.  No frame is built.

    The drive ``KERNEL (x) frame`` is scattered from the record, one kernel
    tap at a time in row-major order, into a zeroed accumulator: each tap
    adds ``float(count) * weight`` to the pixel its source drives.  This has
    the bits of ``scipy.ndimage.correlate`` (``mode="constant"``), which sums
    the same products over the taps in the same order from 0.0.  A zero
    count adds +0.0, which changes no nonnegative sum; and the pixels are
    unique, so within one tap every target is distinct and sees the same
    additions in the same order.

    Returns ``(grid, spikes)``: ``grid`` itself, updated, and a boolean spike
    frame.  The record is not written.  Every check runs before the first
    write, so a call that raises leaves ``grid`` as it was: pixels that are
    not strictly increasing integer indices into the grid, counts of another
    shape, or a negative or NaN count raise ValueError, and a grid of another
    type or dtype, or a read-only one, TypeError.
    """
    if not (isinstance(grid, np.ndarray) and grid.dtype == np.float64 and grid.flags.writeable):
        raise TypeError("grid must be a writable float64 array")
    pixels, counts = np.asarray(pixels), np.asarray(counts)
    h, w = grid.shape
    if pixels.ndim != 1 or pixels.shape != counts.shape:
        raise ValueError(f"pixels {pixels.shape} vs counts {counts.shape}")
    if pixels.dtype.kind not in "iu" or len(pixels) and not (
            pixels[0] >= 0 and pixels[-1] < h * w and (pixels[1:] > pixels[:-1]).all()):
        raise ValueError(f"pixels must be strictly increasing flat indices into the {h}x{w} grid")
    if not (counts >= 0).all():
        raise ValueError("event counts must be nonnegative")
    drive = np.zeros(grid.shape)
    counts = counts.astype(np.float64)
    ys, xs = np.divmod(pixels, w)
    # a source at least one pixel inside the grid drives only grid pixels, so each
    # tap shifts it by one flat offset; border sources drop the targets outside it
    inner = (ys >= 1) & (ys < h - 1) & (xs >= 1) & (xs < w - 1)
    edge_ys, edge_xs, edge_counts = ys[~inner], xs[~inner], counts[~inner]
    src, counts = pixels[inner], counts[inner]
    flat = drive.ravel()
    for (dy, dx), weight in np.ndenumerate(KERNEL):
        dy, dx = dy - 1, dx - 1
        np.add.at(flat, src - (dy * w + dx), counts * weight)
        if len(edge_counts):
            ty, tx = edge_ys - dy, edge_xs - dx
            keep = (ty >= 0) & (ty < h) & (tx >= 0) & (tx < w)
            np.add.at(flat, (ty * w + tx)[keep], edge_counts[keep] * weight)
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


def track_bbox(spikes: np.ndarray, prev_pixels: np.ndarray) -> BoundingBox | None:
    """Box over the previous bin's events recovered around spiking neurons.

    ``prev_pixels`` are the previous bin's event pixels as flat indices into
    the spike frame, as ``EventCameraSim.step`` records them; one outside the
    frame raises ValueError.  Event pixels within the 3x3 neighborhood of
    any spiking neuron are recovered (one-bin delay); returns None when
    nothing spiked or no events fall in the spiking neighborhoods.  The spike
    frame, dilated by 3x3 (rows, then columns) within the frame, is read at
    those pixels: clipping an off-frame neighbour to the frame lands on the
    pixel beside it, itself a neighbour, so the recovered set is that of a
    3x3 maximum filter of the spikes masked by the events.
    """
    spikes = np.asarray(spikes, dtype=bool)
    prev_pixels = np.asarray(prev_pixels)
    h, w = spikes.shape
    if prev_pixels.dtype.kind not in "iu" or len(prev_pixels) and not (
            prev_pixels.min() >= 0 and prev_pixels.max() < h * w):
        raise ValueError(f"previous event pixels must be flat indices into the {h}x{w} frame")
    near = spikes.copy()
    near[1:] |= spikes[:-1]
    near[:-1] |= spikes[1:]
    rows = near.copy()
    near[:, 1:] |= rows[:, :-1]
    near[:, :-1] |= rows[:, 1:]
    ys, xs = np.divmod(prev_pixels[near.ravel()[prev_pixels]], w)
    if not len(ys):
        return None
    return BoundingBox(int(xs.min()), int(xs.max()), int(ys.min()), int(ys.max()))


def pixel_to_world_y(center: tuple[float, float], depth: float, camera: CameraModel) -> float:
    """World y (lateral) coordinate of a pixel center back-projected at a positive, finite depth."""
    if not 0 < depth < math.inf:
        raise ValueError(f"depth {depth} is not positive and finite")
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
    """Stateful per-bin spiking layer for one event camera.

    Bins must be processed in order: each call integrates the bin's event
    record into the LIF layer and recovers the box from the previous bin's
    event pixels, which it keeps in sensor coordinates.

    Each bin updates only a region of the grid: the *live box*, which holds
    every nonzero potential, joined with the bin's events and widened by the
    kernel's one-pixel reach.  Outside it the potential is +0.0 and gets no
    drive, so it stays +0.0 and cannot reach the positive threshold; the
    result is the full-grid update, bit for bit.
    """

    def __init__(self, camera: CameraModel):
        self.camera = camera
        self.membrane = np.zeros(camera.shape)
        # (y0, y1, x0, x1), half-open: the previous bin's region, which holds every
        # nonzero potential, and its event pixels' sensor rows and columns; None before any
        self._live: tuple[int, int, int, int] | None = None
        self._live_pixels: tuple[np.ndarray, np.ndarray] | None = None

    def _region(self, ys: np.ndarray, xs: np.ndarray):
        """This bin's update box: the live box and the event pixels (sorted rows ``ys``,
        columns ``xs``), widened by the kernel's one-pixel reach and clipped to the sensor."""
        boxes = [self._live] if self._live is not None else []
        if len(ys):
            boxes.append((int(ys[0]), int(ys[-1]) + 1, int(xs.min()), int(xs.max()) + 1))
        if not boxes:
            return 0, 0, 0, 0
        y0, y1, x0, x1 = zip(*boxes)
        h, w = self.camera.shape
        return max(min(y0) - 1, 0), min(max(y1) + 1, h), max(min(x0) - 1, 0), min(max(x1) + 1, w)

    def process_bin(self, pixels: np.ndarray, counts: np.ndarray) -> BoundingBox | None:
        """Consume one sensing bin's event record (``EventCameraSim.step``'s pixels and
        counts); returns the gate's pixel box, if found.  The record is checked by
        ``lif_step``, which raises before any state changes."""
        ys, xs = np.divmod(pixels, self.camera.width)
        region = y0, y1, x0, x1 = self._region(ys, xs)
        w = x1 - x0
        _, spikes = lif_step(self.membrane[y0:y1, x0:x1], (ys - y0) * w + xs - x0, counts)
        box = None
        if self._live is not None:
            # the region holds the previous one, so every event a spike's
            # neighbourhood can recover lies on this crop
            prev_ys, prev_xs = self._live_pixels
            found = track_bbox(spikes, (prev_ys - y0) * w + prev_xs - x0)
            if found is not None:
                box = BoundingBox(found.x_min + x0, found.x_max + x0,
                                  found.y_min + y0, found.y_max + y0)
        if y0 < y1:  # else no events and nothing live: no state to keep
            self._live, self._live_pixels = region, (ys, xs)
        return box


def write_track_csv(tracks, path) -> None:
    """Export a track log as CSV: t,center_x,center_y,depth,world_y per sensing step."""
    columns = {"t": ".6f", "center_x": "", "center_y": "", "depth": ".6f", "world_y": ".6f"}
    write_csv(path, columns, map(astuple, tracks))
