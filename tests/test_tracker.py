import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from gatesim import tracker as tracker_mod
from gatesim.scene import (
    CameraModel,
    EventCameraSim,
    WorldConfig,
    events_to_frame,
    project_to_pixels,
)
from gatesim.tracker import (
    KERNEL,
    LEAK,
    THRESHOLD,
    BoundingBox,
    GateTrack,
    SnnGateTracker,
    lif_step,
    pixel_to_world_y,
    track_bbox,
    write_track_csv,
)


def _record(frame):
    """A dense count frame as lif_step's record: its nonzero pixels and their counts."""
    frame = np.asarray(frame)
    pixels = np.flatnonzero(frame)
    return pixels, frame.ravel()[pixels]


def _dense(pixels, counts, shape):
    """The dense count frame a record stands for."""
    frame = np.zeros(shape, dtype=np.asarray(counts).dtype)
    frame.flat[pixels] = counts
    return frame


def _count_frame(events, shape):
    """A bin's dense event-count frame, built with np.add.at."""
    frame = np.zeros(shape, dtype=np.int64)
    np.add.at(frame, (events["y"], events["x"]), 1)
    return frame


class TestLifStep:
    def test_quiescence(self):
        grid = np.zeros((8, 8))
        frame = np.zeros((8, 8), dtype=np.int32)
        membrane, spikes = lif_step(grid, *_record(frame))
        assert not membrane.any()
        assert not spikes.any()

    def test_single_busy_pixel_spikes_neighborhood(self):
        # 20 events * 0.15 = 3.0 >= 1.75: every neuron seeing that pixel fires
        grid = np.zeros((9, 9))
        frame = np.zeros((9, 9), dtype=np.int32)
        frame[4, 4] = 20
        membrane, spikes = lif_step(grid, *_record(frame))
        assert spikes[4, 4]
        assert spikes[3:6, 3:6].all()
        assert membrane[spikes].max() == 0.0  # reset to zero
        assert not spikes[0, 0]

    def test_uniform_input_below_fixed_point_never_spikes(self):
        # steady state of U = leak*U + s is s/(1-leak); 1.35/0.9 = 1.5 < 1.75
        grid = np.zeros((16, 16))
        frame = np.ones((16, 16), dtype=np.int32)
        for _ in range(200):
            grid, spikes = lif_step(grid, *_record(frame))
            assert not spikes.any()
        assert grid.max() == pytest.approx(1.5, abs=1e-9)
        assert grid.max() < THRESHOLD

    def test_leak_decay_exact(self):
        grid = np.zeros((4, 4))
        grid[2, 2] = 1.0
        zero = np.zeros((4, 4), dtype=np.int32)
        for t in range(1, 6):
            grid, spikes = lif_step(grid, *_record(zero))
            assert not spikes.any()
            assert grid[2, 2] == pytest.approx(LEAK**t, rel=1e-12)

    def test_monotonicity_in_input(self):
        rng = np.random.default_rng(0)
        small = rng.integers(0, 3, (20, 20)).astype(np.int32)
        big = small + rng.integers(0, 3, (20, 20)).astype(np.int32)
        grid = rng.uniform(0, 1, (20, 20))
        m_small, s_small = lif_step(grid.copy(), *_record(small))
        m_big, s_big = lif_step(grid.copy(), *_record(big))
        # spiking resets to zero, so compare pre-reset drive via spike sets
        assert np.all(s_big | ~s_small)  # spike set is a superset
        assert np.all(m_big[~s_big] >= m_small[~s_big] - 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"pixels \(3,\) vs counts \(2,\)"):
            lif_step(np.zeros((4, 4)), np.arange(3), np.ones(2))

    def test_negative_counts_rejected(self):
        frame = np.zeros((4, 4), dtype=np.int32)
        frame[0, 0] = -1
        with pytest.raises(ValueError):
            lif_step(np.zeros((4, 4)), *_record(frame))

    def test_nan_counts_rejected(self):
        frame = np.zeros((4, 4))
        frame[2, 1] = np.nan
        with pytest.raises(ValueError):
            lif_step(np.zeros((4, 4)), *_record(frame))

    def test_strided_crop_is_updated_in_place(self):
        # a strided crop of a larger grid: only the crop's own elements of
        # the parent change, and they take the reference's bits
        rng = np.random.default_rng(8)
        backing = rng.uniform(0.0, 2.5, (16, 21))
        inside = np.zeros(backing.shape, dtype=bool)
        inside[1:15:2, 2:20:3] = True
        grid = backing[1:15:2, 2:20:3]
        frame = rng.integers(0, 4, grid.shape).astype(np.int32)
        frame[3, 2] = 20
        before = backing.copy()
        want_membrane, want_spikes = _lif_step_reference(grid, frame)
        membrane, spikes = lif_step(grid, *_record(frame))
        assert membrane is grid
        assert backing[inside].tobytes() == want_membrane.tobytes()
        assert backing[~inside].tobytes() == before[~inside].tobytes()
        assert spikes.tobytes() == want_spikes.tobytes() and spikes.any()

    # (pixels, counts, message) of a record rejected on a 6x7 grid
    REJECTED = {
        "shape": ([3, 10, 41], [20, 20], r"pixels \(3,\) vs counts \(2,\)"),
        "negative": ([3, 10, 41], [20, -1, 20], "event counts must be nonnegative"),
        "nan": ([3, 10, 41], [20, np.nan, 20], "event counts must be nonnegative"),
        "unsorted": ([3, 41, 10], [20, 20, 20], "strictly increasing"),
        "duplicate": ([3, 10, 10], [20, 20, 20], "strictly increasing"),
        "negative-pixel": ([-1, 10, 41], [20, 20, 20], "strictly increasing"),
        "past-the-end": ([3, 10, 42], [20, 20, 20], "strictly increasing"),
        "float-pixels": ([3.0, 10.0, 41.0], [20, 20, 20], "strictly increasing"),
    }

    @pytest.mark.parametrize("bad", list(REJECTED))
    def test_rejected_call_leaves_grid_untouched(self, bad):
        # every check runs before the first write; the valid call after it
        # shows that the same grid is otherwise updated in place
        rng = np.random.default_rng(9)
        grid = rng.uniform(0.0, 2.5, (6, 7))
        pixels, counts, match = self.REJECTED[bad]
        before = grid.copy()
        with pytest.raises(ValueError, match=match):
            lif_step(grid, np.array(pixels), np.array(counts, dtype=np.float64))
        assert grid.tobytes() == before.tobytes()
        _lif_step_checked(grid, np.full(grid.shape, 20.0))

    @pytest.mark.parametrize("grid", [
        np.zeros((4, 4), dtype=np.int64),
        np.zeros((4, 4), dtype=np.float32),
        np.zeros((4, 4), dtype=">f8"),
        np.zeros((4, 4)).tolist(),
        np.broadcast_to(0.0, (4, 4)),
    ], ids=["int64", "float32", "big-endian", "list", "read-only"])
    def test_grid_must_be_a_writable_float64_array(self, grid):
        with pytest.raises(TypeError):
            lif_step(grid, *_record(np.ones((4, 4), dtype=np.int32)))


class TestBoundingBox:
    def test_center_examples(self):
        assert BoundingBox(0, 0, 0, 0).center == (0, 0)
        assert BoundingBox(100, 180, 50, 130).center == (140, 90)
        assert BoundingBox(0, 5, 0, 5).center == (2, 2)  # floor of 2.5

    @given(
        x0=st.integers(0, 600), w=st.integers(0, 100),
        y0=st.integers(0, 440), h=st.integers(0, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_center_inside_box(self, x0, w, y0, h):
        cx, cy = BoundingBox(x0, x0 + w, y0, y0 + h).center
        assert x0 <= cx <= x0 + w
        assert y0 <= cy <= y0 + h

    def test_no_spikes_returns_none(self):
        spikes = np.zeros((10, 10), dtype=bool)
        prev = np.ones((10, 10), dtype=np.int32)
        assert track_bbox(spikes, np.flatnonzero(prev)) is None

    def test_recovered_extent(self):
        spikes = np.zeros((200, 200), dtype=bool)
        spikes[100, 100] = True
        spikes[130, 180] = True
        prev = np.zeros((200, 200), dtype=np.int32)
        prev[99, 99] = 1    # inside the 3x3 of (100,100)
        prev[131, 181] = 2  # inside the 3x3 of (130,180)
        prev[5, 5] = 7      # far away: must be ignored
        box = track_bbox(spikes, np.flatnonzero(prev))
        assert (box.x_min, box.x_max, box.y_min, box.y_max) == (99, 181, 99, 131)

    def test_degenerate_single_pixel(self):
        spikes = np.zeros((10, 10), dtype=bool)
        spikes[5, 5] = True
        prev = np.zeros((10, 10), dtype=np.int32)
        prev[5, 5] = 3
        box = track_bbox(spikes, np.flatnonzero(prev))
        assert box.x_min == box.x_max == box.center[0] == 5
        assert box.y_min == box.y_max == box.center[1] == 5

    def test_make_bbox(self):
        box = BoundingBox(10, 20, 30, 40)
        assert (box.x_min, box.x_max, box.y_min, box.y_max) == (10, 20, 30, 40)
        assert box.center == (15, 35)

    def test_spikes_without_nearby_events(self):
        spikes = np.zeros((10, 10), dtype=bool)
        spikes[5, 5] = True
        prev = np.zeros((10, 10), dtype=np.int32)
        prev[0, 0] = 1
        assert track_bbox(spikes, np.flatnonzero(prev)) is None

    @pytest.mark.parametrize("prev_pixels", [[-1], [3, 100], [5.0]],
                             ids=["negative", "past-the-end", "float"])
    def test_previous_pixels_outside_the_frame_rejected(self, prev_pixels):
        # a ValueError before any lookup, not an IndexError from one
        spikes = np.zeros((10, 10), dtype=bool)
        spikes[5, 5] = True
        with pytest.raises(ValueError, match="flat indices into the 10x10 frame"):
            track_bbox(spikes, np.array(prev_pixels))


class TestBackProjection:
    def setup_method(self):
        # at the origin, looking along -x
        self.cam = CameraModel(position=(0.0, 0.0, 0.0))

    def test_principal_point_on_axis(self):
        assert pixel_to_world_y((320.0, 240.0), 3.0, self.cam) == pytest.approx(0.0)

    def test_inverse_of_projection_example(self):
        assert pixel_to_world_y((570.0, 240.0), 1.0, self.cam) == pytest.approx(0.5)

    def test_roundtrip_exact_for_float_centers(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            point = (-rng.uniform(0.5, 8.0), rng.uniform(-3, 3), rng.uniform(-2, 2))
            px, py = project_to_pixels(self.cam, point)
            world_y = pixel_to_world_y((px, py), -point[0], self.cam)
            assert world_y == pytest.approx(point[1], abs=1e-9)

    def test_roundtrip_within_one_pixel_for_integer_centers(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            point = (-rng.uniform(0.5, 8.0), rng.uniform(-3, 3), rng.uniform(-2, 2))
            px, py = project_to_pixels(self.cam, point)
            world_y = pixel_to_world_y((round(px), round(py)), -point[0], self.cam)
            qx, _ = project_to_pixels(self.cam, (point[0], world_y, point[2]))
            assert abs(qx - px) <= 1.0

    def test_nonpositive_depth(self):
        with pytest.raises(ValueError, match="depth 0.0 is not positive"):
            pixel_to_world_y((320, 240), 0.0, self.cam)

    @pytest.mark.parametrize("depth", [np.nan, np.inf, -np.inf])
    def test_non_finite_depth_rejected(self, depth):
        with pytest.raises(ValueError, match=f"depth {depth} is not positive and finite"):
            pixel_to_world_y((320, 240), depth, self.cam)


class TestTrackerPipeline:
    def _run_bins(self, cfg, n_bins):
        sim = EventCameraSim(cfg)
        tracker = SnnGateTracker(cfg.camera())
        frames_per_bin = round(cfg.sensing_dt / cfg.frame_dt)
        boxes, gate_ys = [], []
        for _ in range(n_bins):
            events = np.concatenate([sim.step()[2] for _ in range(frames_per_bin)])
            boxes.append(tracker.process_bin(events))
            gate_ys.append(sim.gate[0])
        return boxes, gate_ys

    def test_moving_gate_is_tracked_near_truth(self):
        cfg = WorldConfig(gate_y0=-0.5, gate_speed=0.5, gate_bound=0.6, drone_x=2.0)
        boxes, gate_ys = self._run_bins(cfg, 8)
        found = [b for b in boxes if b is not None]
        assert len(found) >= 5
        # back-project each box center at the true depth and compare it with
        # the gate's lateral position around that bin
        for box, gate_y in zip(boxes[2:], gate_ys[2:]):
            if box is not None:
                world_y = pixel_to_world_y(box.center, cfg.depth, cfg.camera())
                assert abs(world_y - gate_y) < 0.25

    def test_first_bin_never_tracks(self):
        cfg = WorldConfig(gate_y0=0.0, gate_speed=0.5, gate_bound=2.0, drone_x=2.0)
        boxes, _ = self._run_bins(cfg, 3)
        assert boxes[0] is None

    def test_speed_selectivity_over_full_traversal(self):
        # doubling the gate speed must not reduce the total spike count
        def spike_count(speed):
            cfg = WorldConfig(gate_y0=-0.6, gate_speed=speed, gate_bound=0.6, drone_x=2.0)
            cam = cfg.camera()
            sim = EventCameraSim(cfg)
            tracker = SnnGateTracker(cam)
            frames_per_bin = round(cfg.sensing_dt / cfg.frame_dt)
            traversal = 1.2 / speed  # -L to +L once
            total = 0

            for _ in range(int(np.ceil(traversal / cfg.sensing_dt))):
                events = np.concatenate(
                    [sim.step()[2] for _ in range(frames_per_bin)]
                )
                tracker.membrane, spikes = lif_step(
                    tracker.membrane, *events_to_frame(events, cam.shape))
                total += int(spikes.sum())
            return total

        slow = spike_count(0.4)
        fast = spike_count(0.8)
        assert fast >= slow


def test_track_csv_format(tmp_path):
    tracks = [
        GateTrack(0.1, 340, 240, 4.0, 0.5),
        GateTrack(0.2, 343, 240, 4.0, 0.55),
    ]
    path = tmp_path / "tracks.csv"
    write_track_csv(tracks, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,center_x,center_y,depth,world_y"
    assert len(lines) == 3
    assert lines[1].startswith("0.100000,340,240,4.000000,0.500000")


class _DenseTracker(SnnGateTracker):
    """The full-grid pipeline: np.add.at event counts, then the scipy.ndimage
    references of lif_step and track_bbox over the whole sensor; records each
    bin's spike count."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prev_frame = None
        self.spike_counts = []

    def process_bin(self, events):
        frame = _count_frame(events, self.camera.shape)
        self.membrane, spikes = _lif_step_reference(self.membrane, frame)
        self.spike_counts.append(int(spikes.sum()))
        box = None
        if self.prev_frame is not None:
            box = _track_bbox_reference(spikes, self.prev_frame)
        self.prev_frame = frame
        return box


def test_process_bin_equals_dense_reference(oracle_world, monkeypatch):
    spike_counts = []

    def counting_lif_step(grid, pixels, counts):
        membrane, spikes = lif_step(grid, pixels, counts)
        spike_counts.append(int(spikes.sum()))
        return membrane, spikes

    monkeypatch.setattr(tracker_mod, "lif_step", counting_lif_step)
    cam = oracle_world.camera()
    sparse = SnnGateTracker(cam)
    dense = _DenseTracker(cam)
    sim = EventCameraSim(oracle_world)
    for _ in range(8):
        events = np.concatenate([sim.step()[2] for _ in range(10)])
        assert sparse.process_bin(events) == dense.process_bin(events)
        assert sparse.membrane.tobytes() == dense.membrane.tobytes()
        assert spike_counts == dense.spike_counts


@pytest.mark.parametrize("y, x, want", [
    (100, 200, (99, 102, 199, 202)),
    (0, 0, (0, 2, 0, 2)),
    (479, 639, (478, 480, 638, 640)),
], ids=["inside", "top-left-corner", "bottom-right-corner"])
def test_region_is_one_event_widened_by_one_pixel(y, x, want):
    # the 3x3 kernel drives rows y - 1 .. y + 1, and likewise columns; the
    # region is that box, half-open and clipped to the sensor
    tracker = SnnGateTracker(WorldConfig().camera())
    assert tracker._region(np.array([y]), np.array([x])) == want


def test_full_sensor_bin_peaks_below_two_float64_frames():
    # a noisy bin's events cover the sensor, so the whole membrane is
    # updated; the bin's own allocations (count frame, drive, masks) must stay
    # under two float64 sensor frames, which a new membrane beside the drive
    # would exceed
    cfg = WorldConfig(drone_x=2.0, spurious_rate=1e5, seed=11)
    cam = cfg.camera()
    sim = EventCameraSim(cfg)
    tracker = SnnGateTracker(cam)
    frames_per_bin = round(cfg.sensing_dt / cfg.frame_dt)
    tracker.process_bin(sim.step(frames_per_bin)[2])
    events = sim.step(frames_per_bin)[2]
    tracemalloc.start()
    try:
        tracker.process_bin(events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    h, w = cam.shape
    assert tracker._live == (0, h, 0, w)
    assert peak < 2 * h * w * np.dtype(np.float64).itemsize


def test_full_sensor_bin_peaks_below_one_and_a_half_float64_frames():
    # the same bin as above: its event record, the drive and the spike and
    # recovery masks must stay under 1.5 float64 sensor frames; a dense
    # int64 count frame beside the drive would exceed it
    cfg = WorldConfig(drone_x=2.0, spurious_rate=1e5, seed=11)
    sim = EventCameraSim(cfg)
    tracker = SnnGateTracker(cfg.camera())
    frames_per_bin = round(cfg.sensing_dt / cfg.frame_dt)
    tracker.process_bin(sim.step(frames_per_bin)[2])
    events = sim.step(frames_per_bin)[2]
    tracemalloc.start()
    try:
        tracker.process_bin(events)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    h, w = cfg.camera().shape
    assert tracker._live == (0, h, 0, w)
    assert peak < 1.5 * h * w * np.dtype(np.float64).itemsize


def _lif_step_reference(grid, frame):
    """lif_step as first written: a float copy of the counts, the kernel sum,
    LEAK * grid + drive, then the reset through np.where."""
    drive = ndimage.correlate(
        np.asarray(frame).astype(np.float64), KERNEL, mode="constant", cval=0.0
    )
    membrane = LEAK * grid + drive
    spikes = membrane >= THRESHOLD
    return np.where(spikes, 0.0, membrane), spikes


def _track_bbox_reference(spikes, prev_frame):
    """track_bbox as first written: a 3x3 maximum filter of the spikes, masked
    by the previous bin's events, then the extent of what remains."""
    recovered = ndimage.maximum_filter(spikes, size=3, mode="constant") & (prev_frame > 0)
    if not recovered.any():
        return None
    ys, xs = np.nonzero(recovered)
    return BoundingBox(int(xs.min()), int(xs.max()), int(ys.min()), int(ys.max()))


def _lif_step_checked(grid, frame):
    """lif_step on the record of the dense ``frame``, asserting its bytes
    against the reference on ``frame``, that it updates ``grid`` in place and
    that it does not write the record."""
    pixels, counts = _record(frame)
    pixels_before, counts_before = pixels.copy(), counts.copy()
    want_membrane, want_spikes = _lif_step_reference(grid, frame)
    membrane, spikes = lif_step(grid, pixels, counts)
    assert membrane.dtype == np.float64 and spikes.dtype == bool
    assert membrane.shape == spikes.shape == grid.shape
    assert membrane.tobytes() == want_membrane.tobytes()
    assert spikes.tobytes() == want_spikes.tobytes()
    assert membrane is grid
    assert pixels.tobytes() == pixels_before.tobytes()
    assert counts.dtype == counts_before.dtype and counts.tobytes() == counts_before.tobytes()
    return membrane, spikes


def _track_bbox_checked(spikes, prev_frame, dtype=np.intp):
    """track_bbox on the event pixels of the dense ``prev_frame``, as flat
    indices of ``dtype``, asserting its box against the reference on
    ``prev_frame`` and that it writes neither of its inputs."""
    prev_pixels = np.flatnonzero(np.asarray(prev_frame) > 0).astype(dtype)
    spikes_before, pixels_before = spikes.copy(), prev_pixels.copy()
    box = track_bbox(spikes, prev_pixels)
    assert box == _track_bbox_reference(spikes, prev_frame)
    assert spikes.tobytes() == spikes_before.tobytes()
    assert prev_pixels.tobytes() == pixels_before.tobytes()
    return box


class TestLifStepOracle:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
    def test_hand_frames_with_border_spikes(self, dtype):
        rng = np.random.default_rng(4)
        # a strided crop of a larger grid that already holds potentials,
        # as process_bin passes it, with one signed zero among them
        backing = rng.uniform(0.0, 2.5, (16, 21))
        grid = backing[2:14, 3:18]
        grid[6, 6] = -0.0
        frame = rng.integers(0, 3, grid.shape).astype(dtype)
        for y, x in ((0, 0), (0, 7), (0, 14), (5, 0), (11, 0), (11, 9), (11, 14), (8, 14)):
            frame[y, x] = 20
        if dtype == np.float64:
            frame[4, 4] = 0.5
        for _ in range(4):
            membrane, spikes = _lif_step_checked(grid, frame)
            assert spikes[0].any() and spikes[-1].any()
            assert spikes[:, 0].any() and spikes[:, -1].any()
            grid = membrane

    def test_quiet_and_single_pixel_frames(self):
        for shape in ((1, 1), (1, 6), (6, 1), (3, 3)):
            _lif_step_checked(np.zeros(shape), np.zeros(shape, dtype=np.int32))
            _lif_step_checked(np.full(shape, 1.9), np.full(shape, 20, dtype=np.int32))

    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        density=st.floats(0.0, 1.0),
        dtype=st.sampled_from([np.int32, np.int64, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_shapes_kernels_and_densities(self, shape, density, dtype, seed):
        # the kernel, leak and threshold are the layer's constants
        rng = np.random.default_rng(seed)
        grid = rng.uniform(0.0, 1.2 * THRESHOLD, shape)
        for _ in range(2):
            counts = rng.integers(1, 4, shape) * (rng.uniform(size=shape) < density)
            grid, _ = _lif_step_checked(grid, counts.astype(dtype))


class TestTrackBboxOracle:
    SHAPE = (7, 9)
    SPIKE_AT = [(0, 0), (0, 8), (6, 0), (6, 8),   # corners
                (0, 4), (6, 4), (3, 0), (3, 8),   # edges
                (3, 4)]                           # interior

    @pytest.mark.parametrize("spike", SPIKE_AT)
    def test_single_spike_against_every_nearby_event(self, spike):
        spikes = np.zeros(self.SHAPE, dtype=bool)
        spikes[spike] = True
        y, x = spike
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                if not (0 <= y + dy < self.SHAPE[0] and 0 <= x + dx < self.SHAPE[1]):
                    continue
                prev = np.zeros(self.SHAPE, dtype=np.int32)
                prev[y + dy, x + dx] = 1
                box = _track_bbox_checked(spikes, prev)
                assert (box is None) == (max(abs(dy), abs(dx)) == 2)

    @pytest.mark.parametrize("spike", SPIKE_AT)
    def test_events_only_two_pixels_away(self, spike):
        spikes = np.zeros(self.SHAPE, dtype=bool)
        spikes[spike] = True
        prev = np.ones(self.SHAPE, dtype=np.int32)
        y, x = spike
        prev[max(y - 1, 0):y + 2, max(x - 1, 0):x + 2] = 0
        assert _track_bbox_checked(spikes, prev) is None

    def test_all_spiking(self):
        rng = np.random.default_rng(6)
        for shape in ((1, 1), (1, 5), (5, 1), self.SHAPE, (48, 64)):
            spikes = np.ones(shape, dtype=bool)
            assert _track_bbox_checked(spikes, np.zeros(shape, dtype=np.int32)) is None
            full = _track_bbox_checked(spikes, np.ones(shape, dtype=np.int32))
            assert (full.x_min, full.x_max, full.y_min, full.y_max) == (0, shape[1] - 1, 0, shape[0] - 1)
            _track_bbox_checked(spikes, (rng.uniform(size=shape) < 0.05).astype(np.int32))

    def test_random_frames(self):
        rng = np.random.default_rng(7)
        for spike_rate, event_rate in ((0.002, 0.01), (0.01, 0.1), (0.2, 0.02), (0.5, 0.5)):
            for dtype in (np.int32, np.float64):
                spikes = rng.uniform(size=(48, 64)) < spike_rate
                prev = (rng.uniform(size=(48, 64)) < event_rate).astype(dtype)
                _track_bbox_checked(spikes, prev)

    @given(
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        spike_density=st.floats(0.0, 1.0),
        event_density=st.floats(0.0, 1.0),
        dtype=st.sampled_from([np.int32, np.int64]),
        contiguous=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=400, deadline=None)
    def test_random_shapes_and_densities(self, shape, spike_density, event_density,
                                         dtype, contiguous, seed):
        rng = np.random.default_rng(seed)
        h, w = shape
        # the spikes as a non-contiguous column slice of a wider frame, or a
        # contiguous copy of it
        wider = rng.uniform(size=(h, w + 2)) < spike_density
        spikes = wider[:, 1:-1].copy() if contiguous else wider[:, 1:-1]
        prev = (rng.uniform(size=shape) < event_density).astype(np.int32)
        _track_bbox_checked(spikes, prev, dtype)


def test_lif_step_and_track_bbox_match_reference_on_world_bins(oracle_world, monkeypatch):
    # every cropped bin process_bin hands the two stages, and the same bins
    # over the full sensor
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def lif_step_on_record(grid, pixels, counts):
        return _lif_step_checked(grid, _dense(pixels, counts, grid.shape))

    def track_bbox_on_record(spikes, prev_pixels):
        return _track_bbox_checked(spikes, _dense(prev_pixels, 1, spikes.shape))

    monkeypatch.setattr(tracker_mod, "lif_step", counted("lif_step", lif_step_on_record))
    monkeypatch.setattr(tracker_mod, "track_bbox", counted("track_bbox", track_bbox_on_record))
    cam = oracle_world.camera()
    sparse = SnnGateTracker(cam)
    grid, prev = np.zeros(cam.shape), None
    sim = EventCameraSim(oracle_world)
    for _ in range(8):
        events = np.concatenate([sim.step()[2] for _ in range(10)])
        sparse.process_bin(events)
        frame = _count_frame(events, cam.shape)
        grid, spikes = _lif_step_checked(grid, frame)
        if prev is not None:
            _track_bbox_checked(spikes, prev)
        prev = frame
    assert calls["lif_step"] == 8


def test_process_bin_looks_up_the_traced_stages_through_the_module(monkeypatch):
    # perfbench's tracker spans wrap these module attributes; a process_bin
    # that bound one under another name would zero its span silently
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("events_to_frame", "lif_step", "track_bbox"):
        monkeypatch.setattr(tracker_mod, name, counted(name, getattr(tracker_mod, name)))
    cfg = WorldConfig(gate_y0=-0.5, gate_speed=0.5, gate_bound=0.6, drone_x=2.0)
    sim = EventCameraSim(cfg)
    tracker = SnnGateTracker(cfg.camera())
    for _ in range(3):
        tracker.process_bin(np.concatenate([sim.step()[2] for _ in range(10)]))
    assert calls == Counter(events_to_frame=3, lif_step=3, track_bbox=2)
