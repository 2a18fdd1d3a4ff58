from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatesim.scene import (
    EVENT_DTYPE,
    CameraModel,
    EventCameraSim,
    WorldConfig,
    annulus_bbox,
    annulus_mask,
    events_to_frame,
    project_to_pixels,
    step_gate,
    write_events_csv,
)


class TestStepGate:
    def test_no_wall_contact(self):
        y, velocity = step_gate(0.0, 1.0, 2.0, 1.0)
        assert y == pytest.approx(1.0)
        assert velocity == pytest.approx(1.0)

    def test_reflection(self):
        # 1.5 -> 2.0 -> back to 1.5 with the velocity flipped
        y, velocity = step_gate(1.5, 1.0, 2.0, 1.0)
        assert y == pytest.approx(1.5)
        assert velocity == pytest.approx(-1.0)

    def test_full_period(self):
        y, velocity = step_gate(0.0, 1.0, 2.0, 8.0)
        assert y == pytest.approx(0.0)
        assert velocity == pytest.approx(1.0)

    def test_periodicity_over_three_periods(self):
        y0, v0, bound = 0.7, 1.3, 2.0
        period = 4.0 * bound / abs(v0)
        for k in range(1, 4):
            y, velocity = step_gate(y0, v0, bound, k * period)
            assert y == pytest.approx(y0, abs=1e-9)
            assert velocity == pytest.approx(v0, abs=1e-9)

    def test_zero_dt_and_stationary(self):
        assert step_gate(0.3, 0.0, 2.0, 5.0) == (0.3, 0.0)
        assert step_gate(0.3, 1.0, 2.0, 0.0) == (0.3, 1.0)

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            step_gate(0.0, 0.5, 2.0, -0.1)
        with pytest.raises(ValueError):
            step_gate(0.0, 0.5, 2.0, float("nan"))

    @pytest.mark.parametrize("overrides", [
        {"gate_y0": 2.5}, {"gate_y0": float("nan")}, {"gate_bound": 0.0, "gate_y0": 0.0},
        {"gate_bound": float("nan"), "gate_y0": 0.0}, {"gate_radius": 0.0},
        {"gate_radius": float("nan")},
    ])
    def test_gate_settings_rejected(self, overrides):
        # the world's fields are the gate's only settings, and their only check
        with pytest.raises(ValueError, match=next(iter(overrides))):
            WorldConfig(**overrides)

    @pytest.mark.parametrize("velocity", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_velocity_rejected(self, velocity):
        # step_gate does not check the velocity, so the world must
        with pytest.raises(ValueError, match="gate_speed must be finite"):
            WorldConfig(gate_speed=velocity)

    @given(
        y=st.floats(-2.0, 2.0),
        v=st.floats(-3.0, 3.0),
        dt=st.floats(0.0, 50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_stays_bounded_and_conserves_speed(self, y, v, dt):
        out_y, out_v = step_gate(y, v, 2.0, dt)
        assert abs(out_y) <= 2.0 + 1e-9
        assert abs(out_v) == pytest.approx(abs(v), abs=1e-12)

    def test_rewind_roundtrip(self):
        # folding with the velocity negated runs the gate backwards
        for dt in (0.05, 1.0, 3.7, 11.0):
            back_y, back_v = step_gate(1.2, 0.8, 2.0, dt)
            y, velocity = step_gate(back_y, -back_v, 2.0, dt)
            assert y == pytest.approx(1.2, abs=1e-9)
            assert velocity == pytest.approx(-0.8, abs=1e-9)


class TestProjection:
    def setup_method(self):
        # at the origin, looking along -x
        self.cam = CameraModel(position=(0.0, 0.0, 0.0))

    def test_optical_axis_maps_to_principal_point(self):
        for depth in (0.5, 1.0, 7.3):
            px, py = project_to_pixels(self.cam, (-depth, 0.0, 0.0))
            assert (px, py) == (pytest.approx(320.0), pytest.approx(240.0))

    def test_lateral_offset(self):
        # 0.5 m lateral at 1 m depth with focal 500 px: 320 + 500 * 0.5 = 570
        px, py = project_to_pixels(self.cam, (-1.0, 0.5, 0.0))
        assert px == pytest.approx(570.0)
        assert py == pytest.approx(240.0)

    def test_up_maps_to_lower_rows(self):
        # 0.2 m up at 2 m depth: 240 - 500 * 0.2 / 2 = 190
        px, py = project_to_pixels(self.cam, (-2.0, 0.0, 0.2))
        assert px == pytest.approx(320.0)
        assert py == pytest.approx(190.0)

    def test_position_is_the_only_field(self):
        assert [f.name for f in fields(CameraModel)] == ["position"]
        assert CameraModel().shape == (480, 640) == (CameraModel.height, CameraModel.width)

    def test_zero_depth_rejected(self):
        with pytest.raises(ValueError, match="point depth .* is not positive"):
            project_to_pixels(self.cam, (0.0, 0.5, 0.0))
        with pytest.raises(ValueError, match="point depth .* is not positive"):
            project_to_pixels(self.cam, (1.0, 0.0, 0.0))

    def test_result_may_leave_sensor(self):
        px, _ = project_to_pixels(self.cam, (-1.0, 5.0, 0.0))
        assert px > 640  # caller clips


class TestEventGeneration:
    def setup_method(self):
        self.cfg = WorldConfig(gate_y0=0.0, gate_speed=1.0, gate_bound=2.0, drone_x=2.0)
        self.cam = self.cfg.camera()

    def test_static_scene_no_events(self):
        sim = EventCameraSim(WorldConfig(gate_y0=0.0, gate_speed=0.0, drone_x=2.0))
        _, _, events = sim.step()
        assert len(events) == 0

    def test_moving_gate_produces_polarized_events(self):
        _, moved, events = EventCameraSim(self.cfg).step()
        assert moved == step_gate(self.cfg.gate_y0, self.cfg.gate_speed, self.cfg.gate_bound, 0.01)
        assert len(events) > 0
        assert set(np.unique(events["p"])) <= {-1, 1}
        assert np.all(events["p"] != 0)

    def test_events_inside_union_of_annuli(self):
        # brute-force containment oracle: rasterize both annuli
        cfg = WorldConfig(gate_y0=0.0, gate_speed=1.0, drone_x=2.0, frame_dt=0.05)
        _, moved, events = EventCameraSim(cfg).step()  # several-pixel displacement
        union = np.union1d(annulus_mask(cfg, cfg.gate_y0), annulus_mask(cfg, moved[0]))
        assert len(events) > 0
        assert np.isin(events["y"] * self.cam.width + events["x"], union).all()

    def test_events_within_sensor_bounds(self):
        sim = EventCameraSim(self.cfg)
        for _ in range(20):
            _, _, events = sim.step()
            if len(events):
                assert events["x"].min() >= 0 and events["x"].max() < 640
                assert events["y"].min() >= 0 and events["y"].max() < 480

    def test_timestamps_nondecreasing(self):
        sim = EventCameraSim(self.cfg)
        stream = np.concatenate([sim.step()[2] for _ in range(15)])
        assert np.all(np.diff(stream["t"]) >= 0)

    def test_identical_configs_give_bit_identical_streams(self):
        sims = EventCameraSim(self.cfg), EventCameraSim(self.cfg)
        for _ in range(10):
            ea = sims[0].step()[2]
            eb = sims[1].step()[2]
            assert np.array_equal(ea, eb)

    def test_spurious_events_seeded(self):
        noisy = WorldConfig(
            gate_y0=0.0, gate_speed=0.0, drone_x=2.0, spurious_rate=5000.0, seed=42
        )
        counts = []
        for _ in range(2):
            sim = EventCameraSim(noisy)
            counts.append(sum(len(sim.step()[2]) for _ in range(10)))
        assert counts[0] == counts[1]
        assert counts[0] > 0  # the gate is static, so all events are spurious

    def test_event_frame_counts(self):
        _, _, events = EventCameraSim(self.cfg).step()
        _, counts = events_to_frame(events, self.cam.shape)
        assert counts.sum() == len(events)
        assert counts.max() == 1  # one coverage flip per pixel per frame pair


def _check_event_record(events, shape):
    """events_to_frame's record against a dense np.bincount over the frame."""
    pixels, counts = events_to_frame(events, shape)
    dense = np.bincount(events["y"] * shape[1] + events["x"], minlength=shape[0] * shape[1])
    assert (pixels[1:] > pixels[:-1]).all()  # sorted and unique
    np.testing.assert_array_equal(pixels, np.flatnonzero(dense))
    np.testing.assert_array_equal(counts, dense[pixels])
    assert counts.sum() == len(events)


def test_event_record_matches_dense_bincount(oracle_world):
    sim = EventCameraSim(oracle_world)
    for _ in range(4):
        _check_event_record(sim.step(10)[2], CameraModel.shape)


def test_event_record_of_a_hand_built_bin():
    # repeated pixels, the sensor's first and last pixels, and no events
    events = np.zeros(8, dtype=EVENT_DTYPE)
    events["y"] = [479, 0, 5, 479, 5, 0, 5, 5]
    events["x"] = [639, 0, 9, 639, 10, 0, 9, 9]
    events["p"] = [1, -1, 1, -1, -1, 1, 1, -1]
    _check_event_record(events, (480, 640))
    pixels, counts = events_to_frame(events, (480, 640))
    assert pixels.tolist() == [0, 5 * 640 + 9, 5 * 640 + 10, 480 * 640 - 1]
    assert counts.tolist() == [2, 3, 1, 2]
    _check_event_record(events[:0], (480, 640))
    with pytest.raises(ValueError, match="outside the 479x640 frame"):
        events_to_frame(events, (479, 640))


class TestAnnulus:
    def test_ring_radius_in_pixels(self):
        cfg = WorldConfig(gate_y0=0.0, gate_speed=0.0, drone_x=2.0)
        ys, xs = np.divmod(annulus_mask(cfg, cfg.gate_y0), CameraModel.width)
        rho = np.hypot(xs - 320.0, ys - 240.0)
        r_expected = 500.0 * 1.0 / 4.0  # focal * radius / depth
        assert rho.min() == pytest.approx(r_expected - 1.0, abs=1.0)
        assert rho.max() == pytest.approx(r_expected + 1.0, abs=1.0)

    def test_bbox_matches_mask(self):
        cfg = WorldConfig(gate_y0=0.5, gate_speed=0.0, drone_x=2.0)
        box = annulus_bbox(cfg, cfg.gate_y0)
        ys, xs = np.divmod(annulus_mask(cfg, cfg.gate_y0), CameraModel.width)
        assert box == (xs.min(), xs.max(), ys.min(), ys.max())

    def test_invisible_gate_has_no_bbox(self):
        assert annulus_bbox(WorldConfig(drone_y=-30.0), 2.0) is None

    @pytest.mark.parametrize("y", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_position_rejected(self, y):
        for render in (annulus_mask, annulus_bbox):
            with pytest.raises(ValueError, match="gate position must be finite"):
                render(WorldConfig(), y)

    @staticmethod
    def _reference_mask(world, y):
        """Full-frame anti-aliased coverage, clipped to [0, 1], then thresholded."""
        camera = world.camera()
        px, py = project_to_pixels(camera, (world.gate_plane_x, y, 0.0))
        r_px = camera.focal_px * world.gate_radius / world.depth
        ys, xs = np.mgrid[0:camera.height, 0:camera.width]
        band = world.ring_thickness_px / 2.0 + 0.5 - np.abs(np.hypot(xs - px, ys - py) - r_px)
        return np.clip(band, 0.0, 1.0) >= world.event_threshold

    def test_mask_equals_clipped_full_frame_coverage(self):
        rng = np.random.default_rng(0)
        for i in range(150):
            drone_x, drone_y = rng.uniform(-1.5, 8.0), rng.uniform(-4.0, 4.0)
            y, radius = rng.uniform(-2.0, 2.0), rng.uniform(0.3, 1.5)
            threshold = 1.0 if i % 10 == 0 else rng.uniform(1e-6, 1.0)
            thickness = rng.uniform(0.5, 4.0)
            world = WorldConfig(drone_x=drone_x, drone_y=drone_y, gate_y0=y, gate_radius=radius,
                                event_threshold=threshold, ring_thickness_px=thickness)
            expected = self._reference_mask(world, y)
            np.testing.assert_array_equal(annulus_mask(world, y), np.flatnonzero(expected))

    def test_off_screen_ring_covers_nothing(self):
        pixels = annulus_mask(WorldConfig(drone_y=-30.0), 2.0)
        assert pixels.dtype == np.int64 and len(pixels) == 0

    @pytest.mark.parametrize("threshold, thickness, name", [
        (0.0, 2.0, "event_threshold"), (1.01, 2.0, "event_threshold"),
        (0.5, 0.0, "ring_thickness_px"), (0.5, -1.0, "ring_thickness_px"),
    ])
    def test_ring_settings_rejected(self, threshold, thickness, name):
        with pytest.raises(ValueError, match=name):
            WorldConfig(gate_y0=0.0, gate_speed=0.0, event_threshold=threshold,
                        ring_thickness_px=thickness)


class _DenseEventCamera(EventCameraSim):
    """The full-frame event path: dense masks, XOR, nonzero, then spurious events."""

    def step(self):
        cfg = self.config
        before = TestAnnulus._reference_mask(cfg, self.gate[0])
        self.gate = step_gate(*self.gate, cfg.gate_bound, cfg.frame_dt)
        self.time += cfg.frame_dt
        after = TestAnnulus._reference_mask(cfg, self.gate[0])
        ys, xs = np.nonzero(before ^ after)
        events = np.empty(len(ys), dtype=EVENT_DTYPE)
        events["t"] = self.time
        events["x"] = xs
        events["y"] = ys
        events["p"] = np.where(after[ys, xs], 1, -1)
        if self.config.spurious_rate > 0:
            events = self._add_spurious(events)
        return self.time, self.gate, events

    def _add_spurious(self, events):
        """Append this frame's spurious events: a count, then columns, rows, polarities.

        A frame that draws no events draws nothing further, so the batched
        path's empty draws must leave the generator alone.
        """
        rng, cam = self._rng, self.camera
        n = rng.poisson(self.config.spurious_rate * self.config.frame_dt)
        if n == 0:
            return events
        noise = np.empty(n, dtype=EVENT_DTYPE)
        noise["t"] = self.time
        noise["x"] = rng.integers(0, cam.width, n)
        noise["y"] = rng.integers(0, cam.height, n)
        noise["p"] = rng.choice(np.array([-1, 1], dtype=np.int8), n)
        return np.concatenate([events, noise])


def test_step_events_equal_dense_reference(oracle_world):
    sparse, dense = EventCameraSim(oracle_world), _DenseEventCamera(oracle_world)
    for _ in range(12):
        t, gate, events = sparse.step()
        t_ref, gate_ref, expected = dense.step()
        assert (t, gate) == (t_ref, gate_ref)
        assert events.dtype == expected.dtype
        assert events.tobytes() == expected.tobytes()  # values and order


def test_step_frames_equal_single_steps(oracle_world):
    batched, single = EventCameraSim(oracle_world), EventCameraSim(oracle_world)
    for _ in range(2):
        t, gate, events = batched.step(10)
        expected = np.concatenate([single.step()[2] for _ in range(10)])
        assert (t, gate) == (single.time, single.gate)
        assert events.tobytes() == expected.tobytes()
    # the time, the gate and the spurious-event stream carry on alike
    t, gate, events = batched.step()
    t_ref, gate_ref, expected = single.step()
    assert (t, gate) == (t_ref, gate_ref)
    assert events.tobytes() == expected.tobytes()


def test_step_frames_draw_the_single_steps_stream(oracle_world):
    # an extra or a missing draw shows here even where the events agree
    batched, single = EventCameraSim(oracle_world), EventCameraSim(oracle_world)
    batched.step(10)
    for _ in range(10):
        single.step()
    assert batched._rng.bit_generator.state == single._rng.bit_generator.state


@pytest.mark.parametrize("frames", [0, -2, 1.5, True])
def test_step_frames_must_be_a_positive_integer(frames):
    sim = EventCameraSim(WorldConfig())
    with pytest.raises(ValueError, match="frames"):
        sim.step(frames)
    assert sim.time == 0.0 and sim.gate == (WorldConfig().gate_y0, WorldConfig().gate_speed)


def _edge_worlds():
    """Worlds whose band edges r - c and r + c fall on pixel centres.

    c = thickness/2 + 0.5 - threshold is 0.5, 1, 1.5 or 2.  At depth 4 m the
    ring radius is 125 px; a half-integer c gets the half-integer centre
    column 320.5, so the pixels on the axes through the centre (and
    Pythagorean ones such as (27, 120) from 123 px) lie exactly on an edge.
    At depth 3.90625 m the radius is 128 px and, with frames 2**-7 s apart at
    1 m/s, the centre moves exactly one column per frame, so the ties hold in
    every frame.  Each world has copies shifted by about +-1e-7 px, which put
    those pixels just inside and just outside the edges.
    """
    worlds = {}
    for c in (0.5, 1.0, 1.5, 2.0):
        ring = dict(ring_thickness_px=2.0 * c, event_threshold=0.5)
        half_column = c % 1.0 == 0.5
        bases = {
            "r125": dict(drone_x=2.0, gate_y0=0.004 if half_column else 0.0, gate_speed=0.5),
            "r128": dict(drone_x=1.90625, gate_y0=2.0 ** -8 if half_column else 0.0,
                           gate_speed=1.0, frame_dt=2.0 ** -7, sensing_dt=10 * 2.0 ** -7),
        }
        for name, base in bases.items():
            for shift, label in ((0.0, ""), (8e-10, "+1e-7px"), (-8e-10, "-1e-7px")):
                worlds[f"{name}-c{c}{label}"] = dict(
                    base, **ring, gate_y0=base["gate_y0"] + shift)
    worlds["r125-threshold-1"] = dict(drone_x=2.0, gate_y0=0.004, ring_thickness_px=2.0,
                                       event_threshold=1.0)
    # radii a few ulps from putting one pixel on an edge, found by search:
    # there, a squared-distance test with no margin and the hypot test round
    # to opposite sides
    for gate_y0, radius, thickness, threshold in (
        (-0.3682336523241617, 2.8857574728172777, 4.0, 0.5),
        (0.28630611316208576, 1.6928439214919442, 4.0, 0.5),
        (-0.11286969666995006, 0.6035555365583197, 2.0, 0.5),
        (0.43281091075700484, 2.0459257256499574, 4.0, 1.0),
    ):
        worlds[f"rounding-{radius}"] = dict(
            gate_y0=gate_y0, gate_radius=radius, ring_thickness_px=thickness,
            event_threshold=threshold)
    return worlds


EDGE_WORLDS = _edge_worlds()


@pytest.mark.parametrize("world", list(EDGE_WORLDS.values()), ids=list(EDGE_WORLDS))
def test_band_edge_ties_match_reference(world):
    cfg = WorldConfig(**world)
    cam = cfg.camera()
    # the world puts some pixel within 1e-6 px of a band edge
    px, py = project_to_pixels(cam, (cfg.gate_plane_x, cfg.gate_y0, 0.0))
    r_px = cam.focal_px * cfg.gate_radius / cfg.depth
    c = cfg.ring_thickness_px / 2.0 + 0.5 - cfg.event_threshold
    ys, xs = np.mgrid[0:cam.height, 0:cam.width]
    assert (np.abs(np.abs(np.hypot(xs - px, ys - py) - r_px) - c) < 1e-6).any()

    expected = TestAnnulus._reference_mask(cfg, cfg.gate_y0)
    np.testing.assert_array_equal(annulus_mask(cfg, cfg.gate_y0), np.flatnonzero(expected))
    batched, single, dense = EventCameraSim(cfg), EventCameraSim(cfg), _DenseEventCamera(cfg)
    for _ in range(2):
        t, gate, events = batched.step(5)
        per_frame = np.concatenate([single.step()[2] for _ in range(5)])
        expected = np.concatenate([dense.step()[2] for _ in range(5)])
        assert (t, gate) == (single.time, single.gate) == (dense.time, dense.gate)
        assert events.tobytes() == per_frame.tobytes() == expected.tobytes()


@pytest.mark.parametrize("overrides, name", [
    ({"gate_y0": 2.5}, "gate_y0"), ({"gate_y0": -2.0 - 1e-9}, "gate_y0"),
    ({"gate_bound": 0.0, "gate_y0": 0.0}, "gate_bound"), ({"gate_radius": 0.0}, "gate_radius"),
    ({"spurious_rate": -5.0}, "spurious_rate"), ({"seed": -1}, "seed"),
    ({"drone_x": -2.0}, "drone_x"), ({"seed": 1.5}, "seed"), ({"seed": True}, "seed"),
])
def test_world_settings_rejected(overrides, name):
    with pytest.raises(ValueError, match=name):
        WorldConfig(**overrides)


def test_world_gate_accepts_gate_state_bounds():
    # a start 1e-13 past the wall is within the world's 1e-12 tolerance
    cfg = WorldConfig(gate_y0=-2.0 - 1e-13, gate_bound=2.0)
    assert EventCameraSim(cfg).gate == (-2.0 - 1e-13, 0.5)


def test_events_csv_format(tmp_path):
    cfg = WorldConfig(gate_y0=0.0, gate_speed=1.0, drone_x=2.0)
    sim = EventCameraSim(cfg)
    events = np.concatenate([sim.step()[2] for _ in range(3)])
    path = tmp_path / "events.csv"
    write_events_csv(events, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,p"
    assert len(lines) == len(events) + 1
    t, x, y, p = lines[1].split(",")
    assert len(t.split(".")[1]) == 6  # six decimal places
    assert p in ("1", "-1")
