import hashlib
import re
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gatesim import harness, pgnn, scene, tracker
from gatesim.harness import (
    DEPTH_LATENCY,
    EVENT_LATENCY,
    PERCEPTION_MODES,
    PLANNER_MODES,
    AblationCell,
    EnergyComparison,
    EpisodeConfig,
    GridCell,
    GridResult,
    Measurement,
    ablation_energy_ratio,
    ablation_matrix,
    build_default_models,
    crossing_success,
    default_success_grid,
    derive_run_config,
    energy_comparison,
    energy_suite_cells,
    load_episode_config,
    load_grid_csv,
    perceive,
    run_episode,
    success_rate_grid,
    write_ablation_csv,
    write_grid_csv,
)
from gatesim.motor import motor_power, rotor_speeds
from gatesim.planner import MinJerkTrajectory, sample_arrays
from gatesim.scene import WorldConfig


class TestEpisodeConfig:
    def test_latency_defaults(self):
        assert EpisodeConfig(perception_mode="event-snn").latency == EVENT_LATENCY
        assert EpisodeConfig(perception_mode="depth-baseline").latency == DEPTH_LATENCY
        assert EpisodeConfig(perception_latency=0.5).latency == 0.5

    def test_depth_is_distance_to_gate_plane(self):
        assert EpisodeConfig(drone_x=2.0, gate_plane_x=-2.0).depth == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EpisodeConfig(perception_mode="sonar")
        with pytest.raises(ValueError):
            EpisodeConfig(planner_mode="oracle")
        with pytest.raises(ValueError):
            EpisodeConfig(drone_x=-3.0)
        with pytest.raises(ValueError):
            EpisodeConfig(perception_latency=-0.1)

    def test_sensing_bin_holds_whole_frames(self):
        EpisodeConfig(sensing_dt=0.1, frame_dt=0.01)
        EpisodeConfig(sensing_dt=0.09, frame_dt=0.03)
        EpisodeConfig(sensing_dt=0.2, frame_dt=0.2)
        for sensing_dt, frame_dt in [(0.1, 0.03), (0.005, 0.01), (0.0, 0.01), (0.1, 0.0)]:
            with pytest.raises(ValueError, match="multiple of frame_dt"):
                EpisodeConfig(sensing_dt=sensing_dt, frame_dt=frame_dt)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_floats_rejected(self, value):
        floats = [f.name for f in fields(EpisodeConfig) if isinstance(f.default, float)]
        for name in [*floats, "perception_latency"]:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                EpisodeConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("event_threshold", 0.0), ("event_threshold", -0.5), ("event_threshold", 1.5),
        ("ring_thickness_px", 0.0), ("ring_thickness_px", -2.0),
    ])
    def test_ring_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            EpisodeConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("spurious_rate", -5.0), ("depth_noise_sigma", -0.1), ("drone_radius", -1.0),
        ("seed", -1),
    ])
    def test_negative_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            EpisodeConfig(**{name: value})

    @pytest.mark.parametrize("drone_radius", [1.0, 1.5])
    def test_drone_that_cannot_fit_the_hoop_rejected(self, drone_radius):
        # success needs miss < gate_radius - drone_radius, which is <= 0 here
        with pytest.raises(ValueError, match="drone_radius .* gate_radius"):
            EpisodeConfig(gate_radius=1.0, drone_radius=drone_radius)
        EpisodeConfig(gate_radius=1.0, drone_radius=0.99)

    def test_zero_settings_accepted(self):
        EpisodeConfig(spurious_rate=0.0, depth_noise_sigma=0.0, drone_radius=0.0, seed=0)

    def test_ring_setting_bounds_accepted(self):
        EpisodeConfig(event_threshold=1.0, ring_thickness_px=0.1)
        EpisodeConfig(event_threshold=1e-6)

    @pytest.mark.parametrize("overrides", [
        {"gate_radius": 0.0}, {"gate_bound": -1.0}, {"gate_y0": 2.5},
    ])
    def test_invalid_gate_rejected_at_construction(self, overrides):
        with pytest.raises(ValueError):
            EpisodeConfig(**overrides)

    def test_sensing_bin_budget_at_least_one(self):
        EpisodeConfig(max_sensing_bins=1)
        with pytest.raises(ValueError, match="max_sensing_bins"):
            EpisodeConfig(max_sensing_bins=0)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("seed", False), ("max_sensing_bins", 2.5), ("max_sensing_bins", True),
    ])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            EpisodeConfig(**{name: value})


@pytest.mark.parametrize("runs, base_seed, name", [
    (2, 1.5, "base_seed"), (2, True, "base_seed"), (2.5, 0, "runs"), (True, 0, "runs"),
    (0, 0, "runs"), (1, -1, "base_seed"),
])
def test_run_args_must_be_integers(runs, base_seed, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        harness.check_run_args(runs, base_seed)


def test_build_default_models_trains_once(monkeypatch):
    calls, train = [], pgnn.train_pgnn

    def counting(samples, config, **kwargs):
        calls.append(config)
        return train(samples, config, **kwargs)

    monkeypatch.setattr(harness.pgnn_mod, "train_pgnn", counting)
    models = build_default_models(epochs=2)
    assert len(calls) == 1
    assert models.vanilla_params is models.pgnn_params
    for mode in PLANNER_MODES:
        assert models.planner_params(mode) is models.pgnn_params


def test_build_default_models_checks_training_settings_first(monkeypatch):
    built = []
    monkeypatch.setattr(harness, "build_dataset", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="epochs"):
        build_default_models(epochs=0)
    assert built == []


def test_build_default_models_trains_like_train_pgnn(dataset):
    # build_default_models skips the loss history; that must not change a bit
    # of the trained parameters or running statistics.
    models = build_default_models(epochs=50)
    params, _ = pgnn.train_pgnn(dataset, pgnn.TrainConfig(lam=1e-4, epochs=50))
    built = models.pgnn_params
    for a, b in zip(
        built.trainable() + built.bn_mean + built.bn_var,
        params.trainable() + params.bn_mean + params.bn_var,
    ):
        assert np.array_equal(a, b)


def test_build_default_models_skips_the_loss_history(monkeypatch, dataset):
    # The per-epoch infer pass only feeds the loss history, which
    # build_default_models discards.
    modes, forward = [], pgnn._forward

    def counting(params, depths, mode):
        modes.append(mode)
        return forward(params, depths, mode)

    monkeypatch.setattr(pgnn, "_forward", counting)
    pgnn.train_pgnn(dataset, pgnn.TrainConfig(epochs=3))
    assert Counter(modes) == {"train": 3, "infer": 3}
    modes.clear()
    build_default_models(epochs=3)
    assert Counter(modes) == {"train": 3}


class TestCrossingSuccess:
    def test_threshold_contract(self):
        # clearance = 1.0 - 0.25 = 0.75
        assert crossing_success(0.74, 1.0, 0.25)
        assert not crossing_success(0.76, 1.0, 0.25)
        assert not crossing_success(0.75, 1.0, 0.25)


class TestRunEpisode:
    def test_event_mode_succeeds_at_center_start(self, quick_models):
        cfg = EpisodeConfig(drone_x=2.0, drone_y=0.0, gate_y0=2.0,
                            gate_speed=0.5, seed=7)
        res = run_episode(cfg, quick_models)
        assert res.success
        assert not res.tracking_lost
        assert res.miss_distance < 0.75
        assert res.timing["sensing"] == pytest.approx(0.2)
        assert res.timing["latency"] == EVENT_LATENCY

    def test_energy_accounting_identity(self, quick_models):
        cfg = EpisodeConfig(seed=3)
        res = run_episode(cfg, quick_models)
        assert res.energy_J == pytest.approx(
            res.hover_energy_J + res.flight_energy_J, rel=1e-12
        )
        hover_power = 4.0 * motor_power(
            quick_models.coeffs, quick_models.flight.hover_speed
        )
        expected = hover_power * (res.timing["sensing"] + res.timing["latency"])
        assert res.hover_energy_J == pytest.approx(expected, rel=1e-12)
        assert res.energy_J > 0

    def test_depth_baseline_pays_latency_surplus(self, quick_models):
        world = dict(drone_x=2.0, drone_y=0.0, gate_y0=2.0, gate_speed=0.5, seed=7)
        ev = run_episode(EpisodeConfig(**world, perception_mode="event-snn"),
                         quick_models)
        dp = run_episode(EpisodeConfig(**world, perception_mode="depth-baseline"),
                         quick_models)
        surplus = dp.energy_J - ev.energy_J
        # 2 s extra hover at ~124 W, give or take the different flight path
        assert surplus == pytest.approx(248.0, abs=25.0)

    def test_tracking_lost_when_gate_invisible(self, quick_models):
        cfg = EpisodeConfig(drone_x=0.0, drone_y=-2.0, gate_y0=1.95,
                            gate_speed=0.2, seed=1)
        res = run_episode(cfg, quick_models)
        assert res.tracking_lost
        assert not res.success
        assert res.flight_energy_J == 0.0
        assert res.miss_distance == float("inf")
        assert res.energy_J > 0  # hovered while trying

    def test_tracking_lost_when_bin_budget_runs_out(self, quick_models):
        # one charged bin can only ever yield one track
        cfg = EpisodeConfig(max_sensing_bins=1, seed=1)
        res = run_episode(cfg, quick_models)
        assert res.tracking_lost
        assert res.timing["sensing"] == pytest.approx(0.1)

    def test_same_seed_is_bit_identical(self, quick_models):
        cfg = EpisodeConfig(seed=11)
        a = run_episode(cfg, quick_models)
        b = run_episode(cfg, quick_models)
        assert a == b

    def test_trajectory_export(self, quick_models, tmp_path):
        path = tmp_path / "flight.csv"
        run_episode(EpisodeConfig(seed=5), quick_models, trajectory_out=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,y,vx,vy,ax,ay"
        assert len(lines) > 100

    def test_vanilla_planner_runs(self, quick_models):
        res = run_episode(EpisodeConfig(planner_mode="vanilla-ann", seed=2),
                          quick_models)
        assert res.t_traj > 0


class TestPerceive:
    def test_depth_noise_is_seeded(self):
        # one depth sensor per episode: default_rng(seed), one draw per fix
        for mode, fixes in (("depth-baseline", 1), ("event-snn", 2)):
            cfg = EpisodeConfig(perception_mode=mode, depth_noise_sigma=0.05, seed=9)
            a, b = (perceive(cfg)[0] for _ in range(2))
            assert a == b
            draws = np.random.default_rng(9).standard_normal(fixes)
            assert a.depth == cfg.depth + 0.05 * draws[-1]
            assert a.depth != cfg.depth

    @pytest.mark.parametrize("sigma, builds", [(0.0, 0), (0.05, 1)])
    def test_depth_sensor_rng_built_only_for_noise(self, quick_models, monkeypatch,
                                                   sigma, builds):
        calls, default_rng = [], np.random.default_rng

        def counting(*args):
            calls.append(args)
            return default_rng(*args)

        monkeypatch.setattr(np.random, "default_rng", counting)
        cfg = EpisodeConfig(perception_mode="depth-baseline", depth_noise_sigma=sigma, seed=9)
        run_episode(cfg, quick_models)
        assert calls == [(9,)] * builds

    def test_fix_times(self):
        depth, _ = perceive(EpisodeConfig(perception_mode="depth-baseline"))
        assert (depth.t1, depth.t2) == (0.0, 0.1)
        event, sensing = perceive(EpisodeConfig(seed=3))
        assert (event.t1, event.t2) == (pytest.approx(0.1), pytest.approx(0.2))
        assert sensing == pytest.approx(0.2)


def _unclipped_rotor_speeds(models, traj) -> np.ndarray:
    _, _, vel, _ = sample_arrays(traj)
    return rotor_speeds(models.flight, np.hypot(vel[:, 0], vel[:, 1]))


def _four_motor_energy(models, traj) -> float:
    """Reference flight energy: the shared rotor speed as four motor columns,
    each differentiated and priced, summed per sample, then integrated."""
    omegas = np.minimum(_unclipped_rotor_speeds(models, traj), models.flight.omega_max)
    W = np.repeat(omegas[:, None], 4, 1)
    dt = traj.sample_dt
    power = motor_power(models.coeffs, W, np.gradient(W, dt, axis=0)).sum(axis=1)
    return float(np.trapezoid(power, dx=dt))


@pytest.mark.parametrize("mode", PERCEPTION_MODES)
def test_flight_energy_equals_four_motor_reference(quick_models, mode):
    template = EpisodeConfig(perception_mode=mode)
    clipped = unclipped = 0
    for run in range(2):
        for ci, cell in enumerate(energy_suite_cells()):
            cfg = derive_run_config(cell, run, 0, ci, template)
            m, _ = perceive(cfg)
            if m is None:
                continue
            traj = harness.plan(cfg, quick_models, m)
            assert harness.fly(quick_models, traj) == _four_motor_energy(quick_models, traj)
            if _unclipped_rotor_speeds(quick_models, traj).max() > quick_models.flight.omega_max:
                clipped += 1
            else:
                unclipped += 1
    # both sides of the motor limit are priced
    assert clipped > 0 and unclipped > 0


def test_default_length_flight_energy_pinned(quick_models):
    # a 0.35 s flight across the default 4 m depth: 351 samples
    traj = MinJerkTrajectory([2.0, 0.0], [-2.0, 1.5], 0.35)
    assert len(sample_arrays(traj)[0]) == 351
    assert harness.fly(quick_models, traj).hex() == "0x1.a28ee280fa35bp+6"


@pytest.mark.parametrize("fixes, on_wall", [
    ((1.5, 2.3), (1.5, 2.0)),     # second fix past the +y wall
    ((-2.3, -1.5), (-2.0, -1.5)),  # first fix past the -y wall
])
def test_plan_clamps_fixes_to_the_corridor(quick_models, fixes, on_wall):
    # a noisy back-projection can land past a wall; it plans as a fix on the wall
    cfg = EpisodeConfig()
    assert cfg.gate_bound == 2.0
    got, want = (harness.plan(cfg, quick_models, Measurement(*ys, 0.0, 0.1, cfg.depth))
                 for ys in (fixes, on_wall))
    assert got.duration == want.duration and got.sample_dt == want.sample_dt
    np.testing.assert_array_equal(got.start, want.start)
    np.testing.assert_array_equal(got.end, want.end)


def test_traced_names_are_looked_up_in_both_modes(quick_models, monkeypatch):
    # perfbench's tracer wraps these module and class attributes; a stage
    # that bound one under another name would zero its span silently
    targets = [
        (harness, "predict_intercept"), (harness, "sample_arrays"),
        (harness, "trajectory_energy"), (pgnn, "mlp_forward"),
        (tracker.SnnGateTracker, "process_bin"), (tracker, "lif_step"), (tracker, "track_bbox"),
    ]
    # the tracer also wraps tracker.events_to_frame, which no episode calls;
    # it reads each name from its owner's __dict__, so all must stay defined there
    for owner, name in targets + [(tracker, "events_to_frame")]:
        assert name in vars(owner), f"perfbench's tracer looks up {name} on {owner.__name__}"
    event_only = {"process_bin", "lif_step", "track_bbox"}
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    names = {name for _, name in targets}
    for mode, expected in (("event-snn", names), ("depth-baseline", names - event_only)):
        calls.clear()
        result = run_episode(EpisodeConfig(perception_mode=mode, seed=3), quick_models)
        assert not result.tracking_lost
        assert set(calls) == expected, mode


def test_event_perception_renders_each_bin_in_one_step(quick_models, monkeypatch):
    # perfbench's tracer wraps these where they are defined; a missing one
    # would fail its lookup
    assert "step" in scene.EventCameraSim.__dict__ and "annulus_mask" in scene.__dict__
    calls = []
    step, process_bin = scene.EventCameraSim.step, tracker.SnnGateTracker.process_bin

    def counted_step(sim, *args):
        calls.append(("step", args))
        return step(sim, *args)

    def counted_bin(trk, *record):
        calls.append(("process_bin", ()))
        return process_bin(trk, *record)

    monkeypatch.setattr(scene.EventCameraSim, "step", counted_step)
    monkeypatch.setattr(tracker.SnnGateTracker, "process_bin", counted_bin)
    for mode in PERCEPTION_MODES:
        calls.clear()
        run_episode(EpisodeConfig(perception_mode=mode, seed=3), quick_models)
        if mode == "depth-baseline":
            assert calls == []
        else:
            # the warm-up bin and at least two sensing bins, ten frames each
            one_bin = [("step", (10,)), ("process_bin", ())]
            assert len(calls) >= 6 and calls == one_bin * (len(calls) // 2)


@pytest.mark.parametrize("seed", [0, 29])
def test_depth_baseline_flies_mirrored_worlds_mirrored(quick_models, seed):
    # negating drone_y, gate_y0 and gate_speed mirrors the energy suite's
    # world about the drone's lateral axis: y* changes sign, while energy and
    # success stay the same
    template = EpisodeConfig(perception_mode="depth-baseline")
    for ci, cell in enumerate(energy_suite_cells()):
        for run in range(10):
            cfg = derive_run_config(cell, run, seed, ci, template)
            mirror = replace(cfg, drone_y=-cfg.drone_y, gate_y0=-cfg.gate_y0,
                             gate_speed=-cfg.gate_speed)
            a, b = run_episode(cfg, quick_models), run_episode(mirror, quick_models)
            assert abs(a.y_star + b.y_star) <= 1e-12
            assert abs(a.energy_J - b.energy_J) <= 1e-9
            assert a.success == b.success


# Seeded episodes outside perfbench's reference: noisy depth readings in
# both perception modes, and event episodes that lose tracking.
PINNED_EPISODES = {
    "depth-noisy": (
        [EpisodeConfig(perception_mode="depth-baseline", depth_noise_sigma=0.05, seed=s)
         for s in (1, 2, 3)]
        + [EpisodeConfig(perception_mode="depth-baseline", depth_noise_sigma=0.2,
                         drone_x=0.5, drone_y=-1.0, gate_y0=-1.5, gate_speed=-0.7, seed=9)],
        "26606fc1b52caeb67bc125bdbf5807c4fb0713ab4204df962d110341eff03d0b",
    ),
    "event-noisy": (
        [EpisodeConfig(spurious_rate=1e5, depth_noise_sigma=0.05, seed=4),
         EpisodeConfig(spurious_rate=3e5, depth_noise_sigma=0.2, drone_x=1.0,
                       drone_y=1.0, gate_y0=-1.0, gate_speed=0.8, seed=6)],
        "3006b691b30b54141827df6728362fbdd1593c6401c9ea502e5366276bcc319d",
    ),
    "event-lost": (
        [EpisodeConfig(max_sensing_bins=1, depth_noise_sigma=0.1, seed=1),
         EpisodeConfig(drone_x=0.0, drone_y=-2.0, gate_y0=1.95, gate_speed=0.2,
                       depth_noise_sigma=0.1, seed=1)],
        "f3b8a4876e3190662a68e12565c4b6576930168a789ae3d399462c7b15e75d5c",
    ),
}


def _result_digest(results) -> str:
    """sha256 over every field of each result, floats as exact hex."""
    digest = hashlib.sha256()
    for result in results:
        for f in fields(result):
            value = getattr(result, f.name)
            if f.name == "timing":
                text = ",".join(f"{k}={float(v).hex()}" for k, v in value.items())
            else:
                text = float(value).hex()
            digest.update(f"{f.name}:{text};".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("case", list(PINNED_EPISODES))
def test_episode_outputs_pinned(quick_models, case):
    configs, expected = PINNED_EPISODES[case]
    results = [run_episode(cfg, quick_models) for cfg in configs]
    if case == "event-lost":
        assert all(r.tracking_lost for r in results)
    assert _result_digest(results) == expected


class TestRunDerivation:
    def test_modes_share_worlds(self):
        cell = GridCell(2.0, 1.0, -1.0)
        a = derive_run_config(cell, 3, base_seed=5, cell_idx=2)
        b = derive_run_config(cell, 3, base_seed=5, cell_idx=2)
        assert a == b

    def test_alternation_flips_sides(self):
        cell = GridCell(2.0, 1.0, -1.0, alternate=True)
        even = derive_run_config(cell, 0)
        odd = derive_run_config(cell, 1)
        assert even.drone_y == 1.0 and odd.drone_y == -1.0
        assert np.sign(even.gate_y0) != np.sign(odd.gate_y0)

    def test_jitter_stays_in_bounds(self):
        cell = GridCell(2.0, 0.0, 2.0)
        for run in range(20):
            cfg = derive_run_config(cell, run)
            assert abs(cfg.gate_y0) <= cfg.gate_bound - 0.049
            assert 0.5 * 0.74 <= abs(cfg.gate_speed) <= 0.5 * 1.26


class TestSuites:
    def test_success_rate_grid_shape(self, quick_models):
        cells = default_success_grid()[:2]
        results = success_rate_grid(cells, quick_models, runs=2)
        assert len(results) == 4  # 2 cells x 2 modes
        for r in results:
            assert 0.0 <= r.success_rate <= 1.0
            assert r.mean_energy_J > 0

    def test_grid_requires_cells(self, quick_models):
        with pytest.raises(ValueError):
            success_rate_grid([], quick_models)

    def test_default_grid_is_table_shaped(self):
        cells = default_success_grid()
        assert len(cells) == 15
        assert sorted({c.drone_x for c in cells}) == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(energy_suite_cells()) == 25

    def test_energy_comparison_pairing(self, quick_models, monkeypatch):
        monkeypatch.setattr(harness, "energy_suite_cells", lambda: [GridCell(2.0, 0.0, 2.0)])
        comp = energy_comparison(quick_models, runs=3)
        assert comp.n_pairs <= 3
        assert comp.mean_depth_J > comp.mean_event_J

    def test_ablation_matrix_cells(self, quick_models):
        cells = ablation_matrix(quick_models, runs=3)
        assert len(cells) == 4
        combos = {(c.perception_mode, c.planner_mode) for c in cells}
        assert len(combos) == 4
        best = min(cells, key=lambda c: c.mean_energy_J)
        by_key = {(c.perception_mode, c.planner_mode): c for c in cells}
        ev_pgnn = by_key[("event-snn", "pgnn")]
        assert ev_pgnn.mean_energy_J <= best.mean_energy_J + 1e-9
        assert ablation_energy_ratio(cells) > 1.0


class TestSuiteOracle:
    """Every suite field against means recomputed from single episodes."""

    CELLS = [GridCell(2.0, 0.0, 2.0), GridCell(3.0, 1.0, 1.0)]
    RUNS = 2

    def _episodes(self, models, cell, ci, perception, planner="pgnn", base_seed=0):
        return [
            run_episode(replace(derive_run_config(cell, run, base_seed, ci),
                                perception_mode=perception, planner_mode=planner), models)
            for run in range(self.RUNS)
        ]

    @staticmethod
    def _assert_same(got, want):
        for f in fields(want):
            expected = getattr(want, f.name)
            if isinstance(expected, float):
                expected = pytest.approx(expected, rel=1e-12, nan_ok=True)
            assert getattr(got, f.name) == expected, f.name

    def test_success_rate_grid(self, quick_models):
        got = success_rate_grid(self.CELLS, quick_models, runs=self.RUNS)
        want = []
        for ci, cell in enumerate(self.CELLS):
            for mode in PERCEPTION_MODES:
                eps = self._episodes(quick_models, cell, ci, mode)
                want.append(GridResult(
                    cell.drone_x, cell.drone_y, cell.gate_y0, cell.gate_speed, mode,
                    np.mean([e.success for e in eps]), np.mean([e.energy_J for e in eps]),
                ))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            self._assert_same(g, w)

    def test_energy_comparison(self, quick_models, monkeypatch):
        monkeypatch.setattr(harness, "energy_suite_cells", lambda: self.CELLS)
        got = energy_comparison(quick_models, runs=self.RUNS)
        event, depth = [], []
        for ci, cell in enumerate(self.CELLS):
            event += self._episodes(quick_models, cell, ci, "event-snn")
            depth += self._episodes(quick_models, cell, ci, "depth-baseline")
        flown = [(e, d) for e, d in zip(event, depth)
                 if not (e.tracking_lost or d.tracking_lost)]
        self._assert_same(got, EnergyComparison(
            np.mean([e.energy_J for e in event]),
            np.mean([d.energy_J for d in depth]),
            np.mean([d.energy_J - e.energy_J for e, d in flown]) if flown else np.nan,
            len(flown),
            np.mean([e.success for e in event]),
            np.mean([d.success for d in depth]),
        ))

    @pytest.mark.parametrize("base_seed", [0, 1])
    def test_ablation_matrix(self, quick_models, base_seed):
        got = ablation_matrix(quick_models, runs=self.RUNS, base_seed=base_seed)
        cell = self.CELLS[0]
        assert harness.ABLATION_CELL == cell
        want = []
        for perception in PERCEPTION_MODES:
            for planner in PLANNER_MODES:
                eps = self._episodes(quick_models, cell, 0, perception, planner, base_seed)
                want.append(AblationCell(
                    perception, planner,
                    np.mean([e.energy_J for e in eps]), np.mean([e.success for e in eps]),
                ))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            self._assert_same(g, w)


class TestCsvAndConfig:
    def test_grid_csv_deterministic(self, quick_models, tmp_path):
        cells = default_success_grid()[:2]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            write_grid_csv(success_rate_grid(cells, quick_models, runs=2), p)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        header = paths[0].read_text().splitlines()[0]
        assert header == "drone_x,drone_y,gate_y0,gate_speed,mode,success_rate,mean_energy_J"

    def test_ablation_csv(self, quick_models, tmp_path):
        cells = ablation_matrix(quick_models, runs=2)
        path = tmp_path / "ablation.csv"
        write_ablation_csv(cells, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "perception_mode,planner_mode,mean_energy_J,success_rate"
        assert len(lines) == 5

    def _grid(self, tmp_path, text):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        return load_grid_csv(path)

    def test_grid_csv_optional_columns_and_alternate_values(self, tmp_path):
        cells = self._grid(tmp_path, "drone_x,drone_y,gate_y0\n2,0,2\n")
        assert cells == [GridCell(2.0, 0.0, 2.0)]
        text = "drone_x,drone_y,gate_y0,alternate\n" + "".join(
            f"2,0,2,{v}\n" for v in ("1", "TRUE", "true", "0", "False", " false ")
        )
        alternates = [c.alternate for c in self._grid(tmp_path, text)]
        assert alternates == [True, True, True, False, False, False]

    @pytest.mark.parametrize("text, name", [
        ("drone_x,drone_y\n2,0\n", "missing column 'gate_y0'"),
        ("drone_x,gate_y0,gate_speed\n2,2,0.5\n", "missing column 'drone_y'"),
        ("drone_x,drone_y,gate_y0,gate_sped\n2,0,2,0.5\n", "unknown column 'gate_sped'"),
        ("drone_x,drone_y,gate_y0,alternate\n2,0,2,yes\n", "alternate = 'yes'"),
        ("drone_x,drone_y,gate_y0\n2,0,far\n", "gate_y0 = 'far'"),
        ("drone_x,drone_y,gate_y0\n2,0\n", "line 2"),
        ("drone_x,drone_y,gate_y0\n2,0,2,1\n", "line 2"),
        ("", "missing column 'drone_x'"),
    ])
    def test_bad_grid_csv_rejected(self, tmp_path, text, name):
        with pytest.raises(ValueError, match=re.escape(name)):
            self._grid(tmp_path, text)

    def test_non_finite_ini_value_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="drone_x must be finite"):
            self._load(tmp_path, "[world]\ndrone_x = nan\n")

    def test_overflowing_depth_rejected(self, tmp_path):
        # both values are finite, but the depth between them is not
        name = "drone_x = 1e+308 is not in front of gate_plane_x = -1e+308"
        with pytest.raises(ValueError, match=re.escape(name)):
            self._load(tmp_path, "[world]\ndrone_x = 1e308\ngate_plane_x = -1e308\n")

    def _load(self, tmp_path, text):
        path = tmp_path / "episode.ini"
        path.write_text(text)
        return load_episode_config(path)

    @pytest.mark.parametrize("text, name", [
        ("[world]\ngate_sped = 3.0\n", "gate_sped"),
        ("[episode]\nseed = 4\n", "seed"),
        ("[world]\nperception_mode = depth-baseline\n", "perception_mode"),
        ("[wrold]\nseed = 4\n", "wrold"),
    ])
    def test_unknown_section_or_key_rejected(self, tmp_path, text, name):
        with pytest.raises(ValueError, match=name):
            self._load(tmp_path, text)

    @pytest.mark.parametrize("text", [
        "[world]\nseed = 1.7\n",
        "[episode]\nmax_sensing_bins = 2.5\n",
        "[world]\ndrone_x = far\n",
        "[world]\ndrone_x = 2%\n",
    ])
    def test_values_must_parse_as_field_type(self, tmp_path, text):
        with pytest.raises(ValueError, match="is not a valid"):
            self._load(tmp_path, text)

    def test_every_key_parses_as_its_field(self, tmp_path):
        cfg = self._load(tmp_path, (
            "[world]\ndrone_x = 3.0\ndrone_y = -1.0\ngate_y0 = 0.5\ngate_speed = -0.4\n"
            "gate_bound = 2.5\ngate_radius = 1.2\ngate_plane_x = -2.5\nsensing_dt = 0.2\n"
            "frame_dt = 0.02\nevent_threshold = 0.4\nspurious_rate = 1000\n"
            "ring_thickness_px = 3.0\nseed = 17\n"
            "[episode]\nperception_mode = depth-baseline\nplanner_mode = vanilla-ann\n"
            "perception_latency = 1.5\ndepth_noise_sigma = 0.02\ndrone_radius = 0.3\n"
            "max_sensing_bins = 12\n"
        ))
        assert cfg == EpisodeConfig(
            drone_x=3.0, drone_y=-1.0, gate_y0=0.5, gate_speed=-0.4, gate_bound=2.5,
            gate_radius=1.2, gate_plane_x=-2.5, sensing_dt=0.2, frame_dt=0.02,
            event_threshold=0.4, spurious_rate=1000.0, ring_thickness_px=3.0, seed=17,
            perception_mode="depth-baseline", planner_mode="vanilla-ann",
            perception_latency=1.5, depth_noise_sigma=0.02, drone_radius=0.3,
            max_sensing_bins=12,
        )
        for f in fields(EpisodeConfig):
            assert getattr(cfg, f.name) != f.default, f.name

    def test_omitted_and_default_values_take_field_defaults(self, tmp_path):
        cfg = self._load(tmp_path, "[world]\nseed = 3\ndrone_y = default\n[episode]\n")
        assert cfg == EpisodeConfig(seed=3)

    @staticmethod
    def _readme_ini_block():
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        schema = readme.split("### Episode config schema (INI)", 1)[1]
        return re.search(r"```ini\n(.*?)```", schema, re.S).group(1)

    def test_readme_example_loads(self, tmp_path):
        assert self._load(tmp_path, self._readme_ini_block()) == EpisodeConfig()

    def test_written_key_order_matches_readme(self):
        # files are written in the README's order: [world] is WorldConfig's
        # fields, [episode] those EpisodeConfig adds, each in field order
        sections = {}
        for line in self._readme_ini_block().splitlines():
            if line.startswith("["):
                keys = sections[line.strip("[]")] = []
            elif "=" in line:
                keys.append(line.split("=", 1)[0].strip())
        world = [f.name for f in fields(WorldConfig)]
        episode = [f.name for f in fields(EpisodeConfig) if f.name not in world]
        assert list(sections.items()) == [("world", world), ("episode", episode)]
