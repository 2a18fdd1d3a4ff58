"""Closed-loop episode runner and benchmark suites.

One episode runs three stages and scores the result:

- ``perceive``: hover and take two fixes of the moving gate, from the
  event-driven spiking tracker or from a ground-truth depth baseline that
  pays extra processing latency; either way the depth reading comes from
  the one simulated depth sensor here.
- ``plan``: predict the flight time from depth and the gate-plane intercept
  from the two fixes, and lay a minimum-jerk path there.
- ``fly``: the actuation energy of that path.

Suites aggregate seeded episodes into the success-rate grid, the paired
event-vs-depth energy comparison, and the 2x2 perception/planner ablation.
"""

from __future__ import annotations

import configparser
import typing
from dataclasses import MISSING, astuple, dataclass, field, fields, replace

import numpy as np

from . import pgnn as pgnn_mod
from .csvio import parse_as, read_csv, write_csv
from .errors import check_integer
from .fitting import build_dataset, default_training_depths
from .motor import (
    EnergyCoefficients,
    RotorSpeedProfile,
    default_energy_model,
    motor_power,
    rotor_speeds,
    trajectory_energy,
    FlightModel,
)
from .planner import (
    MinJerkTrajectory,
    PlannerInput,
    predict_intercept,
    sample_arrays,
    write_trajectory_csv,
)
from .scene import EventCameraSim, WorldConfig, step_gate
from .tracker import GateTrack, SnnGateTracker, pixel_to_world_y

EVENT_LATENCY = 0.2      # perception pipeline delay of the event path [s]
DEPTH_LATENCY = 2.2      # depth-image pipeline delay: event path + 2 s [s]
DEPTH_TRACKER_HZ = 30.0  # update rate of the depth baseline
PERCEPTION_MODES = ("event-snn", "depth-baseline")
PLANNER_MODES = ("pgnn", "vanilla-ann")


@dataclass(frozen=True)
class EpisodeConfig(WorldConfig):
    """Everything one episode needs: the world, then perception and planner
    settings (the ``[episode]`` section of an episode config file)."""

    perception_mode: str = "event-snn"
    planner_mode: str = "pgnn"
    perception_latency: float | None = None  # None -> mode default
    depth_noise_sigma: float = 0.0
    drone_radius: float = 0.25
    max_sensing_bins: int = 20

    def __post_init__(self):
        super().__post_init__()
        if self.perception_mode not in PERCEPTION_MODES:
            raise ValueError(f"unknown perception mode {self.perception_mode!r}")
        if self.planner_mode not in PLANNER_MODES:
            raise ValueError(f"unknown planner mode {self.planner_mode!r}")
        if self.perception_latency is not None and self.perception_latency < 0:
            raise ValueError("perception_latency must be >= 0")
        for name in ("depth_noise_sigma", "drone_radius"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.drone_radius < self.gate_radius:
            raise ValueError(f"drone_radius {self.drone_radius} must be less than gate_radius "
                             f"{self.gate_radius}: the drone cannot fit through the hoop")
        check_integer("max_sensing_bins", self.max_sensing_bins, 1)

    @property
    def latency(self) -> float:
        if self.perception_latency is not None:
            return self.perception_latency
        return EVENT_LATENCY if self.perception_mode == "event-snn" else DEPTH_LATENCY


@dataclass(frozen=True)
class EpisodeResult:
    """Outcome of one episode: success, energy split, and timing breakdown."""

    success: bool
    energy_J: float
    hover_energy_J: float
    flight_energy_J: float
    miss_distance: float
    t_traj: float
    y_star: float
    timing: dict
    tracking_lost: bool = False


@dataclass(frozen=True)
class PlannerModels:
    """Calibrated/trained models shared across episodes; ``hover_power`` is
    the 4-motor power [W] at the hover rotor speed, derived once from them."""

    coeffs: EnergyCoefficients
    flight: FlightModel
    pgnn_params: pgnn_mod.MlpParams
    vanilla_params: pgnn_mod.MlpParams
    hover_power: float = field(init=False)

    def __post_init__(self):
        hover_power = 4.0 * motor_power(self.coeffs, self.flight.hover_speed)
        object.__setattr__(self, "hover_power", hover_power)

    def planner_params(self, planner_mode: str) -> pgnn_mod.MlpParams:
        return self.pgnn_params if planner_mode == "pgnn" else self.vanilla_params


def build_default_models(
    seed: int = 0, epochs: int = pgnn_mod.TrainConfig.epochs
) -> PlannerModels:
    """Calibrate the energy model and train the planner network once.

    The physics penalty is evaluated at the training targets, so its
    coefficient does not change the trained network: the pgnn and
    vanilla-ann planners share one set of parameters.
    """
    config = pgnn_mod.TrainConfig(epochs=epochs, seed=seed)
    coeffs, flight = default_energy_model()
    samples = build_dataset(default_training_depths(), coeffs, flight)
    params, _ = pgnn_mod.train_pgnn(samples, config, record_history=False)
    return PlannerModels(coeffs, flight, params, params)


@dataclass(frozen=True)
class Measurement:
    """Two gate fixes: lateral positions y1, y2 [m] at episode times t1 < t2
    [s], and the depth reading [m] the planner flies."""

    y1: float
    y2: float
    t1: float
    t2: float
    depth: float


def perceive(cfg: EpisodeConfig) -> tuple[Measurement | None, float]:
    """Two gate fixes and the hover time spent taking them.

    The depth sensor reads the true depth plus, when ``depth_noise_sigma`` is
    set, Gaussian noise drawn once per fix from ``default_rng(cfg.seed)``.

    Event path: the spiking tracker warms up on one pre-roll bin (the sensor
    was already watching before the episode clock starts), then sensing bins
    are charged against hover time.  Each box found is back-projected at a
    depth reading into a ``GateTrack``.  Returns no measurement when tracking
    is lost (> 3 consecutive boxless bins or the bin budget).

    Depth path: ground-truth gate positions at time 0 and one sensing
    interval later, rounded down to a tracker tick but at least one tick; the
    window still spans two sensing bins of wall-clock hover.
    """
    rng = np.random.default_rng(cfg.seed) if cfg.depth_noise_sigma > 0 else None

    def read_depth() -> float:
        if rng is None:
            return cfg.depth
        return cfg.depth + cfg.depth_noise_sigma * rng.standard_normal()

    if cfg.perception_mode == "depth-baseline":
        dt = max(np.floor(cfg.sensing_dt * DEPTH_TRACKER_HZ + 1e-9), 1.0) / DEPTH_TRACKER_HZ
        y2 = step_gate(cfg.gate_y0, cfg.gate_speed, cfg.gate_bound, dt)[0]
        m = Measurement(cfg.gate_y0, y2, 0.0, dt, read_depth())
        return m, 2.0 * cfg.sensing_dt

    frames_per_bin = round(cfg.sensing_dt / cfg.frame_dt)
    # the gate one bin before the episode: fold it back with its velocity negated
    y, velocity = step_gate(cfg.gate_y0, -cfg.gate_speed, cfg.gate_bound, cfg.sensing_dt)
    sim = EventCameraSim(cfg, start_time=-cfg.sensing_dt, gate=(y, -velocity))
    tracker = SnnGateTracker(sim.camera)
    tracks: list[GateTrack] = []
    empty_streak = 0
    for bin_idx in range(cfg.max_sensing_bins + 1):
        events = sim.step(frames_per_bin)[2]
        box = tracker.process_bin(events)
        if bin_idx == 0:
            continue  # warm-up bin: no previous events, so never a box
        if box is None:
            empty_streak += 1
            if empty_streak > 3:
                break
            continue
        empty_streak = 0
        depth = read_depth()
        world_y = pixel_to_world_y(box.center, depth, sim.camera)
        tracks.append(GateTrack(sim.time, *box.center, depth, world_y))
        if len(tracks) == 2:
            first, second = tracks
            m = Measurement(first.world_y, second.world_y, first.t, second.t, second.depth)
            return m, bin_idx * cfg.sensing_dt
    return None, bin_idx * cfg.sensing_dt


def plan(cfg: EpisodeConfig, models: PlannerModels, m: Measurement) -> MinJerkTrajectory:
    """Minimum-jerk path to the predicted intercept: its ``duration`` is the
    flight time from the network, its ``end[1]`` the crossing point y*."""
    L = cfg.gate_bound
    y1 = min(max(m.y1, -L), L)
    y2 = min(max(m.y2, -L), L)
    v_pred = pgnn_mod.mlp_forward(models.planner_params(cfg.planner_mode), m.depth)
    t_traj = pgnn_mod.trajectory_time(v_pred, m.depth)
    y_star = predict_intercept(PlannerInput(t_traj, L, y1, y2, m.t2 - m.t1)).y_star
    return MinJerkTrajectory([cfg.drone_x, cfg.drone_y], [cfg.gate_plane_x, y_star], t_traj)


def fly(models: PlannerModels, traj: MinJerkTrajectory) -> float:
    """Actuation energy [J] of the path, rotor speeds clipped at the motor limit."""
    _, _, vel, _ = sample_arrays(traj)
    speeds = np.hypot(vel[:, 0], vel[:, 1])
    omegas = np.minimum(rotor_speeds(models.flight, speeds), models.flight.omega_max)
    profile = RotorSpeedProfile(omegas, traj.sample_dt, models.flight.omega_max)
    return trajectory_energy(models.coeffs, profile)


def crossing_success(miss_distance: float, gate_radius: float, drone_radius: float) -> bool:
    """Collision-free crossing: the lateral miss must fit inside the hoop."""
    return miss_distance < gate_radius - drone_radius


def run_episode(
    cfg: EpisodeConfig,
    models: PlannerModels,
    trajectory_out=None,
) -> EpisodeResult:
    """Perceive, plan, fly, and score one episode.

    Success requires crossing the gate plane within the gate radius minus the
    drone radius of the gate's center at crossing time.  Lost tracking is
    recorded as a failed episode charged only for its hover time.
    """
    hover_power = models.hover_power
    m, sensing_time = perceive(cfg)
    if m is None:
        hover_energy = hover_power * sensing_time
        return EpisodeResult(
            success=False,
            energy_J=hover_energy,
            hover_energy_J=hover_energy,
            flight_energy_J=0.0,
            miss_distance=float("inf"),
            t_traj=0.0,
            y_star=float("nan"),
            timing={"sensing": sensing_time, "latency": 0.0, "flight": 0.0},
            tracking_lost=True,
        )

    traj = plan(cfg, models, m)
    if trajectory_out is not None:
        write_trajectory_csv(traj, trajectory_out)
    flight_energy = fly(models, traj)
    hover_energy = hover_power * (sensing_time + cfg.latency)

    t_traj, y_star = traj.duration, float(traj.end[1])
    t_cross = sensing_time + cfg.latency + t_traj
    miss = abs(y_star - step_gate(cfg.gate_y0, cfg.gate_speed, cfg.gate_bound, t_cross)[0])
    return EpisodeResult(
        success=crossing_success(miss, cfg.gate_radius, cfg.drone_radius),
        energy_J=hover_energy + flight_energy,
        hover_energy_J=hover_energy,
        flight_energy_J=flight_energy,
        miss_distance=miss,
        t_traj=t_traj,
        y_star=y_star,
        timing={"sensing": sensing_time, "latency": cfg.latency, "flight": t_traj},
    )


# ---------------------------------------------------------------------------
# benchmark suites


@dataclass(frozen=True)
class GridCell:
    """One starting-point cell; the sign pattern alternates drone and gate
    sides on odd runs when ``alternate`` is set."""

    drone_x: float
    drone_y: float
    gate_y0: float
    gate_speed: float = 0.5
    alternate: bool = True


# gate start (by |drone_y|) for each drone depth column of the benchmark grid
_GATE_START = {
    0: {0: 2.0, 1: -1.0, 2: 1.0},
    1: {0: 2.0, 1: -1.0, 2: 1.0},
    2: {0: 2.0, 1: -1.0, 2: 1.0},
    3: {0: 0.0, 1: 1.0, 2: 0.0},
    4: {0: 2.0, 1: -2.0, 2: -2.0},
}


def energy_suite_cells() -> list[GridCell]:
    """25 flights: depths 2-6 m x drone lateral {0, 1, -1, 2, -2}."""
    cells = []
    for x in range(5):
        for y in (0.0, 1.0, -1.0, 2.0, -2.0):
            base = _GATE_START[x][int(abs(y))]
            gate_y0 = base if y >= 0 else -base
            cells.append(GridCell(float(x), y, gate_y0))
    return cells


def default_success_grid() -> list[GridCell]:
    """15 starting-point cells: depths 2-6 m x drone lateral {0, +-1, +-2},
    the energy suite's cells with ``drone_y >= 0`` (alternation covers the
    mirrored side)."""
    return [cell for cell in energy_suite_cells() if cell.drone_y >= 0]


def derive_run_config(
    cell: GridCell,
    run_idx: int,
    base_seed: int = 0,
    cell_idx: int = 0,
    template: EpisodeConfig = EpisodeConfig(),
) -> EpisodeConfig:
    """Seeded per-run world for a grid cell; modes come from the template.

    Different perception/planner modes run the exact same world when given
    the same (cell, run) pair: all stochastic draws happen here.
    """
    seed = base_seed + 100003 * cell_idx + 127 * run_idx + 1
    rng = np.random.default_rng(seed)
    sign = -1.0 if (cell.alternate and run_idx % 2 == 1) else 1.0
    bound = template.gate_bound
    gate_y0 = cell.gate_y0 + rng.uniform(-0.25, 0.25)
    gate_y0 = float(np.clip(gate_y0, -(bound - 0.05), bound - 0.05)) * sign
    speed = cell.gate_speed * rng.uniform(0.75, 1.25)
    direction = 1.0 if rng.random() < 0.5 else -1.0
    return replace(
        template,
        drone_x=cell.drone_x,
        drone_y=cell.drone_y * sign,
        gate_y0=gate_y0,
        gate_speed=speed * direction,
        seed=seed,
    )


def check_run_args(runs: int, base_seed: int, cells=None) -> None:
    """Reject a run count below one, a negative base seed or, when cells
    are given, an empty grid."""
    if cells is not None and not cells:
        raise ValueError("grid must be nonempty")
    check_integer("runs", runs, 1)
    check_integer("base_seed", base_seed, 0)


def run_paired(cells, models: PlannerModels, runs: int, base_seed: int,
               template: EpisodeConfig, combos) -> list[tuple]:
    """Run every (perception, planner) combo on each cell's seeded worlds.

    Returns one row ``(cell_idx, run, perception_mode, planner_mode, result)``
    per episode, ordered by cell, then run, then combo.  All combos of one
    (cell, run) pair fly the same world.
    """
    check_run_args(runs, base_seed, cells)
    rows = []
    for ci, cell in enumerate(cells):
        for run in range(runs):
            world_cfg = derive_run_config(cell, run, base_seed, ci, template)
            for perception, planner in combos:
                cfg = replace(world_cfg, perception_mode=perception, planner_mode=planner)
                rows.append((ci, run, perception, planner, run_episode(cfg, models)))
    return rows


def _rate_and_mean(results) -> tuple[float, float]:
    """(success rate, mean total energy) over episode results."""
    return (
        float(np.mean([r.success for r in results])),
        float(np.mean([r.energy_J for r in results])),
    )


def _write_csv(items, cls, formats: dict, path) -> None:
    """Write dataclass instances as CSV: the header is the field names and
    each column uses its ``formats`` spec (default: plain ``format``)."""
    write_csv(path, {f.name: formats.get(f.name, "") for f in fields(cls)}, map(astuple, items))


# The success grid and the energy suite compare perception modes under the
# pgnn planner; the ablation is the one suite with a planner axis.
_PERCEPTION_COMBOS = tuple((mode, "pgnn") for mode in PERCEPTION_MODES)

_CELL_FORMATS = dict.fromkeys(("drone_x", "drone_y", "gate_y0", "gate_speed"), ".3f")
_RESULT_FORMATS = dict.fromkeys(("success_rate", "mean_energy_J"), ".6f")


@dataclass(frozen=True)
class GridResult:
    """Per-cell, per-mode aggregate of the benchmark grid."""

    drone_x: float
    drone_y: float
    gate_y0: float
    gate_speed: float
    mode: str
    success_rate: float
    mean_energy_J: float


def success_rate_grid(
    cells,
    models: PlannerModels,
    runs: int = 10,
    base_seed: int = 0,
) -> list[GridResult]:
    """Success fraction per cell for both perception modes, seeded and paired."""
    rows = run_paired(cells, models, runs, base_seed, EpisodeConfig(), _PERCEPTION_COMBOS)
    return [
        GridResult(
            cell.drone_x, cell.drone_y, cell.gate_y0, cell.gate_speed, mode,
            *_rate_and_mean([res for c, _, p, _, res in rows if c == ci and p == mode]),
        )
        for ci, cell in enumerate(cells)
        for mode in PERCEPTION_MODES
    ]


def write_grid_csv(results, path) -> None:
    """Export grid results as CSV with headers matching the field names."""
    _write_csv(results, GridResult, {**_CELL_FORMATS, **_RESULT_FORMATS}, path)


@dataclass(frozen=True)
class EnergyComparison:
    """Paired event-vs-depth energy aggregate over a flight suite."""

    mean_event_J: float
    mean_depth_J: float
    mean_surplus_J: float  # over pairs where both modes flew
    n_pairs: int
    event_success_rate: float
    depth_success_rate: float


def energy_comparison(
    models: PlannerModels,
    runs: int = 10,
    base_seed: int = 0,
    template: EpisodeConfig = EpisodeConfig(),
) -> EnergyComparison:
    """Run the paired energy suite over the 25 ``energy_suite_cells`` flights."""
    rows = run_paired(energy_suite_cells(), models, runs, base_seed, template, _PERCEPTION_COMBOS)
    event, depth = ([res for _, _, p, _, res in rows if p == mode] for mode in PERCEPTION_MODES)
    surpluses = [
        d.energy_J - e.energy_J
        for e, d in zip(event, depth)
        if not e.tracking_lost and not d.tracking_lost
    ]
    event_rate, event_mean = _rate_and_mean(event)
    depth_rate, depth_mean = _rate_and_mean(depth)
    return EnergyComparison(
        event_mean, depth_mean,
        float(np.mean(surpluses)) if surpluses else float("nan"),
        len(surpluses), event_rate, depth_rate,
    )


@dataclass(frozen=True)
class AblationCell:
    """One perception x planner combination of the ablation matrix."""

    perception_mode: str
    planner_mode: str
    mean_energy_J: float
    success_rate: float


#: The one start cell the ablation flies.
ABLATION_CELL = GridCell(2.0, 0.0, 2.0)


def ablation_matrix(
    models: PlannerModels, runs: int = 10, base_seed: int = 0
) -> list[AblationCell]:
    """2x2 perception/planner ablation over identical seeded worlds of
    ``ABLATION_CELL``."""
    combos = [(p, q) for p in PERCEPTION_MODES for q in PLANNER_MODES]
    rows = run_paired([ABLATION_CELL], models, runs, base_seed, EpisodeConfig(), combos)
    cells = []
    for perception, planner in combos:
        rate, energy = _rate_and_mean(
            [res for _, _, p, q, res in rows if (p, q) == (perception, planner)]
        )
        cells.append(AblationCell(perception, planner, energy, rate))
    return cells


def ablation_energy_ratio(cells) -> float:
    """(depth + vanilla) over (event + pgnn) mean actuation energy."""
    by_key = {(c.perception_mode, c.planner_mode): c for c in cells}
    worst = by_key[("depth-baseline", "vanilla-ann")].mean_energy_J
    best = by_key[("event-snn", "pgnn")].mean_energy_J
    return worst / best


def write_ablation_csv(cells, path) -> None:
    _write_csv(cells, AblationCell, _RESULT_FORMATS, path)


# ---------------------------------------------------------------------------
# episode config files (INI key-value schema, see README)

_WORLD_KEYS = tuple(f.name for f in fields(WorldConfig))
_INI_SECTIONS = {
    "world": _WORLD_KEYS,
    "episode": tuple(f.name for f in fields(EpisodeConfig) if f.name not in _WORLD_KEYS),
}


def load_episode_config(path) -> EpisodeConfig:
    """Read an EpisodeConfig from an INI file with [world] and [episode] sections.

    Omitted keys, empty values and ``default`` take the field's default.  An
    unknown section or key, or a value that does not parse as the field's
    type, raises ValueError naming it.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    with open(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(str(exc)) from None
    types = typing.get_type_hints(EpisodeConfig)
    values = {}
    for section in parser.sections():
        if section not in _INI_SECTIONS:
            raise ValueError(f"unknown section [{section}] in {path}")
        for key, raw in parser[section].items():
            if key not in _INI_SECTIONS[section]:
                raise ValueError(f"unknown key {key!r} in [{section}] of {path}")
            if raw not in ("", "default"):
                values[key] = parse_as(types[key], raw, f"[{section}] {key}")
    return EpisodeConfig(**values)


def load_grid_csv(path) -> list[GridCell]:
    """Read grid cells from CSV whose header names GridCell fields.

    drone_x, drone_y and gate_y0 are required; an absent gate_speed or
    alternate column takes the field's default.  A missing, unknown or
    duplicate column, a row of the wrong length, a value that does not
    parse as its field's type, or a row whose world is invalid raises
    ValueError naming it.
    """
    optional = [f.name for f in fields(GridCell) if f.default is not MISSING]
    return read_csv(path, typing.get_type_hints(GridCell), optional, build=_checked_cell)


def _checked_cell(row: dict) -> GridCell:
    """The row's cell, once its first run's world has passed WorldConfig's checks."""
    cell = GridCell(**row)
    derive_run_config(cell, 0)
    return cell
