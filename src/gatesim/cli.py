"""Command-line interface: energy profiling, training, episodes, and benchmarks."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness, pgnn
from .fitting import build_dataset, default_training_depths, read_dataset_csv
from .motor import (
    calibration_report,
    default_energy_model,
    energy_velocity_profile,
    write_profile_csv,
)


def _cmd_profile_energy(args) -> int:
    coeffs, flight = default_energy_model()
    profiles = {}
    for depth in args.depth:
        if depth in profiles:
            raise ValueError(f"--depth {depth} is repeated: depths must be distinct")
        profiles[depth] = energy_velocity_profile(coeffs, flight, depth)
    write_profile_csv(profiles, args.out)
    print(calibration_report(coeffs, flight))
    print(f"wrote {sum(len(p) for p in profiles.values())} rows to {args.out}")
    return 0


def _check_out_paths(*paths) -> None:
    """Fail before any training when an output path is a directory or its
    directory is missing."""
    for path in paths:
        if path is None:
            continue
        if Path(path).is_dir():
            raise ValueError(f"output {path} is a directory")
        if not Path(path).absolute().parent.is_dir():
            raise ValueError(f"directory of output {path} does not exist")


def _cmd_train_pgnn(args) -> int:
    _check_out_paths(args.out, args.loss_curve)
    config = pgnn.TrainConfig(lam=args.lam, epochs=args.epochs, seed=args.seed)
    if args.dataset:
        samples = read_dataset_csv(args.dataset)
    else:
        coeffs, flight = default_energy_model()
        samples = build_dataset(default_training_depths(), coeffs, flight)
    params, history = pgnn.train_pgnn(samples, config)
    pgnn.save_params(params, args.out)
    if args.loss_curve:
        pgnn.write_loss_curve_csv(history, args.loss_curve)
    final = history[-1]
    print(f"trained {args.epochs} epochs on {len(samples)} samples "
          f"(lambda={args.lam}, seed={args.seed})")
    print(f"final mse={final[1]:.6e} physics={final[2]:.6e} total={final[3]:.6e}")
    print(f"saved parameters to {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = harness.load_episode_config(args.config)
    _check_out_paths(args.trajectory_out)
    models = harness.build_default_models(seed=args.model_seed, epochs=args.epochs)
    result = harness.run_episode(cfg, models, trajectory_out=args.trajectory_out)
    print(f"success: {result.success}")
    print(f"tracking_lost: {result.tracking_lost}")
    print(f"energy_J: {result.energy_J:.6f}")
    print(f"hover_energy_J: {result.hover_energy_J:.6f}")
    print(f"flight_energy_J: {result.flight_energy_J:.6f}")
    print(f"miss_distance_m: {result.miss_distance:.6f}")
    print(f"t_traj_s: {result.t_traj:.6f}")
    print(f"y_star_m: {result.y_star:.6f}")
    for phase, seconds in result.timing.items():
        print(f"timing.{phase}_s: {seconds:.6f}")
    return 0


def _cmd_benchmark(args) -> int:
    cells = harness.load_grid_csv(args.grid) if args.grid else harness.default_success_grid()
    harness.check_run_args(args.runs, args.seed, cells)
    _check_out_paths(args.out)
    models = harness.build_default_models(seed=args.model_seed, epochs=args.epochs)
    results = harness.success_rate_grid(
        cells, models, runs=args.runs, base_seed=args.seed
    )
    harness.write_grid_csv(results, args.out)
    print(f"wrote {len(results)} rows ({len(cells)} cells x 2 modes) to {args.out}")
    return 0


def _cmd_ablation(args) -> int:
    harness.check_run_args(args.runs, args.seed)
    _check_out_paths(args.out)
    models = harness.build_default_models(seed=args.model_seed, epochs=args.epochs)
    cells = harness.ablation_matrix(models, runs=args.runs, base_seed=args.seed)
    harness.write_ablation_csv(cells, args.out)
    ratio = harness.ablation_energy_ratio(cells)
    for c in cells:
        print(f"{c.perception_mode:>14} + {c.planner_mode:<11} "
              f"energy={c.mean_energy_J:9.3f} J  success={c.success_rate:.2f}")
    print(f"corner energy ratio (depth+vanilla)/(event+pgnn): {ratio:.3f}")
    print(f"wrote ablation matrix to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatesim",
        description="Event-driven gate-crossing simulator and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    models = argparse.ArgumentParser(add_help=False)
    models.add_argument("--epochs", type=int, default=pgnn.TrainConfig.epochs,
                        help="training epochs for the planner models")
    models.add_argument("--model-seed", type=int, default=0)
    suite = argparse.ArgumentParser(add_help=False)
    suite.add_argument("--runs", type=int, default=10)
    suite.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("profile-energy", help="export energy-velocity profiles")
    p.add_argument("--depth", action="append", required=True, type=float,
                   help="traversal depth in meters (repeatable, each distinct)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_profile_energy)

    p = sub.add_parser("train-pgnn", help="train the velocity predictor")
    p.add_argument("--dataset", default=None,
                   help="training CSV (depth,v_star,k1..k5); default: generate")
    p.add_argument("--lambda", dest="lam", type=float, default=pgnn.TrainConfig.lam,
                   help="physics regularization coefficient")
    p.add_argument("--epochs", type=int, default=pgnn.TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output parameter file (.npz)")
    p.add_argument("--loss-curve", default=None, help="optional loss-curve CSV")
    p.set_defaults(func=_cmd_train_pgnn)

    p = sub.add_parser("run", parents=[models], help="run a single episode from a config file")
    p.add_argument("--config", required=True, help="INI episode config")
    p.add_argument("--trajectory-out", default=None,
                   help="optional planned-trajectory CSV")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("benchmark", parents=[suite, models],
                       help="success-rate grid for both perception modes")
    p.add_argument("--grid", default=None,
                   help="grid CSV (drone_x,drone_y,gate_y0,gate_speed,alternate); "
                        "default: built-in 15-cell grid")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("ablation", parents=[suite, models],
                       help="2x2 perception/planner ablation matrix")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_ablation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
