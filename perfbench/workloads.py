"""Workload generator, output digests and the reference they are checked against.

Each workload is an ``EpisodeConfig`` template applied to the paper's energy
suite: ``harness.derive_run_config`` over the 25 ``harness.energy_suite_cells()``
(depths 2-6 m, drone lateral offsets 0, +-1, +-2).  For a given base seed the
configs are exactly those ``harness.energy_comparison`` builds, so the
benchmark measures the paper's suite rather than a look-alike.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from gatesim import harness

WORKLOADS = {
    # Default world: sparse ring events, the event path's best case.
    "event-clean": harness.EpisodeConfig(),
    # ~0.33 Hz background activity per pixel spreads events over the frame.
    "event-noisy": harness.EpisodeConfig(spurious_rate=1e5, depth_noise_sigma=0.05),
    # Ground-truth depth tracker: bypasses scene and tracker entirely.
    "depth-baseline": harness.EpisodeConfig(perception_mode="depth-baseline"),
}

# The reference holds REFERENCE_SEEDS base seeds x REFERENCE_RUNS passes; any
# ``--seed`` maps onto base seed ``seed % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 32
REFERENCE_RUNS = 4
REFERENCE_PATH = Path(__file__).with_name("reference.json")
DIGEST_HEX = 8  # per-episode digest length; a pass is 25 of them concatenated

BASELINE_SEED = 0
HELD_OUT_SEED = 29  # not used while tuning; confirm later gain claims on it


def suite_passes(template: harness.EpisodeConfig, base_seed: int,
                 runs: int = REFERENCE_RUNS) -> list[list[harness.EpisodeConfig]]:
    """``passes[run][cell]``: one pass holds every suite cell once."""
    cells = harness.energy_suite_cells()
    return [
        [harness.derive_run_config(cell, run, base_seed, ci, template)
         for ci, cell in enumerate(cells)]
        for run in range(runs)
    ]


def suite_configs(template: harness.EpisodeConfig, base_seed: int,
                  runs: int) -> list[harness.EpisodeConfig]:
    """The same configs in ``energy_comparison`` order (cell-major, run inner)."""
    passes = suite_passes(template, base_seed, runs)
    return [passes[run][ci] for ci in range(len(passes[0])) for run in range(runs)]


def _canon(value) -> str:
    if isinstance(value, (bool, np.bool_)):  # numpy and Python bools hash alike
        return str(bool(value))
    return float(value).hex()


def episode_digest(result: harness.EpisodeResult) -> str:
    """Digest of every simulated output of one episode (no host times)."""
    fields = [
        result.success, result.energy_J, result.hover_energy_J,
        result.flight_energy_J, result.miss_distance, result.t_traj,
        result.y_star, result.tracking_lost,
    ]
    text = ",".join(_canon(v) for v in fields)
    text += ";" + ",".join(f"{k}={_canon(v)}" for k, v in sorted(result.timing.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def models_digest(models: harness.PlannerModels) -> str:
    """Digest of every trained array and the energy coefficients."""
    h = hashlib.sha256()
    for params in (models.pgnn_params, models.vanilla_params):
        for group in (params.weights, params.biases, params.bn_gamma,
                      params.bn_beta, params.bn_mean, params.bn_var):
            for arr in group:
                h.update(arr.tobytes())
    h.update(repr(models.coeffs).encode())
    h.update(repr(models.flight).encode())
    return h.hexdigest()[:16]


def split_pass(digests: str) -> list[str]:
    return [digests[i:i + DIGEST_HEX] for i in range(0, len(digests), DIGEST_HEX)]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        ref = json.load(fh)
    if ref["seeds"] != REFERENCE_SEEDS or ref["runs"] != REFERENCE_RUNS:
        raise ValueError(f"{path} was made for another seed/run layout")
    return ref


class Checker:
    """Counts episodes and compares each one's digest with the reference."""

    def __init__(self, reference_passes: list[str]):
        self.expected = [split_pass(p) for p in reference_passes]
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed == 1:
            print(f"FAIL {what}", file=sys.stderr)

    def check(self, run: int, cell: int, result: harness.EpisodeResult) -> bool:
        got, want = episode_digest(result), self.expected[run][cell]
        if got != want:
            self.fail(f"pass {run} cell {cell}: digest {got} != reference {want}")
        return got == want
