"""Checks on the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from run import ROOT, SETUP_EPOCHS, BestTimes, end_to_end, prepare_environment

prepare_environment()

from gatesim import harness  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Checker, episode_digest, load_reference, models_digest,
    split_pass, suite_configs, suite_passes,
)


@pytest.fixture(scope="module")
def models():
    return harness.build_default_models(epochs=SETUP_EPOCHS)


def _recorded_suite(monkeypatch, template, runs, base_seed):
    seen = []

    def record(cfg, models):
        seen.append(cfg)
        return harness.EpisodeResult(False, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, {})

    monkeypatch.setattr(harness, "run_episode", record)
    harness.energy_comparison(None, runs=runs, base_seed=base_seed, template=template)
    return seen[0::2], seen[1::2]  # event, depth


@pytest.mark.parametrize("base_seed", [0, 7])
def test_workloads_build_the_energy_suite_configs(monkeypatch, base_seed):
    event, depth = _recorded_suite(monkeypatch, harness.EpisodeConfig(), 10, base_seed)
    assert suite_configs(WORKLOADS["event-clean"], base_seed, 10) == event
    assert suite_configs(WORKLOADS["depth-baseline"], base_seed, 10) == depth
    noisy, _ = _recorded_suite(monkeypatch, WORKLOADS["event-noisy"], 10, base_seed)
    assert suite_configs(WORKLOADS["event-noisy"], base_seed, 10) == noisy
    assert len(event) == 250


def test_suite_aggregates_match_the_paper_suite_at_seed_0(models):
    means = {}
    for name in ("event-clean", "depth-baseline"):
        results = [harness.run_episode(cfg, models)
                   for cfg in suite_configs(WORKLOADS[name], 0, 10)]
        means[name] = (
            sum(r.energy_J for r in results) / len(results),
            sum(r.success for r in results) / len(results),
        )
    assert means["event-clean"][0] == pytest.approx(155.019, abs=5e-4)
    assert means["depth-baseline"][0] == pytest.approx(406.509, abs=5e-4)
    assert means["event-clean"][1] == pytest.approx(0.888)
    assert means["depth-baseline"][1] == pytest.approx(0.204)


def test_models_and_outputs_match_the_reference(models):
    ref = load_reference()
    assert models_digest(models) == ref["models"]
    for name in WORKLOADS:
        configs = suite_passes(WORKLOADS[name], 3)[1]
        n = len(configs) if name == "depth-baseline" else 3
        got = [episode_digest(harness.run_episode(cfg, models)) for cfg in configs[:n]]
        assert got == split_pass(ref["workloads"][name][3][1])[:n]


def test_same_seed_repeats_and_other_seed_changes_worlds(models):
    template = WORKLOADS["depth-baseline"]

    def digests(seed):
        return [episode_digest(harness.run_episode(cfg, models))
                for cfgs in suite_passes(template, seed) for cfg in cfgs]

    assert suite_passes(template, 5) == suite_passes(template, 5)
    assert digests(5) == digests(5)
    a, b = suite_passes(template, 5), suite_passes(template, 6)
    assert all(x != y for pa, pb in zip(a, b) for x, y in zip(pa, pb))
    assert digests(5) != digests(6)


def test_checker_counts_mismatches(models):
    cfg = suite_passes(WORKLOADS["depth-baseline"], 0)[0][0]
    result = harness.run_episode(cfg, models)
    checker = Checker([episode_digest(result), "0" * 8])
    assert checker.check(0, 0, result)
    assert not checker.check(1, 0, result)
    assert not checker.check(0, 0, replace(result, energy_J=result.energy_J + 1e-12))
    assert checker.failed == 2
    assert episode_digest(replace(result, success=bool(result.success))) == episode_digest(result)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 5.0, 6.0, 0, 0],
        ["d", 2.0, 3.0, 1, 0],
    ]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]


def test_traced_episodes_match_untraced_and_restore(models):
    original = harness.run_episode
    configs = [suite_passes(WORKLOADS[name], 0)[0][ci]
               for name in ("event-clean", "depth-baseline") for ci in (0, 24)]
    plain = [episode_digest(harness.run_episode(c, models)) for c in configs]
    tracer = Tracer()
    with tracer.installed():
        traced = [episode_digest(harness.run_episode(c, models)) for c in configs]
    assert traced == plain
    assert harness.run_episode is original
    episodes = {s[4] for s in tracer.spans}
    assert episodes == {0, 1, 2, 3}
    m = {name: value for name, (value, _) in layer_metrics(tracer).items()}
    assert m["tracker.bins_per_episode"] > 0
    assert 0 < m["tracker.fix_ratio"] <= 1
    assert m["scene.events_per_frame"] > 0
    assert 0 < m["harness.self_ms"] < m["harness.run_episode_ms"]
    shares = sum(v for k, v in m.items() if k.endswith(".episode_share"))
    assert shares == pytest.approx(1.0, abs=1e-6)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "event-clean",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    assert command == ["python3", "perfbench/run.py"]


def test_benchmark_json_lists_the_printed_metrics_and_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    best = BestTimes()
    best.add((0, 0), 1e-3, harness.EpisodeResult(True, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, {"flight": 1.0}))
    printed = {name: unit for name, (_, unit, _) in end_to_end(best, [1.0]).items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == printed
    layers = {name: unit for name, (_, unit) in layer_metrics(Tracer()).items()}
    layers["trace.overhead_frac"] = "ratio"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
