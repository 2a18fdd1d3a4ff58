"""Closed-loop episode benchmark for gatesim.

Usage (from the repository root):

    python3 perfbench/run.py --workload event-clean --seed 0 --seconds 15 --trace 0

One process, one client: each ``harness.run_episode`` call starts after the
previous one returns.  The run builds the models ``SETUP_REPEATS`` times
(``setup_s`` is their median), then runs whole passes of the workload's
suite (25 episodes, one per suite cell) until ``--seconds`` have elapsed and
each of the seed's suite runs has been timed at least once.  The episode
metrics use each config's fastest repeat (see ``BestTimes``).  Every
episode's simulated outputs are checked against ``reference.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same configs and prints the per-layer
metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is nonzero
when any output differs from the reference or an episode raises.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
SETUP_EPOCHS = 2000
# The benchmark is one client thread; a BLAS thread pool would only contend with it.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare_environment() -> None:
    """Pin BLAS threads and import gatesim from this checkout's ``src``.

    Must run before numpy is imported.  Exits with status 2, printing nothing
    to stdout, when the checkout has no ``src/gatesim`` (a bare benchmark
    directory).
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "gatesim" / "__init__.py").is_file():
        print(f"perfbench: no gatesim sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import gatesim

    if Path(gatesim.__file__).resolve().parent != (src / "gatesim").resolve():
        print(f"perfbench: imported gatesim from {gatesim.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" when ROOT is not itself a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.splitlines()
    # A checkout nested in some other repository must not report that one's commit.
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _os_threads() -> int:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return -1


def provenance(args, base_seed: int) -> dict:
    import numpy
    import scipy
    from workloads import BASELINE_SEED, HELD_OUT_SEED

    return {
        "workload": args.workload,
        "seed": args.seed,
        "base_seed": base_seed,
        "baseline_seed": BASELINE_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "os_threads": _os_threads(),
        "git_commit": _git_commit(),
    }


class BestTimes:
    """Each config's fastest host time over the run's untraced repeats of it.

    On a shared host the program's speed swings by up to 2x within seconds
    while its CPU time stays equal to its wall time: other tenants on the
    same cores slow it without descheduling it.  The fastest repeat of a
    config tracks the code rather than its neighbours (the ``timeit`` rule),
    so the episode metrics are computed from these times.
    """

    def __init__(self):
        self.host_s = {}  # (run, cell) -> fastest host seconds
        self.sim_s = {}  # (run, cell) -> simulated seconds
        self.episodes = 0

    def add(self, key, host_s: float, result) -> None:
        self.episodes += 1
        self.host_s[key] = min(host_s, self.host_s.get(key, host_s))
        self.sim_s[key] = sum(result.timing.values())


def percentile(values, q):
    """Linear-interpolated percentile (q in 0..100) of a nonempty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_pass(harness, models, configs, run, checker) -> list:
    """Run one pass; ``(cell, host seconds, result)`` of each episode that matched."""
    clock = time.perf_counter
    done = []
    for ci, cfg in enumerate(configs):
        checker.attempted += 1
        try:
            t0 = clock()
            result = harness.run_episode(cfg, models)
            dt = clock() - t0
        except Exception:  # an episode that raises is counted, not fatal
            checker.fail(f"pass {run} cell {ci} raised:\n{traceback.format_exc()}")
            continue
        if checker.check(run, ci, result):
            done.append((ci, dt, result))
    return done


def build_models(harness, models_digest, expected_digest, checker):
    """Build the models SETUP_REPEATS times; returns the last and the build times."""
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        models = harness.build_default_models(epochs=SETUP_EPOCHS)
        times.append(time.perf_counter() - t0)
        digests.add(models_digest(models))
    if digests != {expected_digest}:
        checker.fail(f"models digest {sorted(digests)} != reference {expected_digest}")
    return models, times


def end_to_end(best: BestTimes, setup_times) -> dict:
    """End-to-end metrics as ``name -> (value, unit, samples)``.

    The episode metrics are taken over every config's fastest repeat, so
    each covers the same set of configs (every cell of every suite run).
    """
    times = list(best.host_s.values())
    ms = [t * 1e3 for t in times]
    n = len(times)
    return {
        "episodes_per_s": (n / sum(times), "1/s", n),
        "episode_p50_ms": (percentile(ms, 50), "ms", n),
        "episode_p90_ms": (percentile(ms, 90), "ms", n),
        "sim_s_per_host_s": (sum(best.sim_s.values()) / sum(times), "s/s", n),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    prepare_environment()
    from gatesim import harness
    from spans import Tracer, layer_metrics
    from workloads import (
        REFERENCE_SEEDS, WORKLOADS, Checker, load_reference, models_digest, suite_passes,
    )

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    base_seed = args.seed % REFERENCE_SEEDS
    reference = load_reference()
    passes = suite_passes(WORKLOADS[args.workload], base_seed)
    checker = Checker(reference["workloads"][args.workload][base_seed])
    tracer = Tracer()
    info = provenance(args, base_seed)
    print("provenance " + json.dumps(info))

    def traced(on):
        return tracer.installed() if on else contextlib.nullcontext()

    with traced(args.trace):
        models, setup_times = build_models(
            harness, models_digest, reference["models"], checker)
    # Warm-up: one checked but untimed episode fills lazy imports and caches.
    run_pass(harness, models, passes[0][:1], 0, checker)

    best = BestTimes()
    overhead = []  # per pass pair: untraced over traced throughput, minus 1
    correct_episodes, successes, energy_J = 0, 0, 0.0
    deadline = time.perf_counter() + args.seconds
    n = 0
    # Every suite run is timed at least once, so the metrics cover the same configs.
    while n < len(passes) or time.perf_counter() < deadline:
        run = n % len(passes)
        # A traced run repeats each pass untraced and traced (order alternating)
        # so the two rates compare the same configs.
        modes = ((False, True) if n % 2 == 0 else (True, False)) if args.trace else (False,)
        rates = {}
        for on in modes:
            with traced(on):
                done = run_pass(harness, models, passes[run], run, checker)
            for ci, dt, result in done:
                correct_episodes += 1
                successes += bool(result.success)
                energy_J += float(result.energy_J)
                if not on:
                    best.add((run, ci), dt, result)
            if done:
                rates[on] = len(done) / sum(dt for _, dt, _ in done)
        if len(rates) == 2:
            overhead.append(rates[False] / rates[True] - 1.0)
        n += 1

    print(f"passes {n} timed_episodes {best.episodes} configs {len(best.host_s)} "
          f"episodes_attempted {checker.attempted} failed {checker.failed} "
          f"episode_fail_frac {checker.failed / checker.attempted:.6f}")
    if correct_episodes:
        print(f"output success_rate {successes / correct_episodes:.6f} "
              f"mean_energy_J {energy_J / correct_episodes:.6f} "
              f"(simulated, ungated; n={correct_episodes})")

    report = {}
    if args.trace and correct_episodes:
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (statistics.median(overhead) if overhead else 0.0, "ratio")
        report = {name: (value, unit, None) for name, (value, unit) in metrics.items()}
    elif best.host_s:
        report = end_to_end(best, setup_times)

    for name, (value, unit, count) in report.items():
        samples = "" if count is None else f" n={count}"
        print(f"metric {name} {value:.6g} {unit}{samples}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"provenance": info, "metrics": report,
                   "attempted": checker.attempted, "failed": checker.failed,
                   "setup_s": setup_times, "timed_episodes": best.episodes,
                   "best_host_s": {f"{run}/{cell}": t for (run, cell), t in best.host_s.items()}},
                  fh, indent=1)
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}.spans.json", info)

    correct = checker.failed == 0 and bool(report)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in report.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
