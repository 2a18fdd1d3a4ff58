"""Rebuild ``reference.json``: the output digests the benchmark checks against.

Usage (from the repository root):

    python3 perfbench/make_reference.py

For every workload, base seed (``REFERENCE_SEEDS``) and pass
(``REFERENCE_RUNS``) it stores the 25 per-episode digests, plus the digest
of the trained models.  It uses one worker process per CPU it may run on.  Regenerate only when a change is meant to alter
simulated outputs, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from run import SETUP_EPOCHS, prepare_environment


def pass_digests(workload: str, base_seed: int, models) -> list[str]:
    from gatesim import harness
    from workloads import WORKLOADS, episode_digest, suite_passes

    return [
        "".join(episode_digest(harness.run_episode(cfg, models)) for cfg in configs)
        for configs in suite_passes(WORKLOADS[workload], base_seed)
    ]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    prepare_environment()
    from gatesim import harness
    from workloads import (
        REFERENCE_PATH, REFERENCE_RUNS, REFERENCE_SEEDS, WORKLOADS, models_digest,
    )

    models = harness.build_default_models(epochs=SETUP_EPOCHS)
    tasks = [(w, s) for w in WORKLOADS for s in range(REFERENCE_SEEDS)]
    with ProcessPoolExecutor(len(os.sched_getaffinity(0)), mp_context=get_context("spawn")) as pool:
        futures = [pool.submit(pass_digests, w, s, models) for w, s in tasks]
        digests = [f.result() for f in futures]
    reference = {
        "seeds": REFERENCE_SEEDS,
        "runs": REFERENCE_RUNS,
        "models": models_digest(models),
        "workloads": {w: [] for w in WORKLOADS},
    }
    for (w, _), passes in zip(tasks, digests):
        reference["workloads"][w].append(passes)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH} ({len(tasks)} workload-seed entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
