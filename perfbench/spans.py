"""In-memory span tracing around calls into gatesim's layers.

Nothing under ``src/`` changes: ``Tracer.installed()`` replaces the module and
class attributes the callers look up (``gatesim.tracker.lif_step``,
``gatesim.harness.trajectory_energy``, ``scene.EventCameraSim.step``, ...)
with wrappers that record a span (name, start, end, parent, episode) and a
few counters, and restores the originals on exit.

Every layer runs in the caller's thread with no queues, so no layer ever waits
for another; the trace reports busy time only.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

from gatesim import harness, pgnn, scene, tracker


def _count_step(counts, args, out):
    counts["scene.frames"] += 1
    counts["scene.events"] += len(out[2])


def _count_process_bin(counts, args, out):
    counts["tracker.fixes"] += out is not None


def _count_lif(counts, args, out):
    counts["tracker.spikes"] += int(out[1].sum())


def _count_energy(counts, args, out):
    counts["motor.samples"] += len(args[1].omegas)


def _count_train(counts, args, out):
    counts["pgnn.epochs"] += args[1].epochs  # harness passes the TrainConfig positionally


# (owner, attribute, span name, counter): the lookups harness and its callees
# make on the episode path and in build_default_models.
TARGETS = [
    (harness, "run_episode", "harness.run_episode", None),
    (scene.EventCameraSim, "step", "scene.step", _count_step),
    (scene, "annulus_mask", "scene.annulus_mask", None),
    (tracker.SnnGateTracker, "process_bin", "tracker.process_bin", _count_process_bin),
    (tracker, "events_to_frame", "tracker.events_to_frame", None),
    (tracker, "lif_step", "tracker.lif_step", _count_lif),
    (tracker, "track_bbox", "tracker.track_bbox", None),
    (pgnn, "mlp_forward", "pgnn.mlp_forward", None),
    (harness, "predict_intercept", "planner.predict_intercept", None),
    (harness, "sample_arrays", "planner.sample_arrays", None),
    (harness, "trajectory_energy", "motor.trajectory_energy", _count_energy),
    (harness, "build_default_models", "harness.build_default_models", None),
    (harness, "build_dataset", "fitting.build_dataset", None),
    (pgnn, "train_pgnn", "pgnn.train_pgnn", _count_train),
]
EPISODE_SPAN = "harness.run_episode"
SETUP_SPAN = "harness.build_default_models"


class Tracer:
    """Spans as ``[name, start, end, parent, episode]`` lists, plus counters.

    ``parent`` is the index of the enclosing span (-1 at top level); spans
    recorded inside one ``harness.run_episode`` call share its episode id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._episodes = 0
        self._episode = -1

    def _wrap(self, name, fn, count):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        new_episode = name == EPISODE_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_episode:
                self._episode = self._episodes
                self._episodes += 1
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._episode]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if new_episode:
                    self._episode = -1
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Children of one span never overlap (one thread, nested calls), so the
        covered time is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            row = out[span[0]]
            row["calls"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += self_s
        return dict(out)

    def write(self, path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "names": names,
                "fields": ["name", "start_s", "end_s", "parent", "episode"],
                "spans": [[code[s[0]], round(s[1], 9), round(s[2], 9), s[3], s[4]]
                          for s in self.spans],
                "counts": dict(self.counts),
            }, fh, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0


# module -> span names whose self time it owns, for the episode-time shares
SHARE_GROUPS = {
    "scene": ("scene.step", "scene.annulus_mask"),
    "tracker": ("tracker.process_bin", "tracker.events_to_frame",
                "tracker.lif_step", "tracker.track_bbox"),
    "motor": ("motor.trajectory_energy",),
    "planner": ("planner.predict_intercept", "planner.sample_arrays"),
    "pgnn": ("pgnn.mlp_forward",),
    "harness": ("harness.run_episode",),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced run as ``name -> (value, unit)``.

    Times are host time, mean inclusive time per call unless named a share.
    """
    t = tracer.totals()
    c = tracer.counts
    ms, us = 1e3, 1e6

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def total_s(name):
        return t.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return t.get(name, {}).get("self_s", 0.0)

    def per_call(name, scale):
        return _ratio(total_s(name) * scale, calls(name))

    episodes = calls(EPISODE_SPAN)
    train_s = total_s("pgnn.train_pgnn")
    m = {
        "scene.step_ms": (per_call("scene.step", ms), "ms"),
        "scene.annulus_mask_ms": (per_call("scene.annulus_mask", ms), "ms"),
        "scene.events_per_frame": (_ratio(c["scene.events"], c["scene.frames"]), "count"),
        "scene.host_us_per_event": (_ratio(total_s("scene.step") * us, c["scene.events"]), "us"),
        "tracker.process_bin_ms": (per_call("tracker.process_bin", ms), "ms"),
        "tracker.events_to_frame_ms": (per_call("tracker.events_to_frame", ms), "ms"),
        "tracker.lif_step_ms": (per_call("tracker.lif_step", ms), "ms"),
        "tracker.track_bbox_ms": (per_call("tracker.track_bbox", ms), "ms"),
        "tracker.spikes_per_bin": (_ratio(c["tracker.spikes"], calls("tracker.lif_step")), "count"),
        "tracker.bins_per_episode": (_ratio(calls("tracker.process_bin"), episodes), "count"),
        "tracker.fix_ratio": (_ratio(c["tracker.fixes"], calls("tracker.process_bin")), "ratio"),
        "motor.trajectory_energy_us": (per_call("motor.trajectory_energy", us), "us"),
        "motor.samples_per_flight": (
            _ratio(c["motor.samples"], calls("motor.trajectory_energy")), "count"),
        "planner.predict_intercept_us": (per_call("planner.predict_intercept", us), "us"),
        "planner.sample_arrays_us": (per_call("planner.sample_arrays", us), "us"),
        "pgnn.mlp_forward_us": (per_call("pgnn.mlp_forward", us), "us"),
        "harness.run_episode_ms": (per_call(EPISODE_SPAN, ms), "ms"),
        "harness.self_ms": (_ratio(self_s(EPISODE_SPAN) * ms, episodes), "ms"),
        "pgnn.train_calls": (_ratio(calls("pgnn.train_pgnn"), calls(SETUP_SPAN)), "count"),
        "pgnn.train_s": (_ratio(train_s, calls(SETUP_SPAN)), "s"),
        "pgnn.train_epoch_ms": (_ratio(train_s * ms, c["pgnn.epochs"]), "ms"),
        "fitting.build_dataset_ms": (per_call("fitting.build_dataset", ms), "ms"),
        "harness.build_default_models_s": (per_call(SETUP_SPAN, 1.0), "s"),
        "setup.train_share": (_ratio(train_s, total_s(SETUP_SPAN)), "ratio"),
    }
    episode_s = total_s(EPISODE_SPAN)
    for group, names in SHARE_GROUPS.items():
        share = _ratio(sum(self_s(n) for n in names), episode_s)
        m[f"{group}.episode_share"] = (share, "ratio")
    return m
