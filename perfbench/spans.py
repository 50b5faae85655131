"""Outside-in tracing of atsclab for the benchmark.

Wrappers are installed from outside the package on the functions at each
layer boundary, in the module or class where the caller looks the name up
(`harness` imports `emit_bsm`, `sample_features`, `detect`, `train_detector`
and `render_svg` by name, and `detector` imports `train` by name, so a
wrapper on the defining module alone would see no calls).

Three kinds of probe:
  * SPAN  — one span per call: name, start, end, parent span, iteration id;
  * LEAF  — per-call time and count summed in place, for per-vehicle calls
            too hot to give a span; the time is charged to the open span as
            child time, so self times still add up;
  * COUNT — a call count only, for the hottest lookups.

Spans stay in memory; `Tracer.write_spans` writes them once, at the end.
In an untraced run only the probes marked `light` are installed: a handful
of calls per iteration plus the vehicle-step counter, which the end-to-end
metrics need.
"""
from __future__ import annotations

import csv
import importlib
import os
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

SPAN, LEAF, COUNT = "span", "leaf", "count"


@dataclass(frozen=True)
class Probe:
    metric: str           # "<layer>.<function>"
    owner: str            # "package.module" or "package.module:Class"
    attr: str
    kind: str             # SPAN, LEAF or COUNT in a traced run
    light: str | None = None   # kind installed in an untraced run, if any

    @property
    def layer(self) -> str:
        return self.metric.split(".", 1)[0]


PROBES = (
    Probe("harness.run_scenario", "atsclab.harness", "run_scenario", SPAN, light=SPAN),
    Probe("harness.run_experiment", "atsclab.cli", "run_experiment", SPAN),
    Probe("harness.write_csv", "atsclab.harness", "_write_csv", SPAN),
    Probe("microsim.step", "atsclab.microsim:World", "step", SPAN, light=COUNT),
    Probe("roadnet.stream_of", "atsclab.roadnet:RoadNetwork", "stream_of", COUNT),
    Probe("msgplane.emit_bsm", "atsclab.harness", "emit_bsm", LEAF),
    Probe("msgplane.sample_features", "atsclab.harness", "sample_features", SPAN),
    Probe("msgplane.node_stream_stats", "atsclab.msgplane", "node_stream_stats", SPAN),
    Probe("atsc.tick", "atsclab.atsc:SignalController", "tick", SPAN),
    Probe("attacker.on_second_physical", "atsclab.attacker:SlowPoisoningAttacker",
          "on_second_physical", SPAN),
    Probe("attacker.on_second_phantom", "atsclab.attacker:SlowPoisoningAttacker",
          "on_second_phantom", SPAN),
    Probe("attacker.fake_bsms", "atsclab.attacker:SlowPoisoningAttacker",
          "fake_bsms", SPAN),
    Probe("detector.train_detector", "atsclab.harness", "train_detector", SPAN, light=SPAN),
    Probe("detector.build_dataset", "atsclab.detector", "build_dataset", SPAN),
    Probe("detector.compute_threshold", "atsclab.detector", "compute_threshold", SPAN),
    Probe("neuralnet.train", "atsclab.detector", "train", SPAN),
    Probe("neuralnet.loss_and_gradients", "atsclab.neuralnet:LstmRegressor",
          "loss_and_gradients", SPAN),
    Probe("neuralnet.clip_gradients", "atsclab.neuralnet", "clip_gradients", SPAN),
    Probe("neuralnet.adam_update", "atsclab.neuralnet", "adam_update", SPAN),
    Probe("neuralnet.forward", "atsclab.neuralnet:LstmRegressor", "forward", SPAN),
    Probe("detector.detect", "atsclab.harness", "detect", SPAN, light=SPAN),
    Probe("svgplot.render_svg", "atsclab.harness", "render_svg", SPAN),
)
PROBE_NAMES = tuple(p.metric for p in PROBES)
# Layers with a self time; roadnet's only probe is a call counter.
TIMED_LAYERS = tuple(sorted({p.layer for p in PROBES if p.kind != COUNT}))

# `forward` is split by the span that called it.
FORWARD_PURPOSE = {"neuralnet.train": "validation",
                   "detector.compute_threshold": "threshold",
                   "detector.detect": "replay"}


# -- counters kept beside the spans ------------------------------------------
# Each hook gets the counter dict and the call's positional arguments (and,
# after the call, its result). They read only public attributes.

def _count_vehicle_steps(counts, args):
    counts["microsim.vehicle_steps"] += len(args[0].vehicles)


def _count_records(counts, args):
    counts["msgplane.records_aggregated"] += len(args[0])


def _count_attack_callback(counts, args):
    attacker, t = args[0], args[1]
    if t >= attacker.start_abs:
        counts["attacker.callbacks_after_start"] += 1


def _count_injections(counts, args, result):
    counts["attacker.injections"] += len(result.inject_times)


def _count_verdicts(counts, args, result):
    counts["detector.verdicts"] += sum(1 for v in result if v.valid)


def _count_bytes(counts, args, result):
    counts["harness.write_csv.bytes"] += os.path.getsize(args[0])


def scenario_mode(args) -> str:
    attack = args[0].attack
    return "free" if attack is None else attack.mode.value


BEFORE = {"microsim.step": _count_vehicle_steps,
          "msgplane.node_stream_stats": _count_records,
          "attacker.on_second_physical": _count_attack_callback,
          "attacker.on_second_phantom": _count_attack_callback}
AFTER = {"harness.run_scenario": _count_injections,
         "detector.detect": _count_verdicts,
         "harness.write_csv": _count_bytes}
TAG = {"harness.run_scenario": scenario_mode}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int        # index into the span list, -1 at the top
    iteration: int
    tag: str           # scenario mode for run_scenario spans, else ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class IterationTrace:
    """What one iteration recorded: its spans, counters and leaf timings."""
    iteration: int
    spans: list[Span]
    counts: dict[str, int]
    leaf_s: dict[str, float]
    child_leaf_s: dict[int, float]   # local span index -> LEAF time under it
    installed: tuple[str, ...]       # probes that were wrapped


class Tracer:
    """Installs the probes on entry and restores every original on exit.

    `full=False` installs only the light probes. `skip` leaves the named
    probes unwrapped (the coverage guard's own test uses it).
    """

    def __init__(self, full: bool, skip: frozenset[str] = frozenset()) -> None:
        self.full = full
        self.skip = skip
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.child_leaf_s: dict[int, float] = defaultdict(float)
        self.iteration = -1
        self._first_span = 0
        self.installed: list[str] = []
        self.missing: list[str] = []     # probes whose target no longer exists
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for probe in PROBES:
            kind = probe.kind if self.full else probe.light
            if kind is None or probe.metric in self.skip:
                continue
            module, _, cls = probe.owner.partition(":")
            try:
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                original = getattr(owner, probe.attr)
            except (ImportError, AttributeError):
                self.missing.append(probe.metric)
                continue
            self._restore.append((owner, probe.attr, original))
            self.installed.append(probe.metric)
            setattr(owner, probe.attr, self._wrap(probe.metric, kind, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, kind: str, fn: Callable) -> Callable:
        counts = self.counts
        before = BEFORE.get(name)
        calls_key = name + ".calls"
        if kind == COUNT:
            def counted(*args, **kwargs):
                counts[calls_key] += 1
                if before is not None:
                    before(counts, args)
                return fn(*args, **kwargs)
            return counted

        stack = self.stack
        if kind == LEAF:
            leaf_s, child_leaf_s = self.leaf_s, self.child_leaf_s

            def leaf(*args, **kwargs):
                t0 = perf_counter()
                result = fn(*args, **kwargs)
                dt = perf_counter() - t0
                counts[calls_key] += 1
                leaf_s[name] += dt
                if stack:
                    child_leaf_s[stack[-1]] += dt
                return result
            return leaf

        spans = self.spans
        after, tag = AFTER.get(name), TAG.get(name)

        def spanned(*args, **kwargs):
            if before is not None:
                before(counts, args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = Span(name, t0, t1, parent, self.iteration,
                                  tag(args) if tag is not None else "")
            if after is not None:
                after(counts, args, result)
            return result
        return spanned

    # -- iterations ----------------------------------------------------------

    def begin(self, iteration: int) -> None:
        self.iteration = iteration
        self._first_span = len(self.spans)
        self.counts.clear()
        self.leaf_s.clear()
        self.child_leaf_s.clear()

    def end(self) -> IterationTrace:
        """Snapshot what this iteration recorded, with span indices local to it."""
        base = self._first_span
        spans = [s._replace(parent=s.parent - base if s.parent >= 0 else -1)
                 for s in self.spans[base:]]
        child = {i - base: t for i, t in self.child_leaf_s.items()}
        return IterationTrace(self.iteration, spans, dict(self.counts),
                              dict(self.leaf_s), child, tuple(self.installed))

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["index", "name", "start", "end", "parent", "iteration", "tag"])
            for i, s in enumerate(self.spans):
                w.writerow([i, s.name, repr(s.start), repr(s.end), s.parent,
                            s.iteration, s.tag])


# -- analysis ----------------------------------------------------------------

def self_times(trace: IterationTrace) -> list[float]:
    """Each span's duration minus what its child spans and LEAF calls cover."""
    covered = [0.0] * len(trace.spans)
    for s in trace.spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    for i, t in trace.child_leaf_s.items():
        covered[i] += t
    return [s.duration - c for s, c in zip(trace.spans, covered)]


def call_counts(trace: IterationTrace) -> dict[str, int]:
    """Calls per installed probe: spans by name plus the LEAF and COUNT counters."""
    calls = {name: trace.counts.get(name + ".calls", 0) for name in trace.installed}
    for s in trace.spans:
        calls[s.name] += 1
    return calls


def missing_layers(expected: list[str], calls: dict[str, int],
                   uninstalled: list[str]) -> list[str]:
    """Probes a workload should exercise that recorded no call.

    A refactor that removes or renames a traced function, or stops looking it
    up where the probe sits, shows here instead of as a 0 s layer.
    """
    return sorted({name for name in expected
                   if name in uninstalled or calls.get(name, 0) == 0})


def _ancestor(spans: list[Span], i: int, name: str) -> Span | None:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return spans[p]
        p = spans[p].parent
    return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: IterationTrace) -> dict[str, float]:
    """Per-layer self times, exact counts and ratios for one traced iteration."""
    spans = trace.spans
    own = self_times(trace)
    calls = call_counts(trace)
    self_s: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        self_s[s.name] += t
    for name, t in trace.leaf_s.items():
        self_s[name] += t

    forward = {purpose: 0.0 for purpose in FORWARD_PURPOSE.values()}
    replay_forwards = 0
    attacker_by_mode = {"free": 0.0, "physical": 0.0, "phantom": 0.0}
    for i, (s, t) in enumerate(zip(spans, own)):
        if s.name == "neuralnet.forward" and s.parent >= 0:
            purpose = FORWARD_PURPOSE.get(spans[s.parent].name)
            if purpose is not None:
                forward[purpose] += t
                replay_forwards += purpose == "replay"
        elif s.name.startswith("attacker."):
            scenario = _ancestor(spans, i, "harness.run_scenario")
            if scenario is not None:
                attacker_by_mode[scenario.tag] += t

    steps_ms = [s.duration * 1e3 for s in spans if s.name == "microsim.step"]
    c = trace.counts
    m: dict[str, float] = {}
    for name in PROBE_NAMES:
        m[name + ".calls"] = calls.get(name, 0)
        if name.split(".", 1)[0] in TIMED_LAYERS:
            m[name + ".self_s"] = self_s[name]
    for purpose, t in forward.items():
        m[f"neuralnet.forward.{purpose}.self_s"] = t
    for mode, t in attacker_by_mode.items():
        m[f"attacker.self_s.{mode}"] = t
    for layer in TIMED_LAYERS:
        m[f"{layer}.self_s"] = sum(t for n, t in self_s.items()
                                   if n.startswith(layer + "."))
    m["microsim.step.p50_ms"], m["microsim.step.p99_ms"] = _p50_p99(steps_ms)
    m["microsim.vehicle_steps"] = c.get("microsim.vehicle_steps", 0)
    m["msgplane.records_aggregated"] = c.get("msgplane.records_aggregated", 0)
    m["msgplane.passes_per_sample"] = _ratio(calls.get("msgplane.node_stream_stats", 0),
                                             calls.get("msgplane.sample_features", 0))
    m["attacker.injections"] = c.get("attacker.injections", 0)
    m["attacker.inject_ratio"] = _ratio(c.get("attacker.injections", 0),
                                        c.get("attacker.callbacks_after_start", 0))
    m["neuralnet.batches"] = calls.get("neuralnet.loss_and_gradients", 0)
    m["detector.verdicts"] = c.get("detector.verdicts", 0)
    m["detector.forwards_per_verdict"] = _ratio(replay_forwards,
                                                c.get("detector.verdicts", 0))
    m["harness.write_csv.bytes"] = c.get("harness.write_csv.bytes", 0)
    m["trace.spans"] = len(spans)
    return m


def exact_counts(trace: IterationTrace) -> dict[str, int]:
    """Every counter of an iteration; equal across runs of one seed."""
    out = {f"{name}.calls": n for name, n in call_counts(trace).items()}
    out.update({k: v for k, v in trace.counts.items() if not k.endswith(".calls")})
    return dict(sorted(out.items()))


def _p50_p99(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[98]
