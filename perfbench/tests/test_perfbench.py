"""Tests of the benchmark itself, on shortened workloads.

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from atsclab import harness  # noqa: E402

SHORT = 1210.0     # s; the shortest scenario with warm-up, cool-down and an attack
NOTES = json.loads((BENCH / "workloads.json").read_text())["workloads"]


def one_iteration(workload, seed, work, full=False, skip=frozenset()):
    inputs = workload.prepare(seed, work)
    with spans.Tracer(full=full, skip=skip) as tracer:
        return run.run_iteration(workload, inputs, tracer, 0, work, None)


def scenario_digests(it):
    return {k: v for k, v in it.digests.items() if k.endswith("features.csv")}


def test_different_seed_changes_scenario_digests(tmp_path):
    wl = workloads.closed_loop(duration=SHORT)
    a = one_iteration(wl, 1, tmp_path)
    b = one_iteration(wl, 2, tmp_path)
    assert not a.failures and not b.failures
    assert scenario_digests(a).keys() == scenario_digests(b).keys()
    for key in scenario_digests(a):
        assert a.digests[key] != b.digests[key], key


@pytest.mark.parametrize("workload", [workloads.closed_loop(duration=SHORT),
                                      workloads.experiment(epochs=1, duration=1300.0)],
                         ids=["closed_loop", "experiment"])
def test_traced_digests_equal_untraced_and_counts_repeat(tmp_path, workload):
    inputs = workload.prepare(7, tmp_path)
    iterations, _ = run.measure(workload, inputs, 0.0, True, tmp_path, None)
    untraced, *traced = iterations
    assert not untraced.traced and [it.traced for it in traced] == [True] * run.MIN_TRACED
    for it in traced:
        assert untraced.failures == {} and it.failures == {}
        assert it.digests == untraced.digests
        calls = spans.call_counts(it.trace)
        assert spans.missing_layers(NOTES[workload.name]["loads"], calls, []) == []
    assert run.count_problems(iterations, None) == []


def test_count_problems_compares_traced_only_counters():
    def iteration(index, traced, counts):
        return run.Iteration(index, traced, 0.0, 0.0, None, {}, counts, 1, {})
    iterations = [iteration(0, False, {"microsim.vehicle_steps": 5}),
                  iteration(1, True, {"microsim.vehicle_steps": 5, "neuralnet.batches": 3}),
                  iteration(2, True, {"microsim.vehicle_steps": 5, "neuralnet.batches": 4})]
    assert run.count_problems(iterations, None) == [
        "iteration 2: neuralnet.batches = 4, iteration 1 has 3"]
    reference = {"counts": {"microsim.vehicle_steps": 6}}
    assert len(run.count_problems(iterations[:1], reference)) == 1


def test_self_times_sum_to_at_most_traced_wall(tmp_path):
    it = one_iteration(workloads.closed_loop(duration=SHORT), 3, tmp_path, full=True)
    own = spans.self_times(it.trace)
    assert min(own) >= 0.0
    wall = it.end - it.start
    assert sum(own) + sum(it.trace.leaf_s.values()) <= wall
    m = spans.layer_metrics(it.trace)
    assert sum(m[f"{layer}.self_s"] for layer in spans.TIMED_LAYERS) <= wall
    assert m["msgplane.passes_per_sample"] == 4.0


def test_unwrapped_layer_trips_coverage_guard(tmp_path):
    it = one_iteration(workloads.closed_loop(duration=SHORT), 4, tmp_path, full=True,
                       skip=frozenset({"msgplane.node_stream_stats"}))
    missing = spans.missing_layers(NOTES["closed_loop"]["loads"],
                                   spans.call_counts(it.trace), it.uninstalled)
    assert missing == ["msgplane.node_stream_stats"]


def test_probe_on_a_removed_function_is_missing(monkeypatch):
    gone = spans.Probe("msgplane.gone", "atsclab.msgplane", "gone", spans.SPAN)
    monkeypatch.setattr(spans, "PROBES", spans.PROBES + (gone,))
    with spans.Tracer(full=True) as tracer:
        pass
    assert tracer.missing == ["msgplane.gone"]
    assert spans.missing_layers(["msgplane.gone"], {}, tracer.missing) == ["msgplane.gone"]


def test_tracer_restores_every_original():
    before = (harness.run_scenario, harness.emit_bsm, harness.World.step)
    with spans.Tracer(full=True):
        assert harness.run_scenario is not before[0]
    assert (harness.run_scenario, harness.emit_bsm, harness.World.step) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed_loop",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
