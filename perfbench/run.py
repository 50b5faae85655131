"""Benchmark of atsclab, run from the root of a checkout:

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 30 --trace 0

Runs one workload of BENCHMARK.json against the atsclab source in this
checkout's `src/`, repeating it for about `--seconds` seconds, checks every
artifact of every iteration, and prints one JSON object as the last line of
standard output:

  --trace 0  the end-to-end metrics, medians over untraced iterations;
  --trace 1  the per-layer metrics from traced iterations, after one untraced
             iteration whose wall time gives the tracing overhead and whose
             digests the traced ones must equal.

The lines before it list every metric by name with its unit, including the
workload-specific ones (`scenario_s.*`, `train_epoch_s`,
`replay_verdicts_per_s`). The full result, with the machine descriptor, the
artifact digests and the exact counters, goes to `.perfbench_out/`; a traced
run also writes its spans there. `--write-reference` (with `--trace 1`) stores
this run's digests and counters in `perfbench/reference.json`, which every
later run with the same seed must match.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 5
MIN_TRACED = 2          # traced iterations a traced run makes at least


class ProgramMissing(Exception):
    pass


def import_program() -> None:
    """Import atsclab from this checkout's source tree and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import atsclab
    except ImportError as exc:
        raise ProgramMissing(f"cannot import atsclab from {SRC}: {exc}") from None
    where = Path(atsclab.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProgramMissing(f"atsclab was imported from {where}, not from {SRC}")


# -- machine descriptor --------------------------------------------------------

def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_state() -> dict:
    """Commit and dirty flag of this checkout; None when it is no git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
           "GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, env=env, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return {"git_commit": None, "git_dirty": None}
        commit = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": commit, "git_dirty": dirty}


def machine() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                  if k in os.environ}
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads(),
            "blas_thread_env": thread_env, **git_state()}


# -- measurement ---------------------------------------------------------------

def setup_seconds(n: int) -> list[float]:
    """Set-up time of `n` fresh interpreters, from process start to ready."""
    times = []
    for _ in range(n):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


@dataclass
class Iteration:
    index: int
    traced: bool
    start: float                       # perf_counter at the call
    end: float
    trace: object                      # spans.IterationTrace
    digests: dict[str, str]
    counts: dict[str, int]
    attempted: int
    failures: dict[str, list[str]]     # op name -> problems
    uninstalled: list[str] = field(default_factory=list)


def run_iteration(workload, inputs, tracer, index: int, work: Path,
                  expected: dict[str, str] | None) -> Iteration:
    """One timed call of the workload, then its checks (untimed)."""
    import workloads     # imports atsclab, so only after import_program()
    out = work / f"iter{index}"
    tracer.begin(index)
    t0 = perf_counter()
    ops = workload.run(inputs, out)
    t1 = perf_counter()
    trace = tracer.end()
    digests = workloads.digests(ops, out)
    failures = {}
    for op in ops:
        problems = op.check()
        for path in op.files:
            rel = path.relative_to(out).as_posix()
            if expected is not None and expected.get(rel) != digests[rel]:
                problems.append(f"{rel}: digest differs from {expected.get(rel)}")
        if problems:
            failures[op.name] = problems
    shutil.rmtree(out)
    return Iteration(index, tracer.full, t0, t1, trace, digests,
                     spans.exact_counts(trace), len(ops), failures, list(tracer.missing))


def measure(workload, inputs, seconds: float, traced: bool, work: Path,
            reference: dict | None) -> tuple[list[Iteration], object]:
    """Iterate on the same inputs until the next iteration would end past
    `seconds`.

    A traced run makes one untraced iteration, then traced ones: at least
    MIN_TRACED of them, even past `seconds`, so that the counters only a
    traced iteration records are compared across iterations at every seed.
    Each iteration's digests must equal the reference's, when there is one,
    and else those of the first iteration.
    """
    iterations: list[Iteration] = []
    expected = reference["digests"] if reference is not None else None
    start = perf_counter()
    phases = [(False, 1, 1), (True, MIN_TRACED, None)] if traced else [(False, 1, None)]
    tracer = None
    for full, least, most in phases:
        with spans.Tracer(full=full) as tracer:
            n = 0
            while True:
                it = run_iteration(workload, inputs, tracer, len(iterations), work,
                                   expected)
                iterations.append(it)
                expected = expected or it.digests
                n += 1
                if n == most or (n >= least and perf_counter() - start
                                 + (it.end - it.start) > seconds):
                    break
    return iterations, tracer


def count_problems(iterations: list[Iteration], reference: dict | None) -> list[str]:
    """Each exact counter must repeat in every iteration that records it, and
    match the reference."""
    problems = []
    first: dict[str, tuple[int, int]] = {}
    ref = reference["counts"] if reference is not None else {}
    for it in iterations:
        for key, value in it.counts.items():
            index, base = first.setdefault(key, (it.index, value))
            if value != base:
                problems.append(f"iteration {it.index}: {key} = {value}, "
                                f"iteration {index} has {base}")
            if key in ref and value != ref[key]:
                problems.append(f"iteration {it.index}: {key} = {value}, "
                                f"the reference has {ref[key]}")
    return problems


# -- metrics -------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(iterations: list[Iteration], setup: list[float],
               epochs: int) -> dict[str, tuple[float, str]]:
    """Untraced metrics: the gated end-to-end ones plus the workload-specific."""
    series: dict[str, list[float]] = {}

    def add(name: str, value: float) -> None:
        series.setdefault(name, []).append(value)

    for it in iterations:
        add("wall_s", it.end - it.start)
        by_name: dict[str, list] = {}
        for span in it.trace.spans:
            by_name.setdefault(span.name, []).append(span)
        scenarios = by_name.get("harness.run_scenario", [])
        for span in scenarios:
            add(f"scenario_s.{span.tag}", span.duration)
        add("vehicle_steps_per_s", it.counts["microsim.vehicle_steps"]
            / sum(span.duration for span in scenarios))
        trainings = by_name.get("detector.train_detector", [])
        if trainings:
            add("train_epoch_s", sum(span.duration for span in trainings)
                / (epochs * len(trainings)))
        replays = by_name.get("detector.detect", [])
        if replays:
            add("replay_verdicts_per_s", it.counts["detector.verdicts"]
                / sum(span.duration for span in replays))
    m = {name: (_median(v), unit_of(name)) for name, v in series.items()}
    m["setup_s"] = (_median(setup), "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def per_layer(iterations: list[Iteration]) -> dict[str, float]:
    """Medians over the traced iterations, beside the tracing overhead."""
    traced = [it for it in iterations if it.traced]
    per_it = [spans.layer_metrics(it.trace) for it in traced]
    m = {k: _median(d[k] for d in per_it) for k in per_it[0]}
    m["trace.wall_s"] = _median(it.end - it.start for it in traced)
    m["trace.untraced_wall_s"] = _median(it.end - it.start
                                         for it in iterations if not it.traced)
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    return m


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_per_sample", "_per_verdict")):
        return "ratio"
    return "count"


# -- command line --------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store this traced run's digests and counters as the reference")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.write_reference and not args.trace:
        p.error("--write-reference needs --trace 1, so that every counter is recorded")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ProgramMissing, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads     # imports atsclab, so only after import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    notes = json.loads((BENCH / "workloads.json").read_text())["workloads"][args.workload]
    references = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference = references.get(args.workload)
    if reference is not None and (args.write_reference or reference["seed"] != args.seed):
        reference = None
    workload = workloads.WORKLOADS[args.workload]()

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else setup_seconds(SETUP_PROBES)
        inputs = workload.prepare(args.seed, work / "inputs")
        iterations, tracer = measure(workload, inputs, args.seconds, bool(args.trace),
                                     work, reference)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = count_problems(iterations, reference)
    missing: list[str] = []
    if args.trace:
        for it in iterations:
            if it.traced:
                missing += spans.missing_layers(notes["loads"],
                                                spans.call_counts(it.trace),
                                                it.uninstalled)
        missing = sorted(set(missing))
        if missing:
            problems.append("layer coverage: no calls recorded for " + ", ".join(missing))
        metrics = per_layer(iterations)
        for name in missing:
            metrics.pop(name + ".calls", None)
            metrics.pop(name + ".self_s", None)
        wanted = spec["per_layer"]
        values = {k: (v, unit_of(k)) for k, v in metrics.items()}
    else:
        values = end_to_end(iterations, setup, workload.epochs)
        wanted = spec["end_to_end"]

    attempted = sum(it.attempted for it in iterations)
    failed = sum(len(it.failures) for it in iterations)
    values["failed_ops"] = (failed / attempted, "ratio")
    correct = failed == 0 and not problems

    desc = machine()
    for it in iterations:
        for op, why in it.failures.items():
            problems.append(f"iteration {it.index} {op}: " + "; ".join(why))
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(iterations)} iterations, {failed}/{attempted} ops failed")
    print("  machine: " + json.dumps(desc, sort_keys=True))
    for name, (value, unit) in sorted(values.items()):
        print(f"  {name:44s} {value:16.6f} {unit}")
    if args.trace:
        wall = values["trace.wall_s"][0]
        print("  layer shares of the traced wall time:")
        for layer in spans.TIMED_LAYERS:
            print(f"    {layer:10s} {values[layer + '.self_s'][0] / wall:7.1%}")

    OUT.mkdir(exist_ok=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                          for m in wanted if m["name"] in values}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "sizes": workload.sizes, "machine": desc,
            "problems": problems, "missing_layers": missing,
            "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
            "iterations": [{"index": it.index, "traced": it.traced,
                            "wall_s": it.end - it.start, "digests": it.digests, "counts": it.counts,
                            "failures": it.failures} for it in iterations],
            "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(full, indent=2) + "\n")
    if args.trace:
        tracer.write_spans(OUT / f"{stem}-spans.csv")
    if args.write_reference and correct:
        first = iterations[0]
        traced = next(it for it in iterations if it.traced)
        references[args.workload] = {"seed": args.seed, "sizes": workload.sizes,
                                     "digests": first.digests, "counts": traced.counts}
        REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
