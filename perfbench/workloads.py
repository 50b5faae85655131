"""The benchmark's workloads, the inputs each makes from a seed, and the checks
on what an iteration wrote.

Every workload is a closed loop in one process: each call into atsclab starts
after the previous one returns. The program receives only the configs built
here from the seed.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from atsclab import cli, harness
from atsclab.attacker import AttackConfig, AttackMode

MODES = ("free", "physical", "phantom")
SCENARIO_FILES = ("features.csv", "phases.csv", "attack.csv", "manifest.json")
DETECTOR_MODES = ("baseline", "upstream")
EXPERIMENT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "experiment.json"


@dataclass
class Op:
    """One scenario run, training or replay, and the artifacts it is judged by."""
    name: str
    files: list[Path]
    check: Callable[[], list[str]]     # structural checks; returns problems


@dataclass
class Workload:
    name: str
    prepare: Callable[[int, Path], object]      # seed, work dir -> inputs
    run: Callable[[object, Path], list[Op]]     # inputs, out dir -> ops (timed)
    epochs: int = 0                             # training epochs per mode
    sizes: dict = field(default_factory=dict)


# -- inputs --------------------------------------------------------------------

def scenario_config(seed: int, mode: str, *, duration: float, demand_vph: float,
                    logs: bool = False) -> harness.ScenarioConfig:
    attack = None if mode == "free" else AttackConfig(mode=AttackMode(mode))
    return harness.ScenarioConfig(seed=seed, duration=duration, demand_vph=demand_vph,
                                  attack=attack, log_bsm=logs, log_trajectories=logs)


def experiment_config(seed: int, *, epochs: int, duration: float | None = None) -> dict:
    """`configs/experiment.json` with the seed and a short training profile
    (and, for the benchmark's own tests, a shorter duration)."""
    cfg = json.loads(EXPERIMENT_CONFIG.read_text())
    cfg["seed"] = seed
    cfg["detector"]["training"].update(epochs=epochs, seed=seed)
    if duration is not None:
        cfg["duration"] = duration
    return cfg


# -- checks --------------------------------------------------------------------

def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _scenario_check(cfg: harness.ScenarioConfig, out: Path) -> Callable[[], list[str]]:
    def check() -> list[str]:
        problems = []
        seconds = int(round(cfg.duration))
        if len(_rows(out / "features.csv")) != seconds + 1:
            problems.append(f"{out.name}/features.csv: expected {seconds} rows")
        n_nodes = cfg.geometry.intersections
        if len(_rows(out / "phases.csv")) != seconds * n_nodes + 1:
            problems.append(f"{out.name}/phases.csv: expected {seconds * n_nodes} rows")
        injects = sum(1 for r in _rows(out / "attack.csv")[1:] if r[2] == "inject")
        if (injects > 0) != (cfg.attack is not None):
            problems.append(f"{out.name}/attack.csv: {injects} injections")
        manifest = json.loads((out / "manifest.json").read_text())
        if manifest["seed"] != cfg.seed or manifest["entered"] <= 0:
            problems.append(f"{out.name}/manifest.json: wrong seed or no traffic")
        return problems
    return check


def scenario_op(name: str, cfg: harness.ScenarioConfig, out: Path) -> Op:
    files = [out / f for f in SCENARIO_FILES]
    if cfg.log_bsm:
        files.append(out / "bsm.csv")
    if cfg.log_trajectories:
        files.append(out / "trajectories.csv")
    return Op(name, files, _scenario_check(cfg, out))


def _training_check(path: Path, epochs: int) -> Callable[[], list[str]]:
    def check() -> list[str]:
        rows = _rows(path)[1:]
        if len(rows) != epochs or not all(math.isfinite(float(x)) for r in rows
                                          for x in r[1:]):
            return [f"{path.name}: expected {epochs} finite epochs"]
        return []
    return check


def _replay_check(path: Path, report: Path, stdout: str) -> Callable[[], list[str]]:
    def check() -> list[str]:
        problems = []
        rows = _rows(path)[1:]
        if not rows or any(r[5] not in ("0", "1") for r in rows):
            problems.append(f"{path.name}: no verdicts or a bad flag column")
        if len(_rows(report)) != 1 + len(DETECTOR_MODES):
            problems.append("report.csv: expected one row per detector mode")
        if "paired slow-injection experiment" not in stdout:
            problems.append("experiment printed no report")
        return problems
    return check


# -- workloads -----------------------------------------------------------------

def closed_loop(duration: float = 3600.0) -> Workload:
    def prepare(seed, work):
        return {m: scenario_config(seed, m, duration=duration, demand_vph=150.0)
                for m in MODES}

    def run(cfgs, out):
        ops = []
        for mode, cfg in cfgs.items():
            harness.run_scenario(cfg, out / mode)
            ops.append(scenario_op(f"scenario/{mode}", cfg, out / mode))
        return ops
    return Workload("closed_loop", prepare, run,
                    sizes={"duration_s": duration, "demand_vph": 150.0})


def saturated(duration: float = 1800.0) -> Workload:
    def prepare(seed, work):
        return scenario_config(seed, "free", duration=duration, demand_vph=400.0,
                               logs=True)

    def run(cfg, out):
        harness.run_scenario(cfg, out / "free")
        return [scenario_op("scenario/free", cfg, out / "free")]
    return Workload("saturated", prepare, run, sizes={"duration_s": duration,
                                                       "demand_vph": 400.0})


def experiment(epochs: int = 3, duration: float | None = None) -> Workload:
    def prepare(seed, work):
        work.mkdir(parents=True, exist_ok=True)
        path = work / "experiment.json"
        path.write_text(json.dumps(experiment_config(seed, epochs=epochs,
                                                     duration=duration), indent=2))
        cfg = harness.ScenarioConfig.from_json(path)
        free_cfg = harness.ScenarioConfig.from_dict({**cfg.to_dict(), "attack": None})
        return path, cfg, free_cfg

    def run(inputs, out):
        path, cfg, free_cfg = inputs
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["experiment", "--config", str(path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"atsclab experiment exited with {code}")
        ops = [scenario_op("scenario/free", free_cfg, out / "attack_free"),
               scenario_op("scenario/physical", cfg, out / "attack")]
        for mode in DETECTOR_MODES:
            loss = out / f"loss_{mode}.csv"
            ops.append(Op(f"training/{mode}", [loss], _training_check(loss, epochs)))
        for mode in DETECTOR_MODES:
            verdicts = out / f"verdicts_{mode}.csv"
            ops.append(Op(f"replay/{mode}", [verdicts, out / "report.csv"],
                          _replay_check(verdicts, out / "report.csv",
                                        stdout.getvalue())))
        return ops
    sizes = {"config": "configs/experiment.json", "epochs": epochs}
    if duration is not None:
        sizes["duration_s"] = duration
    return Workload("experiment", prepare, run, epochs=epochs, sizes=sizes)


WORKLOADS = {"closed_loop": closed_loop, "saturated": saturated,
             "experiment": experiment}


# -- digests -------------------------------------------------------------------

def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(ops: list[Op], out: Path) -> dict[str, str]:
    """SHA-256 of every artifact the ops are judged by, keyed by relative path."""
    return {p.relative_to(out).as_posix(): sha256(p)
            for op in ops for p in op.files}
