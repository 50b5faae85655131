"""Scenario configuration, the per-second simulation loop, deterministic CSV
logging, experiment orchestration and plot emission.

Config classes are frozen dataclasses that check their values when built: a
config that constructs is one that runs, and `dataclasses.replace` checks a variant.

Loop order each second: world step -> attacker callback -> BSM emission ->
aggregation into stream slots -> feature sampling (which folds the subject's
slots per movement) and its feature row -> controller ticks (which fold and
compute AAWT only to choose a green) and their phase rows -> per-vehicle log
lines. All artifact CSVs carry a header row, fixed column order and
17-significant-digit floats, so identical (config, seed) pairs produce
byte-identical files. Every per-second CSV is written as the run goes, each
second's rows before the next second starts, so memory stays flat at any
duration; `attack.csv` is written at the end, and the verdict CSVs format
each row as it is written, not held as a list.
An output directory whose nearest existing part is not a directory is a
ConfigError before a run creates anything.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from math import copysign
from operator import attrgetter
from pathlib import Path

from . import atsc, msgplane
from .attacker import (AttackConfig, AttackMode, ControllerAwarePolicy,
                       FixedRatePolicy, SlowPoisoningAttacker)
from .detector import (DetectorSpec, FeatureMode, detect, detection_report,
                       injection_surges, train_boundary, train_detector)
from .errors import ConfigError, DataError, bounded, check_ranges
from .microsim import REAL, WAITING_SPEED, CarFollowingParams, TurnSplit, World
from .msgplane import FeatureSample, emit_bsm, sample_features
from .neuralnet import TrainingConfig
from .roadnet import GeometryConfig, Heading, Movement, build_arterial_network
from .svgplot import ChartStyle, Series, render_svg

OUTPUT_ROOT_ENV = "ATSCLAB_OUT"
_POLICY_KINDS = {c.kind: c for c in (FixedRatePolicy, ControllerAwarePolicy)}


def fmt(x: float) -> str:
    """17-significant-digit float text; bit-stable round trip."""
    return format(float(x), ".17g")


FMT_MEMO_SIZE = 4096    # texts a `FloatTexts` holds before it is cleared
ZERO_TEXTS = {1.0: fmt(0.0), -1.0: fmt(-0.0)}   # keyed by copysign(1.0, zero)
# `phases.csv` texts of a phase and of the green it carries (none before the first)
PHASE_TEXTS = {kind: kind.value for kind in atsc.PhaseKind}
MOVEMENT_TEXTS = {None: "", **{m: m.value for m in Movement}}


class FloatTexts(dict):
    """`texts[x]` is `fmt(x)`, made once while it stays in this bounded memo.

    The per-vehicle logs repeat their floats: a trajectory row repeats its
    BSM row's position and speed, a standing vehicle logs a speed of 0, and
    waits are whole seconds, as are the seconds in phase of `phases.csv`.
    The memo is cleared once it holds
    `FMT_MEMO_SIZE` texts, so it stays small at any duration. Zeros and NaN
    are formatted afresh and never stored: a key cannot tell 0.0 from -0.0,
    and a NaN equals no other NaN, so it would only fill the memo.
    """

    def __missing__(self, x: float) -> str:
        text = f"{x:.17g}"    # `fmt(x)`, without its two calls
        if x and x == x:
            if len(self) >= FMT_MEMO_SIZE:
                self.clear()
            self[x] = text
        return text

    def text(self, x: float) -> str:
        """`fmt(x)`: a zero takes its text by sign from ZERO_TEXTS, without
        a miss, and any other float from the memo."""
        return self[x] if x else ZERO_TEXTS[copysign(1.0, x)]


@dataclass(frozen=True)
class DetectorSettings:
    """`mode` must be "baseline": experiments train both feature modes. It
    stays only as a manifest key until the next benchmark re-record
    (ROADMAP item 1)."""
    mode: str = "baseline"
    training: TrainingConfig = field(default_factory=TrainingConfig)
    hidden1: int = bounded(128, at_least=1)
    hidden2: int = bounded(8, at_least=1)

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.mode != "baseline":
            raise ConfigError(f"mode={self.mode!r} is not read; "
                              f"experiments train both feature modes")


@dataclass(frozen=True)
class ScenarioConfig:
    """One closed-loop run, stepped once per second for `duration` seconds.
    `dt` must be 1.0; it stays only as a manifest key until the next
    benchmark re-record (ROADMAP item 1)."""
    seed: int = bounded(42, at_least=0)
    duration: float = bounded(3600.0, at_least=1)
    warmup: float = bounded(600.0, at_least=0)
    cooldown: float = bounded(600.0, at_least=0)
    dt: float = 1.0
    # vehicles per hour per entry; each entry draws at most one arrival a second
    demand_vph: float = bounded(150.0, at_least=0, at_most=3600)
    turn_split: TurnSplit = field(default_factory=TurnSplit)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    car_following: CarFollowingParams = field(default_factory=CarFollowingParams)
    attack: AttackConfig | None = None
    detector: DetectorSettings = field(default_factory=DetectorSettings)
    cumulative_waiting: bool = False
    log_bsm: bool = False
    log_trajectories: bool = False

    def __post_init__(self) -> None:
        check_ranges(self)
        if self.dt != 1.0:
            raise ConfigError(f"dt={self.dt}: the simulation steps once per second")
        if not float(self.duration).is_integer():
            raise ConfigError(f"duration={self.duration} is not whole seconds")
        if self.warmup + self.cooldown >= self.duration:
            raise ConfigError("warm-up plus cool-down must leave an analysis window")

    @property
    def analysis_start(self) -> float:
        return self.warmup

    @property
    def analysis_end(self) -> float:
        return self.duration - self.cooldown

    def in_analysis(self, t: float) -> bool:
        return self.analysis_start <= t < self.analysis_end

    @property
    def analysis_seconds(self) -> int:
        """How many of the sampled seconds 1..duration the window holds."""
        return sum(map(self.in_analysis, range(1, int(self.duration) + 1)))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        if self.attack is not None:
            d["attack"]["mode"] = self.attack.mode.value
            d["attack"]["policy"] = {"kind": self.attack.policy.kind,
                                     **asdict(self.attack.policy)}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        if isinstance(d, dict) and d.get("attack") is not None:
            d = {**d, "attack": _attack_from_dict(d["attack"])}
        return _from_dict(cls, d, "config")

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


def _from_dict(cls, d, where: str):
    """Build config dataclass `cls` from a parsed JSON object; a nested object
    becomes the class of its field's default, a string an enum member.

    Unknown keys and values whose type differs from the field default's are
    ConfigErrors rather than a TypeError at construction or a wrong run
    later; NaN and infinite numbers, which `json.load` accepts, fail the
    class's own range checks. An error the class raises is prefixed with
    `where`, the object's JSON path.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    defaults = {f.name: f.default if f.default is not MISSING else f.default_factory()
                for f in fields(cls)}
    unknown = set(d) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    kwargs = dict(d)
    for key, value in d.items():
        default = defaults[key]
        if is_dataclass(default) and not is_dataclass(value):   # a built policy passes
            kwargs[key] = _from_dict(type(default), value, f"{where}.{key}")
        elif isinstance(default, Enum) and value in [m.value for m in type(default)]:
            kwargs[key] = type(default)(value)
        elif isinstance(default, Enum) or not _same_type(value, default):
            raise ConfigError(f"{where}.{key} must be {type(default).__name__}, "
                              f"got {value!r}")
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _attack_from_dict(a) -> AttackConfig:
    if isinstance(a, dict) and "policy" in a:
        pol = a["policy"]
        kind = pol.get("kind", ControllerAwarePolicy.kind) if isinstance(pol, dict) else None
        if not isinstance(kind, str) or kind not in _POLICY_KINDS:
            raise ConfigError(f"unknown attack policy {pol!r}")
        a = {**a, "policy": _from_dict(_POLICY_KINDS[kind],
                                       {k: v for k, v in pol.items() if k != "kind"},
                                       "config.attack.policy")}
    return _from_dict(AttackConfig, a, "config.attack")


_JSON_TYPES = {bool: bool, int: int, float: (int, float), str: str}


def _same_type(value, default) -> bool:
    """JSON scalars match the default's type; an int may stand for a float."""
    want = _JSON_TYPES.get(type(default), object)
    return isinstance(value, want) and isinstance(value, bool) == isinstance(default, bool)


@dataclass
class RunArtifacts:
    feature_log: Path
    analysis_samples: list[FeatureSample]
    inject_times: list[float]
    attack_start_abs: float | None
    eb_real_waiting: float       # cumulative real-vehicle waiting on the subject
                                 # EB approach over the analysis window, s


@contextmanager
def _streamed_log(path: Path | None, header: str):
    """The file of a per-second CSV written as the run goes; None without `path`."""
    if path is None:
        yield None
        return
    part = path.with_suffix(".part")    # becomes `path` once the block completes
    try:
        with open(part, "w", newline="") as fh:
            fh.write(header)
            yield fh
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)    # a run that raised leaves no partial log


def _output_dir(out_dir) -> Path:
    """`out_dir` as a path a run can create: its nearest existing part must be
    a directory. Checked before a run creates anything."""
    out = Path(out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output directory {out}: {existing} is not a directory")
    return out


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def run_scenario(cfg: ScenarioConfig, out_dir) -> RunArtifacts:
    """Execute the full closed loop and write every artifact under `out_dir`."""
    out = _output_dir(out_dir)
    net = build_arterial_network(cfg.geometry)
    world = World(net, cfg.car_following, cfg.demand_vph, cfg.turn_split,
                  seed=cfg.seed, cumulative_waiting_mode=cfg.cumulative_waiting)
    controllers = {n: atsc.SignalController(n) for n in net.nodes}
    row_map = {n: frozenset() for n in controllers}

    attacker = (SlowPoisoningAttacker(cfg.attack, net, cfg.car_following,
                                      start_offset=cfg.analysis_start)
                if cfg.attack is not None else None)
    attack_start_abs = attacker.start_abs if attacker is not None else None
    out.mkdir(parents=True, exist_ok=True)

    eb_edge = net.approach_edge(net.subject_node, Heading.EAST)
    feeders = msgplane.feeder_streams(net)
    # overlay threat model: under a phantom attack the deployed controller
    # keeps acting on genuine telemetry; fakes exist only in the
    # logged/monitored stream
    phantom = cfg.attack is not None and cfg.attack.mode is AttackMode.PHANTOM

    analysis: list[FeatureSample] = []
    eb_real_waiting = 0.0
    last_sample: FeatureSample | None = None
    bsm_log = out / "bsm.csv" if cfg.log_bsm else None
    trajectory_log = out / "trajectories.csv" if cfg.log_trajectories else None
    texts = FloatTexts()
    by_vid = attrgetter("vid")
    feature_log = out / "features.csv"
    with (_streamed_log(feature_log, ",".join(msgplane.feature_header(net)) + "\n") as feats,
          _streamed_log(out / "phases.csv",
                        "t,node,phase,movement,seconds_in_phase\n") as phases,
          _streamed_log(bsm_log, "t,vehicle_id,edge_id,lane_pos,speed,waiting,"
                                 "next_edge\n") as bsm,
          _streamed_log(trajectory_log, "t,vehicle_id,edge_id,lane,pos,speed\n") as traj):
        for k in range(1, int(cfg.duration) + 1):
            t = float(k)
            world.step(row_map)

            if cfg.in_analysis(t):
                for v in world.vehicles.values():
                    if (v.speed <= WAITING_SPEED and v.route[v.route_index] == eb_edge
                            and v.provenance == REAL):
                        eb_real_waiting += 1.0

            if phantom:
                attacker.on_second_phantom(t, world, last_sample, row_map)
            elif attacker is not None:
                attacker.on_second_physical(t, world, last_sample)

            vehicles = sorted(world.vehicles.values(), key=by_vid)
            real_records = [emit_bsm(v, t) for v in vehicles]
            control_stats = msgplane.node_stream_stats(real_records, net, t)
            if phantom:
                # the monitored aggregate: the real one continued with the fakes
                fakes = attacker.fake_bsms(t)
                records = real_records + fakes
                stats = msgplane.node_stream_stats(fakes, net, t, base=control_stats)
            else:
                records, stats = real_records, control_stats
            attack_active = attack_start_abs is not None and t >= attack_start_abs
            sample = sample_features(stats, net, feeders, t, attack_active=attack_active)
            if cfg.in_analysis(t):
                analysis.append(sample)
            last_sample = sample
            feats.write(",".join(msgplane.feature_row(sample, texts.text)) + "\n")

            ft = fmt(t)
            for n, ctrl in controllers.items():
                at = control_stats[n]
                row_map[n] = ctrl.tick(at.counts, at.awt, t)
                phases.write(f"{ft},{n},{PHASE_TEXTS[ctrl.kind]},"
                             f"{MOVEMENT_TEXTS[ctrl.movement]},{texts[t - ctrl.phase_entry]}\n")

            # one line per row of `fmt` fields, and no field needs csv quoting;
            # zero speeds and waits, about half of them, take their text by
            # sign from ZERO_TEXTS, as `texts` never stores a zero
            if bsm is not None:
                bsm.write("".join([
                    f"{ft},{vid},{edge},{texts[pos]},"
                    f"{texts[speed] if speed else ZERO_TEXTS[copysign(1.0, speed)]},"
                    f"{texts[wait] if wait else ZERO_TEXTS[copysign(1.0, wait)]},{nxt}\n"
                    for _, vid, edge, pos, speed, wait, nxt in records]))
            if traj is not None:
                traj.write("".join([
                    f"{ft},{vid},{edge},{v.lane},{texts[pos]},"
                    f"{texts[speed] if speed else ZERO_TEXTS[copysign(1.0, speed)]}\n"
                    for v, (_, vid, edge, pos, speed, _, _) in zip(vehicles, real_records)
                    if v.provenance == REAL]))

    events = attacker.events if attacker is not None else []
    _write_csv(out / "attack.csv", ["t", "fake_id", "action", "mode", "policy_state"],
               [[fmt(e.t), e.fake_id, e.action, e.mode, e.policy_state]
                for e in events])

    with open(out / "manifest.json", "w") as fh:
        json.dump({"config": cfg.to_dict(), "config_hash": cfg.config_hash(),
                   "seed": cfg.seed,
                   "entered": world.entered, "exited": world.exited},
                  fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")

    inject_times = [e.t for e in events if e.action == "inject"]
    return RunArtifacts(feature_log=feature_log, analysis_samples=analysis,
                        inject_times=inject_times,
                        attack_start_abs=attack_start_abs,
                        eb_real_waiting=eb_real_waiting)


def write_verdicts(path, spec: DetectorSpec, verdicts) -> None:
    """The verdict CSV: one row per valid verdict, in replay order."""
    _write_csv(path, ["t", "observed", "predicted", "abs_error", "threshold", "flagged"],
               ([fmt(v.t), fmt(v.observed), fmt(v.predicted), fmt(v.abs_error),
                 str(spec.threshold.effective), "1" if v.flagged else "0"]
                for v in verdicts if v.valid))


def load_feature_log(path) -> list[FeatureSample]:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"cannot read feature log {path}: {exc}") from exc
    if header is None:
        raise DataError(f"{path} is empty")
    return msgplane.parse_feature_rows(header, rows)


def run_experiment(cfg: ScenarioConfig, out_dir) -> Path:
    """Paired attack-free / attack runs sharing one seed, both detectors trained
    on the attack-free log, then one pass per detector for its loss CSV, online
    verdicts on the attack log, report lines and charts. Returns `report.txt`.
    """
    if cfg.attack is None:
        raise ConfigError("experiment config needs an attack section")
    if cfg.geometry.intersections < 2:
        raise ConfigError("the upstream detector needs geometry.intersections >= 2")
    if train_boundary(cfg.analysis_seconds, cfg.detector.training.lookback) is None:
        raise ConfigError(f"an analysis window of {cfg.analysis_seconds} s is too short to "
                          f"train and validate with lookback {cfg.detector.training.lookback}")
    out = _output_dir(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    free = run_scenario(replace(cfg, attack=None), out / "attack_free")
    attacked = run_scenario(cfg, out / "attack")
    # (spec, curves) per mode; each training's window dataset is dropped at once
    trained = {mode: train_detector(free.analysis_samples, mode, cfg.detector.training,
                                    hidden1=cfg.detector.hidden1,
                                    hidden2=cfg.detector.hidden2)[::2]
               for mode in FeatureMode}

    # surge accounting is scoped to the analysis window: verdicts only exist
    # there, so later injections cannot be flagged by construction
    window_injects = [t for t in attacked.inject_times if cfg.in_analysis(t)]
    free_counts = [s.eb_count for s in free.analysis_samples]
    att_counts = [s.eb_count for s in attacked.analysis_samples]
    ts = [s.t for s in attacked.analysis_samples]

    lines = ["paired slow-injection experiment", "=" * 40]
    lines.append(f"seed: {cfg.seed}   attack mode: {cfg.attack.mode.value}")
    lines.append(f"attack start (absolute t): {attacked.attack_start_abs}")
    lines.append(f"EB mean count attack-free: {sum(free_counts) / len(free_counts):.3f}")
    lines.append(f"EB mean count under attack: {sum(att_counts) / len(att_counts):.3f}")
    lines.append(f"EB real-vehicle waiting attack-free: {free.eb_real_waiting:.1f} s")
    lines.append(f"EB real-vehicle waiting under attack: {attacked.eb_real_waiting:.1f} s")
    csv_rows = []
    for mode, (spec, curve) in trained.items():
        epochs = list(range(1, len(curve.train_mae) + 1))
        _write_csv(out / f"loss_{mode.value}.csv", ["epoch", "train_mae", "val_mae"],
                   [[str(e), fmt(tr), fmt(va)] for e, tr, va
                    in zip(epochs, curve.train_mae, curve.val_mae)])
        verdicts = detect(spec, attacked.analysis_samples)
        write_verdicts(out / f"verdicts_{mode.value}.csv", spec, verdicts)
        rep = detection_report(verdicts, window_injects, attacked.attack_start_abs)
        lines.append(f"-- {mode.value} detector --")
        lines.append(f"threshold: raw {spec.threshold.raw:.3f} -> "
                     f"effective {spec.threshold.effective}")
        lines.append(f"first flag: {rep.first_flag}   latency: {rep.latency}")
        lines.append(f"false positives before attack: {rep.false_positives}")
        lines.append(f"surges: {len(rep.surges)}   flagged: {sum(rep.surges_flagged)}")
        csv_rows.append([mode.value, fmt(spec.threshold.raw),
                         str(spec.threshold.effective),
                         fmt(rep.first_flag) if rep.first_flag is not None else "",
                         fmt(rep.latency) if rep.latency is not None else "",
                         str(rep.false_positives), str(len(rep.surges)),
                         str(sum(rep.surges_flagged))])
        vts = [v.t for v in verdicts if v.valid]
        render_svg([Series("absolute error", vts,
                           [v.abs_error for v in verdicts if v.valid]),
                    Series("threshold", vts,
                           [float(spec.threshold.effective)] * len(vts))],
                   out / f"error_{mode.value}.svg",
                   ChartStyle(title=f"{mode.value} prediction error",
                              xlabel="time (s)", ylabel="vehicles"))
        render_svg([Series("train MAE", epochs, curve.train_mae),
                    Series("val MAE", epochs, curve.val_mae)],
                   out / f"loss_{mode.value}.svg",
                   ChartStyle(title=f"{mode.value} loss profile",
                              xlabel="epoch", ylabel="MAE (normalized)"))
    report_txt = out / "report.txt"
    report_txt.write_text("\n".join(lines) + "\n")
    _write_csv(out / "report.csv", ["mode", "threshold_raw", "threshold_effective",
                                    "first_flag", "latency", "false_positives",
                                    "surges", "surges_flagged"], csv_rows)

    render_svg([Series("attack-free EB count", ts, [float(c) for c in free_counts]),
                Series("under-attack EB count", ts, [float(c) for c in att_counts])],
               out / "eb_counts.svg",
               ChartStyle(title="Subject EB approach vehicle count",
                          xlabel="time (s)", ylabel="vehicles"),
               spans=injection_surges(window_injects))
    return report_txt


def default_output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
