"""Prediction-error attack detection.

Builds lookback windows from an attack-free feature log, trains the recurrent
predictor of the next-second EB vehicle count, fixes an integer error threshold
(ceiling of the maximum absolute validation error), and streams verdicts: a
single strict exceedance flags.
"""
from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError
from .msgplane import FeatureSample
from .neuralnet import LstmRegressor, NormalizationSpec, TrainingConfig, train

TRAIN_FRACTION = 0.7
REPLAY_CHUNK = 256    # windows per replay forward; bounds the hidden states held


class FeatureMode(Enum):
    BASELINE = "baseline"    # EB count + EB average waiting time
    UPSTREAM = "upstream"    # baseline + upstream feeder counts and waiting sums

    @property
    def dimension(self) -> int:
        return 2 if self is FeatureMode.BASELINE else 8


def feature_vector(sample: FeatureSample, mode: FeatureMode) -> np.ndarray:
    base = [float(sample.eb_count), sample.eb_aawt]
    if mode is FeatureMode.BASELINE:
        return np.array(base)
    if len(sample.upstream_counts) != 3:
        raise DataError("upstream mode needs 3 feeder streams in the feature log")
    return np.array(base + [float(c) for c in sample.upstream_counts]
                    + list(sample.upstream_awt))


@dataclass
class WindowDataset:
    X_train: np.ndarray     # (N, L, F), normalized
    y_train: np.ndarray     # (N,), normalized
    X_val: np.ndarray
    y_val: np.ndarray
    y_val_raw: np.ndarray   # vehicles
    norm: NormalizationSpec


def _is_gap(prev_t: float, t: float) -> bool:
    """True unless `t` is the second right after `prev_t`."""
    return abs(t - prev_t - 1.0) > 1e-9


def build_dataset(samples: list[FeatureSample], mode: FeatureMode,
                  lookback: int, split: float = TRAIN_FRACTION) -> WindowDataset:
    """Chronological 70/30 split; windows of `lookback` seconds predict the
    next-second EB count. Normalization is fitted on the training portion only.
    """
    n = len(samples)
    boundary = int(round(n * split))
    if not lookback < boundary < n:
        raise DataError(f"feature log of {n} rows is too short for lookback {lookback}: "
                        f"it leaves no training or no validation window")
    for a, b in zip(samples, samples[1:]):
        if _is_gap(a.t, b.t):
            raise DataError(f"feature log jumps from t={a.t} to t={b.t}; "
                            f"training needs consecutive seconds")
    feats = np.stack([feature_vector(s, mode) for s in samples])
    counts = np.array([float(s.eb_count) for s in samples])

    norm = NormalizationSpec.fit(feats[:boundary], counts[lookback:boundary])
    feats_n = norm.transform(feats)

    def windows(end_lo: int, end_hi: int):
        X = np.stack([feats_n[e - lookback:e] for e in range(end_lo, end_hi)])
        y_raw = counts[end_lo:end_hi]
        return X, norm.transform_target(y_raw), y_raw

    X_tr, y_tr, _ = windows(lookback, boundary)
    X_va, y_va, y_va_raw = windows(boundary, n)
    return WindowDataset(X_train=X_tr, y_train=y_tr, X_val=X_va, y_val=y_va,
                         y_val_raw=y_va_raw, norm=norm)


@dataclass
class DetectionThreshold:
    raw: float          # max absolute validation error, vehicles
    effective: int      # ceiling of raw

    @classmethod
    def from_raw(cls, raw: float) -> "DetectionThreshold":
        return cls(raw=raw, effective=int(math.ceil(raw)))


@dataclass
class DetectorSpec:
    mode: FeatureMode
    model: LstmRegressor
    norm: NormalizationSpec
    threshold: DetectionThreshold
    lookback: int


def compute_threshold(model: LstmRegressor, norm: NormalizationSpec,
                      X_val: np.ndarray, y_val_raw: np.ndarray) -> DetectionThreshold:
    if len(X_val) == 0:
        raise DataError("cannot fix a threshold from an empty validation set")
    pred = norm.inverse_target(model.forward(X_val))
    raw = float(np.max(np.abs(pred - y_val_raw)))
    return DetectionThreshold.from_raw(raw)


def train_detector(samples: list[FeatureSample], mode: FeatureMode,
                   cfg: TrainingConfig, hidden1: int = 128, hidden2: int = 8):
    """Full offline pipeline on an attack-free log. Returns (spec, dataset, curves)."""
    ds = build_dataset(samples, mode, cfg.lookback)
    model = LstmRegressor(mode.dimension, hidden1, hidden2, seed=cfg.seed)
    curves = train(model, ds.X_train, ds.y_train, cfg, ds.X_val, ds.y_val)
    threshold = compute_threshold(model, ds.norm, ds.X_val, ds.y_val_raw)
    spec = DetectorSpec(mode=mode, model=model, norm=ds.norm,
                        threshold=threshold, lookback=cfg.lookback)
    return spec, ds, curves


@dataclass(frozen=True)
class DetectionVerdict:
    t: float
    observed: float
    predicted: float
    abs_error: float
    flagged: bool
    valid: bool = True      # False for seconds lost to a stream gap


def detect(spec: DetectorSpec, samples: list[FeatureSample]) -> list[DetectionVerdict]:
    """Streaming verdicts: predict each second's EB count from the trailing
    window and flag iff |observed - predicted| strictly exceeds the threshold.
    Samples lie on the 1 s grid; any other step between two is a stream gap.

    Windows are scored REPLAY_CHUNK at a time; every verdict is bit-identical
    to a forward pass over its window alone.
    """
    if not samples:
        return []
    L = spec.lookback
    feats_n = spec.norm.transform(np.stack([feature_vector(s, spec.mode)
                                            for s in samples]))
    slots: list[tuple[int, bool]] = []    # (sample index, valid) per verdict
    start = 0     # first sample of the current gap-free run
    for i, s in enumerate(samples):
        gap = i > 0 and _is_gap(samples[i - 1].t, s.t)
        if gap:
            start = i   # a missing second invalidates the trailing window
        if i - start >= L:
            slots.append((i, True))
        elif gap:
            slots.append((i, False))

    ends = [i for i, valid in slots if valid]
    pred = np.empty(len(ends))
    for lo in range(0, len(ends), REPLAY_CHUNK):
        chunk = ends[lo:lo + REPLAY_CHUNK]
        # (N, 1, L, F) keeps each window a 1-row matrix: matmul runs one gemv per
        # window, as for a lone window; an (N, L, F) gemm batch moves the last bits
        X = np.stack([feats_n[i - L:i] for i in chunk])[:, None]
        pred[lo:lo + len(chunk)] = spec.model.forward(X)[:, 0]
    preds = iter(spec.norm.inverse_target(pred).tolist())

    verdicts: list[DetectionVerdict] = []
    for i, valid in slots:
        s = samples[i]
        if valid:
            p = next(preds)
            err = abs(s.eb_count - p)
            verdicts.append(DetectionVerdict(
                t=s.t, observed=float(s.eb_count), predicted=p,
                abs_error=err, flagged=err > spec.threshold.effective))
        else:
            verdicts.append(DetectionVerdict(t=s.t, observed=float(s.eb_count),
                                             predicted=float("nan"),
                                             abs_error=float("nan"),
                                             flagged=False, valid=False))
    return verdicts


@dataclass
class DetectionReport:
    first_flag: float | None
    latency: float | None           # first flag - attack start; None if undetected
    false_positives: int            # flags strictly before attack start
    surges: list[tuple[float, float]]
    surges_flagged: list[bool]


def injection_surges(inject_times: list[float], max_gap: float = 30.0,
                     min_span: float = 60.0) -> list[tuple[float, float]]:
    """Cluster injection events into sustained surges.

    Consecutive injections separated by at most `max_gap` seconds form one
    cluster; clusters spanning at least `min_span` seconds are surges.
    """
    if not inject_times:
        return []
    ts = sorted(inject_times)
    clusters = [[ts[0], ts[0]]]
    for t in ts[1:]:
        if t - clusters[-1][1] <= max_gap:
            clusters[-1][1] = t
        else:
            clusters.append([t, t])
    return [(a, b) for a, b in clusters if b - a >= min_span]


def detection_report(verdicts: list[DetectionVerdict], inject_times: list[float],
                     attack_start: float | None,
                     surge_slack: float = 30.0) -> DetectionReport:
    flags = [v.t for v in verdicts if v.valid and v.flagged]
    surges = injection_surges(inject_times)
    surges_flagged = [any(a <= t <= b + surge_slack for t in flags)
                      for a, b in surges]
    if attack_start is None:
        return DetectionReport(first_flag=flags[0] if flags else None, latency=None,
                               false_positives=len(flags), surges=surges,
                               surges_flagged=surges_flagged)
    post = [t for t in flags if t >= attack_start]
    first = post[0] if post else None
    return DetectionReport(
        first_flag=first,
        latency=(first - attack_start) if first is not None else None,
        false_positives=sum(1 for t in flags if t < attack_start),
        surges=surges, surges_flagged=surges_flagged)


# -- persistence -------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_detector(spec: DetectorSpec, path) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "mode": spec.mode.value,
        "input_dim": spec.model.input_dim,
        "hidden1": spec.model.hidden1,
        "hidden2": spec.model.hidden2,
        "lookback": spec.lookback,
        "threshold_raw": spec.threshold.raw,
        "threshold_effective": spec.threshold.effective,
        "target_min": spec.norm.target_min,
        "target_max": spec.norm.target_max,
    }
    np.savez(path, meta=json.dumps(meta, sort_keys=True),
             feat_min=spec.norm.feat_min, feat_max=spec.norm.feat_max,
             **spec.model.state_arrays())


def _meta_int(meta: dict, key: str, least: int | None = None) -> int:
    value = meta[key]
    if type(value) is not int or (least is not None and value < least):
        raise DataError(f"checkpoint {key} {value!r} is not an integer"
                        + ("" if least is None else f" >= {least}"))
    return value


def _meta_number(meta: dict, key: str) -> float:
    value = meta[key]
    if type(value) not in (int, float) or not math.isfinite(value):
        raise DataError(f"checkpoint {key} {value!r} is not a finite number")
    return value


def _feature_bounds(data, key: str, dim: int) -> np.ndarray:
    arr = data[key]
    if arr.dtype.kind != "f" or arr.shape != (dim,) or not np.isfinite(arr).all():
        raise DataError(f"checkpoint {key} is not {dim} finite floats")
    return arr


def load_detector(path) -> DetectorSpec:
    try:
        # np.load leaks a file it opened itself when the zip is unreadable
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta.get("version") != CHECKPOINT_VERSION:
                raise DataError(f"unsupported checkpoint version {meta.get('version')}")
            dim = _meta_int(meta, "input_dim", 1)
            model = LstmRegressor.from_state(dim, _meta_int(meta, "hidden1", 1),
                                             _meta_int(meta, "hidden2", 1),
                                             {k: data[k] for k in data.files
                                              if k not in ("meta", "feat_min", "feat_max")})
            norm = NormalizationSpec(feat_min=_feature_bounds(data, "feat_min", dim),
                                     feat_max=_feature_bounds(data, "feat_max", dim),
                                     target_min=_meta_number(meta, "target_min"),
                                     target_max=_meta_number(meta, "target_max"))
            return DetectorSpec(mode=FeatureMode(meta["mode"]), model=model, norm=norm,
                                threshold=DetectionThreshold(
                                    raw=_meta_number(meta, "threshold_raw"),
                                    effective=_meta_int(meta, "threshold_effective")),
                                lookback=_meta_int(meta, "lookback", 1))
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read detector checkpoint {path}: {exc}") from exc
