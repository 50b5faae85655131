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
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .msgplane import FeatureSample
from .neuralnet import LstmRegressor, NormalizationSpec, TrainingConfig, train

TRAIN_FRACTION = 0.7
SURGE_MAX_GAP = 30.0    # s between injections of one surge, at most
SURGE_MIN_SPAN = 60.0   # s from a surge's first injection to its last, at least
SURGE_SLACK = 30.0      # s after a surge's last injection in which a flag still counts


class FeatureMode(Enum):
    BASELINE = "baseline"    # EB count + EB average waiting time
    UPSTREAM = "upstream"    # baseline + upstream feeder counts and waiting sums

    @property
    def dimension(self) -> int:
        return 2 if self is FeatureMode.BASELINE else 8


def feature_matrix(samples: list[FeatureSample], mode: FeatureMode) -> np.ndarray:
    """The (N, mode.dimension) features of `samples`, one row per second;
    training and replay both take their `windows` from it."""
    if mode is FeatureMode.BASELINE:
        rows = [(s.eb_count, s.eb_aawt) for s in samples]
    elif samples and len(samples[0].upstream_counts) != 3:   # one header per log
        raise DataError("upstream mode needs 3 feeder streams in the feature log")
    else:
        rows = [(s.eb_count, s.eb_aawt, *s.upstream_counts, *s.upstream_awt)
                for s in samples]
    return np.array(rows, dtype=float).reshape(len(samples), mode.dimension)


def windows(feats: np.ndarray, lookback: int) -> np.ndarray:
    """(n - lookback + 1, lookback, F), a read-only view of `feats`: window k is
    the `lookback` rows before row k + lookback, the row it predicts."""
    return sliding_window_view(feats, lookback, axis=0).swapaxes(1, 2)


@dataclass
class WindowDataset:
    X_train: np.ndarray     # (N, L, F), normalized; X_train and X_val are
                            # read-only views of one `windows` matrix
    y_train: np.ndarray     # (N,), normalized
    X_val: np.ndarray
    y_val: np.ndarray
    y_val_raw: np.ndarray   # vehicles
    norm: NormalizationSpec


def _is_gap(prev_t: float, t: float) -> bool:
    """True unless `t` is the second right after `prev_t`."""
    return abs(t - prev_t - 1.0) > 1e-9


def train_boundary(n: int, lookback: int) -> int | None:
    """The first validation row of an `n`-row log split chronologically 70/30,
    or None if the split leaves no training or no validation window."""
    boundary = int(round(n * TRAIN_FRACTION))
    return boundary if lookback < boundary < n else None


def build_dataset(samples: list[FeatureSample], mode: FeatureMode,
                  lookback: int) -> WindowDataset:
    """Chronological 70/30 split; `windows` of `lookback` seconds of the
    `feature_matrix` predict its next-second EB count. Normalization is fitted
    on the training portion only."""
    n = len(samples)
    boundary = train_boundary(n, lookback)
    if boundary is None:
        raise DataError(f"feature log of {n} rows is too short for lookback {lookback}: "
                        f"it leaves no training or no validation window")
    for a, b in zip(samples, samples[1:]):
        if _is_gap(a.t, b.t):
            raise DataError(f"feature log jumps from t={a.t} to t={b.t}; "
                            f"training needs consecutive seconds")
    feats = feature_matrix(samples, mode)
    counts = feats[:, 0]

    norm = NormalizationSpec.fit(feats[:boundary], counts[lookback:boundary])
    X = windows(norm.transform(feats), lookback)
    return WindowDataset(
        X_train=X[:boundary - lookback],
        y_train=norm.transform_target(counts[lookback:boundary]),
        X_val=X[boundary - lookback:n - lookback],
        y_val=norm.transform_target(counts[boundary:]),
        y_val_raw=counts[boundary:], norm=norm)


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


def compute_threshold(norm: NormalizationSpec, val_pred: np.ndarray,
                      y_val_raw: np.ndarray) -> DetectionThreshold:
    """The threshold from the trained model's normalized predictions of the
    validation windows, as `train` keeps them from its last epoch."""
    if len(val_pred) == 0:
        raise DataError("cannot fix a threshold from an empty validation set")
    pred = norm.inverse_target(val_pred)
    raw = float(np.max(np.abs(pred - y_val_raw)))
    return DetectionThreshold.from_raw(raw)


def train_detector(samples: list[FeatureSample], mode: FeatureMode,
                   cfg: TrainingConfig, hidden1: int = 128, hidden2: int = 8):
    """Full offline pipeline on an attack-free log. Returns (spec, dataset, curves)."""
    ds = build_dataset(samples, mode, cfg.lookback)
    model = LstmRegressor(mode.dimension, hidden1, hidden2, seed=cfg.seed)
    curves = train(model, ds.X_train, ds.y_train, cfg, ds.X_val, ds.y_val)
    threshold = compute_threshold(ds.norm, curves.val_pred, ds.y_val_raw)
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
    Samples lie on the 1 s grid; any other step between two is a stream gap,
    whose second gets an invalid verdict with a NaN prediction and error.

    The valid `windows` of the `feature_matrix`, as training takes them, go to
    one `forward` call, each as a 1-row matrix, scored FORWARD_CHUNK at a time;
    every verdict is bit-identical to a forward pass over its window alone."""
    L = spec.lookback
    feats_n = spec.norm.transform(feature_matrix(samples, spec.mode))
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

    ends = np.array([i for i, valid in slots if valid], dtype=int)
    # (N, 1, L, F) keeps each window a 1-row matrix: matmul runs one gemv per
    # window, as for a lone window; an (N, L, F) gemm batch moves the last bits
    preds = np.full(len(samples), np.nan)
    if len(ends):   # a log shorter than one window has no view of windows
        preds[ends] = spec.norm.inverse_target(
            spec.model.forward(windows(feats_n, L)[ends - L][:, None])[:, 0])
    preds = preds.tolist()

    verdicts: list[DetectionVerdict] = []
    for i, valid in slots:
        s = samples[i]
        err = abs(s.eb_count - preds[i])    # NaN, and so unflagged, for a gap
        verdicts.append(DetectionVerdict(
            t=s.t, observed=float(s.eb_count), predicted=preds[i], abs_error=err,
            flagged=err > spec.threshold.effective, valid=valid))
    return verdicts


@dataclass
class DetectionReport:
    first_flag: float | None
    latency: float | None           # first flag - attack start; None if undetected
    false_positives: int            # flags strictly before attack start, or all
    surges: list[tuple[float, float]]
    surges_flagged: list[bool]


def injection_surges(inject_times: list[float]) -> list[tuple[float, float]]:
    """Cluster injection events into sustained surges.

    Consecutive injections separated by at most SURGE_MAX_GAP seconds form one
    cluster; clusters spanning at least SURGE_MIN_SPAN seconds are surges.
    """
    if not inject_times:
        return []
    ts = sorted(inject_times)
    clusters = [[ts[0], ts[0]]]
    for t in ts[1:]:
        if t - clusters[-1][1] <= SURGE_MAX_GAP:
            clusters[-1][1] = t
        else:
            clusters.append([t, t])
    return [(a, b) for a, b in clusters if b - a >= SURGE_MIN_SPAN]


def detection_report(verdicts: list[DetectionVerdict], inject_times: list[float],
                     attack_start: float | None) -> DetectionReport:
    """Without an attack, every flag is a false positive."""
    flags = [v.t for v in verdicts if v.valid and v.flagged]
    surges = injection_surges(inject_times)
    post = flags if attack_start is None else [t for t in flags if t >= attack_start]
    first = post[0] if post else None
    return DetectionReport(
        first_flag=first,
        latency=None if first is None or attack_start is None else first - attack_start,
        false_positives=len(flags) if attack_start is None else len(flags) - len(post),
        surges=surges,
        surges_flagged=[any(a <= t <= b + SURGE_SLACK for t in flags) for a, b in surges])


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
    # an open file, since `np.savez` appends ".npz" to a path that lacks it
    with open(path, "wb") as fh:
        np.savez(fh, meta=json.dumps(meta, sort_keys=True),
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


def _check_fitted(norm: NormalizationSpec, threshold: DetectionThreshold) -> None:
    """The relations training leaves among a checkpoint's values; one that
    breaks them would replay to verdicts that are silently wrong."""
    if threshold.raw < 0:
        raise DataError(f"checkpoint threshold_raw {threshold.raw!r} is below 0")
    if threshold.effective != math.ceil(threshold.raw):
        raise DataError(f"checkpoint threshold_effective {threshold.effective} is not "
                        f"the ceiling of threshold_raw {threshold.raw!r}")
    if norm.target_min > norm.target_max:
        raise DataError(f"checkpoint target_min {norm.target_min!r} is above "
                        f"target_max {norm.target_max!r}")
    above = np.flatnonzero(norm.feat_min > norm.feat_max)
    if len(above):
        raise DataError(f"checkpoint feat_min is above feat_max at feature {above[0]}")


def load_detector(path) -> DetectorSpec:
    try:
        # np.load leaks a file it opened itself when the zip is unreadable
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if not isinstance(meta, dict):
                raise DataError(f"checkpoint meta {meta!r} is not a JSON object")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise DataError(f"unsupported checkpoint version {meta.get('version')}")
            mode = FeatureMode(meta["mode"])
            dim = _meta_int(meta, "input_dim", 1)
            if dim != mode.dimension:
                raise DataError(f"checkpoint input_dim {dim} is not the {mode.dimension} "
                                f"features of mode {mode.value}")
            model = LstmRegressor.from_state(dim, _meta_int(meta, "hidden1", 1),
                                             _meta_int(meta, "hidden2", 1),
                                             {k: data[k] for k in data.files
                                              if k not in ("meta", "feat_min", "feat_max")})
            norm = NormalizationSpec(feat_min=_feature_bounds(data, "feat_min", dim),
                                     feat_max=_feature_bounds(data, "feat_max", dim),
                                     target_min=_meta_number(meta, "target_min"),
                                     target_max=_meta_number(meta, "target_max"))
            threshold = DetectionThreshold(raw=_meta_number(meta, "threshold_raw"),
                                           effective=_meta_int(meta, "threshold_effective"))
            _check_fitted(norm, threshold)
            return DetectorSpec(mode=mode, model=model, norm=norm,
                                threshold=threshold, lookback=_meta_int(meta, "lookback", 1))
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read detector checkpoint {path}: {exc}") from exc
