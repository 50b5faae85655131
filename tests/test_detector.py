import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atsclab.detector import (SURGE_SLACK, DetectionThreshold, DetectionVerdict, DetectorSpec, FeatureMode, _is_gap, build_dataset,
                              compute_threshold, detect, detection_report,
                              feature_matrix, injection_surges, load_detector,
                              save_detector, train_detector)
from atsclab.errors import DataError
from atsclab.msgplane import FeatureSample
from atsclab.neuralnet import (FORWARD_CHUNK, LstmRegressor, NormalizationSpec,
                               TrainingConfig)


def sample(t, eb_count=0, eb_aawt=0.0, upstream=(0, 0, 0),
           upstream_awt=(0.0, 0.0, 0.0)):
    counts = (eb_count, 0, 0, 0, 0, 0, 0, 0)
    return FeatureSample(t=t, movement_counts=counts,
                         movement_awt=(eb_aawt * eb_count,) + (0.0,) * 7,
                         approach_aawt=(eb_aawt, 0.0, 0.0, 0.0),
                         upstream_counts=tuple(upstream),
                         upstream_awt=tuple(upstream_awt),
                         attack_active=False)


def synthetic_log(n=200, t0=0.0, seed=0):
    """Periodic EB occupancy with mild integer noise — learnable but not flat."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        base = 3 + int(2 * math.sin(k / 9.0)) + int(rng.integers(0, 2))
        out.append(sample(t0 + k, eb_count=base, eb_aawt=float(base) * 1.5,
                          upstream=(base % 3, 1, 0),
                          upstream_awt=(float(base), 0.5, 0.0)))
    return out


# -- feature vectors ----------------------------------------------------------

def test_feature_dimensions():
    s = sample(0.0, eb_count=4, eb_aawt=2.0, upstream=(1, 2, 3),
               upstream_awt=(0.5, 1.5, 2.5))
    v_base = feature_matrix([s], FeatureMode.BASELINE)
    v_up = feature_matrix([s], FeatureMode.UPSTREAM)
    assert v_base.tolist() == [[4.0, 2.0]]
    assert v_up.tolist() == [[4.0, 2.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5]]
    assert FeatureMode.BASELINE.dimension == 2
    with pytest.raises(DataError, match="3 feeder streams"):
        feature_matrix([sample(0.0, upstream=(), upstream_awt=())], FeatureMode.UPSTREAM)
    assert FeatureMode.UPSTREAM.dimension == 8


# -- dataset construction -----------------------------------------------------

def test_window_counts_for_full_analysis_log():
    # 2400 rows, lookback 10, split 0.7: boundary at 1680,
    # train windows end in [10, 1680) -> 1670; val windows end in [1680, 2400) -> 720
    samples = synthetic_log(2400)
    ds = build_dataset(samples, FeatureMode.BASELINE, lookback=10)
    assert ds.X_train.shape == (1670, 10, 2)
    assert ds.X_val.shape == (720, 10, 2)
    assert ds.y_train.shape == (1670,)
    assert ds.y_val_raw.shape == (720,)


def test_window_alignment():
    samples = [sample(float(k), eb_count=k) for k in range(20)]
    ds = build_dataset(samples, FeatureMode.BASELINE, lookback=3)
    # first training window covers counts 0..2 and predicts count 3
    raw_first = ds.norm.inverse_target(ds.y_train[0])
    assert raw_first == pytest.approx(3.0)
    first_window = ds.norm.feat_min[0] + ds.X_train[0, :, 0] * \
        (ds.norm.feat_max[0] - ds.norm.feat_min[0])
    assert first_window.tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("mode", list(FeatureMode))
def test_dataset_windows_are_read_only_views_of_one_matrix(mode):
    samples = synthetic_log(300)
    ds = build_dataset(samples, mode, lookback=10)
    assert np.shares_memory(ds.X_train, ds.X_val)
    assert not ds.X_train.flags.writeable and not ds.X_val.flags.writeable
    feats_n = ds.norm.transform(feature_matrix(samples, mode))
    boundary = 10 + len(ds.X_train)
    for X, ends in ((ds.X_train, np.arange(10, boundary)),
                    (ds.X_val, np.arange(boundary, len(samples)))):
        gathered = feats_n[ends[:, None] + np.arange(-10, 0)]   # rows end-10 .. end-1
        assert X.shape == gathered.shape
        assert np.array_equal(X, gathered)


def test_normalization_fitted_on_train_only():
    samples = [sample(float(k), eb_count=k) for k in range(100)]
    ds = build_dataset(samples, FeatureMode.BASELINE, lookback=5)
    # feature max comes from the first 70 rows (counts 0..69), not the full log
    assert ds.norm.feat_min[0] == 0.0
    assert ds.norm.feat_max[0] == 69.0


def test_too_short_log_rejected():
    with pytest.raises(DataError):
        build_dataset([sample(0.0)] * 5, FeatureMode.BASELINE, lookback=10)
    # 12-15 rows pass the lookback + 2 floor, but round(0.7 n) <= 10 leaves
    # no training window; 16 rows give exactly one
    for n in (12, 13, 14, 15):
        with pytest.raises(DataError, match="too short"):
            build_dataset(synthetic_log(n), FeatureMode.BASELINE, lookback=10)
    ds = build_dataset(synthetic_log(16), FeatureMode.BASELINE, lookback=10)
    assert (len(ds.X_train), len(ds.X_val)) == (1, 5)


# -- threshold ----------------------------------------------------------------

def test_threshold_ceiling_examples():
    assert DetectionThreshold.from_raw(2.09).effective == 3
    assert DetectionThreshold.from_raw(2.25).effective == 3
    assert DetectionThreshold.from_raw(2.0).effective == 2
    assert DetectionThreshold.from_raw(0.4).effective == 1


@given(st.floats(0.0, 100.0))
@settings(max_examples=200, deadline=None)
def test_threshold_ceiling_property(raw):
    th = DetectionThreshold.from_raw(raw)
    assert th.effective >= raw
    assert th.effective == math.ceil(raw)
    assert isinstance(th.effective, int)


def test_compute_threshold_empty_validation_rejected():
    samples = synthetic_log(60)
    spec, ds, _ = trained(samples, epochs=1)
    with pytest.raises(DataError):
        compute_threshold(spec.norm, np.empty(0), ds.y_val_raw[:0])


# -- training pipeline --------------------------------------------------------

def trained(samples, mode=FeatureMode.BASELINE, epochs=30, lookback=10):
    cfg = TrainingConfig(epochs=epochs, batch_size=32, learning_rate=0.01,
                         lookback=lookback, seed=0)
    return train_detector(samples, mode, cfg, hidden1=12, hidden2=6)


@pytest.fixture(scope="module")
def fitted():
    samples = synthetic_log(300)
    spec, ds, curves = trained(samples)
    return samples, spec, ds, curves


def test_detector_learns_the_pattern(fitted):
    _, spec, ds, curves = fitted
    assert curves.train_mae[-1] < curves.train_mae[0]
    # raw validation error stays within a few vehicles on this easy series
    assert spec.threshold.raw <= 4.0
    assert spec.threshold.effective == math.ceil(spec.threshold.raw)


def test_threshold_takes_the_last_validation_forward(fitted):
    # the last epoch's validation forward ran with the final weights, so the
    # threshold needs no second forward and keeps its bits
    _, spec, ds, curves = fitted
    pred = spec.model.forward(ds.X_val)
    assert np.array_equal(curves.val_pred, pred)
    assert spec.threshold == compute_threshold(spec.norm, pred, ds.y_val_raw)


def test_zero_false_positives_on_validation_replay(fitted):
    # by construction |err| <= raw <= effective on every validation second,
    # and the flag rule is strict, so the clean log can never flag
    samples, spec, _, _ = fitted
    verdicts = detect(spec, samples)
    assert verdicts
    assert not any(v.flagged for v in verdicts)


def test_detect_uses_strictly_prior_window(fitted):
    # the verdict at time t must match a batch prediction built from rows
    # t-L..t-1, i.e. the dataset convention
    samples, spec, ds, _ = fitted
    verdicts = detect(spec, samples)
    assert verdicts[0].t == samples[spec.lookback].t
    joint = build_dataset(samples, spec.mode, spec.lookback)
    # recompute the first validation-time verdict independently
    boundary = round(len(samples) * 0.7)
    v = next(v for v in verdicts if v.t == samples[boundary].t)
    pred = spec.norm.inverse_target(spec.model.forward(joint.X_val[:1]))[0]
    assert v.predicted == pytest.approx(float(pred), abs=1e-9)


def test_spoofed_surge_is_flagged(fitted):
    samples, spec, _, _ = fitted
    attacked = list(samples)
    big = spec.threshold.effective + 6
    for k in range(250, 290):
        s = attacked[k]
        attacked[k] = sample(s.t, eb_count=s.eb_count + big, eb_aawt=s.eb_aawt)
    verdicts = detect(spec, attacked)
    flags = [v.t for v in verdicts if v.flagged]
    assert flags
    assert min(flags) >= 250.0


def test_flagging_is_strict_exceedance(fitted):
    _, spec, _, _ = fitted
    # craft a verdict boundary: an error exactly at the threshold never flags
    th = spec.threshold.effective
    assert not (float(th) > th)
    assert float(th) + 0.001 > th


def test_monotone_threshold_property(fitted):
    samples, spec, _, _ = fitted
    loose = DetectorSpec(mode=spec.mode, model=spec.model, norm=spec.norm,
                         threshold=DetectionThreshold(raw=spec.threshold.raw + 2,
                                                      effective=spec.threshold.effective + 2),
                         lookback=spec.lookback)
    attacked = list(samples)
    for k in range(200, 300):
        s = attacked[k]
        attacked[k] = sample(s.t, eb_count=s.eb_count + 5, eb_aawt=s.eb_aawt)
    tight_flags = {v.t for v in detect(spec, attacked) if v.flagged}
    loose_flags = {v.t for v in detect(loose, attacked) if v.flagged}
    assert loose_flags <= tight_flags


def test_stream_gap_invalidates_window(fitted):
    samples, spec, _, _ = fitted
    gappy = samples[:50] + samples[60:]
    verdicts = detect(spec, gappy)
    invalid = [v for v in verdicts if not v.valid]
    assert len(invalid) == 1
    assert invalid[0].t == samples[60].t
    assert math.isnan(invalid[0].predicted) and math.isnan(invalid[0].abs_error)
    assert invalid[0].flagged is False
    # valid verdicts resume only after a fresh full window
    after = [v for v in verdicts if v.valid and v.t > samples[60].t]
    assert after[0].t == samples[60 + spec.lookback].t


def per_second_verdicts(spec, samples):
    """Replay oracle: one single-window forward per second, as a streaming
    monitor would run it."""
    L = spec.lookback
    feats_n = spec.norm.transform(feature_matrix(samples, spec.mode))
    out = []
    start = 0
    for i, s in enumerate(samples):
        gap = i > 0 and _is_gap(samples[i - 1].t, s.t)
        if gap:
            start = i
        if i - start >= L:
            pred = float(spec.norm.inverse_target(
                spec.model.forward(feats_n[None, i - L:i])[0]))
            err = abs(s.eb_count - pred)
            out.append(DetectionVerdict(t=s.t, observed=float(s.eb_count),
                                        predicted=pred, abs_error=err,
                                        flagged=err > spec.threshold.effective))
        elif gap:
            out.append(DetectionVerdict(t=s.t, observed=float(s.eb_count),
                                        predicted=float("nan"),
                                        abs_error=float("nan"),
                                        flagged=False, valid=False))
    return out


@pytest.mark.parametrize("mode", list(FeatureMode))
def test_detect_matches_per_second_replay_bit_for_bit(mode):
    # production layer sizes, so a batch that changed the matmul kernel
    # would show in the last bits
    log = synthetic_log(FORWARD_CHUNK + 100, seed=3)
    feats = feature_matrix(log, mode)
    counts = np.array([float(s.eb_count) for s in log])
    spec = DetectorSpec(mode=mode, model=LstmRegressor(mode.dimension, 128, 8, seed=5),
                        norm=NormalizationSpec.fit(feats, counts),
                        threshold=DetectionThreshold.from_raw(1.5), lookback=10)
    gappy = log[:120] + log[125:]      # a 5 s stream gap mid-log
    got = detect(spec, gappy)
    want = per_second_verdicts(spec, gappy)
    n_valid = sum(v.valid for v in got)
    assert n_valid > FORWARD_CHUNK and n_valid % FORWARD_CHUNK    # chunk + remainder
    assert [v.valid for v in got] == [v.valid for v in want]
    assert sum(not v.valid for v in got) == 1
    assert [v.t for v in got] == [v.t for v in want]
    assert [v.observed for v in got] == [v.observed for v in want]
    assert [v.flagged for v in got] == [v.flagged for v in want]
    for field in ("predicted", "abs_error"):
        a = np.array([getattr(v, field) for v in got])
        b = np.array([getattr(v, field) for v in want])
        assert np.array_equal(a, b, equal_nan=True), field    # exact, not approx
    assert detect(spec, []) == []
    assert detect(spec, log[:spec.lookback - 1]) == []
    assert detect(spec, log[:spec.lookback]) == []      # no full window yet


# -- surge clustering and reporting ------------------------------------------

def test_injection_surges_clustering():
    # one 100 s sustained run, a lone injection far away
    ts = list(range(1000, 1101, 10)) + [2000.0]
    surges = injection_surges([float(t) for t in ts])
    assert surges == [(1000.0, 1100.0)]


def test_injection_surges_gap_splits_clusters():
    ts = [0.0, 20.0, 40.0, 200.0, 220.0, 240.0, 260.0, 280.0]
    surges = injection_surges(ts)
    assert surges == [(200.0, 280.0)]   # first cluster spans only 40 s


def test_injection_surges_empty():
    assert injection_surges([]) == []


def test_detection_report_latency_example():
    verdicts = [
        DetectionVerdict_like(900.0, False),
        DetectionVerdict_like(1005.0, True),
        DetectionVerdict_like(1050.0, True),
    ]
    rep = detection_report(verdicts, inject_times=[1000.0 + 10 * k for k in range(10)],
                           attack_start=1000.0)
    assert rep.first_flag is not None
    assert rep.first_flag == 1005.0
    assert rep.latency == 5.0
    assert rep.false_positives == 0
    assert rep.surges == [(1000.0, 1090.0)]
    assert rep.surges_flagged == [True]


def DetectionVerdict_like(t, flagged):
    from atsclab.detector import DetectionVerdict
    return DetectionVerdict(t=t, observed=0.0, predicted=0.0, abs_error=0.0,
                            flagged=flagged)


def test_detection_report_counts_pre_start_flags_as_false_positives():
    verdicts = [DetectionVerdict_like(500.0, True), DetectionVerdict_like(1200.0, True)]
    rep = detection_report(verdicts, [], attack_start=1000.0)
    assert rep.false_positives == 1
    assert rep.first_flag == 1200.0


def test_detection_report_undetected():
    rep = detection_report([DetectionVerdict_like(10.0, False)], [], attack_start=5.0)
    assert rep.first_flag is None
    assert rep.latency is None


def test_detection_report_without_attack_counts_every_flag_as_false_positive():
    verdicts = [DetectionVerdict_like(t, flagged) for t, flagged
                in [(5.0, False), (7.0, True), (9.0, False), (12.0, True)]]
    rep = detection_report(verdicts, [], attack_start=None)
    assert rep.false_positives == 2
    assert rep.first_flag == 7.0
    assert rep.latency is None
    assert (rep.surges, rep.surges_flagged) == ([], [])


def test_surge_flag_counts_up_to_slack_after_last_injection():
    inject = [1000.0 + 10 * k for k in range(10)]      # one surge, 1000..1090
    end = 1090.0 + SURGE_SLACK
    for t, counted in [(999.0, False), (1000.0, True), (end, True),
                       (math.nextafter(end, math.inf), False)]:
        rep = detection_report([DetectionVerdict_like(t, True)], inject,
                               attack_start=1000.0)
        assert rep.surges == [(1000.0, 1090.0)]
        assert rep.surges_flagged == [counted], t


# -- persistence --------------------------------------------------------------

def test_save_load_round_trip(tmp_path, fitted):
    samples, spec, _, _ = fitted
    path = tmp_path / "det.npz"
    save_detector(spec, path)
    spec2 = load_detector(path)
    assert spec2.mode is spec.mode
    assert spec2.threshold.effective == spec.threshold.effective
    assert spec2.threshold.raw == spec.threshold.raw
    assert spec2.lookback == spec.lookback
    v1 = detect(spec, samples)
    v2 = detect(spec2, samples)
    assert v1 == v2


def test_load_rejects_truncated_or_incomplete_checkpoint(tmp_path, fitted):
    _, spec, _, _ = fitted
    full = tmp_path / "full.npz"
    save_detector(spec, full)
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes(full.read_bytes()[:full.stat().st_size // 2])
    with np.load(full, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files if k != "feat_max"}
    incomplete = tmp_path / "incomplete.npz"
    np.savez(incomplete, **arrays)
    with np.load(full, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    bad_mode = tmp_path / "bad_mode.npz"
    np.savez(bad_mode, **{**arrays, "meta": json.dumps(
        {**json.loads(str(arrays["meta"])), "mode": "bogus"})})
    # valid JSON that is not an object
    not_objects = [tmp_path / "meta_list.npz", tmp_path / "meta_null.npz"]
    for path, text in zip(not_objects, ("[1, 2]", "null")):
        np.savez(path, **{**arrays, "meta": text})
    meta = json.loads(str(arrays["meta"]))
    bad_fields = []
    for i, (key, value) in enumerate([
            ("lookback", 0), ("lookback", -3), ("lookback", 2.5), ("lookback", True),
            ("hidden1", "x"), ("hidden1", 0), ("hidden2", True), ("input_dim", 2.5),
            ("target_min", "a"), ("target_max", float("nan")),
            ("threshold_effective", "3"), ("threshold_raw", float("inf")),
            # values of the right type that training cannot leave
            ("threshold_raw", -3.0), ("threshold_raw", meta["threshold_effective"] + 0.5),
            ("threshold_effective", meta["threshold_effective"] + 1),
            ("target_min", meta["target_max"] + 1.0), ("mode", "upstream")]):
        path = tmp_path / f"meta_{i}.npz"
        np.savez(path, **{**arrays, "meta": json.dumps({**meta, key: value})})
        bad_fields.append(path)
    for i, (key, value) in enumerate([
            ("feat_min", np.zeros(3)), ("feat_max", np.array(["a", "b"])),
            ("feat_max", np.array([1, 2])), ("feat_min", np.array([0.0, np.inf])),
            ("Wd", np.full_like(arrays["Wd"], np.nan)),
            ("feat_min", arrays["feat_max"] + np.array([0.0, 1.0]))]):
        path = tmp_path / f"array_{i}.npz"
        np.savez(path, **{**arrays, key: value})
        bad_fields.append(path)
    for path in (truncated, incomplete, bad_mode, tmp_path / "missing.npz",
                 *not_objects, *bad_fields):
        with pytest.raises(DataError):
            load_detector(path)


def test_load_checks_claimed_sizes_before_allocating_them(tmp_path, fitted):
    # a 12-unit checkpoint whose meta claims 1000 units: a model built at the
    # claimed size before the shape check would trace 32 MB
    _, spec, _, _ = fitted
    path = tmp_path / "det.npz"
    save_detector(spec, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = {**json.loads(str(arrays["meta"])), "hidden1": 1000}
    np.savez(path, **{**arrays, "meta": json.dumps(meta)})
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="W1"):
            load_detector(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_rejects_bad_version(tmp_path, fitted):
    import json

    import numpy as np
    _, spec, _, _ = fitted
    path = tmp_path / "det.npz"
    save_detector(spec, path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    meta["version"] = 99
    arrays["meta"] = json.dumps(meta)
    np.savez(path, **arrays)
    with pytest.raises(DataError):
        load_detector(path)
