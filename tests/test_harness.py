import csv
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from atsclab import harness
from atsclab.attacker import (AttackConfig, AttackMode, ControllerAwarePolicy,
                              FixedRatePolicy)
from atsclab.cli import main as cli_main
from atsclab.errors import ConfigError, DataError
from atsclab.harness import (DetectorSettings, ScenarioConfig, fmt, load_feature_log,
                             run_scenario)
from atsclab.microsim import CarFollowingParams
from atsclab.msgplane import sample_features
from atsclab.neuralnet import TrainingConfig
from atsclab.roadnet import GeometryConfig, build_arterial_network
from atsclab.svgplot import ChartStyle, Series, render_svg


def short_cfg(**kw):
    base = dict(seed=42, duration=900.0, warmup=120.0, cooldown=120.0,
                demand_vph=300.0)
    base.update(kw)
    return ScenarioConfig(**base)


# -- config -------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        short_cfg(dt=0.0)
    with pytest.raises(ConfigError):
        short_cfg(warmup=500.0, cooldown=500.0)
    # a variant is checked as it is built
    with pytest.raises(ConfigError):
        dataclasses.replace(short_cfg(), demand_vph=-1.0)


def test_dt_must_divide_the_one_second_grid():
    for dt in (0.3, 0.7, 2.0, 0.5, 0.25, 0.1):
        with pytest.raises(ConfigError):
            short_cfg(dt=dt)
    short_cfg(dt=1.0)


@pytest.mark.parametrize("config", [
    ScenarioConfig(), DetectorSettings(), AttackConfig(), CarFollowingParams(),
    TrainingConfig(), GeometryConfig(), FixedRatePolicy(), ControllerAwarePolicy()],
    ids=lambda c: type(c).__name__)
def test_config_classes_are_frozen(config):
    name = dataclasses.fields(config)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, name, getattr(config, name))


@pytest.mark.parametrize("bad", [
    {"geometry": {"bogus": 1}},
    {"car_following": {"max_accel": "fast"}},
    {"duration": "x"},
    {"turn_split": {"through": "x", "left": 0.15, "right": 0.15}},
    {"turn_split": {"straight": 0.7, "left": 0.15, "right": 0.15}},
    {"geometry": {"intersections": 0}},
    {"log_bsm": "yes"},
    {"detector": {"training": {"epochs": 2.5}}},
    {"attack": {"policy": {"kind": "bogus"}}},
    {"attack": {"policy": {"kind": "fixed_rate", "max_rate_vph": 10.0}}},
    {"attack": {"mode": "teleport"}},
    {"attack": "physical"},
    {"geometry": {"through_lanes": 2}},
    {"seed": -1},
    {"detector": {"training": {"seed": -1}}},
    {"demand_vph": float("nan")},
    {"duration": float("inf")},
    {"car_following": {"max_accel": float("inf")}},
    {"attack": {"start": float("nan")}},
    {"duration": 300.5},
    {"detector": {"mode": "upstream"}},
    {"geometry": {"pocket_length": 0}},
    {"attack": {"initial_speed_factor": -1}},
    {"attack": {"initial_speed_factor": 100}},
    {"geometry": {"speed_limit": 1e6}},
    {"geometry": {"speed_limit": 30.000001}},
    {"detector": {"hidden1": 0}},
    {"detector": {"hidden2": 0}},
    {"attack": {"target_approach": "WB"}},
    {"demand_vph": -1},
    {"turn_split": {"through": 1.5, "left": 0.15, "right": 0.15}},
])
def test_malformed_config_exits_2(tmp_path, capsys, bad):
    # every check runs as the config is built, before either command writes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**short_cfg(attack=AttackConfig()).to_dict(), **bad}))
    for command in ("simulate", "experiment"):
        out = tmp_path / command
        assert cli_main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()


def test_config_json_round_trip(tmp_path):
    cfg = short_cfg(attack=AttackConfig(start=100.0, mode=AttackMode.PHANTOM))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg.to_dict()))
    cfg2 = ScenarioConfig.from_json(p)
    assert cfg2.to_dict() == cfg.to_dict()
    assert cfg2.config_hash() == cfg.config_hash()
    assert cfg2.attack.mode is AttackMode.PHANTOM


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"seed": 1, "typo_key": 2})


def test_missing_config_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_json(tmp_path / "nope.json")


def test_analysis_window_bounds():
    cfg = ScenarioConfig()
    assert cfg.analysis_start == 600.0
    assert cfg.analysis_end == 3000.0


def test_fmt_is_bit_stable():
    for x in (0.1, 1 / 3, 123456.789, 2.0):
        assert float(fmt(x)) == x


_CSV_SPECIAL = set(',"\r\n')


def test_one_line_log_rows_match_the_csv_writer(tmp_path):
    # the per-vehicle logs format each row in one f-string, with no csv
    # quoting: that equals the csv writer's row of `fmt` fields only if
    # `:.17g` is `fmt` and no text field needs quoting
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.floats(min_value=-1e-300, max_value=1e-300),
                     st.integers(0, 10 ** 6).map(float),
                     st.integers(-2 ** 70, 2 ** 70),
                     st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308])))
    def formats_like_fmt(x):
        assert f"{x:.17g}" == fmt(x)

    formats_like_fmt()
    for n in (1, 2, 3):
        net = build_arterial_network(GeometryConfig(intersections=n))
        assert not [e for e in net.edges if _CSV_SPECIAL & set(e)]
    ids = set()
    for mode in (AttackMode.PHYSICAL, AttackMode.PHANTOM):
        attack = AttackConfig(start=0.0, mode=mode, policy=FixedRatePolicy(720.0))
        run_scenario(short_cfg(duration=400.0, log_bsm=True, attack=attack),
                     tmp_path / mode.value)
        with open(tmp_path / mode.value / "bsm.csv", newline="") as fh:
            ids |= {row[1] for row in list(csv.reader(fh))[1:]}
    assert {i[0] for i in ids} == {"r", "f", "x"}
    assert not [i for i in ids if _CSV_SPECIAL & set(i)]


# -- run_scenario -------------------------------------------------------------

@pytest.fixture(scope="module")
def run_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    cfg = short_cfg()
    a = run_scenario(short_cfg(), root / "a")
    b = run_scenario(short_cfg(), root / "b")
    return cfg, a, b


def test_feature_log_row_count(run_pair):
    cfg, a, _ = run_pair
    assert len(load_feature_log(a.feature_log)) == int(cfg.duration)
    assert len(a.analysis_samples) == int(cfg.analysis_end - cfg.analysis_start)
    assert a.analysis_samples[0].t == cfg.analysis_start
    assert a.analysis_samples[-1].t == cfg.analysis_end - 1.0


def test_identical_config_gives_byte_identical_logs(run_pair):
    _, a, b = run_pair
    for name in ("features.csv", "phases.csv", "attack.csv"):
        assert (a.feature_log.with_name(name).read_bytes()
                == b.feature_log.with_name(name).read_bytes()), name


def test_different_seed_changes_the_log(run_pair, tmp_path):
    _, a, _ = run_pair
    c = run_scenario(short_cfg(seed=43), tmp_path / "c")
    assert a.feature_log.read_bytes() != c.feature_log.read_bytes()


def test_feature_log_round_trip(run_pair):
    cfg, a, _ = run_pair
    back = load_feature_log(a.feature_log)
    assert [s for s in back
            if cfg.analysis_start <= s.t < cfg.analysis_end] == a.analysis_samples


def test_manifest_contents(run_pair):
    cfg, a, _ = run_pair
    m = json.loads(a.feature_log.with_name("manifest.json").read_text())
    assert m["seed"] == cfg.seed
    assert m["config_hash"] == cfg.config_hash()
    assert m["entered"] >= m["exited"] >= 0


def test_phase_log_structure(run_pair):
    _, a, _ = run_pair
    lines = a.feature_log.with_name("phases.csv").read_text().splitlines()
    assert lines[0] == "t,node,phase,movement,seconds_in_phase"
    kinds = {ln.split(",")[2] for ln in lines[1:]}
    assert kinds <= {"green", "yellow", "all_red"}
    assert "green" in kinds


def test_attack_run_logs_events(tmp_path):
    cfg = short_cfg(attack=AttackConfig(start=100.0, mode=AttackMode.PHYSICAL))
    arts = run_scenario(cfg, tmp_path / "atk")
    assert arts.attack_start_abs == 220.0       # warmup 120 + offset 100
    assert arts.inject_times
    assert min(arts.inject_times) >= arts.attack_start_abs
    lines = (tmp_path / "atk" / "attack.csv").read_text().splitlines()
    assert lines[0] == "t,fake_id,action,mode,policy_state"
    assert len(lines) - 1 >= len(arts.inject_times)


def test_phantom_attack_leaves_real_world_untouched(tmp_path):
    free = run_scenario(short_cfg(log_trajectories=True), tmp_path / "free")
    cfg = short_cfg(log_trajectories=True,
                    attack=AttackConfig(start=100.0, mode=AttackMode.PHANTOM))
    atk = run_scenario(cfg, tmp_path / "phantom")
    assert ((tmp_path / "free" / "trajectories.csv").read_bytes()
            == (tmp_path / "phantom" / "trajectories.csv").read_bytes())
    # the monitored feature stream, in contrast, shows the fakes
    assert free.feature_log.read_bytes() != atk.feature_log.read_bytes()


# Artifact digests of short default scenarios (seed 42, attack from t=1000 s),
# recorded before the per-second aggregation was reduced to a single pass; any
# refactor of the closed loop must leave these bytes unchanged.
GOLDEN = {
    "free": {
        "features.csv": "5f5d5bfb5fdf34ab60fa101617b65690a03c77c2019ad1f846cbb715c710613f",
        "phases.csv": "1eb44c6e49163b07acb857d62f4c8139fc390fb3fd433d5d068c627047cd0866",
        "attack.csv": "9660057a7c027de3a4f333b3745e63cbb692a6432c3b30845b9fa23471027307",
        "manifest.json": "8d48dfb2e5bf0c210d9e2f45f652ba48274f08b39eb5688dea58ee38e86b78b5",
    },
    "physical": {
        "features.csv": "e95933ab413d4af3d193c7afa2270ea7b9816d49a0ee4845180e2b7037040f81",
        "phases.csv": "c2b0f9ba40215f7f5308b01678bd145648671bdb2bbe77e759de2b6790848e12",
        "attack.csv": "d8e6b17c2882c0406d032660f3b89ac787489aae176b87a64e4fa13f9a190246",
        "manifest.json": "2921efdf0d765ab9e258f054cd3a7cebbfd621ab2e73a90b7393ae322a6f3aba",
    },
    "phantom": {
        "features.csv": "e9716d398c42ab7f2b965681adbc95fee160c4b4636b008a7fbe91a7e0172224",
        # the controller acts on genuine telemetry only: same phases as free
        "phases.csv": "1eb44c6e49163b07acb857d62f4c8139fc390fb3fd433d5d068c627047cd0866",
        "attack.csv": "ee308253a69b43d6f85857701c9ca43061f10886d38de8eb7fb23901d9fd99af",
        "manifest.json": "e43f3a1aced0a7da9ed9912e21f2408258c30266dfcddd2115eef6275a9d9559",
    },
    # "<mode>@<seconds>"; this run reaches t = 1269 s, where phantom x00019
    # passes real vehicle r00321 and x00020 must then follow the nearer one
    "phantom@1300": {
        "features.csv": "d31bcf176080d6855e542efef97566c852cf02439cd53a8935e6213bf1c8db6f",
        "phases.csv": "cffaccab4adadd588a5263d7493992660609d2408bc4cb0b68838bcb98187859",
        "attack.csv": "96f59b0b736bf08e4889ea3a0e5fd03e4c9ca4094af5b1d5a84a848f12609d38",
        "manifest.json": "a5db479bc8418dbd04d12458a43ad63492548c5857e6da1b0f949fb6822ea688",
    },
    # "<mode>#<seed>": the same 1210 s run at another seed than 42
    "physical#7": {
        "features.csv": "d9d8b1d1ba62731adc0b044655aeb6bacb95ab7ff12b757cc227415d011ee63d",
        "phases.csv": "923b9b5768d1141b598543b33189a3711689fe89d8b02d45d3e88a6a4ef6e6e4",
        "attack.csv": "09016f8fa3c7079eefd86374b52b5ed73c65887cdd4ad18b9f820e2cdbdc94e5",
        "manifest.json": "e35bef47676c4aa9d7110822522bf1536239471b458646c527a78ea9ad4a702b",
    },
    # "<mode>~<vph>": the same 1210 s run at another demand than 150 vph;
    # at 400 vph lanes queue and entries defer, so the lane order matters
    "free~400": {
        "features.csv": "f5f6db07ac4b0ed786ba54735310a1e05d0c0ad9ea69c9b70d799035105d2854",
        "phases.csv": "d67b007dad902d53ccce8f7a140bf3913d81a0c5d9eec7712e258e98db426be4",
        "attack.csv": "9660057a7c027de3a4f333b3745e63cbb692a6432c3b30845b9fa23471027307",
        "manifest.json": "05eff45595a21c00d0f0a0723f87c0bb757573e2f0a99a18c5b4667d07e8f40c",
    },
    # "<mode>+cum": the same 1210 s run with cumulative_waiting on, the one
    # knob that changes how the waits the message plane sums are built up
    "physical+cum": {
        "features.csv": "ed7fc19c8540bde6b572f67b6f9c05efef005b3037af410637e3aed57aab933d",
        "phases.csv": "91e08f575888e1a9bd26240d5f2b3c66dbbcd38d8641da1032de8b04e890b07a",
        "attack.csv": "87a828974f7e59dd998bc8fd50dbe558ae17fb9cc8a3e74f670655657904a58c",
        "manifest.json": "5b9cfe32e9f94a62a2661c19ad54316e9d06a36dc263fde813277523ad26986d",
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_artifacts_match_golden_digests(tmp_path, case):
    run, _, seed = case.partition("#")
    run, _, seconds = run.partition("@")
    run, cum, _ = run.partition("+cum")
    mode, _, vph = run.partition("~")
    attack = None if mode == "free" else AttackConfig(mode=AttackMode(mode))
    arts = run_scenario(ScenarioConfig(seed=int(seed or 42), duration=float(seconds or 1210),
                                       demand_vph=float(vph or 150), attack=attack,
                                       cumulative_waiting=bool(cum)), tmp_path)
    assert (mode == "free") != bool(arts.inject_times)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[case]}
    assert digests == GOLDEN[case]


# SHA-256 of the per-vehicle logs of GOLDEN's free, physical and phantom runs
# with both logs on, recorded while they were still buffered and written at
# the end of the run; streaming them must leave these bytes unchanged
LOG_GOLDEN = {
    "free": {
        "bsm.csv": "798689651932685723a04dadb48b3da5b8471beba6e41b00cc4750b3da09287f",
        "trajectories.csv": "d5900264b55f4a0bede971586d82fb92cb7f425fc161b380877b4b1ffcd86e3b",
    },
    "physical": {
        "bsm.csv": "607c8944b0807232e7e445226682368900d397cc8359338276546b3a5539162e",
        "trajectories.csv": "b7c079230d6e9263dfa160aea60e547ae357b814242fff902139539364947d4d",
    },
    "phantom": {
        "bsm.csv": "9d3c4dfac0b21226bc0455f98b273d93c09f6055fedeee25aee353ee779047be",
        # real vehicles never see phantoms: the same trajectories as free
        "trajectories.csv": "d5900264b55f4a0bede971586d82fb92cb7f425fc161b380877b4b1ffcd86e3b",
    },
}


@pytest.mark.parametrize("mode", sorted(LOG_GOLDEN))
def test_logs_match_golden_digests_and_leave_other_artifacts_alone(tmp_path, mode):
    attack = None if mode == "free" else AttackConfig(mode=AttackMode(mode))
    run_scenario(ScenarioConfig(seed=42, duration=1210.0, attack=attack,
                                log_bsm=True, log_trajectories=True), tmp_path)
    # GOLDEN[mode] pins the same run with the logs off
    expected = {**LOG_GOLDEN[mode],
                **{name: GOLDEN[mode][name]
                   for name in ("features.csv", "phases.csv", "attack.csv")}}
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in expected} == expected


def test_failed_run_leaves_no_partial_log(tmp_path, monkeypatch):
    def fail_at_50(stats, net, feeders, t, attack_active):
        if t == 50.0:
            raise DataError("injected failure at t = 50 s")
        return sample_features(stats, net, feeders, t, attack_active=attack_active)

    monkeypatch.setattr(harness, "sample_features", fail_at_50)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(DataError, match="t = 50 s"):
            run_scenario(short_cfg(log_bsm=True, log_trajectories=True), out)
        gc.collect()    # an unclosed handle warns when it is finalized
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert list(out.iterdir()) == []


# -- SVG ----------------------------------------------------------------------

def test_svg_well_formed_with_legend_and_spans(tmp_path):
    path = tmp_path / "chart.svg"
    render_svg([Series("alpha", [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]),
                Series("beta", [0.0, 1.0, 2.0], [2.0, 1.0, 4.0])],
               path, ChartStyle(title="demo", xlabel="x", ylabel="y"),
               spans=[(0.5, 1.5)])
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    legends = root.findall(f"{ns}g[@class='legend-entry']")
    assert len(legends) == 2
    spans = [e for e in root.iter(f"{ns}rect") if e.get("class") == "flag-span"]
    assert len(spans) == 1
    polylines = root.findall(f"{ns}polyline")
    assert len(polylines) == 2


def test_svg_rejects_empty_series(tmp_path):
    from atsclab.errors import DataError
    with pytest.raises(DataError):
        render_svg([], tmp_path / "x.svg")
    with pytest.raises(DataError):
        render_svg([Series("a", [1.0], [1.0, 2.0])], tmp_path / "x.svg")


# -- CLI ----------------------------------------------------------------------

def test_cli_simulate_train_detect(tmp_path, capsys):
    cfg = short_cfg()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))

    sim_dir = tmp_path / "sim"
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(sim_dir)]) == 0
    features = sim_dir / "features.csv"
    assert features.exists()

    model = tmp_path / "det.npz"
    assert cli_main(["train", "--features", str(features), "--config", str(cfg_path),
                     "--mode", "baseline", "--epochs", "2",
                     "--out", str(model)]) == 0

    verdicts = tmp_path / "verdicts.csv"
    assert cli_main(["detect", "--model", str(model), "--features", str(features),
                     "--out", str(verdicts)]) == 0
    assert verdicts.read_text().splitlines()[0] == \
        "t,observed,predicted,abs_error,threshold,flagged"


def test_cli_train_rejects_nonpositive_epochs(run_pair, tmp_path, capsys):
    _, a, _ = run_pair
    model = tmp_path / "m.npz"
    for epochs in ("0", "-3"):
        assert cli_main(["train", "--features", str(a.feature_log),
                         "--epochs", epochs, "--out", str(model)]) == 2
    assert not model.exists()


def test_cli_detect_on_truncated_checkpoint_exits_3(run_pair, tmp_path, capsys):
    _, a, _ = run_pair
    model = tmp_path / "m.npz"
    model.write_bytes(b"PK\x03\x04 truncated")
    assert cli_main(["detect", "--model", str(model), "--features",
                     str(a.feature_log), "--out", str(tmp_path / "v.csv")]) == 3


def test_cli_error_exit_codes(run_pair, tmp_path, capsys):
    _, a, _ = run_pair
    # missing config file -> ConfigError -> exit 2
    assert cli_main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    # empty, missing or non-numeric feature log -> DataError -> exit 3
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    header, row = a.feature_log.read_text().splitlines()[:2]
    garbled = tmp_path / "garbled.csv"
    garbled.write_text(f"{header}\n{row}\n" + row.replace(",", ",abc", 1) + "\n")
    for features in (empty, tmp_path / "nope.csv", garbled):
        assert cli_main(["train", "--features", str(features),
                         "--out", str(tmp_path / "m.npz")]) == 3, features
    # a log with t = 700 s missing from the trained window -> DataError, since
    # training windows would straddle the gap
    lines = a.feature_log.read_text().splitlines()
    gapped = tmp_path / "gapped.csv"
    gapped.write_text("\n".join(lines[:700] + lines[701:]) + "\n")
    assert cli_main(["train", "--features", str(gapped), "--epochs", "1",
                     "--out", str(tmp_path / "m.npz")]) == 3
    assert not (tmp_path / "m.npz").exists()
    # an --out whose directory is missing -> ConfigError -> exit 2, before
    # any training or replay
    missing = tmp_path / "missing"
    assert cli_main(["train", "--features", str(a.feature_log), "--epochs", "1",
                     "--out", str(missing / "m.npz")]) == 2
    assert cli_main(["detect", "--model", str(tmp_path / "nope.npz"),
                     "--features", str(a.feature_log),
                     "--out", str(missing / "v.csv")]) == 2
    assert not missing.exists()
    assert "Traceback" not in capsys.readouterr().err
    # a negative seed -> ConfigError -> exit 2, before any output
    assert cli_main(["simulate", "--seed", "-5", "--out", str(tmp_path / "neg")]) == 2
    assert not (tmp_path / "neg").exists()
    model = tmp_path / "m.npz"
    assert cli_main(["train", "--features", str(a.feature_log), "--epochs", "1",
                     "--out", str(model)]) == 0
    # a feature row with a non-finite time or waiting time, a negative vehicle
    # count or waiting time, or an attack flag other than 0/1 -> DataError
    # naming the row -> exit 3
    columns = header.split(",")
    bad = tmp_path / "bad.csv"
    for col, value in [("t", "nan"), ("aawt_EB", "nan"), ("awt_EBT", "inf"),
                       ("n_EBL", "-3"), ("up_n_I0_EBT", "-1"), ("attack", "7"),
                       ("awt_EBL", "-5"), ("aawt_EB", "-2.5"), ("up_awt_I0_EBT", "-1")]:
        fields = lines[500].split(",")
        fields[columns.index(col)] = value
        bad.write_text("\n".join(lines[:500] + [",".join(fields)] + lines[501:]) + "\n")
        assert cli_main(["detect", "--model", str(model), "--features", str(bad),
                         "--out", str(tmp_path / "v.csv")]) == 3, (col, value)
        assert "feature row 500" in capsys.readouterr().err
    with np.load(model, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta"]))
    # a checkpoint whose lookback is not an integer >= 1, or whose target
    # bounds are not finite -> DataError -> exit 3
    for key, value in [("lookback", 0), ("target_max", float("nan"))]:
        np.savez(model, **{**arrays, "meta": json.dumps({**meta, key: value})})
        assert cli_main(["detect", "--model", str(model), "--features", str(a.feature_log),
                         "--out", str(tmp_path / "v.csv")]) == 3, key
    assert "Traceback" not in capsys.readouterr().err


# SHA-256 of the short experiment's files that do not pass through the LSTM;
# loss and verdict bits depend on the BLAS, so they are not pinned here
EXPERIMENT_GOLDEN = {
    "attack_free/features.csv": "c02488ee0526a6d17df6f73f9435e616050079a1bc112264c9dd590fa05f2615",
    "attack_free/phases.csv": "67375c4232f2c59e54cc689031764f7639f117d985c3883be34a79a29b0023c6",
    "attack_free/attack.csv": "9660057a7c027de3a4f333b3745e63cbb692a6432c3b30845b9fa23471027307",
    "attack_free/manifest.json": "a50078aa3afbe36b7162932eb665ce34fce9b6b2e5aca49615ebcb2b68b942e6",
    "attack/features.csv": "0d2dfda66700dcce4b0f06712808b256636618dd4e6c571866f48a9d3e3713dc",
    "attack/phases.csv": "7ba4c806e87d437df162a71a46ce7a8701f2acf73163a6104eff2603db4bc8df",
    "attack/attack.csv": "2d02614a2589b8ffb27c463d392310be627e511cb8fae3954fbb08bfe8508a65",
    "attack/manifest.json": "25a71b67414bb8c6cc5349cc10c45b8acd2f772b515e273ce46485c8adb492a0",
    "eb_counts.svg": "a5f874d3c7a2e23d06c0d215d43e6b7bfa2f911666cb05006a96697815aabd39",
}


def test_cli_experiment_writes_every_artifact(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / "experiment.json").read_text())
    cfg.update(duration=1500.0, warmup=200.0, cooldown=200.0)
    cfg["attack"]["start"] = 300.0
    cfg["detector"]["training"]["epochs"] = 2
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "exp"
    assert cli_main(["experiment", "--config", str(cfg_path), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert report.startswith("paired slow-injection experiment")
    assert capsys.readouterr().out == report + "\n"

    modes = ("baseline", "upstream")
    assert {str(f.relative_to(out)) for f in out.rglob("*") if f.is_file()} == {
        *EXPERIMENT_GOLDEN, "report.txt", "report.csv",
        *(f"{kind}_{m}.{ext}" for m in modes
          for kind, ext in [("loss", "csv"), ("verdicts", "csv"),
                            ("loss", "svg"), ("error", "svg")])}
    for svg in out.glob("*.svg"):
        assert ET.parse(svg).getroot().tag.endswith("svg"), svg
    with open(out / "report.csv", newline="") as fh:
        assert [r["mode"] for r in csv.DictReader(fh)] == list(modes)
    for m in modes:
        with open(out / f"loss_{m}.csv", newline="") as fh:
            assert [r["epoch"] for r in csv.DictReader(fh)] == ["1", "2"]
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in EXPERIMENT_GOLDEN} == EXPERIMENT_GOLDEN


@pytest.mark.parametrize("script", ["run_default_experiment", "sweep_attack_rates"])
def test_script_help_runs(script):
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, f"scripts/{script}.py", "--help"],
                         cwd=root, env={**os.environ, "PYTHONPATH": "src"},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_console_script_entry_point():
    out = subprocess.run([sys.executable, "-m", "atsclab.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    for verb in ("simulate", "train", "detect", "experiment"):
        assert verb in out.stdout


# -- benchmark probes -----------------------------------------------------------

def test_benchmark_probes_resolve(monkeypatch):
    # `perfbench --trace 1` wraps each probe's owner.attr; one that no longer
    # resolves silently drops its layer from the trace
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    for probe in spans.PROBES:
        module, _, cls = probe.owner.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        assert callable(getattr(owner, probe.attr, None)), probe.metric
