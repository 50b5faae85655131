"""Command-line entry points: simulate, train, detect, experiment, sweep."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .attacker import AttackConfig, ControllerAwarePolicy
from .detector import FeatureMode, detect, load_detector, save_detector, train_detector
from .errors import AtscLabError, ConfigError, DataError
from .harness import (RunArtifacts, ScenarioConfig, default_output_root,
                      load_feature_log, run_experiment, run_scenario, write_verdicts)


def _config(path: str | None, seed: int | None = None) -> ScenarioConfig:
    """The config at `path` (defaults if None), with `seed` if one is given."""
    cfg = ScenarioConfig.from_json(path) if path else ScenarioConfig()
    return replace(cfg, seed=seed) if seed is not None else cfg


def _out_dir(args) -> Path:
    """`--out`, or the command's own directory under the output root; the runs
    check it before they create anything."""
    return Path(args.out) if args.out else default_output_root() / args.command


def _cmd_simulate(args) -> int:
    arts = run_scenario(_config(args.config, args.seed), _out_dir(args))
    print(f"wrote {arts.feature_log}")
    return 0


def _check_out_dir(path) -> None:
    """An output file's directory must exist, and the file must not be a
    directory, before any work starts."""
    if not Path(path).parent.is_dir():
        raise ConfigError(f"output directory of {path} does not exist")
    if Path(path).is_dir():
        raise ConfigError(f"output file {path} is a directory")


def _cmd_train(args) -> int:
    _check_out_dir(args.out)
    cfg = _config(args.config)
    samples = load_feature_log(args.features)
    window = [s for s in samples if cfg.in_analysis(s.t)]
    if not window:
        held = (f"t = {samples[0].t:g} to {samples[-1].t:g} s" if samples
                else "no samples")
        raise DataError(f"the analysis window [{cfg.analysis_start:g}, "
                        f"{cfg.analysis_end:g}) s holds none of the samples of "
                        f"{args.features} ({held})")
    tcfg = cfg.detector.training
    if args.epochs is not None:
        tcfg = replace(tcfg, epochs=args.epochs)
    spec, ds, curves = train_detector(window, FeatureMode(args.mode), tcfg,
                                      hidden1=cfg.detector.hidden1,
                                      hidden2=cfg.detector.hidden2)
    save_detector(spec, args.out)
    print(f"threshold raw={spec.threshold.raw:.3f} "
          f"effective={spec.threshold.effective}; model -> {args.out}")
    return 0


def _cmd_detect(args) -> int:
    _check_out_dir(args.out)
    spec = load_detector(args.model)
    samples = load_feature_log(args.features)
    verdicts = detect(spec, samples)
    write_verdicts(args.out, spec, verdicts)
    n_flags = sum(1 for v in verdicts if v.valid and v.flagged)
    print(f"{n_flags} flagged seconds -> {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    print(run_experiment(ScenarioConfig.from_json(args.config), _out_dir(args)).read_text())
    return 0


def _eb_mean(arts: RunArtifacts) -> float:
    return sum(s.eb_count for s in arts.analysis_samples) / len(arts.analysis_samples)


def _cmd_sweep(args) -> int:
    """An attack-free run, then one run per rate with the config's (or the
    default) controller-aware policy capped at it, against the free run."""
    cfg = _config(args.config, args.seed)
    attack = cfg.attack or AttackConfig()
    if not isinstance(attack.policy, ControllerAwarePolicy):
        raise ConfigError("sweep needs a controller_aware attack policy")
    if cfg.analysis_seconds == 0:
        raise ConfigError(f"the analysis window [{cfg.analysis_start:g}, "
                          f"{cfg.analysis_end:g}) s holds no sampled second")
    # every config is built, and so checked, before the first run
    free_cfg = replace(cfg, attack=None)
    rate_cfgs = [(rate, f"rate_{rate:g}", replace(cfg, attack=replace(
                     attack, policy=replace(attack.policy, max_rate_vph=rate))))
                 for rate in args.rates]
    # a run directory is named by its rate's `:g` text, so two rates may share one
    for _, name, _ in rate_cfgs:
        rates = [repr(r) for r, n, _ in rate_cfgs if n == name]
        if len(rates) > 1:
            raise ConfigError(f"rates {', '.join(rates)} would all write {name}/")
    out = _out_dir(args)
    free = run_scenario(free_cfg, out / "attack_free")
    free_mean = _eb_mean(free)
    print(f"attack-free: EB mean count {free_mean:.3f}, "
          f"EB waiting {free.eb_real_waiting:.0f} s")
    for rate, name, rate_cfg in rate_cfgs:
        arts = run_scenario(rate_cfg, out / name)
        mean = _eb_mean(arts)
        inflation = mean / free_mean if free_mean > 0 else float("inf")
        print(f"rate {rate:6.1f} vph: {len(arts.inject_times):4d} injections, "
              f"EB mean count {mean:7.3f} ({inflation:5.2f}x), "
              f"EB waiting {arts.eb_real_waiting:7.0f} s "
              f"({arts.eb_real_waiting / max(free.eb_real_waiting, 1.0):5.2f}x)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="atsclab")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="run one scenario and write its logs")
    s.add_argument("--config", help="scenario JSON; defaults apply if omitted")
    s.add_argument("--out", help="output directory")
    s.add_argument("--seed", type=int)
    s.set_defaults(func=_cmd_simulate)

    s = sub.add_parser("train", help="train a detector from a feature log")
    s.add_argument("--features", required=True)
    s.add_argument("--mode", choices=["baseline", "upstream"], default="baseline")
    s.add_argument("--out", required=True, help="model checkpoint path, written as given")
    s.add_argument("--config", help="scenario JSON for analysis window/training")
    s.add_argument("--epochs", type=int)
    s.set_defaults(func=_cmd_train)

    s = sub.add_parser("detect", help="replay a detector over a feature log")
    s.add_argument("--model", required=True)
    s.add_argument("--features", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_detect)

    s = sub.add_parser("experiment", help="paired attack-free/attack pipeline")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_experiment)

    s = sub.add_parser("sweep", help="attack efficacy over injection-rate caps")
    s.add_argument("--config", help="scenario JSON; defaults apply if omitted")
    s.add_argument("--out", help="output directory")
    s.add_argument("--seed", type=int)
    s.add_argument("--rates", type=float, nargs="+", default=[60.0, 120.0, 240.0, 360.0],
                   help="controller-aware max_rate_vph values, vehicles per hour")
    s.set_defaults(func=_cmd_sweep)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AtscLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
