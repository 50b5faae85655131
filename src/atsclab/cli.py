"""Command-line entry points: simulate, train, detect, experiment."""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .detector import FeatureMode, detect, load_detector, save_detector, train_detector
from .errors import AtscLabError, ConfigError
from .harness import (ScenarioConfig, default_output_root, load_feature_log,
                      run_experiment, run_scenario, write_verdicts)


def _cmd_simulate(args) -> int:
    cfg = ScenarioConfig.from_json(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    out = Path(args.out) if args.out else default_output_root() / "simulate"
    arts = run_scenario(cfg, out)
    print(f"wrote {arts.feature_log}")
    return 0


def _check_out_dir(path) -> None:
    """An output file's directory must exist before any work starts."""
    if not Path(path).parent.is_dir():
        raise ConfigError(f"output directory of {path} does not exist")


def _cmd_train(args) -> int:
    _check_out_dir(args.out)
    cfg = ScenarioConfig.from_json(args.config) if args.config else ScenarioConfig()
    samples = load_feature_log(args.features)
    window = [s for s in samples
              if cfg.analysis_start <= s.t < cfg.analysis_end] or samples
    tcfg = cfg.detector.training
    if args.epochs is not None:
        tcfg = dataclasses.replace(tcfg, epochs=args.epochs)
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
    cfg = ScenarioConfig.from_json(args.config)
    out = Path(args.out) if args.out else default_output_root() / "experiment"
    print(run_experiment(cfg, out).read_text())
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
    s.add_argument("--out", required=True, help="model checkpoint path (.npz)")
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
