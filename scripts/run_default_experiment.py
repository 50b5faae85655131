#!/usr/bin/env python3
"""Run the default paired experiment: attack-free vs slow physical injection.

Trains both detector feature modes on the attack-free log and writes the
comparison report, verdict CSVs and SVG plots. With --quick the training runs
a short profile so the whole pipeline finishes in a couple of minutes.
"""
import argparse
import sys
from pathlib import Path

from atsclab.attacker import AttackConfig, AttackMode, ControllerAwarePolicy
from atsclab.errors import AtscLabError
from atsclab.harness import ScenarioConfig, run_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/default_experiment")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--mode", choices=["physical", "phantom"], default="physical")
    ap.add_argument("--epochs", type=int, default=None,
                    help="override training epochs (default: config value)")
    ap.add_argument("--quick", action="store_true",
                    help="100-epoch training profile")
    args = ap.parse_args()

    cfg = ScenarioConfig(seed=args.seed,
                         attack=AttackConfig(mode=AttackMode(args.mode),
                                             policy=ControllerAwarePolicy()))
    if args.quick:
        cfg.detector.training.epochs = 100
    if args.epochs is not None:
        cfg.detector.training.epochs = args.epochs

    try:
        report_txt = run_experiment(cfg, Path(args.out))
    except AtscLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(report_txt.read_text())
    print(f"artifacts under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
