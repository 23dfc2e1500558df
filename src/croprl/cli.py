"""Command-line entry points: train, evaluate, ablate.

All behavior is driven by one INI config file plus ``--set section.key=value``
overrides; ``--seed`` and ``--out`` override ``run.seeds``/``run.trials`` and
``run.out_dir``. A key that no setting claims is rejected (see ``config``).
``evaluate`` writes ``evaluation.json`` only into a ``run.out_dir`` that the
request names, by ``--out``, ``--set`` or the config file.

Exit codes: 0 success, ``--help`` included; 1 configuration error (a
malformed command line, a malformed or unknown key, a bad value, a bad
checkpoint), reported before any output is written; 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import apply_overrides, build_experiment, load_config
from .errors import ConfigError
from .harness import (ABLATIONS, baseline_policy, evaluate_policy,
                      load_checkpoint, output_dir, run_ablation, run_training)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="croprl",
        description="Train and evaluate nitrogen-management policies on the "
                    "surrogate crop environment.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--out", default=None, help="output directory")

    p_train = sub.add_parser("train", help="train agents across seeds")
    common(p_train)
    p_train.add_argument("--seed", type=int, default=None,
                         help="train a single trial with this seed")

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint or baseline")
    common(p_eval)
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint", help="agent checkpoint JSON")
    group.add_argument("--baseline", type=float,
                       help="single-dose amount applied at vstage 5 (kg/ha)")
    p_eval.add_argument("--episodes", type=int, default=1)

    p_abl = sub.add_parser("ablate", help="paired-condition ablation")
    common(p_abl)
    p_abl.add_argument("--axis", choices=ABLATIONS, required=True)
    return parser


def _settings_from_args(args) -> dict[str, str]:
    """The flat config of the request: the file, then ``--set``, ``--seed``
    and ``--out``."""
    cfg = apply_overrides(load_config(args.config), args.overrides)
    if getattr(args, "seed", None) is not None:
        cfg.update({"run.seeds": str(args.seed), "run.trials": "1"})
    if args.out is not None:
        cfg["run.out_dir"] = args.out
    return cfg


def _cmd_train(args) -> int:
    config = build_experiment(_settings_from_args(args))
    report = run_training(config)
    good = report.successful()
    print(f"trained {len(good)}/{len(report.trials)} trials; "
          f"report in {config.out_dir}")
    for trial in report.trials:
        if trial.failed:
            print(f"  seed {trial.seed}: FAILED ({trial.error})")
        else:
            s = trial.summary
            print(f"  seed {trial.seed}: reward {s.cumulative_reward:.1f} "
                  f"N {s.total_n:.0f} topwt {s.topwt:.0f} "
                  f"converged@{trial.convergence_episode}")
    return 0


def _cmd_evaluate(args) -> int:
    settings = _settings_from_args(args)
    config = build_experiment(settings)
    if args.checkpoint:
        policy, _ = load_checkpoint(args.checkpoint, config)
        label = f"checkpoint:{args.checkpoint}"
    else:
        policy = baseline_policy(args.baseline)
        label = f"baseline:{args.baseline:g}"
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be >= 1: {args.episodes}")
    out = output_dir(config.out_dir) if "run.out_dir" in settings else None
    mean, per_episode = evaluate_policy(policy, config.scenario, config.mask,
                                        n_episodes=args.episodes)
    result = {"policy": label, "episodes": args.episodes,
              "mean": mean.as_dict(),
              "per_episode": [s.as_dict() for s in per_episode]}
    text = json.dumps(result, indent=2, sort_keys=True)
    print(text)
    if out:
        (out / "evaluation.json").write_text(text)
    return 0


def _cmd_ablate(args) -> int:
    config = build_experiment(_settings_from_args(args))
    result = run_ablation(config, args.axis)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error is a config error
        return 1 if exc.code else 0
    handlers = {"train": _cmd_train, "evaluate": _cmd_evaluate,
                "ablate": _cmd_ablate}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
