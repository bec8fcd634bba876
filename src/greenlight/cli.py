"""Command-line entry point.

Subcommands:
    run              evaluate a configured controller, writing results.csv
    train            train a learning controller and write its curve
    sweep            the configured sweep (agent ablation or SOTL threshold
                     grid), resolved once before the first run
    gradcheck        finite-difference check of randomized value networks
    validate-config  parse and resolve a config file, then exit
    show-defaults    print the full default configuration as YAML

Exit codes: 0 success, 1 configuration error, 2 runtime error,
3 check failure (identity violation under --check, or gradcheck failure).
"""

from __future__ import annotations

import argparse
import logging
import sys

import yaml

from .core import ConfigError
from . import config as config_mod
from . import harness

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenlight",
        description="Point-queue traffic-signal control experiments",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="experiment YAML file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, action="append", default=None,
                       help="override run seeds (repeatable)")

    p_run = sub.add_parser("run", help="evaluate a controller")
    add_common(p_run)
    p_run.add_argument("--controller", default=None,
                       choices=config_mod.CONTROLLER_KINDS,
                       help="override controller.kind")
    p_run.add_argument("--episodes", type=int, default=None,
                       help="override evaluation episode count")
    p_run.add_argument("--check", action="store_true",
                       help="assert the exact travel-time/queue identity on "
                            "every drained episode")

    p_train = sub.add_parser("train", help="train a learning controller")
    add_common(p_train)
    p_train.add_argument("--episodes", type=int, default=None,
                         help="override training episode count")

    p_sweep = sub.add_parser("sweep", help="run the configured sweep: ablation or sotl-grid")
    add_common(p_sweep)

    p_grad = sub.add_parser("gradcheck", help="gradient-check random networks")
    p_grad.add_argument("--networks", type=int, default=20)
    p_grad.add_argument("--seed", type=int, default=0)

    p_val = sub.add_parser("validate-config", help="validate a config file")
    p_val.add_argument("--config", required=True)

    sub.add_parser("show-defaults", help="print default configuration")
    return parser


def _load(args) -> config_mod.ExperimentConfig:
    cfg = config_mod.load_config(args.config)
    if getattr(args, "seed", None):
        cfg.run.seeds = list(args.seed)
    if getattr(args, "out", None):
        cfg.run.out_dir = args.out
    return cfg


def cmd_run(args) -> int:
    cfg = _load(args)
    if args.controller:
        cfg.controller.kind = args.controller
    if args.episodes is not None:
        cfg.run.episodes = args.episodes
    try:
        rows, paths = harness.run_experiment(cfg, check=args.check)
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK
    for path in paths:
        print(path)
    print(f"{len(rows)} result rows")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load(args)
    if cfg.controller.kind != "rl":
        raise ConfigError("train: controller.kind must be 'rl'")
    if args.episodes is not None:
        cfg.train.episodes = args.episodes
    rows, paths = harness.run_experiment(cfg)
    for path in paths:
        print(path)
    converged = sorted({r.converged_at for r in rows if r.converged_at is not None})
    if converged:
        print(f"converged at episode(s): {converged}")
    else:
        print("training curve did not stabilize within budget")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    rows, paths = harness.run_sweep(cfg)
    for path in paths:
        print(path)
    print(f"{len(rows)} result rows")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.networks < 1:
        raise ConfigError("gradcheck: --networks must be >= 1")
    results = harness.gradcheck_qnetworks(args.networks, args.seed)
    worst = max(r.max_rel_error for r in results)
    checked = sum(r.checked for r in results)
    skipped = sum(r.skipped_kinks for r in results)
    print(f"{len(results)} networks, {checked} coordinates checked, "
          f"{skipped} kink-skipped, max relative error {worst:.3g}")
    if any(not r.passed for r in results):
        print("gradient check FAILED (relative error >= 1e-4)", file=sys.stderr)
        return EXIT_CHECK
    print("gradient check passed")
    return EXIT_OK


def cmd_validate_config(args) -> int:
    cfg = config_mod.load_config(args.config)
    config_mod.resolve(cfg)
    n = cfg.network
    shape = "single intersection" if n.kind == "single" else f"{n.rows}x{n.cols} grid"
    print(f"{args.config}: OK ({shape}, {n.phases} phases, "
          f"controller {cfg.controller.kind}, {len(cfg.run.seeds)} seed(s))")
    return EXIT_OK


def cmd_show_defaults(_args) -> int:
    print(yaml.safe_dump(config_mod.default_config_dict(), sort_keys=False).rstrip())
    return EXIT_OK


COMMANDS = {
    "run": cmd_run,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "gradcheck": cmd_gradcheck,
    "validate-config": cmd_validate_config,
    "show-defaults": cmd_show_defaults,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures get a structured line, not a trace
        log.debug("unhandled error", exc_info=True)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
