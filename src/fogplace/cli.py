"""Command line entry point: generate, train, compare, oracle, validate.

Config precedence: built-in defaults < config file (--config or the
FOGPLACE_CONFIG environment variable) < command line flags.
Exit codes: 0 success, 1 runtime fault or invalid bucket, 2 usage error or a
config, bucket or checkpoint file that cannot be read, is not JSON or is malformed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from . import baselines
from .agent import TRAINING_LOG_COLUMNS, TrainingFault, ValueNetwork, train
from .codec import DecodeError
from .experiment import (
    MAX_FUNCTIONS,
    ExperimentConfig,
    load_config,
    run_compare,
    training_env_factory,
    write_csv,
    write_detail_csv,
    write_mean_csv,
    aggregate_rows,
)
from .env import SLOT_WIDTH
from .model import InvalidBucket, load_bucket, save_bucket, validate_bucket
from .workload import generate_bucket, generate_sweep

CONFIG_ENV_VAR = "FOGPLACE_CONFIG"


class UsageError(Exception):
    pass


def _read(kind: str, load, path: str):
    """Load a config, bucket or checkpoint file; a file that cannot be read, is not
    text or JSON, or has the wrong shape is a usage error."""
    try:
        return load(path)
    except DecodeError as exc:
        raise UsageError(f"malformed {kind} {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load {kind} {path}: {exc}") from exc


def _resolve_config(args) -> ExperimentConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    cfg = ExperimentConfig() if path is None else _read("config", load_config, path)
    try:
        if getattr(args, "seed", None) is not None:
            cfg = dataclasses.replace(
                cfg, generator=dataclasses.replace(cfg.generator, seed=args.seed)
            )
        if getattr(args, "episodes", None) is not None:
            cfg = dataclasses.replace(
                cfg, agent=dataclasses.replace(cfg.agent, episodes=args.episodes)
            )
    except ValueError as exc:
        raise UsageError(f"invalid command line value: {exc}") from exc
    return cfg


def cmd_generate(args) -> int:
    cfg = _resolve_config(args)
    if args.sweep_n is None:
        bucket = generate_bucket(cfg.generator)
    else:
        try:
            bucket = generate_sweep(cfg.generator, args.sweep_n)
        except ValueError as exc:  # a total outside [10, 100]
            raise UsageError(str(exc)) from exc
    save_bucket(bucket, args.out)
    print(f"wrote valid bucket with {bucket.n_functions} functions to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    try:
        factory = training_env_factory(cfg)
    except ValueError as exc:
        raise UsageError(f"invalid config: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = train(factory, cfg.agent)
    except TrainingFault as fault:
        print(f"training fault: {fault}", file=sys.stderr)
        return 1
    checkpoint = out_dir / "checkpoint.json"
    result.net.save(checkpoint)
    write_csv(result.log, TRAINING_LOG_COLUMNS, out_dir / "training_log.csv")
    print(f"trained {cfg.agent.episodes} episodes; checkpoint at {checkpoint}")
    return 0


def cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    net = None
    if "defdrel" in cfg.experiment.algorithms:
        if args.checkpoint is None:
            raise UsageError("--checkpoint is required when the defdrel agent is compared")
        net = _read("checkpoint", ValueNetwork.load, args.checkpoint)
        width = MAX_FUNCTIONS * SLOT_WIDTH + 1
        if net.input_size != width:
            raise UsageError(
                f"checkpoint {args.checkpoint} takes {net.input_size} inputs; compare "
                f"encodes states of {width} (MAX_FUNCTIONS * SLOT_WIDTH + 1)"
            )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_compare(cfg, net)
    write_detail_csv(rows, out_dir / "results_detail.csv")
    write_mean_csv(aggregate_rows(rows), out_dir / "results_mean.csv")
    print(f"wrote {len(rows)} detail rows to {out_dir}")
    return 0


def _print_violations(violations: list[str]) -> bool:
    """Print one VIOLATION line per broken invariant; True when there were any."""
    for v in violations:
        print(f"VIOLATION: {v}")
    return bool(violations)


def cmd_oracle(args) -> int:
    bucket = _read("bucket", load_bucket, args.bucket)
    try:  # reading the cost arrays validates the bucket, once
        result = baselines.exact_optimum(bucket)
    except InvalidBucket as invalid:
        _print_violations(invalid.violations)
        return 1

    def pairs(placement):  # each function as its [fog, cloud] flags
        return [[1, 0] if on_fog else [0, 1] for on_fog in placement]

    doc = {
        "best_step_cost": result.best_step_cost,
        "best_step_placement": pairs(result.best_step_placement),
        "best_objective": result.best_objective,
        "best_objective_placement": pairs(result.best_objective_placement),
    }
    print(json.dumps(doc, indent=2))
    return 0


def cmd_validate(args) -> int:
    if _print_violations(validate_bucket(_read("bucket", load_bucket, args.bucket))):
        return 1
    print("bucket is valid")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogplace",
        description="Fog/cloud serverless function placement simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="experiment config JSON path")
        p.add_argument("--seed", type=int, help="override the generator seed")

    p_gen = sub.add_parser("generate", help="generate a bucket JSON file")
    add_common(p_gen)
    p_gen.add_argument("--out", required=True, help="output bucket path")
    p_gen.add_argument("--sweep-n", type=int, default=None,
                       help="generate a 10-SSR sweep bucket with this many functions")
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train the placement agent")
    add_common(p_train)
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--episodes", type=int, help="override training episodes")
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", help="run the sweep comparison")
    add_common(p_cmp)
    p_cmp.add_argument("--checkpoint", help="trained network checkpoint path")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_oracle = sub.add_parser("oracle", help="exact optimum of a bucket")
    p_oracle.add_argument("bucket", help="bucket JSON path")
    p_oracle.set_defaults(func=cmd_oracle)

    p_val = sub.add_parser("validate", help="validate a bucket JSON file")
    p_val.add_argument("bucket", help="bucket JSON path")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
