"""Experiment configuration and the sweep/compare runner behind the CLI."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import baselines, metrics
from .agent import AgentConfig, ValueNetwork, greedy_rollout
from .costs import CostContext
from .env import PlacementEnv
from .model import Placement, SSRBucket
from .workload import GeneratorConfig, generate_bucket, generate_sweep

ALGORITHMS = ("defdrel", "fog_first", "cloud_only", "random", "greedy_cost")
DEFAULT_SWEEP = tuple(range(10, 101, 10))

# Encoded-state slot budget shared by training and every sweep evaluation,
# so one checkpoint serves all bucket sizes.
MAX_FUNCTIONS = 100


@dataclass(frozen=True)
class ExperimentConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    sweep: tuple[int, ...] = DEFAULT_SWEEP
    algorithms: tuple[str, ...] = ("defdrel", "fog_first", "cloud_only")
    runs_per_point: int = 5

    def __post_init__(self) -> None:
        for n in self.sweep:
            if not 10 <= n <= 100:
                raise ValueError(f"sweep value {n} outside [10, 100]")
        if self.runs_per_point < 1:
            raise ValueError("runs per point must be >= 1")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")

    def to_dict(self) -> dict:
        return {
            "generator": self.generator.to_dict(),
            "agent": self.agent.to_dict(),
            "experiment": {
                "sweep": list(self.sweep),
                "algorithms": list(self.algorithms),
                "runs_per_point": self.runs_per_point,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        exp = d.get("experiment", {})
        kwargs: dict = {}
        if "sweep" in exp:
            kwargs["sweep"] = tuple(int(n) for n in exp["sweep"])
        if "algorithms" in exp:
            kwargs["algorithms"] = tuple(exp["algorithms"])
        if "runs_per_point" in exp:
            kwargs["runs_per_point"] = int(exp["runs_per_point"])
        return cls(
            generator=GeneratorConfig.from_dict(d.get("generator", {})),
            agent=AgentConfig.from_dict(d.get("agent", {})),
            **kwargs,
        )


def load_config(path: str | Path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads(Path(path).read_text()))


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), sort_keys=True, indent=2))


def training_env_factory(cfg: ExperimentConfig):
    """Fresh default-config bucket per episode, seeded from the generator seed."""
    def factory(episode: int) -> PlacementEnv:
        seed = cfg.generator.seed + episode
        bucket = generate_bucket(cfg.generator, seed=seed)
        return PlacementEnv(bucket, max_functions=MAX_FUNCTIONS, bucket_seed=seed)
    return factory


def _sweep_seed(base: int, total_functions: int, run: int) -> int:
    return base + 1000 * total_functions + run


def run_placement(
    algorithm: str,
    bucket: SSRBucket,
    net: ValueNetwork | None,
    rng: np.random.Generator,
    ctx: CostContext | None = None,
) -> Placement:
    if algorithm == "defdrel":
        if net is None:
            raise ValueError("defdrel requires a trained network")
        env = PlacementEnv(bucket, max_functions=MAX_FUNCTIONS, ctx=ctx)
        placement, _ = greedy_rollout(net, env)
        return placement
    if algorithm == "fog_first":
        return baselines.fog_first(bucket, ctx)
    if algorithm == "cloud_only":
        return baselines.cloud_only(bucket)
    if algorithm == "random":
        return baselines.random_feasible(bucket, rng, ctx)
    if algorithm == "greedy_cost":
        return baselines.greedy_cost(bucket, ctx)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_compare(cfg: ExperimentConfig, net: ValueNetwork | None) -> list[dict]:
    """One detail row per (sweep point, algorithm, run), in deterministic order.

    Every algorithm at a given (sweep point, run) sees the identical bucket.
    """
    rows = []
    for total in cfg.sweep:
        for run in range(cfg.runs_per_point):
            seed = _sweep_seed(cfg.generator.seed, total, run)
            bucket = generate_sweep(cfg.generator, total, seed=seed)
            ctx = CostContext.from_bucket(bucket)
            for algorithm in cfg.algorithms:
                rng = np.random.default_rng(seed)
                placement = run_placement(algorithm, bucket, net, rng, ctx)
                rep = metrics.report(bucket, placement, ctx)
                rows.append(metrics.report_row(rep, run, algorithm, total, seed))
    order = {name: i for i, name in enumerate(cfg.algorithms)}
    rows.sort(key=lambda r: (r["total_functions"], order[r["algorithm"]], r["run"]))
    return rows


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean of each numeric column per (algorithm, total_functions) group."""
    numeric = [
        c for c in metrics.REPORT_COLUMNS
        if c not in ("run", "algorithm", "seed", "total_functions")
    ]
    groups: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["algorithm"], row["total_functions"]), []).append(row)
    out = []
    for (algorithm, total) in sorted(groups, key=lambda k: (k[1], k[0])):
        members = groups[(algorithm, total)]
        agg: dict = {"algorithm": algorithm, "total_functions": total, "runs": len(members)}
        for col in numeric:
            values = [m[col] for m in members if m[col] is not None]
            agg[col] = sum(values) / len(values) if values else None
        out.append(agg)
    return out


def write_csv(rows: list[dict], columns: list[str], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ["" if row.get(c) is None else row.get(c) for c in columns]
            )


def write_detail_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(rows, list(metrics.REPORT_COLUMNS), path)


def write_mean_csv(rows: list[dict], path: str | Path) -> None:
    columns = ["algorithm", "total_functions", "runs"] + [
        c for c in metrics.REPORT_COLUMNS if c not in ("run", "algorithm", "seed", "total_functions")
    ]
    write_csv(rows, columns, path)
