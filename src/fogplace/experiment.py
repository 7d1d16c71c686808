"""Experiment configuration and the sweep/compare runner behind the CLI."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, metrics
from .agent import AgentConfig, ValueNetwork, greedy_rollout
from .codec import decode, encode
from .env import PlacementEnv
from .model import Placement, SSRBucket
from .workload import GeneratorConfig, generate_bucket, generate_sweep

ALGORITHMS = ("defdrel", "fog_first", "cloud_only", "random", "greedy_cost")
DEFAULT_SWEEP = tuple(range(10, 101, 10))

# Encoded-state slot budget shared by training and every sweep evaluation,
# so one checkpoint serves all bucket sizes.
MAX_FUNCTIONS = 100


@dataclass(frozen=True)
class SweepSettings:
    """What ``compare`` runs; the ``experiment`` section of a config file."""

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
        for name, values in (("sweep", self.sweep), ("algorithms", self.algorithms)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} lists an entry twice: {list(values)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A config file: its generator, agent and experiment sections."""

    generator: GeneratorConfig = GeneratorConfig()
    agent: AgentConfig = AgentConfig()
    experiment: SweepSettings = SweepSettings()


def load_config(path: str | Path) -> ExperimentConfig:
    """A config file whose sections may omit keys; ``DecodeError`` if it is not one."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict):
        for name, default in encode(ExperimentConfig()).items():
            section = doc.setdefault(name, default)
            if isinstance(section, dict):
                doc[name] = {**default, **section}
    return decode(ExperimentConfig, doc)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(encode(cfg), sort_keys=True, indent=2))


def training_env_factory(cfg: ExperimentConfig):
    """Fresh default-config bucket per episode, seeded from the generator seed.

    ``ValueError`` if the generator can draw more functions than ``MAX_FUNCTIONS``.
    """
    largest = cfg.generator.n_ssrs[1] * cfg.generator.functions_per_ssr[1]
    if largest > MAX_FUNCTIONS:
        raise ValueError(f"the generator draws buckets of up to {largest} functions, "
                         f"but training encodes at most {MAX_FUNCTIONS}")

    def factory(episode: int) -> PlacementEnv:
        bucket = generate_bucket(cfg.generator, seed=cfg.generator.seed + episode)
        return PlacementEnv(bucket, max_functions=MAX_FUNCTIONS)
    return factory


def _sweep_seed(base: int, total_functions: int, run: int) -> int:
    return base + 1000 * total_functions + run


def run_placement(
    algorithm: str,
    bucket: SSRBucket,
    net: ValueNetwork | None,
    rng: np.random.Generator,
) -> Placement:
    if algorithm == "defdrel":
        if net is None:
            raise ValueError("defdrel requires a trained network")
        env = PlacementEnv(bucket, max_functions=MAX_FUNCTIONS)
        placement, _ = greedy_rollout(net, env)
        return placement
    if algorithm == "fog_first":
        return baselines.fog_first(bucket)
    if algorithm == "cloud_only":
        return baselines.cloud_only(bucket)
    if algorithm == "random":
        return baselines.random_feasible(bucket, rng)
    if algorithm == "greedy_cost":
        return baselines.greedy_cost(bucket)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_compare(cfg: ExperimentConfig, net: ValueNetwork | None) -> list[dict]:
    """One detail row per (sweep point, algorithm, run), in deterministic order.

    Every algorithm at a given (sweep point, run) sees the identical bucket.
    """
    rows, settings = [], cfg.experiment
    for total in settings.sweep:
        for run in range(settings.runs_per_point):
            seed = _sweep_seed(cfg.generator.seed, total, run)
            bucket = generate_sweep(cfg.generator, total, seed=seed)
            for algorithm in settings.algorithms:
                rng = np.random.default_rng(seed)
                placement = run_placement(algorithm, bucket, net, rng)
                rows.append({"run": run, "algorithm": algorithm, "total_functions": total,
                             "seed": seed, **metrics.report(bucket, placement)})
    order = {name: i for i, name in enumerate(settings.algorithms)}
    rows.sort(key=lambda r: (r["total_functions"], order[r["algorithm"]], r["run"]))
    return rows


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean of each placement column per (algorithm, total_functions) group."""
    groups: dict[tuple[str, int], list[dict]] = {}
    for row in rows:
        groups.setdefault((row["algorithm"], row["total_functions"]), []).append(row)
    out = []
    for (algorithm, total) in sorted(groups, key=lambda k: (k[1], k[0])):
        members = groups[(algorithm, total)]
        agg: dict = {"algorithm": algorithm, "total_functions": total, "runs": len(members)}
        for col in metrics.PLACEMENT_COLUMNS:
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
    write_csv(rows, ["algorithm", "total_functions", "runs"] + metrics.PLACEMENT_COLUMNS, path)
