"""Experiment configuration and the sweep/compare runner behind the CLI."""
from __future__ import annotations

import csv
import json
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import baselines, metrics
from .agent import AgentConfig, ValueNetwork, greedy_rollout
from .codec import decode, encode
from .costs import _running_total
from .env import PlacementEnv
from .model import BucketStack, Placement
from .workload import GeneratorConfig, generate_bucket, generate_sweeps

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
            if not values:
                raise ValueError(f"{name} is empty: compare would write no rows")
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
    bucket: BucketStack,
    net: ValueNetwork | None,
    seeds: Sequence[int],
) -> Placement:
    """The placement one algorithm makes on every bucket of a stack, in its flattened order.

    ``random`` draws each bucket's from a generator seeded with that bucket's seed, and
    ``defdrel`` rolls out each bucket in its own environment; every other algorithm
    places the whole stack at once.
    """
    if algorithm == "defdrel":
        if net is None:
            raise ValueError("defdrel requires a trained network")
        bucket.costs  # validated and built once, so each bucket's view takes its slice
        placement: list[bool] = []
        for i in range(len(bucket.ssr_count)):
            env = PlacementEnv(bucket.bucket(i), max_functions=MAX_FUNCTIONS)
            placement += greedy_rollout(net, env)[0]
        return tuple(placement)
    if algorithm == "fog_first":
        return baselines.fog_first(bucket)
    if algorithm == "cloud_only":
        return baselines.cloud_only(bucket)
    if algorithm == "random":
        return baselines.random_feasible(bucket, [np.random.default_rng(s) for s in seeds])
    if algorithm == "greedy_cost":
        return baselines.greedy_cost(bucket)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_compare(cfg: ExperimentConfig, net: ValueNetwork | None) -> list[dict]:
    """One detail row per (sweep point, algorithm, run), in deterministic order.

    Every bucket of the sweep is drawn first, as one stack, in the order sweep point
    by sweep point and run by run; every algorithm at a given (sweep point, run) sees
    the identical bucket, and one report covers every placement of every bucket. The
    rows are ordered by sweep point, algorithm, then run.
    """
    settings = cfg.experiment
    points = [(total, run) for total in settings.sweep for run in range(settings.runs_per_point)]
    seeds = [_sweep_seed(cfg.generator.seed, total, run) for total, run in points]
    stack = generate_sweeps(cfg.generator, [(total, seed) for (total, _), seed in zip(points, seeds)])
    placements = [run_placement(algorithm, stack, net, seeds) for algorithm in settings.algorithms]
    report = metrics.report(stack, placements)  # placement by placement, bucket by bucket
    rows = []
    for total in sorted(settings.sweep):
        first = settings.sweep.index(total) * settings.runs_per_point
        for k, algorithm in enumerate(settings.algorithms):
            for b in range(first, first + settings.runs_per_point):
                rows.append({"run": points[b][1], "algorithm": algorithm, "total_functions": total,
                             "seed": seeds[b], **report[k * len(points) + b]})
    return rows


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean of each placement column per (algorithm, total_functions) group.

    Each mean adds its group's values left to right, in row order, skipping None, and
    divides by their number, in one pass over every group; a column with no values in
    a group averages to None.
    """
    groups: dict[tuple[str, int], list[int]] = {}
    for i, row in enumerate(rows):
        groups.setdefault((row["algorithm"], row["total_functions"]), []).append(i)
    keys = sorted(groups, key=lambda k: (k[1], k[0]))
    if not keys:
        return []
    columns = metrics.PLACEMENT_COLUMNS
    # a row per input row, then an empty one that pads the groups; None reads as NaN
    values = np.array([*map(itemgetter(*columns), rows), [None] * len(columns)], dtype=float)
    present = ~np.isnan(values)
    width = max(len(members) for members in groups.values())
    members = np.array([groups[k] + [len(rows)] * (width - len(groups[k])) for k in keys])
    # group x member x column: each sum adds its group's values left to right
    totals = _running_total(np.where(present, values, 0.0)[members], axis=1)
    counts = present[members].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = np.where(counts == 0, None, totals / counts).tolist()
    return [{"algorithm": algorithm, "total_functions": total, "runs": len(groups[(algorithm, total)]),
             **dict(zip(columns, mean))} for (algorithm, total), mean in zip(keys, means)]


def write_csv(rows: list[dict], columns: list[str], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([row.get(c) for c in columns] for row in rows)  # None writes as ""


def write_detail_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(rows, list(metrics.REPORT_COLUMNS), path)


def write_mean_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(rows, ["algorithm", "total_functions", "runs"] + metrics.PLACEMENT_COLUMNS, path)
