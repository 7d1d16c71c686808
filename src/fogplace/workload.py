"""Seeded synthetic workload generation.

Default ranges mirror the standard simulation parameter table: uniform
sampling for every range, user positions uniform over the coverage disc,
and latencies independent of distance. Generated functions always fit the
cloud limits, so a cloud assignment is feasible by construction.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    RESOURCE_KINDS,
    EnvironmentLimits,
    GenerationError,
    ResourceVector,
    SSR,
    SSRBucket,
    ServerlessFunction,
    User,
)
from .scoring import DEFAULT_DELTA, with_priorities

Range = tuple[float, float]


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    n_ssrs: tuple[int, int] = (4, 10)
    functions_per_ssr: tuple[int, int] = (4, 10)
    code_size: Range = (10.0, 500.0)
    input_size: Range = (100.0, 2500.0)
    cpu_demand: Range = (1.0, 4.0)
    ram_demand: Range = (100.0, 2048.0)
    storage_demand: Range = (10.0, 2048.0)
    net_io_demand: Range = (10.0, 4096.0)
    critical_value: tuple[int, int] = (1, 5)
    fog: EnvironmentLimits = EnvironmentLimits(
        ResourceVector(cpu=2, ram=1024, storage=1024, net_io=2048),
        code_size_limit=300.0, input_size_limit=1500.0, link_latency=0.0)
    cloud: EnvironmentLimits = EnvironmentLimits(
        ResourceVector(cpu=6, ram=5120, storage=10240, net_io=10240),
        code_size_limit=500.0, input_size_limit=2500.0, link_latency=40.0)
    distance_cap: float = 100.0  # km
    latency: Range = (5.0, 100.0)  # ms
    priority_blend: float = 0.5
    importance_factors: ResourceVector = ResourceVector(0.25, 0.25, 0.25, 0.25)
    delta: float = DEFAULT_DELTA

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, tuple) and value[0] > value[1]:  # every tuple is a range
                raise ValueError(f"{name} range has min {value[0]} > max {value[1]}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_ssrs", "functions_per_ssr"):
            if getattr(self, name)[0] < 1:
                raise ValueError(f"{name} range has min {getattr(self, name)[0]} < 1")
        if not 1 <= self.critical_value[0] <= self.critical_value[1] <= 5:
            raise ValueError(f"critical_value range {self.critical_value} outside 1..5")

    def demand_ranges(self) -> dict:
        return {
            RESOURCE_KINDS[0]: self.cpu_demand,
            RESOURCE_KINDS[1]: self.ram_demand,
            RESOURCE_KINDS[2]: self.storage_demand,
            RESOURCE_KINDS[3]: self.net_io_demand,
        }


def _check_cloud_feasibility(cfg: GeneratorConfig) -> None:
    cap = cfg.cloud.per_function_cap
    for kind, (lo, hi) in cfg.demand_ranges().items():
        if hi > cap.get(kind):
            raise GenerationError(
                f"{kind.value} demand range max {hi} exceeds cloud cap {cap.get(kind)}"
            )
    if cfg.code_size[1] > cfg.cloud.code_size_limit:
        raise GenerationError("code size range exceeds cloud code size limit")
    if cfg.input_size[1] > cfg.cloud.input_size_limit:
        raise GenerationError("input size range exceeds cloud input size limit")
    if cfg.code_size[0] <= 0:
        raise GenerationError("code sizes must be > 0")
    if cfg.input_size[0] <= 0:
        raise GenerationError("input sizes must be > 0 to keep SSR priorities well defined")


def _sample_function(
    cfg: GeneratorConfig, rng: np.random.Generator, ssr_index: int, index: int
) -> ServerlessFunction:
    code = rng.uniform(*cfg.code_size)
    input_size = rng.uniform(*cfg.input_size)
    critical = int(rng.integers(cfg.critical_value[0], cfg.critical_value[1] + 1))
    base = {}
    supplementary = {}
    for kind, (lo, hi) in cfg.demand_ranges().items():
        total = rng.uniform(lo, hi)
        split = rng.uniform(0.0, 1.0)
        base[kind.value] = total * split
        supplementary[kind.value] = total - total * split
    return ServerlessFunction(
        ssr_index=ssr_index,
        index=index,
        code_size=code,
        input_size=input_size,
        critical_value=critical,
        base_demand=ResourceVector(**base),
        supplementary_demand=ResourceVector(**supplementary),
    )


def _build_bucket(
    cfg: GeneratorConfig, rng: np.random.Generator, fn_counts: list[int]
) -> SSRBucket:
    users = []
    for i in range(len(fn_counts)):
        # uniform over the disc of radius D around the fog node
        radius = cfg.distance_cap * np.sqrt(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        users.append(
            User(
                id=i,
                position=(float(radius * np.cos(theta)), float(radius * np.sin(theta))),
                latency=float(rng.uniform(*cfg.latency)),
            )
        )

    ssrs = []
    for i, count in enumerate(fn_counts):
        fns = tuple(_sample_function(cfg, rng, i, j) for j in range(count))
        ssrs.append(SSR(user_id=i, functions=fns))

    bucket = SSRBucket(
        ssrs=tuple(ssrs),
        users=tuple(users),
        fog=cfg.fog,
        cloud=cfg.cloud,
        importance_factors=cfg.importance_factors,
        distance_cap=cfg.distance_cap,
        priority_blend=cfg.priority_blend,
    )
    return with_priorities(bucket, cfg.delta)


def generate_bucket(cfg: GeneratorConfig, seed: int | None = None) -> SSRBucket:
    """Generate one bucket; identical (config, seed) pairs give identical buckets."""
    _check_cloud_feasibility(cfg)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    n = int(rng.integers(cfg.n_ssrs[0], cfg.n_ssrs[1] + 1))
    counts = [int(rng.integers(cfg.functions_per_ssr[0], cfg.functions_per_ssr[1] + 1))
              for _ in range(n)]
    return _build_bucket(cfg, rng, counts)


def generate_sweep(
    cfg: GeneratorConfig, total_functions: int, seed: int | None = None
) -> SSRBucket:
    """Exactly `total_functions` functions over exactly 10 SSRs, 1-10 each."""
    if not 10 <= total_functions <= 100:
        raise ValueError(
            f"total functions {total_functions} outside [10, 100]; "
            "cannot split over 10 SSRs with 1-10 functions each"
        )
    _check_cloud_feasibility(cfg)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    counts = [1] * 10
    for _ in range(total_functions - 10):
        open_slots = [i for i in range(10) if counts[i] < 10]
        counts[int(rng.choice(open_slots))] += 1
    return _build_bucket(cfg, rng, counts)
