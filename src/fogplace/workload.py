"""Seeded synthetic workload generation.

Default ranges mirror the standard simulation parameter table: uniform
sampling for every range, user positions uniform over the coverage disc,
and latencies independent of distance. Each SSR carries its user's latency
and priority, and the bucket the config's one fog-cloud link latency.
``GeneratorConfig`` refuses, on construction, every config that could
generate an invalid bucket: generated functions always fit the cloud limits,
so a cloud assignment is feasible by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    RESOURCE_KINDS,
    EnvironmentLimits,
    ResourceVector,
    SSR,
    SSRBucket,
    ServerlessFunction,
    link_overflows,
    settings_violations,
)
from .scoring import DEFAULT_DELTA, ssr_priorities, user_priorities

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
        code_size_limit=300.0, input_size_limit=1500.0)
    cloud: EnvironmentLimits = EnvironmentLimits(
        ResourceVector(cpu=6, ram=5120, storage=10240, net_io=10240),
        code_size_limit=500.0, input_size_limit=2500.0)
    link_latency: float = 40.0  # ms, the fog-cloud round trip
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
        cloud, cap = self.cloud, self.cloud.per_function_cap
        maxima = {f"{kind}_demand": getattr(cap, kind) for kind in RESOURCE_KINDS}
        maxima.update(code_size=cloud.code_size_limit, input_size=cloud.input_size_limit)
        for name, limit in maxima.items():  # every generated function fits the cloud
            lo, hi = getattr(self, name)
            if hi > limit:
                raise ValueError(f"{name} range max {hi} exceeds the cloud limit {limit}")
            if lo < 0:
                raise ValueError(f"{name} range has min {lo} < 0")
        for name in ("code_size", "input_size", "latency"):  # priorities divide by these
            if getattr(self, name)[0] <= 0:
                raise ValueError(f"{name} range has min {getattr(self, name)[0]} <= 0")
        if not (self.delta > 0 and 1 / self.delta < math.inf):  # the top function priority
            raise ValueError(f"delta must be > 0 with a finite 1/delta, got {self.delta}")
        if not 0 <= self.priority_blend <= 1:
            raise ValueError(f"priority blend {self.priority_blend} outside [0, 1]")
        if not (math.isfinite(self.distance_cap) and self.distance_cap > 0):
            raise ValueError(f"distance cap {self.distance_cap} must be finite and > 0")
        problems = settings_violations(self)
        if problems:
            raise ValueError("; ".join(problems))
        # a bucket's largest user latency is at least the range min; a sweep has 100 functions
        most = max(100, self.n_ssrs[1] * self.functions_per_ssr[1])
        if link_overflows(self.link_latency, self.latency[0], most):
            raise ValueError(f"link latency {self.link_latency} over the latency range "
                             f"min {self.latency[0]} overflows the costs")

    def demand_ranges(self) -> dict[str, Range]:
        return {kind: getattr(self, f"{kind}_demand") for kind in RESOURCE_KINDS}


def _build_bucket(
    cfg: GeneratorConfig, rng: np.random.Generator, fn_counts: list[int]
) -> SSRBucket:
    """Draw the users, then every function in order, and build each entity once.

    Per function the draws are code and input size, the critical value, then
    (total demand, base share) for each resource kind in RESOURCE_KINDS order.
    The stored demand is ``base + (total - base)``, which can differ from ``total``
    in the last bit: a bucket's costs equal those of the format that stored both parts.
    ``rng.uniform(lo, hi)`` is ``lo + (hi - lo) * rng.random()``, so raw
    ``rng.random(k)`` draws scaled afterwards give the same values. A bounded
    integer draw uses half of a buffered 64-bit word, so the critical value
    stays one ``rng.integers`` call per function, between its uniforms.
    """
    positions, latencies = [], []
    for _ in fn_counts:
        # uniform over the disc of radius D around the fog node
        radius = cfg.distance_cap * np.sqrt(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        positions.append((float(radius * np.cos(theta)), float(radius * np.sin(theta))))
        latencies.append(float(rng.uniform(*cfg.latency)))
    user_scores = user_priorities(positions, latencies, cfg.distance_cap, cfg.priority_blend)

    size_lo = np.array([cfg.code_size[0], cfg.input_size[0]], dtype=float)
    size_span = np.array([cfg.code_size[1], cfg.input_size[1]], dtype=float) - size_lo
    # (total, share) per kind: the share is uniform on [0, 1)
    ranges = cfg.demand_ranges().values()
    demand_lo = np.array([x for lo, _ in ranges for x in (lo, 0.0)], dtype=float)
    demand_span = np.array([x for _, hi in ranges for x in (hi, 1.0)], dtype=float) - demand_lo
    critical_lo, critical_end = cfg.critical_value[0], cfg.critical_value[1] + 1
    n = sum(fn_counts)
    size_draws = np.empty((n, 2))
    demand_draws = np.empty((n, 8))
    critical = []
    for k in range(n):
        size_draws[k] = rng.random(2)
        critical.append(int(rng.integers(critical_lo, critical_end)))
        demand_draws[k] = rng.random(8)

    code, input_size = (size_lo + size_span * size_draws).T.tolist()
    drawn = demand_lo + demand_span * demand_draws
    total, share = drawn[:, 0::2], drawn[:, 1::2]
    base = total * share
    demand_rows = (base + (total - base)).tolist()

    ssrs, start = [], 0
    for count, latency, user_score in zip(fn_counts, latencies, user_scores):
        stop = start + count
        priorities = ssr_priorities(critical[start:stop], code[start:stop],
                                    input_size[start:stop], cfg.delta)
        ssrs.append(SSR(user_latency=latency, user_priority=user_score, functions=tuple(
            ServerlessFunction(
                code_size=code[k],
                input_size=input_size[k],
                critical_value=critical[k],
                demand=ResourceVector(*demand_rows[k]),
                priority=p,
            )
            for k, p in zip(range(start, stop), priorities)
        )))
        start = stop

    return SSRBucket(
        ssrs=tuple(ssrs),
        link_latency=cfg.link_latency,
        fog=cfg.fog,
        cloud=cfg.cloud,
        importance_factors=cfg.importance_factors,
    )


def generate_bucket(cfg: GeneratorConfig, seed: int | None = None) -> SSRBucket:
    """Generate one bucket; identical (config, seed) pairs give identical buckets."""
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
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    counts = [1] * 10
    open_slots = list(range(10))  # SSRs below 10 functions, ascending
    for _ in range(total_functions - 10):
        slot = open_slots[int(rng.integers(0, len(open_slots)))]
        counts[slot] += 1
        if counts[slot] == 10:
            open_slots.remove(slot)
    return _build_bucket(cfg, rng, counts)
