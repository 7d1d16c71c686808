"""Seeded synthetic workload generation.

Default ranges mirror the standard simulation parameter table: uniform
sampling for every range, user positions uniform over the coverage disc,
and latencies independent of distance. Each SSR carries its user's latency
and priority, and the bucket the config's one fog-cloud link latency.
``GeneratorConfig`` refuses, on construction, every config that could
generate an invalid bucket: generated functions always fit the cloud limits,
so a cloud assignment is feasible by construction. A bucket is drawn from
``default_rng(seed)`` in a few blocks of doubles, in a fixed order: the SSR
count, the function counts (a sweep's split picks instead), the users, then
the functions. An integer on ``lo..hi`` is ``lo + floor(u * (hi - lo + 1))``
of one double ``u``, and every other value ``lo + (hi - lo) * u``. Only the
draws run bucket by bucket: ``generate_sweeps`` draws each bucket of a sweep
from its own generator and computes every value of the stack in one pass, and
``generate_bucket`` and ``generate_sweep`` are its one-bucket case.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    RESOURCE_KINDS,
    TABLE_COLUMNS,
    BucketStack,
    EnvironmentLimits,
    ResourceVector,
    SSRBucket,
    link_overflows,
    settings_violations,
)
from .scoring import DEFAULT_DELTA, ssr_priorities, user_priorities

Range = tuple[float, float]
# The most functions a config may put in one bucket, n_ssrs max times functions_per_ssr
# max: a 64 MiB table. The paper's sweeps stop at 100.
MAX_BUCKET_FUNCTIONS = 2**20


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
            # every tuple is a range; the chained comparison is False for NaN
            if isinstance(value, tuple) and not -math.inf < value[0] <= value[1] < math.inf:
                raise ValueError(f"{name} range ({value[0]}, {value[1]}) "
                                 "must have finite ends with min <= max")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_ssrs", "functions_per_ssr"):
            lo, hi = getattr(self, name)
            if lo < 1:
                raise ValueError(f"{name} range has min {lo} < 1")
        most = self.n_ssrs[1] * self.functions_per_ssr[1]
        if most > MAX_BUCKET_FUNCTIONS:  # named by the larger of the two maxima
            name = max(("n_ssrs", "functions_per_ssr"), key=lambda name: getattr(self, name)[1])
            raise ValueError(f"{name} range {getattr(self, name)} allows buckets of {most} "
                             f"functions, more than {MAX_BUCKET_FUNCTIONS}")
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
        if link_overflows(self.link_latency, self.latency[0], max(100, most)):
            raise ValueError(f"link latency {self.link_latency} over the latency range "
                             f"min {self.latency[0]} overflows the costs")

    def demand_ranges(self) -> dict[str, Range]:
        return {kind: getattr(self, f"{kind}_demand") for kind in RESOURCE_KINDS}


def _integers(lo: int, hi: int, u):
    """Integers on ``lo..hi`` from doubles ``u`` on [0, 1): ``lo + floor(u * (hi - lo + 1))``."""
    return lo + np.floor(u * (hi - lo + 1))


def _draw(rng: np.random.Generator, fn_counts: list[int]):
    """A bucket's function counts, then its users and its functions as blocks of doubles.

    The users are one block, a row per SSR: radius share, angle share and latency. The
    functions are one block too, a row per function in order: code size, input size,
    critical value, then the demand of each kind in RESOURCE_KINDS order.
    """
    return fn_counts, rng.random((len(fn_counts), 3)), rng.random((sum(fn_counts), 7))


def _stack(cfg: GeneratorConfig, draws: list) -> BucketStack:
    """The buckets of these draws as one stack, every value computed in one array pass.

    A value on a range is ``lo + (hi - lo) * u``; every user priority is one
    ``user_priorities`` call, and every function priority one ``ssr_priorities`` call.
    """
    counts = [count for fn_counts, _, _ in draws for count in fn_counts]
    users = np.concatenate([block for _, block, _ in draws])
    drawn = np.concatenate([block for _, _, block in draws])
    # uniform over the disc of radius D around the fog node
    radius = cfg.distance_cap * np.sqrt(users[:, 0])
    theta = 2.0 * np.pi * users[:, 1]
    x, y = (radius * np.cos(theta)).tolist(), (radius * np.sin(theta)).tolist()
    latencies = cfg.latency[0] + (cfg.latency[1] - cfg.latency[0]) * users[:, 2]
    ssr_count = [len(fn_counts) for fn_counts, _, _ in draws]
    user_scores = user_priorities(zip(x, y), latencies, cfg.distance_cap, cfg.priority_blend,
                                  counts=ssr_count)

    # the table's order: the demand kinds, then code and input size
    low, high = np.array([*cfg.demand_ranges().values(), cfg.code_size, cfg.input_size],
                         dtype=float).T
    table = np.empty((len(drawn), len(TABLE_COLUMNS)))
    table[:, :6] = low + (high - low) * drawn[:, [3, 4, 5, 6, 0, 1]]
    table[:, 6] = _integers(*cfg.critical_value, drawn[:, 2])
    table[:, 7] = ssr_priorities(table[:, 6], table[:, 4], table[:, 5], cfg.delta, counts=counts)
    return BucketStack(table, counts, latencies, user_scores, cfg.link_latency, cfg.fog,
                       cfg.cloud, cfg.importance_factors, ssr_count)


def generate_bucket(cfg: GeneratorConfig, seed: int | None = None) -> SSRBucket:
    """Generate one bucket; identical (config, seed) pairs give identical buckets."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    n = int(_integers(*cfg.n_ssrs, rng.random()))
    counts = _integers(*cfg.functions_per_ssr, rng.random(n)).astype(int)
    return _stack(cfg, [_draw(rng, counts.tolist())]).bucket(0)


def _draw_sweep(cfg: GeneratorConfig, total_functions: int, seed: int | None):
    if not 10 <= total_functions <= 100:
        raise ValueError(
            f"total functions {total_functions} outside [10, 100]; "
            "cannot split over 10 SSRs with 1-10 functions each"
        )
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    counts = [1] * 10
    open_slots = list(range(10))  # SSRs below 10 functions, ascending
    for u in rng.random(total_functions - 10).tolist():
        slot = open_slots[int(u * len(open_slots))]
        counts[slot] += 1
        if counts[slot] == 10:
            open_slots.remove(slot)
    return _draw(rng, counts)


def generate_sweeps(cfg: GeneratorConfig,
                    points: Sequence[tuple[int, int | None]]) -> BucketStack:
    """The sweep buckets of these (total functions, seed) points as one stack, in order.

    Each bucket is drawn from its own ``default_rng(seed)`` exactly as
    ``generate_sweep`` draws it, so bucket i of the stack equals
    ``generate_sweep(cfg, *points[i])``.
    """
    return _stack(cfg, [_draw_sweep(cfg, total, seed) for total, seed in points])


def generate_sweep(
    cfg: GeneratorConfig, total_functions: int, seed: int | None = None
) -> SSRBucket:
    """Exactly `total_functions` functions over exactly 10 SSRs, 1-10 each."""
    return generate_sweeps(cfg, [(total_functions, seed)]).bucket(0)
