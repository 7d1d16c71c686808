"""Placement statistics: distribution of functions, demand, and characteristics.

Averages over an environment with no functions are reported as None and
rendered as empty CSV cells; percentages carry full precision and are only
rounded by whoever plots them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import costs
from .model import RESOURCE_KINDS, Placement, ResourceKind, SSRBucket, StateError


@dataclass(frozen=True)
class PlacementReport:
    n_functions: int
    fog_fraction: float  # % of functions
    cloud_fraction: float
    demand_fog_pct: dict[ResourceKind, float]
    demand_cloud_pct: dict[ResourceKind, float]
    avg_code_fog: float | None
    avg_code_cloud: float | None
    avg_input_fog: float | None
    avg_input_cloud: float | None
    avg_critical_fog: float | None
    avg_critical_cloud: float | None
    avg_priority_fog: float | None
    avg_priority_cloud: float | None
    critical_counts: dict[int, tuple[int, int]]  # value -> (fog, cloud)
    total_step_cost: float
    objective_sum: float


def _running_totals(values: np.ndarray) -> list[float]:
    """Column sums of an n x k matrix, each added top to bottom."""
    return np.cumsum(values, axis=0)[-1].tolist()


def report(
    bucket: SSRBucket, placement: Placement, ctx: costs.CostContext | None = None
) -> PlacementReport:
    if not placement.is_complete():
        raise StateError("placement is incomplete")
    ctx = costs.context_for(bucket, ctx)
    on_fog = ctx.fog_flags(placement)
    n = len(on_fog)
    n_fog = int(on_fog.sum())
    n_cloud = n - n_fog

    # the four demand kinds, then code size, input size, critical value, priority
    table = np.column_stack(
        [ctx.demand, ctx.code_size, ctx.input_size, ctx.critical, ctx.fn_priority]
    )
    totals = _running_totals(table[:, :4])
    fog_sums = _running_totals(np.where(on_fog[:, None], table, 0.0))
    cloud_sums = _running_totals(np.where(on_fog[:, None], 0.0, table))

    demand_fog_pct = {}
    demand_cloud_pct = {}
    for k, kind in enumerate(RESOURCE_KINDS):
        total = totals[k]
        demand_fog_pct[kind] = 100.0 * fog_sums[k] / total if total else 0.0
        demand_cloud_pct[kind] = 100.0 - demand_fog_pct[kind] if total else 0.0
    fog_means = [v / n_fog if n_fog else None for v in fog_sums[4:]]
    cloud_means = [v / n_cloud if n_cloud else None for v in cloud_sums[4:]]

    fog_counts = np.bincount(ctx.critical[on_fog], minlength=6).tolist()
    cloud_counts = np.bincount(ctx.critical[~on_fog], minlength=6).tolist()
    counts = {v: (fog_counts[v], cloud_counts[v]) for v in range(1, 6)}

    return PlacementReport(
        n_functions=n,
        fog_fraction=100.0 * n_fog / n,
        cloud_fraction=100.0 * n_cloud / n,
        demand_fog_pct=demand_fog_pct,
        demand_cloud_pct=demand_cloud_pct,
        avg_code_fog=fog_means[0],
        avg_code_cloud=cloud_means[0],
        avg_input_fog=fog_means[1],
        avg_input_cloud=cloud_means[1],
        avg_critical_fog=fog_means[2],
        avg_critical_cloud=cloud_means[2],
        avg_priority_fog=fog_means[3],
        avg_priority_cloud=cloud_means[3],
        critical_counts=counts,
        total_step_cost=float(ctx.step_cost_sum(on_fog)),
        objective_sum=float(ctx.objective_total(on_fog)),
    )


def critical_histogram(
    bucket: SSRBucket, placement: Placement
) -> dict[int, dict[str, float]]:
    """Per critical value 1..5: fog/cloud counts and percentage split."""
    rep = report(bucket, placement)
    out = {}
    for value, (fog_n, cloud_n) in rep.critical_counts.items():
        total = fog_n + cloud_n
        out[value] = {
            "fog_count": fog_n,
            "cloud_count": cloud_n,
            "fog_pct": 100.0 * fog_n / total if total else 0.0,
            "cloud_pct": 100.0 * cloud_n / total if total else 0.0,
        }
    return out


REPORT_COLUMNS = (
    ["run", "algorithm", "total_functions", "seed", "n_functions",
     "fog_fraction", "cloud_fraction"]
    + [f"{k.value}_fog_pct" for k in RESOURCE_KINDS]
    + [f"{k.value}_cloud_pct" for k in RESOURCE_KINDS]
    + ["avg_code_fog", "avg_code_cloud", "avg_input_fog", "avg_input_cloud",
       "avg_critical_fog", "avg_critical_cloud", "avg_priority_fog", "avg_priority_cloud"]
    + [f"crit{v}_fog" for v in range(1, 6)]
    + [f"crit{v}_cloud" for v in range(1, 6)]
    + ["total_step_cost", "objective_sum"]
)


def report_row(
    rep: PlacementReport, run: int, algorithm: str, total_functions: int, seed: int
) -> dict:
    row: dict = {
        "run": run,
        "algorithm": algorithm,
        "total_functions": total_functions,
        "seed": seed,
        "n_functions": rep.n_functions,
        "fog_fraction": rep.fog_fraction,
        "cloud_fraction": rep.cloud_fraction,
        "avg_code_fog": rep.avg_code_fog,
        "avg_code_cloud": rep.avg_code_cloud,
        "avg_input_fog": rep.avg_input_fog,
        "avg_input_cloud": rep.avg_input_cloud,
        "avg_critical_fog": rep.avg_critical_fog,
        "avg_critical_cloud": rep.avg_critical_cloud,
        "avg_priority_fog": rep.avg_priority_fog,
        "avg_priority_cloud": rep.avg_priority_cloud,
        "total_step_cost": rep.total_step_cost,
        "objective_sum": rep.objective_sum,
    }
    for kind in RESOURCE_KINDS:
        row[f"{kind.value}_fog_pct"] = rep.demand_fog_pct[kind]
        row[f"{kind.value}_cloud_pct"] = rep.demand_cloud_pct[kind]
    for value, (fog_n, cloud_n) in rep.critical_counts.items():
        row[f"crit{value}_fog"] = fog_n
        row[f"crit{value}_cloud"] = cloud_n
    return row
