"""Placement statistics: distribution of functions, demand, and characteristics.

Each average over a fog or cloud side that holds no functions is reported
as None and rendered as an empty CSV cell; percentages carry full precision
and are only rounded by whoever plots them.
"""
from __future__ import annotations

import numpy as np

from .costs import _running_total
from .model import RESOURCE_KINDS, Placement, SSRBucket

# the columns ``report`` fills, in CSV order; the mean CSV averages each of them
PLACEMENT_COLUMNS = (
    ["n_functions", "fog_fraction", "cloud_fraction"]
    + [f"{kind}_fog_pct" for kind in RESOURCE_KINDS]
    + [f"{kind}_cloud_pct" for kind in RESOURCE_KINDS]
    + ["avg_code_fog", "avg_code_cloud", "avg_input_fog", "avg_input_cloud",
       "avg_critical_fog", "avg_critical_cloud", "avg_priority_fog", "avg_priority_cloud"]
    + [f"crit{v}_fog" for v in range(1, 6)]
    + [f"crit{v}_cloud" for v in range(1, 6)]
    + ["total_step_cost", "objective_sum"]
)
REPORT_COLUMNS = ["run", "algorithm", "total_functions", "seed"] + PLACEMENT_COLUMNS


def report(bucket: SSRBucket, placement: Placement) -> dict:
    """One CSV row dict per placement: a value for each of ``PLACEMENT_COLUMNS``.

    Fractions and demand shares are percentages; ``critN_fog``/``critN_cloud``
    count the functions of critical value N on each side.
    """
    ctx = bucket.costs
    on_fog = ctx.on_fog(placement)
    n = len(on_fog)
    n_fog = int(on_fog.sum())
    n_cloud = n - n_fog
    row: dict = {
        "n_functions": n,
        "fog_fraction": 100.0 * n_fog / n,
        "cloud_fraction": 100.0 * n_cloud / n,
    }

    # one row per quantity: the four demand kinds, then code size, input size,
    # critical value, priority
    table = np.vstack([ctx.demand.T, ctx.code_size, ctx.input_size, ctx.critical, ctx.fn_priority])
    totals = _running_total(table[:4]).tolist()
    fog_sums = _running_total(np.where(on_fog, table, 0.0)).tolist()
    cloud_sums = _running_total(np.where(on_fog, 0.0, table)).tolist()

    for k, kind in enumerate(RESOURCE_KINDS):
        fog_pct = 100.0 * fog_sums[k] / totals[k] if totals[k] else 0.0
        row[f"{kind}_fog_pct"] = fog_pct
        row[f"{kind}_cloud_pct"] = 100.0 - fog_pct if totals[k] else 0.0
    for k, name in enumerate(("code", "input", "critical", "priority"), start=4):
        row[f"avg_{name}_fog"] = fog_sums[k] / n_fog if n_fog else None
        row[f"avg_{name}_cloud"] = cloud_sums[k] / n_cloud if n_cloud else None

    fog_counts = np.bincount(ctx.critical[on_fog], minlength=6).tolist()
    cloud_counts = np.bincount(ctx.critical[~on_fog], minlength=6).tolist()
    for v in range(1, 6):
        row[f"crit{v}_fog"] = fog_counts[v]
        row[f"crit{v}_cloud"] = cloud_counts[v]

    row["total_step_cost"] = float(ctx.step_cost_sum(on_fog))
    row["objective_sum"] = float(ctx.objective_total(on_fog))
    return row
