"""Placement statistics: distribution of functions, demand, and characteristics.

Each average over a fog or cloud side that holds no functions is reported
as None and rendered as an empty CSV cell; percentages carry full precision
and are only rounded by whoever plots them.
"""
from __future__ import annotations

from collections.abc import Sequence

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


def report(bucket: SSRBucket, placements: Sequence[Placement]) -> list[dict]:
    """One CSV row dict per placement, in order: a value for each of ``PLACEMENT_COLUMNS``.

    Fractions and demand shares are percentages; ``critN_fog``/``critN_cloud``
    count the functions of critical value N on each side. The placements are
    reported in one stacked pass, and each row equals that of its placement alone.
    """
    ctx = bucket.costs
    n = len(ctx.fog_ok)
    on_fog = np.array([ctx.on_fog(p) for p in placements], dtype=bool).reshape(-1, n)
    sides = np.stack([on_fog, ~on_fog], axis=1)  # placement x (fog, cloud) x function
    counts = sides.sum(axis=2)

    # one row per quantity: the four demand kinds, then code size, input size,
    # critical value, priority
    table = bucket.table.T
    totals = _running_total(table[:4])
    sums = _running_total(np.where(sides[:, :, None, :], table, 0.0))  # placement x side x quantity
    with np.errstate(divide="ignore", invalid="ignore"):
        fog_pct = np.where(totals != 0, 100.0 * sums[:, 0, :4] / totals, 0.0)
        means = (sums[:, :, 4:] / counts[:, :, None]).transpose(0, 2, 1).reshape(-1, 8)
    cloud_pct = np.where(totals != 0, 100.0 - fog_pct, 0.0)
    # the functions of each critical value per placement and side, in one bincount
    bins = np.arange(2 * len(on_fog)).reshape(-1, 2, 1) * 6 + table[6].astype(int)
    critical = np.bincount(bins[sides], minlength=12 * len(on_fog)).reshape(-1, 2, 6)[:, :, 1:]

    rows = []
    for (n_fog, n_cloud), fog, cloud, mean, crit, step, objective in zip(
            counts.tolist(), fog_pct.tolist(), cloud_pct.tolist(), means.tolist(),
            critical.reshape(-1, 10).tolist(), ctx.step_cost_sum(on_fog).tolist(),
            ctx.objective_total(on_fog).tolist()):
        # each quantity's fog then cloud average, None for a side that holds no functions
        averages = [m if side_count else None
                    for m, side_count in zip(mean, (n_fog, n_cloud) * 4)]
        rows.append(dict(zip(PLACEMENT_COLUMNS, [
            n, 100.0 * n_fog / n, 100.0 * n_cloud / n, *fog, *cloud, *averages, *crit,
            step, objective])))
    return rows
