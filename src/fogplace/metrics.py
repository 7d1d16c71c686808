"""Placement statistics: distribution of functions, demand, and characteristics.

Each average over a fog or cloud side that holds no functions is reported
as None and rendered as an empty CSV cell; percentages carry full precision
and are only rounded by whoever plots them.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .model import RESOURCE_KINDS, BucketStack, Placement

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


def report(bucket: BucketStack, placements: Sequence[Placement]) -> list[dict]:
    """One CSV row dict per placement and bucket, a value for each of ``PLACEMENT_COLUMNS``:
    placement by placement, and within each placement bucket by bucket. A placement of a
    stack gives a fog flag to every function of the stack, in its flattened order.

    Fractions and demand shares are percentages; ``critN_fog``/``critN_cloud``
    count the functions of critical value N on each side. Every placement of every
    bucket is reported in one stacked pass, and each row equals that of its bucket and
    placement alone.
    """
    ctx = bucket.costs
    on_fog = np.array([ctx.on_fog(p) for p in placements], dtype=bool).reshape(-1, len(ctx.fog_ok))
    n_placements, n_buckets = len(on_fog), len(ctx.ssr_count)
    sizes = np.diff(bucket.edges[1])  # per bucket, its functions
    fn_bucket = np.repeat(np.arange(n_buckets), sizes)

    # the functions of each critical value per placement, side and bucket, counted
    # exactly, so their critical values also sum exactly
    critical = bucket.table[:, 6].astype(int)
    fog_bins = (np.arange(n_placements)[:, None] * n_buckets + fn_bucket) * 6 + critical
    fog_crit = np.bincount(fog_bins[on_fog], minlength=n_placements * n_buckets * 6)
    crit = np.empty((n_placements, 2, n_buckets, 6), dtype=int)  # placement x side x bucket
    crit[:, 0] = fog_crit.reshape(n_placements, n_buckets, 6)
    crit[:, 1] = np.bincount(fn_bucket * 6 + critical, minlength=n_buckets * 6).reshape(-1, 6)
    crit[:, 1] -= crit[:, 0]
    counts = crit.sum(axis=3)

    # per-bucket sums, a column per quantity: the demand totals, then per placement the
    # fog sums of the demand kinds, code size, input size and priority, and the cloud
    # sums of the last three
    n = bucket.n_functions
    by_function = np.concatenate([
        bucket.table[:, :4],
        np.where(on_fog.T[:, :, None], bucket.table[:, None, [0, 1, 2, 3, 4, 5, 7]], 0.0)
        .reshape(n, -1),
        np.where(on_fog.T[:, :, None], 0.0, bucket.table[:, None, [4, 5, 7]]).reshape(n, -1),
    ], axis=1)
    sums = ctx.bucket_sums(by_function.T)
    totals = sums[:4]
    fog = sums[4:4 + 7 * n_placements].reshape(n_placements, 7, n_buckets)
    cloud = sums[4 + 7 * n_placements:].reshape(n_placements, 3, n_buckets)
    side_sums = np.stack([  # placement x (code, input, critical, priority) x side x bucket
        np.stack([fog[:, 4], cloud[:, 0]], axis=1), np.stack([fog[:, 5], cloud[:, 1]], axis=1),
        (crit * np.arange(6)).sum(axis=3), np.stack([fog[:, 6], cloud[:, 2]], axis=1)], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        fog_pct = np.where(totals != 0, 100.0 * fog[:, :4] / totals, 0.0)
        means = side_sums / counts[:, None]
    cloud_pct = np.where(totals != 0, 100.0 - fog_pct, 0.0)

    # placement x column x bucket, then a row per placement and bucket
    cells = np.empty((n_placements, len(PLACEMENT_COLUMNS), n_buckets), dtype=object)
    cells[:, 0] = sizes
    cells[:, 1:3] = 100.0 * counts / sizes
    cells[:, 3:7], cells[:, 7:11] = fog_pct, cloud_pct
    # each quantity's fog then cloud average, None for a side that holds no functions
    cells[:, 11:19] = np.where(counts[:, None] == 0, None, means).reshape(n_placements, 8, -1)
    cells[:, 19:29] = crit[..., 1:].transpose(0, 1, 3, 2).reshape(n_placements, 10, n_buckets)
    cells[:, 29] = ctx.step_cost_sum(on_fog)
    cells[:, 30] = ctx.objective_total(on_fog)
    return [dict(zip(PLACEMENT_COLUMNS, row))
            for row in cells.transpose(0, 2, 1).reshape(-1, len(PLACEMENT_COLUMNS)).tolist()]
