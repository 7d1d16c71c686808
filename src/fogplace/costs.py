"""Latency cost model: per-function step costs and per-SSR objectives.

Latencies enter every formula in normalized form: each SSR's user latency
and the bucket's one fog-cloud link latency, both divided by the largest
user latency of the bucket. This keeps each cost term dimensionless and
commensurate with the unit-interval user priority; it preserves all argmin
decisions relative to any fixed positive latency scaling.

``CostContext.from_bucket`` turns the columns of a bucket, or of a stack of
buckets (``BucketStack.table`` and the per-SSR columns), into per-function cost
vectors, in the flattened insertion order. It runs once per bucket or stack:
``BucketStack.costs`` builds the context on first use and keeps it, and a view
of one bucket of a stack gets its slice.
It validates first, so environment steps, baselines, the oracle and placement
reports, which all read those arrays, reject an invalid bucket with the same
``ValueError``. The bucket's stored priorities are used as given; validation
has checked that each is in range. A placement is one fog flag per function in
that order, and ``CostContext.on_fog`` rejects a fog flag on a function that
does not fit the fog.
Each vector keeps the operation order of the per-function formula, and every
total adds left to right within its bucket, per SSR and then over SSRs, with
one total per bucket. Buckets and SSRs of different lengths are padded, and
padding adds only +0.0, so results depend neither on how many placements nor on
how many buckets are evaluated at once.

Per function i of an SSR with normalized user latency ``l`` and user
priority ``p``, with ``r_k = demand_k / cap_k * weight_k`` on the chosen
platform and ``lf`` the normalized link latency:

* fog step cost:    ``r_cpu + r_ram + r_storage + r_net_io * l + p``
* cloud step cost:  ``r_cpu + r_ram + r_storage + r_net_io * (l + lf) + p + lf``
* objective, communication: ``p`` on the fog, ``p + lf`` in the cloud;
* objective, computation: ``(r_cpu + r_ram + r_storage + r_net_io * x) * w``
  with ``x = l`` on the fog and ``x = lf`` in the cloud, and ``w`` the
  function's priority over the highest priority in its SSR.

The cloud step cost weights the net I/O ratio by ``l + lf`` and the cloud
objective by ``lf`` alone, so ``cloud_step - (p + lf) - cloud_comp / w ==
r_net_io * l``. The difference is deliberate and kept: PAPER.md (the abstract
only) cannot settle which weighting the source intends, and a test pins it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import BucketStack, InvalidBucket, Placement, SSRBucket, fits, validate_bucket


def _running_total(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sums along an axis, added strictly left to right: one vector add per position, each
    across every sum at once, as the last entry of a cumulative sum would add them."""
    parts = np.moveaxis(values, axis, 0)
    total = parts[0].copy()
    for part in parts[1:]:
        total += part
    return total


def _slots(counts: np.ndarray) -> np.ndarray:
    """Per segment of ``counts`` consecutive items, their indices, padded with the item
    total: one row per segment, as long as the longest."""
    offsets = np.arange(counts.max(initial=0))
    starts = np.cumsum(counts) - counts
    return np.where(offsets < counts[:, None], starts[:, None] + offsets, counts.sum())


def _segment_sums(values: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Per row of slots, the sum of the values it indexes on the last axis, left to right,
    returned on the last axis; the padding index adds +0.0.

    The values are gathered item-major, so each position of every sum is one contiguous
    block; values whose transpose is contiguous gather fastest.
    """
    items = np.moveaxis(values, -1, 0)
    padded = np.concatenate([items, np.zeros((1,) + items.shape[1:])])
    return np.moveaxis(_running_total(padded[slots.T], axis=0), 0, -1)


@dataclass(frozen=True, eq=False)
class CostContext:
    """Per-function arrays of a bucket, or of a stack of buckets, in its flattened order."""

    fog_ok: np.ndarray  # bool: the function fits the fog limits (every one fits the cloud)
    priority: np.ndarray  # p_i: the SSR's user priority
    cloud_comm: np.ndarray  # communication latency in the cloud: p_i plus the normalized link
    fog_step: np.ndarray  # step cost of placing each function on the fog
    cloud_step: np.ndarray  # step cost of placing each function in the cloud
    fog_comp: np.ndarray  # weighted computation latency on the fog (objective term)
    cloud_comp: np.ndarray  # weighted computation latency in the cloud (objective term)
    norm_link: np.ndarray  # per bucket: fog-cloud link latency / its max user latency
    function_count: np.ndarray  # per SSR: its number of functions
    ssr_count: np.ndarray  # per bucket: its number of SSRs

    @classmethod
    def from_bucket(cls, bucket: BucketStack) -> "CostContext":
        """Validate the bucket, or every bucket of a stack, then build the arrays in one
        pass; ``InvalidBucket`` for the first invalid bucket."""
        violations = validate_bucket(bucket)
        if violations:
            raise InvalidBucket(violations)
        table, counts, ssr_count = bucket.table, bucket.function_count, bucket.ssr_count
        demand, (code_size, input_size, _, fn_priority) = table[:, :4], table[:, 4:].T
        ssr_edges, row_edges = bucket.edges

        # per bucket: every valid bucket has SSRs, so each segment maximum is its own
        max_latency = np.maximum.reduceat(bucket.user_latency, ssr_edges[:-1])
        lf = bucket.link_latency / max_latency
        latency_v = np.repeat(bucket.user_latency / np.repeat(max_latency, ssr_count), counts)
        link_v = np.repeat(lf, np.diff(row_edges))
        priority_v = np.repeat(bucket.user_priority, counts)
        weight_v = fn_priority / np.repeat(np.maximum.reduceat(fn_priority, bucket.starts), counts)
        factors = np.array(bucket.importance_factors.as_tuple())

        def ratios(limits):
            ratio = demand / np.array(limits.per_function_cap.as_tuple()) * factors
            return ratio[:, 0] + ratio[:, 1] + ratio[:, 2], ratio[:, 3]

        fog_ok = fits(bucket.fog, code_size, input_size, demand)
        fog_base, fog_io = ratios(bucket.fog)
        cloud_base, cloud_io = ratios(bucket.cloud)
        fog_comp = fog_base + fog_io * latency_v
        return cls(
            fog_ok=fog_ok,
            priority=priority_v,
            cloud_comm=priority_v + link_v,
            fog_step=fog_comp + priority_v,
            cloud_step=cloud_base + cloud_io * (latency_v + link_v) + priority_v + link_v,
            fog_comp=fog_comp * weight_v,
            cloud_comp=(cloud_base + cloud_io * link_v) * weight_v,
            norm_link=lf,
            function_count=counts,
            ssr_count=ssr_count,
        )

    def bucket(self, i: int, ssrs: slice, rows: slice) -> "CostContext":
        """The arrays of bucket i of the stack, whose SSRs and rows are these slices."""
        return CostContext(
            *(getattr(self, name)[rows] for name in (
                "fog_ok", "priority", "cloud_comm", "fog_step", "cloud_step", "fog_comp",
                "cloud_comp")),
            norm_link=self.norm_link[i:i + 1],
            function_count=self.function_count[ssrs],
            ssr_count=self.ssr_count[i:i + 1],
        )

    @cached_property
    def ssr_slots(self) -> np.ndarray:
        """SSR x longest SSR: function indices, n where an SSR is shorter."""
        return _slots(self.function_count)

    @cached_property
    def bucket_ssrs(self) -> np.ndarray:
        """Bucket x most SSRs: SSR indices, the SSR total where a bucket has fewer."""
        return _slots(self.ssr_count)

    @cached_property
    def bucket_slots(self) -> np.ndarray:
        """Bucket x longest bucket: function indices, n where a bucket is shorter."""
        # every bucket of a validated stack has SSRs: each segment of the sum is its own
        return _slots(np.add.reduceat(self.function_count, self.bucket_ssrs[:, 0]))

    def on_fog(self, placement: Placement) -> np.ndarray:
        """The placement's fog flags as an array: one per function, fog only where it fits.

        Every function of a validated bucket fits the cloud, so only the fog is checked.
        """
        if len(placement) != len(self.fog_step):
            raise ValueError(
                f"placement has {len(placement)} flags for {len(self.fog_step)} functions"
            )
        flags = np.array(placement, dtype=bool)
        misplaced = np.flatnonzero(flags & ~self.fog_ok)
        if misplaced.size:
            raise ValueError(f"placement puts function {misplaced[0]} (flattened order) "
                             "on the fog, which it does not fit")
        return flags

    def ssr_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-SSR sums of per-function values on the last axis."""
        return _segment_sums(values, self.ssr_slots)

    def bucket_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-bucket sums of per-function values on the last axis, function by function."""
        return _segment_sums(values, self.bucket_slots)

    def _over_ssrs(self, ssr_values: np.ndarray) -> np.ndarray:
        """Per-bucket sums of per-SSR values on the last axis, SSR by SSR."""
        return _segment_sums(ssr_values, self.bucket_ssrs)

    def step_cost_sum(self, on_fog: np.ndarray) -> np.ndarray:
        """Summed step cost of the placements whose fog flags are on the last axis, one
        total per bucket on that axis."""
        return self._over_ssrs(self.ssr_sums(np.where(on_fog, self.fog_step, self.cloud_step)))

    def objective(self, on_fog: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-SSR communication and computation latency of the given fog flags."""
        comm = np.where(on_fog, self.priority, self.cloud_comm)
        comp = np.where(on_fog, self.fog_comp, self.cloud_comp)
        return self.ssr_sums(comm), self.ssr_sums(comp)

    def objective_total(self, on_fog: np.ndarray) -> np.ndarray:
        """The unweighted sum of the per-SSR objectives (the evaluation scalar), one total
        per bucket on the last axis."""
        comm, comp = self.objective(on_fog)
        return self._over_ssrs(comm + comp)


def placement_step_cost_sum(bucket: SSRBucket, placement: Placement) -> float:
    """Total per-function step cost (the oracle's and the episodes' criterion)."""
    ctx = bucket.costs
    return float(ctx.step_cost_sum(ctx.on_fog(placement))[0])
