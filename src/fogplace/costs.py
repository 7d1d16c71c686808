"""Latency cost model: per-function step costs and per-SSR objectives.

Latencies enter every formula in normalized form: each SSR's user latency
and the bucket's one fog-cloud link latency, both divided by the largest
user latency of the bucket. This keeps each cost term dimensionless and
commensurate with the unit-interval user priority; it preserves all argmin
decisions relative to any fixed positive latency scaling.

``CostContext.from_bucket`` is the one place that turns a bucket into
per-function arrays, in the bucket's flattened insertion order. It runs once
per bucket: ``SSRBucket.costs`` builds the context on first use and keeps it.
It validates the bucket first, so environment steps, baselines, the oracle and
placement reports, which all read those arrays, reject an invalid bucket with
the same ``ValueError``. The bucket's stored priorities are used as given;
validation has checked that each is in range. A placement is one fog flag per
function in that order, and ``CostContext.on_fog`` rejects a fog flag on a
function that does not fit the fog.
Each vector keeps the operation order of the per-function formula, and every
total adds left to right, per SSR and then over SSRs, so results do not depend
on how many placements are evaluated at once.

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

import numpy as np

from .model import InvalidBucket, Placement, SSRBucket, validate_bucket


def _running_total(values: np.ndarray) -> np.ndarray:
    """Sums along the last axis, added strictly left to right."""
    return np.cumsum(values, axis=-1)[..., -1]


@dataclass(frozen=True, eq=False)
class CostContext:
    """Per-function arrays of one bucket, in its flattened insertion order."""

    demand: np.ndarray  # n x 4 demand, RESOURCE_KINDS order
    fog_ok: np.ndarray  # bool: the function fits the fog limits (every one fits the cloud)
    priority: np.ndarray  # p_i: the SSR's user priority
    ssr_slots: np.ndarray  # n_ssrs x longest SSR: function indices, n where an SSR is shorter
    norm_link: float  # fog-cloud link latency / max user latency
    fog_step: np.ndarray  # step cost of placing each function on the fog
    cloud_step: np.ndarray  # step cost of placing each function in the cloud
    fog_comp: np.ndarray  # weighted computation latency on the fog (objective term)
    cloud_comp: np.ndarray  # weighted computation latency in the cloud (objective term)
    code_size: np.ndarray
    input_size: np.ndarray
    critical: np.ndarray  # int critical values
    fn_priority: np.ndarray

    @classmethod
    def from_bucket(cls, bucket: SSRBucket) -> "CostContext":
        """Validate the bucket, then build its arrays; ``InvalidBucket`` if it is invalid."""
        violations = validate_bucket(bucket)
        if violations:
            raise InvalidBucket(violations)
        max_latency = max(ssr.user_latency for ssr in bucket.ssrs)
        fns, latency, priority, weight, slots = [], [], [], [], []
        for ssr in bucket.ssrs:
            l_i, p_i = ssr.user_latency / max_latency, ssr.user_priority
            top = max(fn.priority for fn in ssr.functions)
            slots.append(range(len(fns), len(fns) + len(ssr.functions)))
            for fn in ssr.functions:
                fns.append(fn)
                latency.append(l_i)
                priority.append(p_i)
                weight.append(fn.priority / top)
        n = len(fns)
        longest = max(len(s) for s in slots)
        ssr_slots = np.full((len(slots), longest), n, dtype=np.intp)
        for k, s in enumerate(slots):
            ssr_slots[k, :len(s)] = s

        demand = np.array([fn.demand.as_tuple() for fn in fns], dtype=float)
        code_size = np.array([fn.code_size for fn in fns], dtype=float)
        input_size = np.array([fn.input_size for fn in fns], dtype=float)
        latency_v = np.array(latency, dtype=float)
        priority_v = np.array(priority, dtype=float)
        weight_v = np.array(weight, dtype=float)
        factors = np.array(bucket.importance_factors.as_tuple())
        lf = bucket.link_latency / max_latency

        def ratios(limits):
            ratio = demand / np.array(limits.per_function_cap.as_tuple()) * factors
            return ratio[:, 0] + ratio[:, 1] + ratio[:, 2], ratio[:, 3]

        fog = bucket.fog
        fog_ok = ((code_size <= fog.code_size_limit) & (input_size <= fog.input_size_limit)
                  & (demand <= np.array(fog.per_function_cap.as_tuple())).all(axis=1))
        fog_base, fog_io = ratios(fog)
        cloud_base, cloud_io = ratios(bucket.cloud)
        fog_comp = fog_base + fog_io * latency_v
        return cls(
            demand=demand,
            fog_ok=fog_ok,
            priority=priority_v,
            ssr_slots=ssr_slots,
            norm_link=lf,
            fog_step=fog_comp + priority_v,
            cloud_step=cloud_base + cloud_io * (latency_v + lf) + priority_v + lf,
            fog_comp=fog_comp * weight_v,
            cloud_comp=(cloud_base + cloud_io * lf) * weight_v,
            code_size=code_size,
            input_size=input_size,
            critical=np.array([fn.critical_value for fn in fns], dtype=int),
            fn_priority=np.array([fn.priority for fn in fns], dtype=float),
        )

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
        padded = np.concatenate([values, np.zeros(values.shape[:-1] + (1,))], axis=-1)
        return _running_total(padded[..., self.ssr_slots])

    def step_cost_sum(self, on_fog: np.ndarray) -> np.ndarray:
        """Summed step cost of the placements whose fog flags are on the last axis."""
        return _running_total(self.ssr_sums(np.where(on_fog, self.fog_step, self.cloud_step)))

    def objective(self, on_fog: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-SSR communication and computation latency of the given fog flags."""
        comm = np.where(on_fog, self.priority, self.priority + self.norm_link)
        comp = np.where(on_fog, self.fog_comp, self.cloud_comp)
        return self.ssr_sums(comm), self.ssr_sums(comp)

    def objective_total(self, on_fog: np.ndarray) -> np.ndarray:
        comm, comp = self.objective(on_fog)
        return _running_total(comm + comp)


def bucket_objective(bucket: SSRBucket, placement: Placement) -> float:
    """The unweighted sum of the per-SSR objectives (the evaluation scalar).

    ``bucket.costs.objective`` gives the per-SSR communication and computation parts.
    """
    ctx = bucket.costs
    return float(ctx.objective_total(ctx.on_fog(placement)))


def placement_step_cost_sum(bucket: SSRBucket, placement: Placement) -> float:
    """Total per-function step cost (the oracle's and the episodes' criterion)."""
    ctx = bucket.costs
    return float(ctx.step_cost_sum(ctx.on_fog(placement)))


def bucket_step_cost(bucket: SSRBucket, placement: Placement) -> float:
    """Mean per-SSR step cost over the bucket."""
    return placement_step_cost_sum(bucket, placement) / len(bucket.ssrs)
