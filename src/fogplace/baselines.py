"""Reference placement policies and the exact oracle.

Both criteria are separable per function, so each exact optimum is a masked
per-function argmin: O(n), with no enumeration of the 2^n placements.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import BucketStack, Placement, SSRBucket

# Each baseline places every function of a bucket, or of every bucket of a stack,
# in one pass over the stack's cost arrays.


def fog_first(bucket: BucketStack) -> Placement:
    """Fog whenever the per-function fog constraints permit; stand-in for
    fog-greedy offloading baselines, not a re-implementation of any of them."""
    return tuple(bucket.costs.fog_ok.tolist())


def cloud_only(bucket: BucketStack) -> Placement:
    """Every function in the cloud, whose limits every function of a valid bucket fits."""
    return (False,) * len(bucket.costs.fog_ok)


def random_feasible(bucket: BucketStack,
                    rng: np.random.Generator | Sequence[np.random.Generator]) -> Placement:
    """Fog or cloud with equal odds where the fog fits, else cloud; one draw per fog fit, in
    order. A stack takes one generator per bucket, each drawing for its own bucket."""
    fog_ok = bucket.costs.fog_ok
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    fits_before = np.append(0, np.cumsum(fog_ok))[bucket.edges[1]]  # at each bucket's edges
    draws = [g.integers(0, 2, size=n) for g, n in zip(rngs, np.diff(fits_before), strict=True)]
    on_fog = fog_ok.copy()
    on_fog[fog_ok] = np.concatenate(draws) == 0
    return tuple(on_fog.tolist())


def greedy_cost(bucket: BucketStack) -> Placement:
    """Per function, the feasible action with the smaller step cost; ties to cloud."""
    ctx = bucket.costs
    return tuple((ctx.fog_ok & (ctx.fog_step < ctx.cloud_step)).tolist())


@dataclass(frozen=True)
class Optimum:
    best_step_placement: Placement
    best_step_cost: float  # summed per-function step cost
    best_objective_placement: Placement
    best_objective: float  # summed per-SSR objective


def exact_optimum(bucket: SSRBucket) -> Optimum:
    """The cheapest feasible placement under each criterion, totals summed by the kernel.

    Ties go to fog: of all optimal placements, the one whose action tuple
    (0 = fog, 1 = cloud) is lexicographically smallest.
    """
    ctx = bucket.costs
    step = ctx.fog_ok & (ctx.fog_step <= ctx.cloud_step)
    fog_objective = ctx.priority + ctx.fog_comp
    cloud_objective = ctx.cloud_comm + ctx.cloud_comp
    objective = ctx.fog_ok & (fog_objective <= cloud_objective)
    return Optimum(
        best_step_placement=tuple(step.tolist()),
        best_step_cost=float(ctx.step_cost_sum(step)[0]),
        best_objective_placement=tuple(objective.tolist()),
        best_objective=float(ctx.objective_total(objective)[0]),
    )
