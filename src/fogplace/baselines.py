"""Reference placement policies and the exact oracle.

Both criteria are separable per function, so each exact optimum is a masked
per-function argmin: O(n), with no enumeration of the 2^n placements.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Placement, SSRBucket


def fog_first(bucket: SSRBucket) -> Placement:
    """Fog whenever the per-function fog constraints permit; stand-in for
    fog-greedy offloading baselines, not a re-implementation of any of them."""
    return tuple(bucket.costs.fog_ok.tolist())


def cloud_only(bucket: SSRBucket) -> Placement:
    """Every function in the cloud, whose limits every function of a valid bucket fits."""
    return (False,) * len(bucket.costs.fog_ok)


def random_feasible(bucket: SSRBucket, rng: np.random.Generator) -> Placement:
    """Fog or cloud with equal odds where the fog fits, else cloud; one draw per fog fit."""
    return tuple(fog_ok and int(rng.integers(0, 2)) == 0 for fog_ok in bucket.costs.fog_ok.tolist())


def greedy_cost(bucket: SSRBucket) -> Placement:
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
    cloud_objective = (ctx.priority + ctx.norm_link) + ctx.cloud_comp
    objective = ctx.fog_ok & (fog_objective <= cloud_objective)
    return Optimum(
        best_step_placement=tuple(step.tolist()),
        best_step_cost=float(ctx.step_cost_sum(step)),
        best_objective_placement=tuple(objective.tolist()),
        best_objective=float(ctx.objective_total(objective)),
    )
