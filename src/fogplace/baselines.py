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
    return (False,) * len(bucket.costs.cloud_ok)


def random_feasible(bucket: SSRBucket, rng: np.random.Generator) -> Placement:
    """Uniform over each function's feasible platforms; one rng draw per function."""
    ctx = bucket.costs
    on_fog = []
    for fog_ok, cloud_ok in zip(ctx.fog_ok.tolist(), ctx.cloud_ok.tolist()):
        pick = int(rng.integers(0, fog_ok + cloud_ok))
        on_fog.append(fog_ok and pick == 0)
    return tuple(on_fog)


def _cheaper_side(bucket: SSRBucket, fog_cost, cloud_cost, fog_wins) -> np.ndarray:
    """Fog flags of each function's feasible side; ``fog_wins`` decides when both are."""
    ctx = bucket.costs
    return ctx.fog_ok & (fog_wins(fog_cost, cloud_cost) | ~ctx.cloud_ok)


def greedy_cost(bucket: SSRBucket) -> Placement:
    """Per function, the feasible action with the smaller step cost; ties to cloud."""
    ctx = bucket.costs
    return tuple(_cheaper_side(bucket, ctx.fog_step, ctx.cloud_step, np.less).tolist())


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
    step = _cheaper_side(bucket, ctx.fog_step, ctx.cloud_step, np.less_equal)
    fog_objective = ctx.priority + ctx.fog_comp
    cloud_objective = (ctx.priority + ctx.norm_link) + ctx.cloud_comp
    objective = _cheaper_side(bucket, fog_objective, cloud_objective, np.less_equal)
    return Optimum(
        best_step_placement=tuple(step.tolist()),
        best_step_cost=float(ctx.step_cost_sum(step)),
        best_objective_placement=tuple(objective.tolist()),
        best_objective=float(ctx.objective_total(objective)),
    )
