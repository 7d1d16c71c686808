"""Reference placement policies and the exhaustive brute-force oracle."""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import costs
from .model import Placement, SSRBucket

BRUTE_FORCE_LIMIT = 14


def fog_first(bucket: SSRBucket, ctx: costs.CostContext | None = None) -> Placement:
    """Fog whenever the per-function fog constraints permit; stand-in for
    fog-greedy offloading baselines, not a re-implementation of any of them."""
    return Placement.from_fog(costs.context_for(bucket, ctx).fog_ok.tolist())


def cloud_only(bucket: SSRBucket) -> Placement:
    return Placement(flags=((0, 1),) * bucket.n_functions)


def random_feasible(
    bucket: SSRBucket, rng: np.random.Generator, ctx: costs.CostContext | None = None
) -> Placement:
    """Uniform over each function's feasible platforms; one rng draw per function."""
    ctx = costs.context_for(bucket, ctx)
    on_fog = []
    for fog_ok, cloud_ok in zip(ctx.fog_ok.tolist(), ctx.cloud_ok.tolist()):
        if not (fog_ok or cloud_ok):
            raise ValueError("function with no feasible platform")
        pick = int(rng.integers(0, fog_ok + cloud_ok))
        on_fog.append(fog_ok and pick == 0)
    return Placement.from_fog(on_fog)


def greedy_cost(bucket: SSRBucket, ctx: costs.CostContext | None = None) -> Placement:
    """Per function, the feasible action with the smaller step cost; ties to cloud."""
    ctx = costs.context_for(bucket, ctx)
    cheaper_on_fog = ctx.fog_step < ctx.cloud_step
    return Placement.from_fog((ctx.fog_ok & (cheaper_on_fog | ~ctx.cloud_ok)).tolist())


@dataclass(frozen=True)
class BruteForceResult:
    best_step_placement: Placement
    best_step_cost: float  # summed per-function step cost
    best_objective_placement: Placement
    best_objective: float  # summed per-SSR objective


def brute_force_optimum(bucket: SSRBucket) -> BruteForceResult:
    """Enumerate all feasible placements of a small bucket.

    Ties break toward the placement whose action tuple (0 = fog, 1 = cloud)
    is lexicographically smallest, which the enumeration order guarantees.
    """
    n = bucket.n_functions
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"bucket has {n} functions; oracle limit is {BRUTE_FORCE_LIMIT}")
    ctx = costs.CostContext.from_bucket(bucket)

    options = []
    for fog_ok, cloud_ok in zip(ctx.fog_ok.tolist(), ctx.cloud_ok.tolist()):
        opts = [on_fog for on_fog, ok in ((True, fog_ok), (False, cloud_ok)) if ok]
        if not opts:
            raise ValueError("function with no feasible platform")
        options.append(opts)

    # one row of fog flags per placement, in enumeration order
    combos = np.array(list(itertools.product(*options)), dtype=bool).reshape(-1, n)
    steps = ctx.step_cost_sum(combos)
    objectives = ctx.objective_total(combos)
    best_step = int(np.argmin(steps))  # first minimum: the enumeration's tie rule
    best_obj = int(np.argmin(objectives))
    return BruteForceResult(
        best_step_placement=Placement.from_fog(combos[best_step].tolist()),
        best_step_cost=float(steps[best_step]),
        best_objective_placement=Placement.from_fog(combos[best_obj].tolist()),
        best_objective=float(objectives[best_obj]),
    )
