"""Scalar cost formulas, one function at a time: the reference for ``fogplace.costs``.

The package evaluates these formulas as vectors over a whole bucket. Every
formula here adds its terms left to right, in the order the vectors keep, so
the package must reproduce these values exactly (``==``), not approximately.
``brute_force_optimum`` enumerates every feasible placement of a small bucket:
the ground truth for the package's O(n) ``exact_optimum``. ``generate_bucket``
and ``generate_sweep`` draw every value with its own scalar generator call and
score the bucket in a second pass: the ground truth for the seed contract of
``fogplace.workload``, which must build the same buckets from the same draws.
"""
import itertools
from dataclasses import dataclass, replace

import numpy as np

from fogplace.env import SLOT_WIDTH
from fogplace.model import (
    RESOURCE_KINDS,
    Placement,
    ResourceVector,
    SSR,
    SSRBucket,
    ServerlessFunction,
    StateError,
    cloud_feasible,
    fog_feasible,
)
from fogplace.scoring import distance_priority, latency_priority, user_distance, user_priority

_COMPUTE_KINDS = ("cpu", "ram", "storage")


def per_function_cap(f_flag, c_flag, fog, cloud):
    """Resource cap of the platform the function is assigned to."""
    if f_flag + c_flag != 1:
        raise StateError("function is unassigned")
    return fog.per_function_cap if f_flag else cloud.per_function_cap


def _compute_ratios(demand, cap, weights):
    cpu, ram, storage = (getattr(demand, x) / getattr(cap, x) * getattr(weights, x)
                         for x in _COMPUTE_KINDS)
    return cpu + ram + storage


def comm_latency_fn(f_flag, c_flag, user_priority, lf):
    """User priority plus the link penalty when the function sits in the cloud."""
    if f_flag + c_flag != 1:
        raise StateError("function is unassigned")
    return user_priority + c_flag * lf


def comp_latency_fn(fn, f_flag, c_flag, fog, cloud, weights, l_i, lf):
    """Weighted demand-to-cap ratios; the net I/O term scales with latency."""
    cap = per_function_cap(f_flag, c_flag, fog, cloud)
    demand = fn.demand
    out = _compute_ratios(demand, cap, weights)
    return out + demand.net_io / cap.net_io * weights.net_io * (f_flag * l_i + c_flag * lf)


def step_cost_fog(fn, fog, weights, l_i, user_priority):
    demand = fn.demand
    cap = fog.per_function_cap
    out = _compute_ratios(demand, cap, weights)
    out = out + demand.net_io / cap.net_io * weights.net_io * l_i
    return out + user_priority


def step_cost_cloud(fn, cloud, weights, l_i, lf, user_priority):
    demand = fn.demand
    cap = cloud.per_function_cap
    out = _compute_ratios(demand, cap, weights)
    out = out + demand.net_io / cap.net_io * weights.net_io * (l_i + lf)
    return out + user_priority + lf


def user_terms(bucket):
    """(normalized latency l_i, priority p_i) of each SSR's user, and the normalized link lf."""
    max_latency = max(ssr.user_latency for ssr in bucket.ssrs)
    terms = [(ssr.user_latency / max_latency, ssr.user_priority) for ssr in bucket.ssrs]
    return terms, bucket.link_latency / max_latency


def function_step_costs(bucket):
    """(fog, cloud) step cost of every function, in flattened order."""
    terms, lf = user_terms(bucket)
    out = []
    for ssr, (l_i, p_i) in zip(bucket.ssrs, terms):
        for fn in ssr.functions:
            out.append((
                step_cost_fog(fn, bucket.fog, bucket.importance_factors, l_i, p_i),
                step_cost_cloud(fn, bucket.cloud, bucket.importance_factors, l_i, lf, p_i),
            ))
    return out


def step_cost_sum(bucket, on_fog):
    """Summed step cost of a placement (one fog flag per function): left to
    right within each SSR, then over SSRs."""
    costs = function_step_costs(bucket)
    total, k = 0.0, 0
    for ssr in bucket.ssrs:
        ssr_total = 0.0
        for _ in ssr.functions:
            ssr_total = ssr_total + costs[k][0 if on_fog[k] else 1]
            k += 1
        total = total + ssr_total
    return total


def ssr_objectives(bucket, on_fog):
    """Per-SSR (communication, computation) latency of a placement (one fog
    flag per function), and their summed total."""
    terms, lf = user_terms(bucket)
    parts, total, k = [], 0.0, 0
    for ssr, (l_i, p_i) in zip(bucket.ssrs, terms):
        max_p = max(fn.priority for fn in ssr.functions)
        comm = comp = 0.0
        for fn in ssr.functions:
            f, c = (1, 0) if on_fog[k] else (0, 1)
            comm = comm + comm_latency_fn(f, c, p_i, lf)
            comp = comp + comp_latency_fn(
                fn, f, c, bucket.fog, bucket.cloud, bucket.importance_factors, l_i, lf
            ) * (fn.priority / max_p)
            k += 1
        parts.append((comm, comp))
        total = total + (comm + comp)
    return parts, total


def encode(bucket, order, flags, cursor, max_functions):
    """The environment's state row: per-slot features and flags, then the cursor share."""
    flat = bucket.functions()
    cloud = bucket.cloud
    cap = cloud.per_function_cap
    row = [0.0] * (max_functions * SLOT_WIDTH + 1)
    for pos, idx in enumerate(order):
        ssr_idx, fn = flat[idx]
        demand = fn.demand
        base = pos * SLOT_WIDTH
        row[base] = float(flags[idx][0])
        row[base + 1] = float(flags[idx][1])
        row[base + 2] = fn.code_size / cloud.code_size_limit
        row[base + 3] = fn.input_size / cloud.input_size_limit
        row[base + 4] = fn.critical_value / 5
        for k, kind in enumerate(RESOURCE_KINDS):
            row[base + 5 + k] = getattr(demand, kind) / getattr(cap, kind)
        row[base + 9] = bucket.ssrs[ssr_idx].user_priority
        row[base + 10] = 1.0 if fog_feasible(fn, bucket.fog) else 0.0
    row[-1] = cursor / len(flat)
    return row


BRUTE_FORCE_LIMIT = 14


@dataclass(frozen=True)
class BruteForceResult:
    best_step_placement: Placement
    best_step_cost: float  # summed per-function step cost
    best_objective_placement: Placement
    best_objective: float  # summed per-SSR objective


def brute_force_optimum(bucket):
    """Enumerate all feasible placements of a small bucket.

    Ties break toward the placement whose action tuple (0 = fog, 1 = cloud)
    is lexicographically smallest, which the enumeration order guarantees.
    """
    n = bucket.n_functions
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"bucket has {n} functions; oracle limit is {BRUTE_FORCE_LIMIT}")
    ctx = bucket.costs

    options = []
    for _, fn in bucket.functions():
        fits = ((True, fog_feasible(fn, bucket.fog)), (False, cloud_feasible(fn, bucket.cloud)))
        opts = [on_fog for on_fog, ok in fits if ok]
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
        best_step_placement=tuple(combos[best_step].tolist()),
        best_step_cost=float(steps[best_step]),
        best_objective_placement=tuple(combos[best_obj].tolist()),
        best_objective=float(objectives[best_obj]),
    )


def function_priority(fn, ssr, delta):
    """The priority formula, with the SSR's largest sizes taken again for every function."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    if not ssr.functions:
        raise ValueError("SSR has no functions")
    max_code = max(f.code_size for f in ssr.functions)
    max_input = max(f.input_size for f in ssr.functions)
    if max_code == 0 or max_input == 0:
        raise ValueError("degenerate SSR: zero maximum code or input size")
    critical_term = (5 - fn.critical_value) / 5
    code_term = (max_code - fn.code_size) / max_code
    input_term = (max_input - fn.input_size) / max_input
    return 1.0 / (delta + critical_term * code_term * input_term)


def with_priorities(bucket, positions, cfg):
    """A copy of the bucket with every user and function priority filled; the
    user of SSR i stands at ``positions[i]``."""
    latencies = [ssr.user_latency for ssr in bucket.ssrs]
    ssrs = []
    for ssr, position in zip(bucket.ssrs, positions):
        pd = distance_priority(user_distance((0.0, 0.0), position), cfg.distance_cap)
        pl = latency_priority(ssr.user_latency, latencies)
        fns = tuple(
            replace(fn, priority=function_priority(fn, ssr, cfg.delta)) for fn in ssr.functions
        )
        ssrs.append(replace(ssr, user_priority=user_priority(pd, pl, cfg.priority_blend),
                            functions=fns))

    return replace(bucket, ssrs=tuple(ssrs))


def _sample_function(cfg, rng):
    """Eleven scalar draws: code, input, critical, then (total, split) per resource kind."""
    code = rng.uniform(*cfg.code_size)
    input_size = rng.uniform(*cfg.input_size)
    critical = int(rng.integers(cfg.critical_value[0], cfg.critical_value[1] + 1))
    demand = {}
    for kind, (lo, hi) in cfg.demand_ranges().items():
        total = rng.uniform(lo, hi)
        split = rng.uniform(0.0, 1.0)
        demand[kind] = total * split + (total - total * split)  # base share plus the rest
    return ServerlessFunction(
        code_size=code,
        input_size=input_size,
        critical_value=critical,
        demand=ResourceVector(**demand),
        priority=1.0,  # placeholder: with_priorities scores the bucket afterwards
    )


def _build_bucket(cfg, rng, fn_counts):
    latencies, positions = [], []
    for _ in fn_counts:
        # uniform over the disc of radius D around the fog node
        radius = cfg.distance_cap * np.sqrt(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, 2.0 * np.pi)
        positions.append((float(radius * np.cos(theta)), float(radius * np.sin(theta))))
        latencies.append(float(rng.uniform(*cfg.latency)))

    ssrs = []
    for latency, count in zip(latencies, fn_counts):
        fns = tuple(_sample_function(cfg, rng) for _ in range(count))
        # placeholder priority: with_priorities scores the bucket afterwards
        ssrs.append(SSR(user_latency=latency, user_priority=0.0, functions=fns))

    bucket = SSRBucket(
        ssrs=tuple(ssrs),
        link_latency=cfg.link_latency,
        fog=cfg.fog,
        cloud=cfg.cloud,
        importance_factors=cfg.importance_factors,
    )
    return with_priorities(bucket, positions, cfg)


def generate_bucket(cfg, seed=None):
    """``fogplace.workload.generate_bucket``, one scalar draw at a time."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    n = int(rng.integers(cfg.n_ssrs[0], cfg.n_ssrs[1] + 1))
    counts = [int(rng.integers(cfg.functions_per_ssr[0], cfg.functions_per_ssr[1] + 1))
              for _ in range(n)]
    return _build_bucket(cfg, rng, counts)


def generate_sweep(cfg, total_functions, seed=None):
    """``fogplace.workload.generate_sweep``: the split drawn with ``rng.choice``."""
    if not 10 <= total_functions <= 100:
        raise ValueError(f"total functions {total_functions} outside [10, 100]")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    counts = [1] * 10
    for _ in range(total_functions - 10):
        open_slots = [i for i in range(10) if counts[i] < 10]
        counts[int(rng.choice(open_slots))] += 1
    return _build_bucket(cfg, rng, counts)
