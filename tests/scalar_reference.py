"""Scalar cost formulas, one function at a time: the reference for ``fogplace.costs``.

The package evaluates these formulas as vectors over a whole bucket. Every
formula here adds its terms left to right, in the order the vectors keep, so
the package must reproduce these values exactly (``==``), not approximately.
``brute_force_optimum`` enumerates every feasible placement of a small bucket:
the ground truth for the package's O(n) ``exact_optimum``. ``generate_bucket``
and ``generate_sweep`` draw every value with its own ``rng.random()`` call, in the
package's order, and score the bucket in a second pass: the ground truth for
the seed contract of ``fogplace.workload``, which draws the same doubles in
blocks and must build the same buckets from them.
``fits_platform`` tests one function against one platform's limits, clause by
clause: the ground truth for the package's broadcasting ``fits``.
``run_compare`` is the sweep one bucket at a time, as the package ran it before
it stacked every bucket of a sweep: each bucket drawn by ``generate_sweep`` here,
placed by each algorithm (``random`` one draw per fog fit) and reported alone,
and ``aggregate_rows`` averages with an explicit left-to-right loop. The
package's stacked ``compare`` must reproduce both bit for bit.

The reference holds a bucket as ``Ssr`` objects of function objects:
``bucket_from_ssrs`` writes them into a bucket's columns row by row, and
``ssrs_of`` reads them back the same way; ``function_table`` walks the pairs
of ``SSRBucket.functions`` one by one.
"""
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from fogplace import baselines, metrics
from fogplace.agent import greedy_rollout
from fogplace.env import SLOT_WIDTH, PlacementEnv
from fogplace.experiment import MAX_FUNCTIONS
from fogplace.model import (
    RESOURCE_KINDS,
    Placement,
    ResourceVector,
    SSRBucket,
    ServerlessFunction,
    StateError,
)
from fogplace.scoring import distance_priority, latency_priority, user_distance, user_priority

_COMPUTE_KINDS = ("cpu", "ram", "storage")


def fits_platform(fn, limits):
    """Per-function platform constraints: code size, input size, demand."""
    demand, cap = fn.demand, limits.per_function_cap
    return (
        fn.code_size <= limits.code_size_limit
        and fn.input_size <= limits.input_size_limit
        and demand.cpu <= cap.cpu
        and demand.ram <= cap.ram
        and demand.storage <= cap.storage
        and demand.net_io <= cap.net_io
    )


# the fog and the cloud impose the same kinds of per-function limits
fog_feasible = cloud_feasible = fits_platform


@dataclass(frozen=True)
class Ssr:
    """One SSR: its user's latency and priority, and its function objects in order."""

    user_latency: float
    user_priority: float
    functions: tuple


def function_row(fn):
    """A function's table row: the demand kinds, then code size, input size,
    critical value and priority."""
    return ([getattr(fn.demand, kind) for kind in RESOURCE_KINDS]
            + [fn.code_size, fn.input_size, fn.critical_value, fn.priority])


def bucket_from_ssrs(ssrs, link_latency, fog, cloud, importance_factors):
    """The bucket of these SSRs, its table written one function row at a time."""
    ssrs = list(ssrs)
    rows = [function_row(fn) for ssr in ssrs for fn in ssr.functions]
    return SSRBucket(
        table=np.array(rows, dtype=float).reshape(-1, 8),
        function_count=[len(ssr.functions) for ssr in ssrs],
        user_latency=[ssr.user_latency for ssr in ssrs],
        user_priority=[ssr.user_priority for ssr in ssrs],
        link_latency=link_latency, fog=fog, cloud=cloud, importance_factors=importance_factors,
    )


def ssrs_of(bucket):
    """The bucket's SSRs as ``Ssr`` objects, read one table row at a time."""
    ssrs, row = [], 0
    for count, latency, priority in zip(bucket.function_count.tolist(),
                                        bucket.user_latency.tolist(),
                                        bucket.user_priority.tolist()):
        fns = []
        for _ in range(count):
            values = bucket.table[row].tolist()
            fns.append(ServerlessFunction(
                code_size=values[4], input_size=values[5], critical_value=int(values[6]),
                demand=ResourceVector(*values[:4]), priority=values[7]))
            row += 1
        ssrs.append(Ssr(latency, priority, tuple(fns)))
    return ssrs


def function_table(bucket):
    """One row per pair of ``bucket.functions()``, in its order."""
    return [function_row(fn) for _, fn in bucket.functions()]


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
    ssrs = ssrs_of(bucket)
    max_latency = max(ssr.user_latency for ssr in ssrs)
    terms = [(ssr.user_latency / max_latency, ssr.user_priority) for ssr in ssrs]
    return terms, bucket.link_latency / max_latency


def function_step_costs(bucket):
    """(fog, cloud) step cost of every function, in flattened order."""
    terms, lf = user_terms(bucket)
    out = []
    for ssr, (l_i, p_i) in zip(ssrs_of(bucket), terms):
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
    for ssr in ssrs_of(bucket):
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
    for ssr, (l_i, p_i) in zip(ssrs_of(bucket), terms):
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
    flat = [(i, fn) for i, ssr in enumerate(ssrs_of(bucket)) for fn in ssr.functions]
    users = [ssr.user_priority for ssr in ssrs_of(bucket)]
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
        row[base + 9] = users[ssr_idx]
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
    for fn in (fn for ssr in ssrs_of(bucket) for fn in ssr.functions):
        fits = ((True, fog_feasible(fn, bucket.fog)), (False, cloud_feasible(fn, bucket.cloud)))
        opts = [on_fog for on_fog, ok in fits if ok]
        if not opts:
            raise ValueError("function with no feasible platform")
        options.append(opts)

    # one row of fog flags per placement, in enumeration order
    combos = np.array(list(itertools.product(*options)), dtype=bool).reshape(-1, n)
    steps = ctx.step_cost_sum(combos)[:, 0]  # the one bucket's totals
    objectives = ctx.objective_total(combos)[:, 0]
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


def with_priorities(ssrs, positions, cfg):
    """The SSRs with every user and function priority filled; the user of SSR i
    stands at ``positions[i]``."""
    latencies = [ssr.user_latency for ssr in ssrs]
    scored = []
    for ssr, position in zip(ssrs, positions):
        pd = distance_priority(user_distance((0.0, 0.0), position), cfg.distance_cap)
        pl = latency_priority(ssr.user_latency, latencies)
        fns = tuple(
            replace(fn, priority=function_priority(fn, ssr, cfg.delta)) for fn in ssr.functions
        )
        scored.append(replace(ssr, user_priority=user_priority(pd, pl, cfg.priority_blend),
                              functions=fns))
    return scored


def _uniform(rng, lo, hi):
    """One double on [lo, hi), its ends taken as floats as the package's range columns are."""
    lo, hi = float(lo), float(hi)
    return lo + (hi - lo) * rng.random()


def _integer(rng, lo, hi):
    """One integer on lo..hi from one double."""
    return lo + math.floor(rng.random() * (hi - lo + 1))


def _sample_function(cfg, rng):
    """Seven scalar draws: code and input size, critical value, then each demand kind."""
    code = _uniform(rng, *cfg.code_size)
    input_size = _uniform(rng, *cfg.input_size)
    critical = _integer(rng, *cfg.critical_value)
    demand = {kind: _uniform(rng, *bounds) for kind, bounds in cfg.demand_ranges().items()}
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
        radius = cfg.distance_cap * np.sqrt(rng.random())
        theta = 2.0 * np.pi * rng.random()
        positions.append((float(radius * np.cos(theta)), float(radius * np.sin(theta))))
        latencies.append(cfg.latency[0] + (cfg.latency[1] - cfg.latency[0]) * rng.random())

    ssrs = []
    for latency, count in zip(latencies, fn_counts):
        fns = tuple(_sample_function(cfg, rng) for _ in range(count))
        # placeholder priority: with_priorities scores the SSRs afterwards
        ssrs.append(Ssr(user_latency=latency, user_priority=0.0, functions=fns))
    return bucket_from_ssrs(with_priorities(ssrs, positions, cfg), cfg.link_latency,
                            cfg.fog, cfg.cloud, cfg.importance_factors)


def generate_bucket(cfg, seed=None):
    """``fogplace.workload.generate_bucket``, one ``rng.random()`` call per value."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    n = _integer(rng, *cfg.n_ssrs)
    counts = [_integer(rng, *cfg.functions_per_ssr) for _ in range(n)]
    return _build_bucket(cfg, rng, counts)


def generate_sweep(cfg, total_functions, seed=None):
    """``fogplace.workload.generate_sweep``: each function beyond the first ten goes to
    an SSR still below ten, picked by one double from those in ascending order."""
    if not 10 <= total_functions <= 100:
        raise ValueError(f"total functions {total_functions} outside [10, 100]")
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    counts = [1] * 10
    for _ in range(total_functions - 10):
        open_slots = [i for i in range(10) if counts[i] < 10]
        counts[open_slots[int(rng.random() * len(open_slots))]] += 1
    return _build_bucket(cfg, rng, counts)


def place(algorithm, bucket, net, seed):
    """One algorithm's placement of one bucket; ``random`` draws one pick per fog fit."""
    if algorithm == "defdrel":
        if net is None:
            raise ValueError("defdrel requires a trained network")
        return greedy_rollout(net, PlacementEnv(bucket, max_functions=MAX_FUNCTIONS))[0]
    if algorithm == "random":
        rng = np.random.default_rng(seed)
        return tuple(fog_ok and int(rng.integers(0, 2)) == 0
                     for fog_ok in bucket.costs.fog_ok.tolist())
    return getattr(baselines, algorithm)(bucket)


def run_compare(cfg, net):
    """``fogplace.experiment.run_compare``, one bucket at a time: rows sorted by sweep
    point, algorithm, then run."""
    rows, settings = [], cfg.experiment
    for total in settings.sweep:
        for run in range(settings.runs_per_point):
            seed = cfg.generator.seed + 1000 * total + run
            bucket = generate_sweep(cfg.generator, total, seed=seed)
            placements = [place(algorithm, bucket, net, seed) for algorithm in settings.algorithms]
            for algorithm, row in zip(settings.algorithms, metrics.report(bucket, placements)):
                rows.append({"run": run, "algorithm": algorithm, "total_functions": total,
                             "seed": seed, **row})
    order = {name: i for i, name in enumerate(settings.algorithms)}
    rows.sort(key=lambda r: (r["total_functions"], order[r["algorithm"]], r["run"]))
    return rows


def left_to_right_mean(values):
    """The mean of the values that are not None, added first to last; None if none are."""
    values = [v for v in values if v is not None]
    if not values:
        return None
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total / len(values)


def aggregate_rows(rows):
    """``fogplace.experiment.aggregate_rows``, each mean an explicit left-to-right loop."""
    groups = {}
    for row in rows:
        groups.setdefault((row["algorithm"], row["total_functions"]), []).append(row)
    return [{"algorithm": algorithm, "total_functions": total, "runs": len(members),
             **{c: left_to_right_mean([m[c] for m in members]) for c in metrics.PLACEMENT_COLUMNS}}
            for (algorithm, total), members in sorted(groups.items(), key=lambda g: (g[0][1], g[0][0]))]
