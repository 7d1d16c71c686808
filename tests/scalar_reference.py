"""Scalar cost formulas, one function at a time: the reference for ``fogplace.costs``.

The package evaluates these formulas as vectors over a whole bucket. Every
formula here adds its terms left to right, in the order the vectors keep, so
the package must reproduce these values exactly (``==``), not approximately.
"""
from fogplace.env import SLOT_WIDTH
from fogplace.model import RESOURCE_KINDS, ResourceKind, StateError, fog_feasible

_COMPUTE_KINDS = (ResourceKind.CPU, ResourceKind.RAM, ResourceKind.STORAGE)


def total_demand(fn):
    return fn.base_demand + fn.supplementary_demand


def per_function_cap(f_flag, c_flag, fog, cloud):
    """Resource cap of the platform the function is assigned to."""
    if f_flag + c_flag != 1:
        raise StateError("function is unassigned")
    return fog.per_function_cap if f_flag else cloud.per_function_cap


def _compute_ratios(demand, cap, weights):
    cpu, ram, storage = (demand.get(x) / cap.get(x) * weights.get(x) for x in _COMPUTE_KINDS)
    return cpu + ram + storage


def comm_latency_fn(f_flag, c_flag, user_priority, lf):
    """User priority plus the link penalty when the function sits in the cloud."""
    if f_flag + c_flag != 1:
        raise StateError("function is unassigned")
    return user_priority + c_flag * lf


def comp_latency_fn(fn, f_flag, c_flag, fog, cloud, weights, l_i, lf):
    """Weighted demand-to-cap ratios; the net I/O term scales with latency."""
    cap = per_function_cap(f_flag, c_flag, fog, cloud)
    demand = total_demand(fn)
    out = _compute_ratios(demand, cap, weights)
    return out + demand.net_io / cap.net_io * weights.net_io * (f_flag * l_i + c_flag * lf)


def step_cost_fog(fn, fog, weights, l_i, user_priority):
    demand = total_demand(fn)
    cap = fog.per_function_cap
    out = _compute_ratios(demand, cap, weights)
    out = out + demand.net_io / cap.net_io * weights.net_io * l_i
    return out + user_priority


def step_cost_cloud(fn, cloud, weights, l_i, lf, user_priority):
    demand = total_demand(fn)
    cap = cloud.per_function_cap
    out = _compute_ratios(demand, cap, weights)
    out = out + demand.net_io / cap.net_io * weights.net_io * (l_i + lf)
    return out + user_priority + lf


def user_terms(bucket):
    """user id -> (normalized latency l_i, priority p_i), and the normalized link lf."""
    max_latency = max(u.latency for u in bucket.users)
    terms = {u.id: (u.latency / max_latency, u.priority) for u in bucket.users}
    return terms, bucket.cloud.link_latency / max_latency


def function_step_costs(bucket):
    """(fog, cloud) step cost of every function, in flattened order."""
    terms, lf = user_terms(bucket)
    out = []
    for ssr in bucket.ssrs:
        l_i, p_i = terms[ssr.user_id]
        for fn in ssr.functions:
            out.append((
                step_cost_fog(fn, bucket.fog, bucket.importance_factors, l_i, p_i),
                step_cost_cloud(fn, bucket.cloud, bucket.importance_factors, l_i, lf, p_i),
            ))
    return out


def step_cost_sum(bucket, flags):
    """Summed step cost: left to right within each SSR, then over SSRs."""
    costs = function_step_costs(bucket)
    total, k = 0.0, 0
    for ssr in bucket.ssrs:
        ssr_total = 0.0
        for _ in ssr.functions:
            f, c = flags[k]
            if f + c != 1:
                raise StateError("SSR placement is incomplete")
            ssr_total = ssr_total + costs[k][0 if f else 1]
            k += 1
        total = total + ssr_total
    return total


def ssr_objectives(bucket, flags):
    """Per-SSR (communication, computation) latency, and their summed total."""
    terms, lf = user_terms(bucket)
    parts, total, k = [], 0.0, 0
    for ssr in bucket.ssrs:
        l_i, p_i = terms[ssr.user_id]
        max_p = max(fn.priority for fn in ssr.functions)
        comm = comp = 0.0
        for fn in ssr.functions:
            f, c = flags[k]
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
        user = bucket.user_by_id(bucket.ssrs[ssr_idx].user_id)
        demand = total_demand(fn)
        base = pos * SLOT_WIDTH
        row[base] = float(flags[idx][0])
        row[base + 1] = float(flags[idx][1])
        row[base + 2] = fn.code_size / cloud.code_size_limit
        row[base + 3] = fn.input_size / cloud.input_size_limit
        row[base + 4] = fn.critical_value / 5
        for k, kind in enumerate(RESOURCE_KINDS):
            row[base + 5 + k] = demand.get(kind) / cap.get(kind)
        row[base + 9] = user.priority
        row[base + 10] = 1.0 if fog_feasible(fn, bucket.fog) else 0.0
    row[-1] = cursor / len(flat)
    return row
