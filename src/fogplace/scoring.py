"""Priority scoring: user priorities and per-function placement priorities.

All functions are pure. The fog node sits at the origin of the generator's
coordinate frame; ``user_distance`` takes explicit positions for callers
that use another frame. A bucket stores the priorities, not their inputs.
"""
from __future__ import annotations

import math

# Makes the maximum function priority exactly 5, matching the convention
# that top functions within an SSR carry priority value 5.
DEFAULT_DELTA = 0.2


def user_distance(fog_pos: tuple[float, float], user_pos: tuple[float, float]) -> float:
    """Euclidean distance in km between the fog node and a user."""
    return math.hypot(user_pos[0] - fog_pos[0], user_pos[1] - fog_pos[1])


def distance_priority(d: float, cap: float) -> float:
    """d / D: 0 at the fog node, 1 at the edge of the coverage disc."""
    if cap <= 0:
        raise ValueError(f"coverage radius must be > 0, got {cap}")
    if d < 0 or d > cap:
        raise ValueError(f"distance {d} outside coverage radius {cap}")
    return d / cap


def latency_priority(latency: float, all_latencies: list[float]) -> float:
    """l_i / max over all users; self-normalizing, always in (0, 1]."""
    if not all_latencies:
        raise ValueError("latency list is empty")
    if latency <= 0 or any(l <= 0 for l in all_latencies):
        raise ValueError("latencies must be > 0")
    return latency / max(all_latencies)


def user_priority(pd: float, pl: float, p_omega: float) -> float:
    """Blend of distance and latency priority, weighted by p_omega."""
    for name, v in (("distance priority", pd), ("latency priority", pl), ("blend", p_omega)):
        if not 0 <= v <= 1:
            raise ValueError(f"{name} {v} outside [0, 1]")
    return p_omega * pd + pl * (1 - p_omega)


def ssr_priorities(critical: list[int], code_sizes: list[float], input_sizes: list[float],
                   delta: float = DEFAULT_DELTA) -> list[float]:
    """Preference of each function of one SSR for fog placement, given column by column.

    Every priority lies in [1/(delta+1), 1/delta]. Higher critical value and
    larger code/input size (relative to the largest in the same SSR) all push
    it up; the SSR's largest code and input sizes are taken once.
    """
    if not code_sizes:
        return []
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    max_code, max_input = max(code_sizes), max(input_sizes)
    if max_code == 0 or max_input == 0:
        raise ValueError("degenerate SSR: zero maximum code or input size")
    priorities = []
    for c, code, size in zip(critical, code_sizes, input_sizes):
        critical_term = (5 - c) / 5
        code_term = (max_code - code) / max_code
        input_term = (max_input - size) / max_input
        priorities.append(1.0 / (delta + critical_term * code_term * input_term))
    return priorities


def user_priorities(positions: list[tuple[float, float]], latencies: list[float],
                    distance_cap: float, blend: float) -> list[float]:
    """``user_priority`` of every user of a bucket; latency priority needs them all."""
    return [
        user_priority(distance_priority(user_distance((0.0, 0.0), pos), distance_cap),
                      latency_priority(latency, latencies), blend)
        for pos, latency in zip(positions, latencies)
    ]
