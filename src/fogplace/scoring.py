"""Priority scoring: user priorities and per-function placement priorities.

All functions are pure. The fog node sits at the origin of the generator's
coordinate frame; ``user_distance`` takes explicit positions for callers
that use another frame. A bucket stores the priorities, not their inputs.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

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


def ssr_priorities(critical: Sequence[int], code_sizes: Sequence[float],
                   input_sizes: Sequence[float], delta: float = DEFAULT_DELTA, *,
                   counts: Sequence[int] | None = None) -> np.ndarray:
    """Preference of each function for fog placement, given column by column.

    The columns hold consecutive SSRs of ``counts`` functions each (by default
    one SSR), and the priorities come back in the same order. Every priority
    lies in [1/(delta+1), 1/delta]. Higher critical value and larger code/input
    size (relative to the largest in the same SSR) all push it up; each SSR's
    largest code and input sizes are taken once, as segment maxima.
    """
    if len(code_sizes) == 0:
        return np.empty(0)
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    code = np.asarray(code_sizes, dtype=float)
    size = np.asarray(input_sizes, dtype=float)
    counts = [len(code)] if counts is None else counts
    starts = np.cumsum([0, *counts[:-1]])
    max_code = np.maximum.reduceat(code, starts)
    max_input = np.maximum.reduceat(size, starts)
    if not (max_code.all() and max_input.all()):  # a zero maximum
        raise ValueError("degenerate SSR: zero maximum code or input size")
    max_code, max_input = np.repeat(max_code, counts), np.repeat(max_input, counts)
    critical_term = (5 - np.asarray(critical)) / 5
    code_term = (max_code - code) / max_code
    input_term = (max_input - size) / max_input
    return 1.0 / (delta + critical_term * code_term * input_term)


def user_priorities(positions: Iterable[tuple[float, float]], latencies: Sequence[float],
                    distance_cap: float, blend: float, *,
                    counts: Sequence[int] | None = None) -> np.ndarray:
    """``user_priority`` of every user, as one array pass over the users.

    The users belong to consecutive buckets of ``counts`` users each (by default
    one bucket), and each bucket's latencies are normalized by its own largest.
    Each distance is ``math.hypot`` of the position, as ``user_distance`` takes it;
    a value out of range raises the scalar helpers' own error, at the first user
    that has one.
    """
    latencies = np.asarray(latencies, dtype=float)
    if (latencies <= 0).any():
        raise ValueError("latencies must be > 0")
    if len(latencies) == 0:
        return np.empty(0)
    distances = np.array([math.hypot(x, y) for x, y in positions])
    counts = [len(latencies)] if counts is None else counts
    top = np.repeat(np.maximum.reduceat(latencies, np.cumsum([0, *counts[:-1]])), counts)
    shares = latencies / top
    in_range = (distance_cap > 0) & (distances >= 0) & (distances <= distance_cap) & (
        shares >= 0) & (shares <= 1) & (0 <= blend <= 1)
    if not in_range.all():  # the scalar helpers name the first problem
        for d, share in zip(distances.tolist(), shares.tolist()):
            user_priority(distance_priority(d, distance_cap), share, blend)
    return blend * (distances / distance_cap) + shares * (1 - blend)
