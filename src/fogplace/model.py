"""Domain entities for fog/cloud serverless placement.

Everything here is an immutable dataclass. Each SSR carries its user's
latency and priority, and every function its one demand vector and its own
priority, as required data: the generator gives each priority the value that
``scoring.user_priorities`` or ``scoring.ssr_priorities`` computes, and a
bucket file's priorities are used as given, never recomputed: user
positions, the coverage radius, the blend and delta are not stored in a
bucket, and a function's place is its position in its SSR. The bucket holds
the one fog-cloud link latency. ``SSRBucket.table`` is the one walk over a
bucket's functions, and ``fits`` the one fit test, on one function or on whole
table columns. ``validate_bucket`` checks the ranges of all of these.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .codec import decode, encode

if TYPE_CHECKING:
    from .costs import CostContext


# The ``ResourceVector`` field names, in the fixed order of every per-kind loop.
RESOURCE_KINDS = ("cpu", "ram", "storage", "net_io")
# The columns of ``SSRBucket.table``: the demand kinds, then each function's own fields.
TABLE_COLUMNS = (*RESOURCE_KINDS, "code_size", "input_size", "critical_value", "priority")


class StateError(RuntimeError):
    """An operation was applied to a placement state it does not allow."""


@dataclass(frozen=True)
class ResourceVector:
    """Per-kind quantities: cpu in cores, ram/storage in MB, net_io in Mbps.

    Every cost uses only a demand over its cap, so each unit is a label.
    """

    cpu: float = 0.0
    ram: float = 0.0
    storage: float = 0.0
    net_io: float = 0.0

    def __post_init__(self) -> None:
        # the chained comparison is False for NaN and infinities
        if not (0 <= self.cpu < math.inf and 0 <= self.ram < math.inf
                and 0 <= self.storage < math.inf and 0 <= self.net_io < math.inf):
            for name, v in zip(RESOURCE_KINDS, self.as_tuple()):
                if not 0 <= v < math.inf:
                    raise ValueError(f"{name} must be finite and >= 0, got {v}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.cpu, self.ram, self.storage, self.net_io)


@dataclass(frozen=True)
class EnvironmentLimits:
    """Per-function caps of one serverless platform (fog or cloud)."""

    per_function_cap: ResourceVector
    code_size_limit: float  # MB
    input_size_limit: float  # MB

    def __post_init__(self) -> None:
        if any(v <= 0 for v in self.per_function_cap.as_tuple()):
            raise ValueError("per-function caps must be > 0")
        if not (0 < self.code_size_limit < math.inf and 0 < self.input_size_limit < math.inf):
            raise ValueError("size limits must be finite and > 0")


@dataclass(frozen=True)
class ServerlessFunction:
    code_size: float  # MB
    input_size: float  # MB
    critical_value: int  # 1 (low) .. 5 (high)
    demand: ResourceVector
    priority: float  # placement priority within its SSR, > 0

    def __post_init__(self) -> None:
        if not 1 <= self.critical_value <= 5:
            raise ValueError(f"critical value must be in 1..5, got {self.critical_value}")
        if self.code_size <= 0:
            raise ValueError("code size must be > 0")
        if self.input_size < 0:
            raise ValueError("input size must be >= 0")


@dataclass(frozen=True)
class SSR:
    """One user's serverless application: an ordered list of functions."""

    user_latency: float  # ms, the user's round trip to the fog node
    user_priority: float  # blended distance and latency priority, in [0, 1]
    functions: tuple[ServerlessFunction, ...]


@dataclass(frozen=True)
class SSRBucket:
    ssrs: tuple[SSR, ...]
    link_latency: float  # ms, the fog-cloud round trip
    fog: EnvironmentLimits
    cloud: EnvironmentLimits
    importance_factors: ResourceVector  # per-kind weights, sum to 1

    def functions(self) -> list[tuple[int, ServerlessFunction]]:
        """Flattened (ssr index, function) pairs in insertion order."""
        return [(i, fn) for i, ssr in enumerate(self.ssrs) for fn in ssr.functions]

    @property
    def n_functions(self) -> int:
        return sum(len(s.functions) for s in self.ssrs)

    @cached_property
    def table(self) -> np.ndarray:
        """One row per function in flattened order, built on first use and kept."""
        rows = [(*fn.demand.as_tuple(), fn.code_size, fn.input_size, fn.critical_value,
                 fn.priority) for ssr in self.ssrs for fn in ssr.functions]
        table = np.array(rows, dtype=float).reshape(-1, len(TABLE_COLUMNS))
        table.flags.writeable = False  # shared by every reader of the bucket
        return table

    @cached_property
    def costs(self) -> CostContext:
        """The bucket's cost arrays, built on first use and kept with the bucket."""
        from .costs import CostContext  # costs imports this module

        return CostContext.from_bucket(self)


def save_bucket(bucket: SSRBucket, path: str | Path) -> None:
    Path(path).write_text(json.dumps(encode(bucket), sort_keys=True, indent=2))


def load_bucket(path: str | Path) -> SSRBucket:
    """A bucket file; raises ``DecodeError`` on a document that is not a bucket."""
    return decode(SSRBucket, json.loads(Path(path).read_text()))


# One fog flag per function, in the bucket's flattened order; False is the cloud.
Placement = tuple[bool, ...]


def fits(limits: EnvironmentLimits, code_size, input_size, demand):
    """Whether functions fit a platform's per-function limits: code size, input size and
    demand. It broadcasts over one function's values or whole columns, demand kinds last."""
    return ((code_size <= limits.code_size_limit) & (input_size <= limits.input_size_limit)
            & (np.asarray(demand) <= limits.per_function_cap.as_tuple()).all(axis=-1))


def fog_feasible(fn: ServerlessFunction, limits: EnvironmentLimits) -> bool:
    """``fits`` for one function object."""
    return bool(fits(limits, fn.code_size, fn.input_size, fn.demand.as_tuple()))


cloud_feasible = fog_feasible  # the fog and the cloud impose the same kinds of limits


def settings_violations(settings: SSRBucket) -> list[str]:
    """Checks of the settings that a bucket shares, by name, with a ``GeneratorConfig``."""
    violations = []
    factor_sum = sum(settings.importance_factors.as_tuple())
    if abs(factor_sum - 1.0) > 1e-9:
        violations.append(f"importance factors sum {factor_sum} != 1")
    if not 0 <= settings.link_latency < math.inf:
        violations.append(f"link latency {settings.link_latency} must be finite and >= 0")
    fog_cap = settings.fog.per_function_cap.as_tuple()
    cloud_cap = settings.cloud.per_function_cap.as_tuple()
    if not all(f <= c for f, c in zip(fog_cap, cloud_cap)):
        violations.append("fog per-function cap exceeds cloud cap in some component")
    return violations


def link_overflows(link_latency: float, top_latency: float, n_functions: int) -> bool:
    """Whether the cost totals of n functions may overflow to infinity.

    The costs divide the link latency by the largest user latency, and every
    cost total stays below ``3 * n * (1 + that share)``.
    """
    return not math.isfinite(3 * n_functions * (1 + link_latency / top_latency))


class InvalidBucket(ValueError):
    """A bucket with invariant violations, raised where it becomes cost arrays."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid bucket: " + "; ".join(violations))
        self.violations = violations


def validate_bucket(bucket: SSRBucket) -> list[str]:
    """Collect every invariant violation; an empty list means the bucket is valid.

    Violations are data, not failures: arbitrary input is accepted.
    """
    violations: list[str] = []
    table = bucket.table
    if len(table) == 0:
        violations.append("bucket has no functions")
    violations += settings_violations(bucket)

    demand, (code_size, input_size, _, priority) = table[:, :4], table[:, 4:].T
    # from_bucket divides by each SSR's top priority
    bad_priority = ~((priority > 0) & (priority < math.inf))
    misfit = ~fits(bucket.cloud, code_size, input_size, demand)
    flagged = np.flatnonzero(bad_priority | misfit)[::-1].tolist()  # popped in flattened order
    stop = 0
    for i, ssr in enumerate(bucket.ssrs):
        start, stop = stop, stop + len(ssr.functions)
        if len(ssr.functions) == 0:
            violations.append(f"empty SSR at index {i}")
        if not 0 < ssr.user_latency < math.inf:
            violations.append(f"SSR {i} user latency {ssr.user_latency} must be finite and > 0")
        if not 0 <= ssr.user_priority <= 1:
            violations.append(f"SSR {i} user priority {ssr.user_priority} outside [0, 1]")
        while flagged and flagged[-1] < stop:
            k = flagged.pop()
            if bad_priority[k]:
                violations.append(f"function ({i}, {k - start}) priority "
                                  f"{ssr.functions[k - start].priority} must be finite and > 0")
            if misfit[k]:
                violations.append(f"function ({i}, {k - start}) does not fit the cloud limits")

    top = max((ssr.user_latency for ssr in bucket.ssrs), default=0.0)
    if top > 0 and link_overflows(bucket.link_latency, top, len(table)):
        violations.append(f"link latency {bucket.link_latency} over the largest user "
                          f"latency {top} overflows the costs")

    return violations
