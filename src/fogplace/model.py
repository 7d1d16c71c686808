"""Domain entities for fog/cloud serverless placement.

A bucket is its columns: ``SSRBucket.table``, one read-only row per function in
flattened order (SSR by SSR), and per SSR its function count and its user's
latency and priority. Priorities are data: the generator stores the values that
``scoring`` computes, and a bucket file's are used as given. ``fits`` is the one
fit test, on one function or on whole columns. A bucket file holds the same
columns, ``functions`` by name, under ``version``: any other version is refused.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, make_dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .codec import DecodeError, decode_version, encode

if TYPE_CHECKING:
    from .costs import CostContext


# The ``ResourceVector`` field names, in the fixed order of every per-kind loop.
RESOURCE_KINDS = ("cpu", "ram", "storage", "net_io")
# The columns of ``SSRBucket.table``: the demand kinds, then each function's own fields.
TABLE_COLUMNS = (*RESOURCE_KINDS, "code_size", "input_size", "critical_value", "priority")
BUCKET_VERSION = 2  # the only bucket file version read


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
        for name, v in zip(RESOURCE_KINDS, self.as_tuple()):
            if not 0 <= v < math.inf:  # False for NaN
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
    """One row of a bucket's table as an object, as ``SSRBucket.functions`` builds it."""

    code_size: float  # MB
    input_size: float  # MB
    critical_value: int  # 1 (low) .. 5 (high)
    demand: ResourceVector
    priority: float  # placement priority within its SSR


# The range of each table column but the priority, which ``validate_bucket`` checks.
_COLUMN_RULES = ("must be finite and >= 0",) * 4 + ("must be > 0", "must be >= 0",
                                                   "must be in 1..5")
# The same rules as bounds: a code size > 0 is one at or above the least float > 0.
_COLUMN_MIN = np.array([0.0] * 4 + [math.ulp(0.0), 0.0, 1.0])
_COLUMN_MAX = np.array([np.finfo(float).max] * 4 + [math.inf, math.inf, 5.0])
_NAN_BREAKS = np.array([True] * 4 + [False, False, True])


@dataclass(frozen=True, eq=False)
class BucketStack:
    """Buckets that share their settings, as one set of columns: the table holds their
    functions bucket by bucket, and the per-SSR columns their SSRs, ``ssr_count`` of them
    per bucket. Each column is copied and made read-only; ``DecodeError``, named as in a
    bucket file, on a table that is not n x 8, a count that is not integral, per-SSR
    columns that do not fit the table or a value outside its range. Validation, the cost
    arrays and the reports run once over a whole stack; an ``SSRBucket`` is a stack of one."""

    table: np.ndarray  # one row per function in flattened order, columns TABLE_COLUMNS
    function_count: np.ndarray  # per SSR: its number of functions, consecutive rows
    user_latency: np.ndarray  # per SSR, ms: its user's round trip to the fog node
    user_priority: np.ndarray  # per SSR: its user's blended distance and latency priority
    link_latency: float  # ms, the fog-cloud round trip
    fog: EnvironmentLimits
    cloud: EnvironmentLimits
    importance_factors: ResourceVector  # per-kind weights, sum to 1
    ssr_count: np.ndarray  # per bucket: its number of SSRs, consecutive
    starts: np.ndarray = field(init=False, repr=False)  # per SSR: its first row in the table

    def __post_init__(self) -> None:
        table = np.array(self.table, dtype=float)
        if table.ndim != 2 or table.shape[1] != len(TABLE_COLUMNS):
            raise DecodeError("functions", f"expected a table of {len(TABLE_COLUMNS)} "
                              f"columns, got shape {table.shape}")
        # checked as Python ints, so none wraps; NaN and 7.9 are not integral
        counts = [int(c) for c in self.function_count if c % 1 == 0]
        if len(counts) != len(self.function_count):
            raise DecodeError("function_count", "every count must be an integer")
        if not (len(counts) == len(self.user_latency) == len(self.user_priority)
                and min(counts, default=0) >= 0 and sum(counts) == len(table)):
            raise DecodeError("", "function_count, user_latency and user_priority must hold one "
                              f"entry per SSR, the counts >= 0 and summing to {len(table)}")
        ssr_count = np.array(self.ssr_count, dtype=int)
        if ssr_count.ndim != 1 or (ssr_count < 0).any() or ssr_count.sum() != len(counts):
            raise DecodeError("ssr_count", f"every count must be >= 0, summing to {len(counts)}")
        counts = np.array(counts, dtype=int)
        for name, column in (
                ("table", table), ("function_count", counts), ("ssr_count", ssr_count),
                ("starts", np.cumsum(counts) - counts),
                ("user_latency", np.array(self.user_latency, dtype=float)),
                ("user_priority", np.array(self.user_priority, dtype=float))):
            column.flags.writeable = False  # shared by every reader of the bucket
            object.__setattr__(self, name, column)
        # each rule as bounds: NaN breaks the demand and critical value rules only
        rows = self.table[:, :len(_COLUMN_RULES)]
        broken = (rows < _COLUMN_MIN) | (rows > _COLUMN_MAX) | (np.isnan(rows) & _NAN_BREAKS)
        if broken.any():  # the first function breaking a rule
            k, c = np.argwhere(broken)[0].tolist()
            raise DecodeError(f"functions.{TABLE_COLUMNS[c]}[{k}]",
                              f"{_COLUMN_RULES[c]}, got {self.table[k, c]}")

    @cached_property
    def edges(self) -> tuple[list[int], list[int]]:
        """Each bucket's first SSR, then the SSR total; each bucket's first row, then the
        row total."""
        ssr_edges = np.concatenate([[0], np.cumsum(self.ssr_count)])
        return ssr_edges.tolist(), np.append(self.starts, len(self.table))[ssr_edges].tolist()

    def bucket(self, i: int) -> SSRBucket:
        """Bucket i as a view of the stack's columns; once the stack's cost arrays are
        built, the view's are their slice."""
        ssr_edges, row_edges = self.edges
        ssrs, rows = slice(*ssr_edges[i:i + 2]), slice(*row_edges[i:i + 2])
        starts = self.starts[ssrs] - rows.start
        starts.flags.writeable = False
        view = object.__new__(SSRBucket)
        for name in ("link_latency", "fog", "cloud", "importance_factors"):
            object.__setattr__(view, name, getattr(self, name))
        for name, column in (("table", self.table[rows]), ("function_count",
                             self.function_count[ssrs]), ("user_latency", self.user_latency[ssrs]),
                             ("user_priority", self.user_priority[ssrs]),
                             ("ssr_count", self.ssr_count[i:i + 1]), ("starts", starts)):
            object.__setattr__(view, name, column)
        if "costs" in vars(self):
            vars(view)["costs"] = self.costs.bucket(i, ssrs, rows)
        return view

    @property
    def n_functions(self) -> int:
        return len(self.table)

    def functions(self) -> list[tuple[int, ServerlessFunction]]:
        """(ssr index, function) pairs in flattened order, built anew on each call."""
        ssr_index = np.repeat(np.arange(len(self.function_count)), self.function_count)
        return [(i, ServerlessFunction(code, size, int(critical), ResourceVector(*demand), p))
                for i, (*demand, code, size, critical, p)
                in zip(ssr_index.tolist(), self.table.tolist())]

    @cached_property
    def costs(self) -> CostContext:
        """The cost arrays of the bucket, or of every bucket of a stack, built on first use
        and kept."""
        from .costs import CostContext  # costs imports this module

        return CostContext.from_bucket(self)


@dataclass(frozen=True, eq=False)
class SSRBucket(BucketStack):
    """One bucket: a stack of one, whose ``ssr_count`` is its number of SSRs."""

    ssr_count: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ssr_count", [len(self.function_count)])
        super().__post_init__()


# The ``functions`` object of a bucket file: one array per table column, by name.
_FunctionColumns = make_dataclass("_FunctionColumns", [
    (name, tuple[int, ...] if name == "critical_value" else tuple[float, ...])
    for name in TABLE_COLUMNS], frozen=True)


@dataclass(frozen=True)
class _BucketFile:
    version: int
    function_count: tuple[int, ...]
    user_latency: tuple[float, ...]
    user_priority: tuple[float, ...]
    functions: _FunctionColumns
    link_latency: float
    fog: EnvironmentLimits
    cloud: EnvironmentLimits
    importance_factors: ResourceVector


def encode_bucket(bucket: SSRBucket) -> dict:
    """The bucket's file document: its columns and settings, under ``version``."""
    columns = dict(zip(TABLE_COLUMNS, bucket.table.T.tolist()))
    columns["critical_value"] = [int(v) for v in columns["critical_value"]]
    return encode(_BucketFile(
        BUCKET_VERSION, bucket.function_count.tolist(), bucket.user_latency.tolist(),
        bucket.user_priority.tolist(), _FunctionColumns(**columns), bucket.link_latency,
        bucket.fog, bucket.cloud, bucket.importance_factors))


def decode_bucket(doc: Any) -> SSRBucket:
    """A bucket document; raises ``DecodeError`` on one that is not a version-2 bucket."""
    file = decode_version(_BucketFile, doc, BUCKET_VERSION, "bucket")
    columns = list(vars(file.functions).values())
    if len({len(column) for column in columns}) > 1:
        raise DecodeError("functions", "columns of unequal lengths: one entry per function each")
    return SSRBucket(np.array(columns, dtype=float).T,
                     file.function_count, file.user_latency, file.user_priority,
                     file.link_latency, file.fog, file.cloud, file.importance_factors)


def save_bucket(bucket: SSRBucket, path: str | Path) -> None:
    Path(path).write_text(json.dumps(encode_bucket(bucket), sort_keys=True, indent=2))


def load_bucket(path: str | Path) -> SSRBucket:
    """A bucket file; raises ``DecodeError`` on a document that is not a bucket."""
    return decode_bucket(json.loads(Path(path).read_text()))


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


def validate_bucket(bucket: BucketStack) -> list[str]:
    """Collect every invariant violation of a bucket; of a stack, those of its first bucket
    that has any. An empty list means every bucket is valid.

    Violations are data, not failures: arbitrary input is accepted. Each check runs once
    over the stack's columns, and the messages name SSRs and functions within their bucket.
    """
    table, starts, counts = bucket.table, bucket.starts, bucket.function_count
    demand, (code_size, input_size, _, priority) = table[:, :4], table[:, 4:].T
    # from_bucket divides by each SSR's top priority
    bad_priority = ~((priority > 0) & (priority < math.inf))
    misfit = ~fits(bucket.cloud, code_size, input_size, demand)
    latency, user_priority = bucket.user_latency, bucket.user_priority
    broken_ssrs = np.flatnonzero((counts == 0) | ~((latency > 0) & (latency < math.inf))
                                 | ~((user_priority >= 0) & (user_priority <= 1)))
    rows = np.flatnonzero(bad_priority | misfit)
    ssr_edges, row_edges = bucket.edges
    latencies = latency.tolist()
    tops = [max(latencies[a:b], default=0.0) for a, b in zip(ssr_edges, ssr_edges[1:])]
    sizes = np.diff(row_edges).tolist()
    overflows = [top > 0 and link_overflows(bucket.link_latency, top, n)
                 for top, n in zip(tops, sizes)]
    settings = settings_violations(bucket)

    # the first bucket with a violation: an SSR or a row is in the last bucket that
    # starts at or before it, past empty buckets, and every bucket shares the settings
    firsts = [b for b, (n, over) in enumerate(zip(sizes, overflows)) if n == 0 or over][:1]
    firsts += (np.searchsorted(ssr_edges, broken_ssrs[:1], side="right") - 1).tolist()
    firsts += (np.searchsorted(row_edges, rows[:1], side="right") - 1).tolist()
    firsts += [0] if settings and sizes else []
    if not firsts:
        return []
    b = min(firsts)
    (s0, s1), (r0, r1) = ssr_edges[b:b + 2], row_edges[b:b + 2]
    violations = ["bucket has no functions"] if sizes[b] == 0 else []
    violations += settings
    rows = rows[(rows >= r0) & (rows < r1)].tolist()
    rows_of: dict[int, list[int]] = {}  # per SSR, its flagged rows
    if rows:  # a row's SSR is the last one that starts at or before it, past empty SSRs
        for k, i in zip(rows, np.searchsorted(starts, rows, side="right").tolist()):
            rows_of.setdefault(i - 1, []).append(k)
    broken = broken_ssrs[(broken_ssrs >= s0) & (broken_ssrs < s1)].tolist()
    for i in sorted(rows_of.keys() | set(broken)):
        ssr = i - s0  # the SSR's index within its bucket
        if counts[i] == 0:
            violations.append(f"empty SSR at index {ssr}")
        if not 0 < latencies[i] < math.inf:
            violations.append(f"SSR {ssr} user latency {latencies[i]} must be finite and > 0")
        if not 0 <= user_priority[i] <= 1:
            violations.append(f"SSR {ssr} user priority {user_priority[i].item()} outside [0, 1]")
        for k in rows_of.get(i, ()):
            j = k - int(starts[i])
            if bad_priority[k]:
                violations.append(f"function ({ssr}, {j}) priority {priority[k]} "
                                  "must be finite and > 0")
            if misfit[k]:
                violations.append(f"function ({ssr}, {j}) does not fit the cloud limits")

    if overflows[b]:
        violations.append(f"link latency {bucket.link_latency} over the largest user "
                          f"latency {tops[b]} overflows the costs")
    return violations
