"""Domain entities for fog/cloud serverless placement.

Everything here is an immutable dataclass; derived priority fields are
filled in once at construction time (by the generator or by
``scoring.with_priorities``) and never mutated afterwards.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path


class ResourceKind(Enum):
    CPU = "cpu"
    RAM = "ram"
    STORAGE = "storage"
    NET_IO = "net_io"


# Fixed iteration order; all per-kind loops use this tuple for determinism.
RESOURCE_KINDS = (
    ResourceKind.CPU,
    ResourceKind.RAM,
    ResourceKind.STORAGE,
    ResourceKind.NET_IO,
)


class StateError(RuntimeError):
    """An operation was applied to a placement state it does not allow."""


class GenerationError(ValueError):
    """A generator config cannot produce a feasible workload."""


@dataclass(frozen=True)
class ResourceVector:
    """Per-kind quantities: cpu in cores, ram/storage in MB, net_io in KBps."""

    cpu: float = 0.0
    ram: float = 0.0
    storage: float = 0.0
    net_io: float = 0.0

    def __post_init__(self) -> None:
        for kind in RESOURCE_KINDS:
            v = self.get(kind)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{kind.value} must be finite and >= 0, got {v}")

    def get(self, kind: ResourceKind) -> float:
        return getattr(self, kind.value)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.cpu, self.ram, self.storage, self.net_io)

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu,
            self.ram + other.ram,
            self.storage + other.storage,
            self.net_io + other.net_io,
        )

    def fits_within(self, cap: "ResourceVector") -> bool:
        return all(a <= b for a, b in zip(self.as_tuple(), cap.as_tuple()))

    def to_dict(self) -> dict:
        return {k.value: self.get(k) for k in RESOURCE_KINDS}

    @classmethod
    def from_dict(cls, d: dict) -> "ResourceVector":
        return cls(**{k.value: float(d[k.value]) for k in RESOURCE_KINDS})


@dataclass(frozen=True)
class EnvironmentLimits:
    """Per-function caps of one serverless platform (fog or cloud).

    ``link_latency`` is the fog-to-platform round trip in ms; it is zero
    for the fog platform itself and positive for the cloud.
    """

    per_function_cap: ResourceVector
    code_size_limit: float  # MB
    input_size_limit: float  # MB
    link_latency: float = 0.0  # ms

    def __post_init__(self) -> None:
        if any(v <= 0 for v in self.per_function_cap.as_tuple()):
            raise ValueError("per-function caps must be > 0")
        if self.code_size_limit <= 0 or self.input_size_limit <= 0:
            raise ValueError("size limits must be > 0")
        if self.link_latency < 0 or not math.isfinite(self.link_latency):
            raise ValueError("link latency must be finite and >= 0")

    def to_dict(self) -> dict:
        return {
            "per_function_cap": self.per_function_cap.to_dict(),
            "code_size_limit": self.code_size_limit,
            "input_size_limit": self.input_size_limit,
            "link_latency": self.link_latency,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnvironmentLimits":
        return cls(
            per_function_cap=ResourceVector.from_dict(d["per_function_cap"]),
            code_size_limit=float(d["code_size_limit"]),
            input_size_limit=float(d["input_size_limit"]),
            link_latency=float(d.get("link_latency", 0.0)),
        )


@dataclass(frozen=True)
class User:
    id: int
    position: tuple[float, float]  # km, relative to an arbitrary origin
    latency: float  # ms, round trip to the fog node
    priority: float | None = None  # blended unit-interval priority, cached

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "position": list(self.position),
            "latency": self.latency,
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "User":
        prio = d.get("priority")
        return cls(
            id=int(d["id"]),
            position=(float(d["position"][0]), float(d["position"][1])),
            latency=float(d["latency"]),
            priority=None if prio is None else float(prio),
        )


@dataclass(frozen=True)
class ServerlessFunction:
    ssr_index: int
    index: int
    code_size: float  # MB
    input_size: float  # MB
    critical_value: int  # 1 (low) .. 5 (high)
    base_demand: ResourceVector
    supplementary_demand: ResourceVector
    priority: float | None = None  # cached, filled at construction time

    def __post_init__(self) -> None:
        if not 1 <= self.critical_value <= 5:
            raise ValueError(f"critical value must be in 1..5, got {self.critical_value}")
        if self.code_size <= 0:
            raise ValueError("code size must be > 0")
        if self.input_size < 0:
            raise ValueError("input size must be >= 0")

    def to_dict(self) -> dict:
        return {
            "ssr_index": self.ssr_index,
            "index": self.index,
            "code_size": self.code_size,
            "input_size": self.input_size,
            "critical_value": self.critical_value,
            "base_demand": self.base_demand.to_dict(),
            "supplementary_demand": self.supplementary_demand.to_dict(),
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ServerlessFunction":
        prio = d.get("priority")
        return cls(
            ssr_index=int(d["ssr_index"]),
            index=int(d["index"]),
            code_size=float(d["code_size"]),
            input_size=float(d["input_size"]),
            critical_value=int(d["critical_value"]),
            base_demand=ResourceVector.from_dict(d["base_demand"]),
            supplementary_demand=ResourceVector.from_dict(d["supplementary_demand"]),
            priority=None if prio is None else float(prio),
        )


@dataclass(frozen=True)
class SSR:
    """One user's serverless application: an ordered list of functions."""

    user_id: int
    functions: tuple[ServerlessFunction, ...]

    def to_dict(self) -> dict:
        return {"user_id": self.user_id, "functions": [f.to_dict() for f in self.functions]}

    @classmethod
    def from_dict(cls, d: dict) -> "SSR":
        return cls(
            user_id=int(d["user_id"]),
            functions=tuple(ServerlessFunction.from_dict(f) for f in d["functions"]),
        )


@dataclass(frozen=True)
class SSRBucket:
    ssrs: tuple[SSR, ...]
    users: tuple[User, ...]
    fog: EnvironmentLimits
    cloud: EnvironmentLimits
    importance_factors: ResourceVector  # per-kind weights, sum to 1
    distance_cap: float  # km
    priority_blend: float  # weight of distance vs latency priority

    def user_by_id(self, user_id: int) -> User:
        for u in self.users:
            if u.id == user_id:
                return u
        raise KeyError(f"no user with id {user_id}")

    def functions(self) -> list[tuple[int, ServerlessFunction]]:
        """Flattened (ssr index, function) pairs in insertion order."""
        return [(i, fn) for i, ssr in enumerate(self.ssrs) for fn in ssr.functions]

    @property
    def n_functions(self) -> int:
        return sum(len(s.functions) for s in self.ssrs)

    def to_dict(self) -> dict:
        return {
            "users": [u.to_dict() for u in self.users],
            "ssrs": [s.to_dict() for s in self.ssrs],
            "fog": self.fog.to_dict(),
            "cloud": self.cloud.to_dict(),
            "importance_factors": self.importance_factors.to_dict(),
            "distance_cap": self.distance_cap,
            "priority_blend": self.priority_blend,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SSRBucket":
        return cls(
            ssrs=tuple(SSR.from_dict(s) for s in d["ssrs"]),
            users=tuple(User.from_dict(u) for u in d["users"]),
            fog=EnvironmentLimits.from_dict(d["fog"]),
            cloud=EnvironmentLimits.from_dict(d["cloud"]),
            importance_factors=ResourceVector.from_dict(d["importance_factors"]),
            distance_cap=float(d["distance_cap"]),
            priority_blend=float(d["priority_blend"]),
        )


def save_bucket(bucket: SSRBucket, path: str | Path) -> None:
    Path(path).write_text(json.dumps(bucket.to_dict(), sort_keys=True, indent=2))


def load_bucket(path: str | Path) -> SSRBucket:
    return SSRBucket.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class Placement:
    """Per-function (fog_flag, cloud_flag) pairs in the bucket's flattened order.

    A partial placement may leave functions at (0, 0); a complete one has
    exactly one flag set everywhere.
    """

    flags: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for f, c in self.flags:
            if f + c > 1 or f not in (0, 1) or c not in (0, 1):
                raise ValueError(f"invalid flag pair ({f}, {c})")

    @classmethod
    def from_fog(cls, on_fog) -> "Placement":
        """Complete placement from one fog flag (truthy) per function."""
        return cls(flags=tuple((1, 0) if f else (0, 1) for f in on_fog))

    def is_complete(self) -> bool:
        return all(f + c == 1 for f, c in self.flags)

    def on_fog(self, index: int) -> bool:
        f, c = self.flags[index]
        if f + c != 1:
            raise StateError(f"function {index} is unassigned")
        return f == 1


def fits_platform(fn: ServerlessFunction, limits: EnvironmentLimits) -> bool:
    """Per-function platform constraints: code size, input size, total demand."""
    total = fn.base_demand + fn.supplementary_demand
    return (
        fn.code_size <= limits.code_size_limit
        and fn.input_size <= limits.input_size_limit
        and total.fits_within(limits.per_function_cap)
    )


# the fog and the cloud impose the same kinds of per-function limits
fog_feasible = cloud_feasible = fits_platform


def validate_bucket(bucket: SSRBucket) -> list[str]:
    """Collect every invariant violation; an empty list means the bucket is valid.

    Violations are data, not failures: arbitrary input is accepted.
    """
    violations: list[str] = []

    for i, ssr in enumerate(bucket.ssrs):
        if len(ssr.functions) == 0:
            violations.append(f"empty SSR at index {i}")

    factor_sum = sum(bucket.importance_factors.as_tuple())
    if abs(factor_sum - 1.0) > 1e-9:
        violations.append(f"importance factors sum {factor_sum} != 1")

    if len(bucket.ssrs) > len(bucket.users):
        violations.append(
            f"{len(bucket.ssrs)} SSRs exceed {len(bucket.users)} users"
        )
    seen_users: set[int] = set()
    for i, ssr in enumerate(bucket.ssrs):
        if ssr.user_id in seen_users:
            violations.append(f"duplicate user id {ssr.user_id} at SSR index {i}")
        seen_users.add(ssr.user_id)
        if not any(u.id == ssr.user_id for u in bucket.users):
            violations.append(f"SSR index {i} references unknown user {ssr.user_id}")

    if not 0 <= bucket.priority_blend <= 1:
        violations.append(f"priority blend {bucket.priority_blend} outside [0, 1]")
    if not (math.isfinite(bucket.distance_cap) and bucket.distance_cap > 0):
        violations.append(f"distance cap {bucket.distance_cap} must be finite and > 0")

    if not bucket.fog.per_function_cap.fits_within(bucket.cloud.per_function_cap):
        violations.append("fog per-function cap exceeds cloud cap in some component")

    for u in bucket.users:
        if not (math.isfinite(u.latency) and u.latency > 0):
            violations.append(f"user {u.id} latency {u.latency} must be finite and > 0")
        d = math.hypot(u.position[0], u.position[1])
        if not math.isfinite(d):
            violations.append(f"user {u.id} position {u.position} is not finite")
        elif d > bucket.distance_cap + 1e-12:
            violations.append(
                f"user {u.id} distance {d:.6g} outside coverage radius {bucket.distance_cap}"
            )
        if u.priority is not None and not 0 <= u.priority <= 1:
            violations.append(f"user {u.id} priority {u.priority} outside [0, 1]")

    for i, ssr in enumerate(bucket.ssrs):
        for fn in ssr.functions:
            if not cloud_feasible(fn, bucket.cloud):
                violations.append(
                    f"function ({i}, {fn.index}) does not fit the cloud limits"
                )

    return violations

