"""Episodic placement environment with constraint-masked actions.

One episode assigns every function of a bucket, one decision per step.
The default processing order visits SSRs by descending user priority and
functions within an SSR by descending function priority, so high-priority
work gets first claim; insertion order is available for ablation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import costs
from .model import Placement, SSRBucket, StateError, validate_bucket

# Entries per function slot in the encoded state vector.
SLOT_WIDTH = 11


class Action(IntEnum):
    FOG = 0
    CLOUD = 1


@dataclass(frozen=True, eq=False)
class EnvState:
    """One point of an episode; only the environment's latest state can be stepped."""

    encoded: np.ndarray  # float64 state row: slot features and flags, then the cursor share
    cursor: int  # position in the processing order
    mask: tuple[bool, bool]  # (fog allowed, cloud allowed) for the next function
    placement: Placement | None = None  # in insertion order, set once the episode completes

    @property
    def done(self) -> bool:
        return self.placement is not None


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    cost: float
    done: bool
    mask: tuple[bool, bool]


@dataclass(frozen=True)
class EpisodeRecord:
    bucket_seed: int | None
    actions: tuple[int, ...]
    step_costs: tuple[float, ...]
    bucket_step_cost: float
    objective_total: float
    fog_count: int
    cloud_count: int

    def to_dict(self) -> dict:
        return {
            "bucket_seed": self.bucket_seed,
            "actions": list(self.actions),
            "step_costs": list(self.step_costs),
            "bucket_step_cost": self.bucket_step_cost,
            "objective_total": self.objective_total,
            "fog_count": self.fog_count,
            "cloud_count": self.cloud_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeRecord":
        return cls(
            bucket_seed=d.get("bucket_seed"),
            actions=tuple(int(a) for a in d["actions"]),
            step_costs=tuple(float(c) for c in d["step_costs"]),
            bucket_step_cost=float(d["bucket_step_cost"]),
            objective_total=float(d["objective_total"]),
            fog_count=int(d["fog_count"]),
            cloud_count=int(d["cloud_count"]),
        )


def write_records(records: list[EpisodeRecord], path: str | Path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")


def read_records(path: str | Path) -> list[EpisodeRecord]:
    out = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            out.append(EpisodeRecord.from_dict(json.loads(line)))
    return out


class PlacementEnv:
    """Episodes over one bucket: ``reset`` starts one, ``step`` advances its latest state.

    Slot ``pos`` of the encoded state describes the function at position ``pos``
    of the processing order; its first two entries are the fog and cloud flags.
    """

    def __init__(
        self,
        bucket: SSRBucket,
        order: str = "priority",
        max_functions: int | None = None,
        bucket_seed: int | None = None,
        ctx: costs.CostContext | None = None,
    ):
        violations = validate_bucket(bucket)
        if violations:
            raise ValueError("invalid bucket: " + "; ".join(violations))
        self.bucket = bucket
        self.ctx = ctx = costs.context_for(bucket, ctx)
        self.bucket_seed = bucket_seed

        flat = bucket.functions()  # insertion order: (ssr index, fn)
        n = len(flat)
        if order == "priority":
            user_priority = ctx.priority.tolist()
            fn_priority = ctx.fn_priority.tolist()

            def sort_key(flat_idx: int):
                ssr_idx, fn = flat[flat_idx]
                return (-user_priority[flat_idx], ssr_idx, -fn_priority[flat_idx], fn.index)
            self.order = sorted(range(n), key=sort_key)
        elif order == "insertion":
            self.order = list(range(n))
        else:
            raise ValueError(f"unknown processing order {order!r}")

        self.flat = flat
        self.n_functions = n
        self.max_functions = max_functions or n
        if self.max_functions < n:
            raise ValueError(
                f"bucket has {n} functions but the encoder allows {self.max_functions}"
            )
        visit = np.array(self.order, dtype=np.intp)
        self._costs = (ctx.fog_step[visit].tolist(), ctx.cloud_step[visit].tolist())
        self._masks = list(zip(ctx.fog_ok[visit].tolist(), ctx.cloud_ok[visit].tolist()))
        self._masks.append((False, False))
        self._static = self._static_encoding(visit)
        self._on_fog = [False] * n  # this episode's decisions, in insertion order
        self._latest: EnvState | None = None

    def reset(self) -> EnvState:
        """Start a new episode; states of earlier episodes can no longer be stepped."""
        self._latest = EnvState(encoded=self._static.copy(), cursor=0, mask=self._masks[0])
        return self._latest

    def feasible_actions(self, state: EnvState) -> tuple[bool, bool]:
        if state.done:
            raise StateError("episode is complete")
        return state.mask

    def step(self, state: EnvState, action: Action) -> StepOutcome:
        if state is not self._latest:
            raise StateError("stale state: only the latest state of the episode can be stepped")
        if state.done:
            raise StateError("episode is complete")
        if not state.mask[action]:
            raise StateError(f"action {Action(action).name} violates the platform limits")

        pos = state.cursor
        cost = self._costs[action][pos]
        encoded = state.encoded.copy()
        encoded[pos * SLOT_WIDTH + action] = 1.0
        cursor = pos + 1
        encoded[-1] = cursor / self.n_functions
        self._on_fog[self.order[pos]] = action == Action.FOG
        placement = Placement.from_fog(self._on_fog) if cursor == self.n_functions else None
        self._latest = EnvState(encoded, cursor, self._masks[cursor], placement)
        return StepOutcome(
            next_state=self._latest,
            cost=cost,
            done=placement is not None,
            mask=self._latest.mask,
        )

    def _static_encoding(self, visit: np.ndarray) -> np.ndarray:
        ctx, cloud = self.ctx, self.bucket.cloud
        slots = np.zeros((self.max_functions, SLOT_WIDTH))
        used = slots[: self.n_functions]
        used[:, 2] = ctx.code_size[visit] / cloud.code_size_limit
        used[:, 3] = ctx.input_size[visit] / cloud.input_size_limit
        used[:, 4] = ctx.critical[visit] / 5
        used[:, 5:9] = ctx.demand[visit] / np.array(cloud.per_function_cap.as_tuple())
        used[:, 9] = ctx.priority[visit]
        used[:, 10] = ctx.fog_ok[visit]
        return np.append(slots.ravel(), 0.0)

    def record(self, actions: list[int], step_costs: list[float],
               placement: Placement) -> EpisodeRecord:
        objectives, total = costs.bucket_objective(self.bucket, placement, self.ctx)
        fog_count = sum(f for f, _ in placement.flags)
        return EpisodeRecord(
            bucket_seed=self.bucket_seed,
            actions=tuple(actions),
            step_costs=tuple(step_costs),
            bucket_step_cost=costs.bucket_step_cost(self.bucket, placement, self.ctx),
            objective_total=total,
            fog_count=fog_count,
            cloud_count=len(placement.flags) - fog_count,
        )
