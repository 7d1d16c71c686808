"""Episodic placement environment with constraint-masked actions.

One episode assigns every function of a bucket, one decision per step.
The processing order visits SSRs by descending user priority and functions
within an SSR by descending function priority, so high-priority work gets
first claim.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .model import Placement, SSRBucket, StateError

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
    mask: tuple[bool, bool]  # (next function fits the fog, not done): the allowed actions
    placement: Placement | None = None  # in insertion order, set once the episode completes

    @property
    def done(self) -> bool:
        return self.placement is not None


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    cost: float


class PlacementEnv:
    """Episodes over one bucket: ``reset`` starts one, ``step`` advances its latest state.

    Slot ``pos`` of the encoded state describes the function at position ``pos``
    of the processing order; its first two entries are the fog and cloud flags.
    """

    def __init__(self, bucket: SSRBucket, max_functions: int | None = None):
        """``ValueError`` on an invalid bucket (``bucket.costs`` validates it)."""
        self.bucket = bucket
        ctx = bucket.costs

        flat = bucket.functions()  # insertion order: (ssr index, fn)
        n = len(flat)
        user_priority = ctx.priority.tolist()
        fn_priority = ctx.fn_priority.tolist()

        def sort_key(flat_idx: int):  # ties keep insertion order: sorted is stable
            return (-user_priority[flat_idx], flat[flat_idx][0], -fn_priority[flat_idx])
        self.order = sorted(range(n), key=sort_key)

        self.n_functions = n
        self.max_functions = max_functions or n
        if self.max_functions < n:
            raise ValueError(
                f"bucket has {n} functions but the encoder allows {self.max_functions}"
            )
        visit = np.array(self.order, dtype=np.intp)
        self._costs = (ctx.fog_step[visit].tolist(), ctx.cloud_step[visit].tolist())
        # the cloud takes every function of a valid bucket, so only the fog flag varies
        self._masks = [(fog_ok, True) for fog_ok in ctx.fog_ok[visit].tolist()]
        self._masks.append((False, False))
        self._static = self._static_encoding(visit)
        self._on_fog = [False] * n  # this episode's decisions, in insertion order
        self._latest: EnvState | None = None

    def reset(self) -> EnvState:
        """Start a new episode; states of earlier episodes can no longer be stepped."""
        self._latest = EnvState(encoded=self._static.copy(), cursor=0, mask=self._masks[0])
        return self._latest

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
        placement = tuple(self._on_fog) if cursor == self.n_functions else None
        self._latest = EnvState(encoded, cursor, self._masks[cursor], placement)
        return StepOutcome(next_state=self._latest, cost=cost)

    def _static_encoding(self, visit: np.ndarray) -> np.ndarray:
        ctx, cloud = self.bucket.costs, self.bucket.cloud
        slots = np.zeros((self.max_functions, SLOT_WIDTH))
        used = slots[: self.n_functions]
        used[:, 2] = ctx.code_size[visit] / cloud.code_size_limit
        used[:, 3] = ctx.input_size[visit] / cloud.input_size_limit
        used[:, 4] = ctx.critical[visit] / 5
        used[:, 5:9] = ctx.demand[visit] / np.array(cloud.per_function_cap.as_tuple())
        used[:, 9] = ctx.priority[visit]
        used[:, 10] = ctx.fog_ok[visit]
        return np.append(slots.ravel(), 0.0)
