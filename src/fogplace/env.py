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

from .model import TABLE_COLUMNS, Placement, SSRBucket, StateError

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
    """Episodes over one bucket: ``reset`` starts one, ``step`` advances its latest state
    by one decision, and ``skip_forced`` by a run of forced cloud placements.

    Slot ``pos`` of the encoded state describes the function at position ``pos``
    of the processing order; its first two entries are the fog and cloud flags.
    """

    def __init__(self, bucket: SSRBucket, max_functions: int | None = None):
        """``ValueError`` on an invalid bucket (``bucket.costs`` validates it)."""
        self.bucket = bucket
        ctx, table = bucket.costs, bucket.table
        n = len(table)
        # each function's SSR start: in a valid bucket it orders as the SSR index does
        ssr_start = np.repeat(bucket.starts, bucket.function_count)
        fn_priority = table[:, TABLE_COLUMNS.index("priority")]
        # the last key sorts first; ties keep insertion order, as lexsort is stable
        visit = np.lexsort((-fn_priority, ssr_start, -ctx.priority))
        self.order = visit.tolist()

        self.n_functions = n
        self.max_functions = n if max_functions is None else max_functions
        if self.max_functions < n:
            raise ValueError(
                f"bucket has {n} functions but the encoder allows {self.max_functions}"
            )
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
        self._check_latest(state)
        if not state.mask[action]:
            raise StateError(f"action {Action(action).name} violates the platform limits")
        pos = state.cursor
        return StepOutcome(next_state=self._advance(state, pos + 1, action),
                           cost=self._costs[action][pos])

    def skip_forced(self, state: EnvState) -> tuple[EnvState, list[float]]:
        """Take the cloud at every forced position, from the cursor up to the next
        free decision or the episode's end.

        Returns that state and the cloud step costs of the skipped positions, in
        processing order; at a free decision it skips none. The state is the one
        that stepping the cloud position by position would reach.
        """
        self._check_latest(state)
        pos = stop = state.cursor
        while stop < self.n_functions and not self._masks[stop][0]:
            stop += 1
        return self._advance(state, stop, Action.CLOUD), self._costs[Action.CLOUD][pos:stop]

    def _check_latest(self, state: EnvState) -> None:
        if state is not self._latest:
            raise StateError("stale state: only the latest state of the episode can be stepped")
        if state.done:
            raise StateError("episode is complete")

    def _advance(self, state: EnvState, stop: int, action: Action) -> EnvState:
        """The latest state after ``action`` at every position from the cursor up to stop."""
        pos = state.cursor
        encoded = state.encoded.copy()
        encoded[pos * SLOT_WIDTH + action:stop * SLOT_WIDTH:SLOT_WIDTH] = 1.0
        encoded[-1] = stop / self.n_functions
        for flat_idx in self.order[pos:stop]:
            self._on_fog[flat_idx] = action == Action.FOG
        placement = tuple(self._on_fog) if stop == self.n_functions else None
        self._latest = EnvState(encoded, stop, self._masks[stop], placement)
        return self._latest

    def _static_encoding(self, visit: np.ndarray) -> np.ndarray:
        ctx, cloud = self.bucket.costs, self.bucket.cloud
        rows = self.bucket.table[visit]
        demand, (code_size, input_size, critical, _) = rows[:, :4], rows[:, 4:].T
        slots = np.zeros((self.max_functions, SLOT_WIDTH))
        used = slots[: self.n_functions]
        used[:, 2] = code_size / cloud.code_size_limit
        used[:, 3] = input_size / cloud.input_size_limit
        used[:, 4] = critical / 5
        used[:, 5:9] = demand / np.array(cloud.per_function_cap.as_tuple())
        used[:, 9] = ctx.priority[visit]
        used[:, 10] = ctx.fog_ok[visit]
        return np.append(slots.ravel(), 0.0)
