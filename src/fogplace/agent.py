"""Deep Q-learning agent built from scratch on numpy.

The value network is a plain rectifier MLP trained with SGD on the squared
temporal-difference error. Rewards are negated step costs, so maximizing Q
minimizes the placement cost. Ties in the greedy action break toward the
cloud, matching the goal of keeping the fog as free as possible.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .codec import DecodeError, decode
from .env import Action, PlacementEnv
from .model import Placement, StateError

CHECKPOINT_VERSION = 1


class TrainingFault(RuntimeError):
    """Non-finite parameters or inputs encountered during training."""


@dataclass(frozen=True)
class AgentConfig:
    learning_rate: float = 1e-3
    gamma: float = 0.95
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay: float = 0.995  # multiplicative, per episode
    batch_size: int = 64
    replay_capacity: int = 10_000
    target_sync_interval: int = 200  # steps
    episodes: int = 500
    hidden_sizes: tuple[int, ...] = (64, 64)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must be in [0, 1]")
        if not 0 <= self.epsilon_end <= self.epsilon_start <= 1:
            raise ValueError("epsilon schedule must satisfy 0 <= end <= start <= 1")
        if not 0 < self.epsilon_decay <= 1:
            raise ValueError("epsilon decay must be in (0, 1]")
        for name in ("batch_size", "replay_capacity", "target_sync_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")


class ValueNetwork:
    """Rectifier MLP mapping an encoded state to one Q-value per action."""

    def __init__(self, input_size: int, hidden_sizes: tuple[int, ...],
                 rng: np.random.Generator | None = None):
        sizes = [input_size, *hidden_sizes, len(Action)]
        self.sizes = sizes
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        rng = rng or np.random.default_rng(0)
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def input_size(self) -> int:
        return self.sizes[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a single state (1-d) or a batch (2-d)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        a = x[None, :] if single else x
        if a.shape[1] != self.input_size:
            raise ValueError(f"expected input size {self.input_size}, got {a.shape[1]}")
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
        a = a @ self.weights[-1] + self.biases[-1]
        return a[0] if single else a

    def _forward_cached(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        pre: list[np.ndarray] = []
        a = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = a @ w + b
            pre.append(z)
            a = np.maximum(z, 0.0)
        out = a @ self.weights[-1] + self.biases[-1]
        return pre, out

    def gradient(
        self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray], float]:
        """Exact gradients of mean squared error between Q(s, a) and targets."""
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=int)
        targets = np.asarray(targets, dtype=float)
        if states.size == 0:
            raise ValueError("batch is empty")
        if not (np.isfinite(states).all() and np.isfinite(targets).all()):
            raise TrainingFault("non-finite batch input")
        batch = states.shape[0]

        pre, q = self._forward_cached(states)
        picked = q[np.arange(batch), actions]
        loss = float(np.mean((picked - targets) ** 2))

        # dL/dq, non-zero only at the taken action
        dq = np.zeros_like(q)
        dq[np.arange(batch), actions] = 2.0 * (picked - targets) / batch

        grads_w: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        grads_b: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        activations = [states] + [np.maximum(z, 0.0) for z in pre]
        delta = dq
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (pre[layer - 1] > 0)
        return grads_w, grads_b, loss

    def apply_gradients(self, grads_w, grads_b, lr: float) -> None:
        for w, gw in zip(self.weights, grads_w):
            w -= lr * gw
        for b, gb in zip(self.biases, grads_b):
            b -= lr * gb
        if not all(np.isfinite(p).all() for p in (*self.weights, *self.biases)):
            raise TrainingFault("non-finite network parameters after update")

    def copy(self) -> "ValueNetwork":
        clone = ValueNetwork.__new__(ValueNetwork)
        clone.sizes = list(self.sizes)
        clone.weights = [w.copy() for w in self.weights]
        clone.biases = [b.copy() for b in self.biases]
        return clone

    def save(self, path: str | Path) -> None:
        doc = {
            "version": CHECKPOINT_VERSION,
            "sizes": self.sizes,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }
        Path(path).write_text(json.dumps(doc, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ValueNetwork":
        """A checkpoint file; raises ``DecodeError`` on a document that is not one."""
        doc = decode(_Checkpoint, json.loads(Path(path).read_text()))
        if doc.version != CHECKPOINT_VERSION:
            raise DecodeError("version", f"unsupported checkpoint version {doc.version}")
        net = cls.__new__(cls)
        net.sizes = sizes = list(doc.sizes)
        if len(sizes) < 2 or min(sizes) < 1:
            raise DecodeError("sizes", f"expected at least 2 layer sizes, each >= 1, got {sizes}")
        net.weights = _layers(doc.weights, "weights", list(zip(sizes[:-1], sizes[1:])))
        net.biases = _layers(doc.biases, "biases", [(n,) for n in sizes[1:]])
        return net


@dataclass(frozen=True)
class _Checkpoint:
    version: int
    sizes: tuple[int, ...]
    weights: Any  # per-layer nested lists, checked as whole arrays by _layers
    biases: Any


def _layers(doc: Any, path: str, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """One finite float array per layer, of the shape ``sizes`` gives it."""
    if not isinstance(doc, list) or len(doc) != len(shapes):
        raise DecodeError(path, f"expected an array of {len(shapes)} layers")
    arrays = []
    for i, (values, shape) in enumerate(zip(doc, shapes)):
        try:
            array = np.asarray(values)
        except ValueError:  # ragged nesting
            array = np.empty(0)
        where = f"{path}[{i}]"
        if array.shape != shape or array.dtype.kind not in "iuf":
            raise DecodeError(where, f"expected a {shape} array of numbers, to chain with sizes")
        if not np.isfinite(array).all():
            raise DecodeError(where, "not finite")
        arrays.append(array.astype(float, copy=False))
    return arrays


class ReplayBuffer:
    """FIFO experience store in ring arrays, one row per transition.

    Once the ring is full, row ``(oldest + i) % capacity`` holds the i-th
    oldest transition; before that, row i does.
    """

    def __init__(self, capacity: int, width: int):
        if capacity < 1:
            raise ValueError("replay capacity must be >= 1")
        self.capacity = capacity
        # Rows are allocated as they fill, doubling from 1024 (a few episodes of
        # 16-100 functions) up to the capacity, so a short training run does not
        # hold a full ring. A row is written before it can be sampled, so the
        # arrays start uninitialised.
        rows = min(capacity, 1024)
        self.states = np.empty((rows, width))
        self.next_states = np.empty((rows, width))
        self.actions = np.empty(rows, dtype=np.intp)
        self.rewards = np.empty(rows)
        self.dones = np.empty(rows, dtype=bool)
        self.next_masks = np.empty((rows, 2), dtype=bool)
        self._size = 0
        self._next = 0  # row the next push overwrites
        # batch-sized state buffers, reused by every sample: a fresh pair of
        # batch x width arrays per sample cost more in page faults than the copy
        self._batch = (np.empty((0, width)), np.empty((0, width)))

    def _grow(self) -> None:
        rows = min(2 * len(self.rewards), self.capacity)
        for name in ("states", "next_states", "actions", "rewards", "dones", "next_masks"):
            old = getattr(self, name)
            new = np.empty((rows,) + old.shape[1:], dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def push(self, state, action, reward, next_state, done, next_mask) -> None:
        row = self._next
        if row == len(self.rewards):  # every allocated row is in use
            self._grow()
        self.states[row] = state
        self.actions[row] = action
        self.rewards[row] = reward
        self.next_states[row] = next_state
        self.dones[row] = done
        self.next_masks[row] = next_mask
        self._next = (row + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform batch: (states, actions, rewards, next states, dones, next masks).

        The two state arrays are buffers of this replay that the next sample overwrites.
        """
        idx = rng.integers(0, self._size, size=batch_size)
        if self._size == self.capacity:
            idx = (idx + self._next) % self.capacity  # i-th oldest, after wrap-around
        states, next_states = self._batch
        if len(states) != batch_size:
            states, next_states = self._batch = (
                np.empty((batch_size, self.states.shape[1])),
                np.empty((batch_size, self.states.shape[1])),
            )
        # every index is in range; "clip" lets take write straight into out
        np.take(self.states, idx, axis=0, out=states, mode="clip")
        np.take(self.next_states, idx, axis=0, out=next_states, mode="clip")
        return (states, self.actions[idx], self.rewards[idx],
                next_states, self.dones[idx], self.next_masks[idx])


def select_action(
    net: ValueNetwork,
    encoded: np.ndarray,
    mask: tuple[bool, bool],
    epsilon: float,
    rng: np.random.Generator,
) -> Action:
    """Epsilon-greedy over the feasible actions; greedy ties go to the cloud."""
    fog_ok, cloud_ok = mask
    if not (fog_ok and cloud_ok):
        if fog_ok:
            return Action.FOG
        if cloud_ok:
            return Action.CLOUD
        raise StateError("no feasible action")
    if rng.uniform() < epsilon:
        return Action(int(rng.integers(0, 2)))
    q = net.forward(encoded)
    return Action.CLOUD if q[1] >= q[0] else Action.FOG


@dataclass
class TrainResult:
    net: ValueNetwork
    log: list[dict] = field(default_factory=list)  # episode, total_cost, epsilon, loss


def _batch_targets(
    batch, target_net: ValueNetwork, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    states, actions, rewards, next_states, dones, masks = batch
    q_next = target_net.forward(next_states)
    # infeasible continuations are excluded from the max
    q_next = np.where(masks, q_next, -np.inf)
    best_next = q_next.max(axis=1)
    best_next = np.where(np.isfinite(best_next), best_next, 0.0)
    targets = rewards + np.where(dones, 0.0, gamma * best_next)
    return states, actions, targets


def train(env_factory: Callable[[int], PlacementEnv], cfg: AgentConfig) -> TrainResult:
    """Run cfg.episodes episodes of DQN training; fully seeded and deterministic.

    ``env_factory(episode)`` gives the env of each episode. It may return the
    same env every time: ``reset()`` starts each episode afresh, and reusing
    the env skips rebuilding and re-validating its bucket's cost arrays.
    """
    rng = np.random.default_rng(cfg.seed)
    env = env_factory(0)  # episode 0's env, built first to size the network
    input_size = len(env.reset().encoded)
    net = ValueNetwork(input_size, cfg.hidden_sizes, rng)
    target = net.copy()
    replay = ReplayBuffer(cfg.replay_capacity, input_size)

    epsilon = cfg.epsilon_start
    log: list[dict] = []
    step_count = 0
    for episode in range(cfg.episodes):
        if episode:
            env = env_factory(episode)
        state = env.reset()
        total_cost = 0.0
        losses: list[float] = []
        try:
            while not state.done:
                action = select_action(net, state.encoded, state.mask, epsilon, rng)
                outcome = env.step(state, action)
                after = outcome.next_state
                replay.push(state.encoded, int(action), -outcome.cost,
                            after.encoded, after.done, after.mask)
                total_cost += outcome.cost
                state = after
                step_count += 1

                if len(replay) >= cfg.batch_size:
                    batch = replay.sample(cfg.batch_size, rng)
                    states, actions, targets = _batch_targets(batch, target, cfg.gamma)
                    gw, gb, loss = net.gradient(states, actions, targets)
                    net.apply_gradients(gw, gb, cfg.learning_rate)
                    losses.append(loss)
                if step_count % cfg.target_sync_interval == 0:
                    target = net.copy()
        except TrainingFault as fault:
            raise TrainingFault(f"episode {episode}: {fault}") from fault

        log.append({
            "episode": episode,
            "total_cost": total_cost,
            "epsilon": epsilon,
            "loss": float(np.mean(losses)) if losses else 0.0,
        })
        epsilon = max(cfg.epsilon_end, epsilon * cfg.epsilon_decay)

    return TrainResult(net=net, log=log)


def write_training_log(log: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["episode", "total_cost", "epsilon", "loss"])
        writer.writeheader()
        for row in log:
            writer.writerow(row)


@dataclass(frozen=True)
class EpisodeRecord:
    """The actions of one episode and their step costs, in processing order."""

    actions: tuple[int, ...]
    step_costs: tuple[float, ...]


def greedy_rollout(net: ValueNetwork, env: PlacementEnv) -> tuple[Placement, EpisodeRecord]:
    """One epsilon=0 episode; returns the final placement and its record."""
    rng = np.random.default_rng(0)  # never consulted at epsilon 0
    state = env.reset()
    actions: list[int] = []
    step_costs: list[float] = []
    while not state.done:
        action = select_action(net, state.encoded, state.mask, 0.0, rng)
        outcome = env.step(state, action)
        actions.append(int(action))
        step_costs.append(outcome.cost)
        state = outcome.next_state
    return state.placement, EpisodeRecord(tuple(actions), tuple(step_costs))
