"""Deep Q-learning agent built from scratch on numpy.

The value network is a plain rectifier MLP trained with SGD on the squared
temporal-difference error. Rewards are negated step costs, so maximizing Q
minimizes the placement cost. Ties in the greedy action break toward the
cloud, matching the goal of keeping the fog as free as possible.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .codec import DecodeError, decode
from .env import Action, PlacementEnv
from .model import Placement

CHECKPOINT_VERSION = 2  # version 1, nested lists of numbers, is still read
TRAINING_LOG_COLUMNS = ["episode", "total_cost", "epsilon", "loss"]  # one row per episode


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
        if self.batch_size > self.replay_capacity:
            raise ValueError(f"batch_size {self.batch_size} exceeds replay_capacity "
                             f"{self.replay_capacity}: the replay never holds a batch")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be >= 1")


class ValueNetwork:
    """Rectifier MLP mapping an encoded state to one Q-value per action.

    Every weight and bias is a view of one flat vector, ``params``, laid out
    layer by layer (weights, then biases), so an update is one subtraction.
    """

    def __init__(self, input_size: int, hidden_sizes: tuple[int, ...], rng: np.random.Generator):
        self._attach([input_size, *hidden_sizes, len(Action)])
        for w, b in zip(self.weights, self.biases):
            fan_in, fan_out = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w[:] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
            b[:] = 0.0

    def _attach(self, sizes: list[int], params: np.ndarray | None = None) -> None:
        self.sizes = sizes
        count = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
        self.params = np.empty(count) if params is None else params
        self.weights, self.biases = self.split(self.params)

    def split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a vector laid out like ``params``."""
        weights: list[np.ndarray] = []
        biases: list[np.ndarray] = []
        start = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            weights.append(flat[start:start + fan_in * fan_out].reshape(fan_in, fan_out))
            start += fan_in * fan_out
            biases.append(flat[start:start + fan_out])
            start += fan_out
        return weights, biases

    @property
    def input_size(self) -> int:
        return self.sizes[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a single state (1-d) or a batch (2-d), in a new array."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        a = x[None, :] if single else x
        if a.shape[1] != self.input_size:
            raise ValueError(f"expected input size {self.input_size}, got {a.shape[1]}")
        q = self._layers(a)[1]
        return q[0] if single else q

    def _layers(self, a: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Each layer's input (the batch, then each ReLU output) and the Q-values."""
        inputs = [a]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.maximum(a @ w + b, 0.0)
            inputs.append(a)
        return inputs, a @ self.weights[-1] + self.biases[-1]

    def gradient(
        self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Exact gradient of the mean squared error between Q(s, a) and targets, laid
        out like ``params`` (``split`` gives its per-layer views), and that error."""
        states = np.asarray(states, dtype=float)
        actions = np.asarray(actions, dtype=int)
        targets = np.asarray(targets, dtype=float)
        if states.size == 0:
            raise ValueError("batch is empty")
        if not (np.isfinite(states).all() and np.isfinite(targets).all()):
            raise TrainingFault("non-finite batch input")
        batch = states.shape[0]

        inputs, q = self._layers(states)
        picked = q[np.arange(batch), actions]
        loss = float(np.mean((picked - targets) ** 2))

        # dL/dq, non-zero only at the taken action
        dq = np.zeros_like(q)
        dq[np.arange(batch), actions] = 2.0 * (picked - targets) / batch

        grad = np.empty_like(self.params)
        grads_w, grads_b = self.split(grad)
        delta = dq
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(inputs[layer].T, delta, out=grads_w[layer])
            delta.sum(axis=0, out=grads_b[layer])
            if layer > 0:  # a ReLU output is > 0 exactly where its pre-activation is
                delta = (delta @ self.weights[layer].T) * (inputs[layer] > 0)
        return grad, loss

    def apply_gradients(self, grad: np.ndarray, lr: float) -> None:
        self.params -= lr * grad
        if not np.isfinite(self.params).all():
            raise TrainingFault("non-finite network parameters after update")

    def copy(self) -> "ValueNetwork":
        clone = ValueNetwork.__new__(ValueNetwork)
        clone._attach(list(self.sizes), self.params.copy())
        return clone

    def save(self, path: str | Path) -> None:
        """Write a version-2 checkpoint: each array as base64 of its float64 bytes."""
        doc = {
            "version": CHECKPOINT_VERSION,
            "sizes": self.sizes,
            "weights": [_encode_array(w) for w in self.weights],
            "biases": [_encode_array(b) for b in self.biases],
        }
        Path(path).write_text(json.dumps(doc, sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ValueNetwork":
        """A checkpoint file, version 1 (nested lists) or 2 (base64); raises
        ``DecodeError`` on a document that is not one."""
        doc = decode(_Checkpoint, json.loads(Path(path).read_text()))
        if doc.version not in (1, CHECKPOINT_VERSION):
            raise DecodeError("version", f"unsupported checkpoint version {doc.version}")
        sizes = list(doc.sizes)
        if len(sizes) < 2 or min(sizes) < 1 or sizes[-1] != len(Action):
            raise DecodeError("sizes", f"expected at least 2 layer sizes, each >= 1, the "
                                       f"last {len(Action)} (one per action), got {sizes}")
        read = _decode_list if doc.version == 1 else _decode_base64
        # every array is checked against sizes before params is allocated, so
        # sizes alone cannot make load allocate more than the file holds
        arrays = []
        for name, entries, shapes in (("weights", doc.weights, list(zip(sizes[:-1], sizes[1:]))),
                                      ("biases", doc.biases, [(n,) for n in sizes[1:]])):
            if not isinstance(entries, list) or len(entries) != len(shapes):
                raise DecodeError(name, f"expected an array of {len(shapes)} layers")
            for i, (entry, shape) in enumerate(zip(entries, shapes)):
                where = f"{name}[{i}]"
                array = read(entry, shape, where)
                if not np.isfinite(array).all():
                    raise DecodeError(where, "not finite")
                arrays.append(array)
        net = cls.__new__(cls)
        net._attach(sizes)
        for view, array in zip(net.weights + net.biases, arrays):
            view[...] = array
        return net


@dataclass(frozen=True)
class _Checkpoint:
    version: int
    sizes: tuple[int, ...]
    weights: Any  # one entry per layer, checked against sizes by load
    biases: Any


def _encode_array(array: np.ndarray) -> str:
    return base64.b64encode(array.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode_base64(entry: Any, shape: tuple[int, ...], where: str) -> np.ndarray:
    """A version-2 array: base64 of exactly the little-endian float64 bytes of shape."""
    if not isinstance(entry, str):
        raise DecodeError(where, "expected a base64 string of little-endian float64 values")
    try:
        raw = base64.b64decode(entry, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DecodeError(where, f"not base64: {exc}") from exc
    size = 8 * math.prod(shape)
    if len(raw) != size:
        raise DecodeError(where, f"expected {size} bytes, a {shape} array to chain with "
                                 f"sizes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _decode_list(entry: Any, shape: tuple[int, ...], where: str) -> np.ndarray:
    """A version-1 array: nested lists of numbers of the given shape."""
    try:
        array = np.asarray(entry)
    except ValueError:  # ragged nesting
        array = np.empty(0)
    if array.shape != shape or array.dtype.kind not in "iuf":
        raise DecodeError(where, f"expected a {shape} array of numbers, to chain with sizes")
    return array


class ReplayBuffer:
    """FIFO experience store in ring arrays, one row per transition.

    Each row keeps its TD target, ``reward + gamma * best_next`` under the
    target network, which the replay holds: a push computes its row's target,
    and ``sync`` recomputes every stored row's. Once the ring is full, row
    ``(oldest + i) % capacity`` holds the i-th oldest transition; before that,
    row i does.
    """

    def __init__(self, capacity: int, target: ValueNetwork, gamma: float):
        if capacity < 1:
            raise ValueError("replay capacity must be >= 1")
        self.capacity = capacity
        self.target = target
        self.gamma = gamma
        width = target.input_size
        # Rows are allocated as they fill, doubling from 1024 (a few episodes of
        # 16-100 functions) up to the capacity, so a short training run does not
        # hold a full ring. A row is written before it can be sampled, so the
        # arrays start uninitialised.
        rows = min(capacity, 1024)
        self.states = np.empty((rows, width))
        self.next_states = np.empty((rows, width))  # kept for the targets of a sync
        self.actions = np.empty(rows, dtype=np.intp)
        self.rewards = np.empty(rows)
        self.dones = np.empty(rows, dtype=bool)
        self.next_fog_ok = np.empty(rows, dtype=bool)  # the next state's fog flag
        self.targets = np.empty(rows)
        self._size = 0
        self._next = 0  # row the next push overwrites
        # a batch-sized state buffer, reused by every sample: a fresh batch x
        # width array per sample cost more in page faults than the copy
        self._batch = np.empty((0, width))

    def _grow(self) -> None:
        rows = min(2 * len(self.rewards), self.capacity)
        for name in ("states", "next_states", "actions", "rewards", "dones", "next_fog_ok",
                     "targets"):
            old = getattr(self, name)
            new = np.empty((rows,) + old.shape[1:], dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def push(self, state, action, reward, next_state, done, next_fog_ok) -> None:
        row = self._next
        if row == len(self.rewards):  # every allocated row is in use
            self._grow()
        self.states[row] = state
        self.actions[row] = action
        self.rewards[row] = reward
        self.next_states[row] = next_state
        self.dones[row] = done
        self.next_fog_ok[row] = next_fog_ok
        if done:
            self.targets[row] = reward
        else:
            q = self.target.forward(self.next_states[row])
            # the best feasible continuation: the cloud's alone where the fog cannot take it
            self.targets[row] = reward + self.gamma * (q.max() if next_fog_ok else q[Action.CLOUD])
        self._next = (row + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sync(self, net: ValueNetwork) -> None:
        """Make a copy of net the target network, and recompute every stored target."""
        self.target = net.copy()
        n = self._size
        if n:
            q = self.target.forward(self.next_states[:n])
            best = np.where(self.next_fog_ok[:n], q.max(axis=1), q[:, Action.CLOUD])
            self.targets[:n] = self.rewards[:n] + np.where(self.dones[:n], 0.0, self.gamma * best)

    def __len__(self) -> int:
        return self._size

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform batch: (states, actions, TD targets).

        The states are a buffer of this replay that the next sample overwrites.
        """
        idx = rng.integers(0, self._size, size=batch_size)
        if self._size == self.capacity:
            idx = (idx + self._next) % self.capacity  # i-th oldest, after wrap-around
        states = self._batch
        if len(states) != batch_size:
            states = self._batch = np.empty((batch_size, self.states.shape[1]))
        # every index is in range; "clip" lets take write straight into out
        np.take(self.states, idx, axis=0, out=states, mode="clip")
        return states, self.actions[idx], self.targets[idx]


def select_action(
    net: ValueNetwork,
    encoded: np.ndarray,
    fog_ok: bool,
    epsilon: float,
    rng: np.random.Generator,
) -> Action:
    """Epsilon-greedy between fog and cloud, or the cloud for a function that does
    not fit the fog; greedy ties go to the cloud."""
    if not fog_ok:
        return Action.CLOUD
    if rng.uniform() < epsilon:
        return Action(int(rng.integers(0, 2)))
    q = net.forward(encoded)
    return Action.CLOUD if q[1] >= q[0] else Action.FOG


@dataclass
class TrainResult:
    net: ValueNetwork
    log: list[dict] = field(default_factory=list)  # keyed by TRAINING_LOG_COLUMNS


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
    replay = ReplayBuffer(cfg.replay_capacity, net.copy(), cfg.gamma)

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
                action = select_action(net, state.encoded, state.mask[0], epsilon, rng)
                outcome = env.step(state, action)
                after = outcome.next_state
                replay.push(state.encoded, int(action), -outcome.cost,
                            after.encoded, after.done, after.mask[0])
                total_cost += outcome.cost
                state = after
                step_count += 1

                if len(replay) >= cfg.batch_size:
                    grad, loss = net.gradient(*replay.sample(cfg.batch_size, rng))
                    net.apply_gradients(grad, cfg.learning_rate)
                    losses.append(loss)
                if step_count % cfg.target_sync_interval == 0:
                    replay.sync(net)
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


@dataclass(frozen=True)
class EpisodeRecord:
    """The actions of one episode and their step costs, in processing order."""

    actions: tuple[int, ...]
    step_costs: tuple[float, ...]


def greedy_rollout(net: ValueNetwork, env: PlacementEnv) -> tuple[Placement, EpisodeRecord]:
    """One epsilon=0 episode; returns the final placement and its record."""
    rng = np.random.default_rng(0)  # drawn on each free decision, but at epsilon 0 never decides
    state = env.reset()
    actions: list[int] = []
    step_costs: list[float] = []
    while not state.done:
        action = select_action(net, state.encoded, state.mask[0], 0.0, rng)
        outcome = env.step(state, action)
        actions.append(int(action))
        step_costs.append(outcome.cost)
        state = outcome.next_state
    return state.placement, EpisodeRecord(tuple(actions), tuple(step_costs))
