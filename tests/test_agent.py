import json
from collections import deque

import numpy as np
import pytest

from fogplace.agent import (
    AgentConfig,
    ReplayBuffer,
    TrainingFault,
    ValueNetwork,
    greedy_rollout,
    select_action,
    train,
    write_training_log,
)
from fogplace.codec import DecodeError, decode, encode
from fogplace.env import Action, PlacementEnv
from fogplace.model import StateError
from fogplace.workload import GeneratorConfig, generate_bucket


def tiny_env_factory(gen_seed=0):
    cfg = GeneratorConfig(seed=gen_seed, n_ssrs=(2, 2), functions_per_ssr=(2, 3))

    def factory(episode):
        return PlacementEnv(generate_bucket(cfg, seed=episode), max_functions=6)

    return factory


def zeroed(net):
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


def test_forward_zero_network_is_zero():
    net = zeroed(ValueNetwork(5, (4,), np.random.default_rng(0)))
    q = net.forward(np.ones(5))
    assert q.shape == (2,)
    assert list(q) == [0.0, 0.0]


def test_forward_linear_hand_value():
    # no hidden layer, two actions: q = w*x + b = (2*3 + 1, -1*3 + 0.5) = (7, -2.5)
    net = ValueNetwork(1, (), np.random.default_rng(0))
    net.weights[0][:] = [[2.0, -1.0]]
    net.biases[0][:] = [1.0, 0.5]
    assert net.forward(np.array([3.0])).tolist() == pytest.approx([7.0, -2.5], abs=1e-12)


def test_forward_batch_matches_single():
    net = ValueNetwork(6, (8,), np.random.default_rng(3))
    rng = np.random.default_rng(7)
    batch = rng.uniform(0, 1, size=(5, 6))
    stacked = net.forward(batch)
    for i in range(5):
        assert np.allclose(stacked[i], net.forward(batch[i]))


def test_forward_is_pure():
    net = ValueNetwork(4, (8,), np.random.default_rng(1))
    x = np.ones(4)
    assert np.array_equal(net.forward(x), net.forward(x))


def test_forward_rejects_wrong_width():
    net = ValueNetwork(4, (8,), np.random.default_rng(1))
    with pytest.raises(ValueError):
        net.forward(np.ones(5))


def test_gradient_zero_when_targets_match():
    net = ValueNetwork(3, (5,), np.random.default_rng(2))
    states = np.random.default_rng(5).uniform(0, 1, size=(4, 3))
    actions = np.array([0, 1, 0, 1])
    targets = net.forward(states)[np.arange(4), actions]
    gw, gb, loss = net.gradient(states, actions, targets)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert all(np.allclose(g, 0.0) for g in gw)
    assert all(np.allclose(g, 0.0) for g in gb)


@pytest.mark.parametrize("shape", [(3, ()), (4, (6,)), (5, (7, 6))])
def test_gradient_matches_finite_differences(shape):
    n_in, hidden = shape
    net = ValueNetwork(n_in, hidden, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    states = rng.uniform(-1, 1, size=(6, n_in))
    actions = rng.integers(0, 2, size=6)
    targets = rng.uniform(-2, 0, size=6)

    gw, gb, _ = net.gradient(states, actions, targets)

    def loss_at():
        picked = net.forward(states)[np.arange(6), actions]
        return float(np.mean((picked - targets) ** 2))

    eps = 1e-6
    for layer, grad in enumerate(gw):
        idx = (0, 0)
        orig = net.weights[layer][idx]
        net.weights[layer][idx] = orig + eps
        up = loss_at()
        net.weights[layer][idx] = orig - eps
        down = loss_at()
        net.weights[layer][idx] = orig
        assert grad[idx] == pytest.approx((up - down) / (2 * eps), abs=1e-4)
    for layer, grad in enumerate(gb):
        orig = net.biases[layer][0]
        net.biases[layer][0] = orig + eps
        up = loss_at()
        net.biases[layer][0] = orig - eps
        down = loss_at()
        net.biases[layer][0] = orig
        assert grad[0] == pytest.approx((up - down) / (2 * eps), abs=1e-4)


def test_gradient_scales_with_duplicated_batch():
    # mean squared error: duplicating every sample leaves the gradient unchanged
    net = ValueNetwork(3, (4,), np.random.default_rng(4))
    rng = np.random.default_rng(6)
    states = rng.uniform(0, 1, size=(3, 3))
    actions = np.array([1, 0, 1])
    targets = rng.uniform(-1, 0, size=3)
    gw1, gb1, loss1 = net.gradient(states, actions, targets)
    gw2, gb2, loss2 = net.gradient(
        np.vstack([states, states]), np.tile(actions, 2), np.tile(targets, 2)
    )
    assert loss2 == pytest.approx(loss1, abs=1e-12)
    for a, b in zip(gw1 + gb1, gw2 + gb2):
        assert np.allclose(a, b)


def test_update_to_non_finite_biases_is_a_fault():
    # zero states give zero weight gradients, so only the biases overflow
    net = ValueNetwork(3, (), np.random.default_rng(0))
    with np.errstate(over="ignore"):  # the loss and the update both overflow
        grads_w, grads_b, _ = net.gradient(np.zeros((2, 3)), np.array([0, 1]), np.full(2, 1e300))
        with pytest.raises(TrainingFault, match="non-finite network parameters"):
            net.apply_gradients(grads_w, grads_b, lr=1e10)
    assert all(np.isfinite(w).all() for w in net.weights)


def test_select_action_greedy_prefers_higher_q():
    net = ValueNetwork(2, (), np.random.default_rng(0))
    net.weights[0][:] = 0.0
    net.biases[0][:] = [-1.0, -0.5]
    action = select_action(net, (0.0, 0.0), (True, True), 0.0, np.random.default_rng(0))
    assert action == Action.CLOUD
    net.biases[0][:] = [-0.5, -1.0]
    action = select_action(net, (0.0, 0.0), (True, True), 0.0, np.random.default_rng(0))
    assert action == Action.FOG


def test_select_action_tie_breaks_to_cloud():
    net = zeroed(ValueNetwork(2, (), np.random.default_rng(0)))
    action = select_action(net, (0.0, 0.0), (True, True), 0.0, np.random.default_rng(0))
    assert action == Action.CLOUD


def test_select_action_forced_by_mask():
    net = zeroed(ValueNetwork(2, (), np.random.default_rng(0)))
    rng = np.random.default_rng(0)
    assert select_action(net, (0.0, 0.0), (True, False), 1.0, rng) == Action.FOG
    assert select_action(net, (0.0, 0.0), (False, True), 0.0, rng) == Action.CLOUD
    with pytest.raises(StateError):
        select_action(net, (0.0, 0.0), (False, False), 0.0, rng)


def test_select_action_exploration_is_seeded():
    net = zeroed(ValueNetwork(2, (), np.random.default_rng(0)))
    rng1, rng2 = np.random.default_rng(21), np.random.default_rng(21)
    seq1 = [select_action(net, (0.0,) * 2, (True, True), 1.0, rng1) for _ in range(20)]
    seq2 = [select_action(net, (0.0,) * 2, (True, True), 1.0, rng2) for _ in range(20)]
    assert seq1 == seq2
    assert Action.FOG in seq1 and Action.CLOUD in seq1


def test_replay_buffer_fifo_eviction():
    buf = ReplayBuffer(capacity=3, width=1)
    for i in range(5):
        buf.push([float(i)], 0, 0.0, [float(i)], False, (True, True))
    assert len(buf) == 3
    states, *_ = buf.sample(8, np.random.default_rng(0))
    assert states.shape == (8, 1)
    assert set(states[:, 0]) <= {2.0, 3.0, 4.0}


@pytest.mark.parametrize("capacity, pushes", [
    (3, 2), (3, 3), (3, 5), (3, 7),
    (3000, 2999), (3000, 5000),  # the ring grows its rows before wrapping around
])
def test_replay_ring_samples_like_a_deque(capacity, pushes):
    """Sample index i is the i-th oldest entry, before and after wrap-around."""
    width = 4
    buf = ReplayBuffer(capacity, width)
    reference = deque(maxlen=capacity)
    for i in range(pushes):
        entry = (np.full(width, i + 0.5), i % 2, -float(i), np.full(width, i + 0.25),
                 i % 3 == 0, (True, i % 2 == 0))
        buf.push(*entry)
        reference.append(entry)
    assert len(buf) == len(reference)
    rng_ring, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    states, actions, rewards, next_states, dones, masks = buf.sample(16, rng_ring)
    picked = [reference[i] for i in rng_ref.integers(0, len(reference), size=16)]
    assert np.array_equal(states, np.array([e[0] for e in picked]))
    assert actions.tolist() == [e[1] for e in picked]
    assert rewards.tolist() == [e[2] for e in picked]
    assert np.array_equal(next_states, np.array([e[3] for e in picked]))
    assert dones.tolist() == [e[4] for e in picked]
    assert masks.tolist() == [list(e[5]) for e in picked]


def test_train_zero_episodes_is_noop():
    result = train(tiny_env_factory(), AgentConfig(episodes=0))
    assert result.log == []


@pytest.mark.parametrize("episodes", [0, 1, 4])
def test_train_requests_each_episode_env_once(episodes):
    """The env that sizes the network is episode 0's env, not an extra bucket."""
    requested = []
    make = tiny_env_factory()

    def counting(episode):
        requested.append(episode)
        return make(episode)

    train(counting, AgentConfig(episodes=episodes, hidden_sizes=(4,), batch_size=4))
    assert requested == list(range(max(episodes, 1)))


def test_train_deterministic_logs():
    cfg = AgentConfig(episodes=15, seed=3)
    r1 = train(tiny_env_factory(), cfg)
    r2 = train(tiny_env_factory(), cfg)
    assert r1.log == r2.log  # bit-identical floats
    for w1, w2 in zip(r1.net.weights, r2.net.weights):
        assert np.array_equal(w1, w2)


def test_train_log_schema(tmp_path):
    result = train(tiny_env_factory(), AgentConfig(episodes=5))
    assert [row["episode"] for row in result.log] == list(range(5))
    assert result.log[0]["epsilon"] == 1.0
    assert result.log[1]["epsilon"] == pytest.approx(0.995)
    path = tmp_path / "log.csv"
    write_training_log(result.log, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "episode,total_cost,epsilon,loss"
    assert len(lines) == 6


def test_train_single_function_bandit_converges():
    # one SSR, one function, both actions feasible; gamma=0 reduces the problem
    # to matching the immediate reward, so the greedy policy must pick the
    # cheaper side after enough episodes
    cfg = GeneratorConfig(
        seed=31, n_ssrs=(1, 1), functions_per_ssr=(1, 1),
        cpu_demand=(1.0, 2.0), ram_demand=(100.0, 1024.0),
        storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
        code_size=(10.0, 300.0), input_size=(100.0, 1500.0),
    )

    def factory(episode):
        return PlacementEnv(generate_bucket(cfg))

    agent_cfg = AgentConfig(episodes=400, gamma=0.0, seed=1,
                            hidden_sizes=(16,), batch_size=16)
    result = train(factory, agent_cfg)

    env = factory(0)
    state = env.reset()
    assert state.mask == (True, True)
    fog_cost = env.step(state, Action.FOG).cost
    cloud_cost = env.step(env.reset(), Action.CLOUD).cost
    _, record = greedy_rollout(result.net, factory(0))
    chosen = Action(record.actions[0])
    expected = Action.FOG if fog_cost < cloud_cost else Action.CLOUD
    assert chosen == expected


def test_checkpoint_round_trip(tmp_path):
    net = ValueNetwork(7, (5, 4), np.random.default_rng(12))
    path = tmp_path / "checkpoint.json"
    net.save(path)
    loaded = ValueNetwork.load(path)
    assert loaded.sizes == net.sizes
    for a, b in zip(net.weights + net.biases, loaded.weights + loaded.biases):
        assert np.array_equal(a, b)
    x = np.random.default_rng(13).uniform(0, 1, size=7)
    assert np.array_equal(net.forward(x), loaded.forward(x))


def test_checkpoint_version_guard(tmp_path):
    net = ValueNetwork(3, (), np.random.default_rng(0))
    path = tmp_path / "checkpoint.json"
    net.save(path)
    doc = path.read_text().replace('"version": 1', '"version": 99')
    path.write_text(doc)
    with pytest.raises(ValueError):
        ValueNetwork.load(path)


def valid_checkpoint_doc():
    return {"version": 1, "sizes": [2, 3, 2],
            "weights": [[[0.5, 0.0, -1.0], [1.0, 2.0, 0.25]], [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]],
            "biases": [[0.0, 0.1, 0.2], [0.0, -0.5]]}


def test_checkpoint_load_accepts_integral_values(tmp_path):
    path = tmp_path / "checkpoint.json"
    doc = valid_checkpoint_doc()
    doc["biases"][0] = [0, 1, 2]  # JSON ints load as floats
    path.write_text(json.dumps(doc))
    net = ValueNetwork.load(path)
    assert net.sizes == [2, 3, 2]
    assert [w.shape for w in net.weights] == [(2, 3), (3, 2)]
    assert net.biases[0].dtype == float and net.biases[0].tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d.update(version=2), "version"),
    (lambda d: d.update(version=True), "version"),
    (lambda d: d.pop("biases"), "biases"),
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d.update(sizes=[2]), "sizes"),
    (lambda d: d.update(sizes=[2, 0, 2]), "sizes"),
    (lambda d: d.update(sizes=[2, 3.5, 2]), "sizes[1]"),
    (lambda d: d.update(sizes="2,3,2"), "sizes"),
    (lambda d: d.update(weights=d["weights"][:1]), "weights"),
    (lambda d: d["weights"].__setitem__(0, list(zip(*d["weights"][0]))), "weights[0]"),  # transposed
    (lambda d: d["weights"][1].__setitem__(0, [1.0]), "weights[1]"),  # ragged
    (lambda d: d["weights"][1].__setitem__(0, [1.0, "2"]), "weights[1]"),
    (lambda d: d["biases"].__setitem__(1, [0.0, 0.0, 0.0]), "biases[1]"),
    (lambda d: d["biases"][0].__setitem__(2, float("nan")), "biases[0]"),
    (lambda d: d["weights"][0][1].__setitem__(0, float("inf")), "weights[0]"),
])
def test_checkpoint_load_rejects(tmp_path, mutate, path):
    doc = valid_checkpoint_doc()
    mutate(doc)
    file = tmp_path / "checkpoint.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(DecodeError) as info:
        ValueNetwork.load(file)
    assert info.value.path == path


def test_agent_config_validation():
    with pytest.raises(ValueError):
        AgentConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        AgentConfig(gamma=1.5)
    with pytest.raises(ValueError):
        AgentConfig(epsilon_start=0.1, epsilon_end=0.5)


@pytest.mark.parametrize("bad", [
    {"target_sync_interval": 0},
    {"batch_size": 0},
    {"replay_capacity": 0},
    {"epsilon_decay": 0.0},
    {"epsilon_decay": 1.5},
    {"episodes": -1},
    {"hidden_sizes": (0,)},
    {"hidden_sizes": (8, -2)},
])
def test_agent_config_rejects(bad):
    with pytest.raises(ValueError):
        AgentConfig(**bad)


def test_agent_config_round_trip():
    cfg = AgentConfig(episodes=12, hidden_sizes=(8, 8), seed=4)
    assert decode(AgentConfig, json.loads(json.dumps(encode(cfg)))) == cfg
