import base64
import json
from collections import deque

import numpy as np
import pytest

from fogplace.agent import (
    TRAINING_LOG_COLUMNS,
    AgentConfig,
    ReplayBuffer,
    TrainingFault,
    ValueNetwork,
    greedy_rollout,
    select_action,
    train,
)
from fogplace.codec import DecodeError, decode, encode
from fogplace.env import Action, PlacementEnv
from fogplace.experiment import write_csv
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


@pytest.mark.parametrize("first, second", [
    (np.ones(4), np.zeros(4)),
    (np.ones((3, 4)), np.zeros((3, 4))),
    (np.ones(4), np.zeros((64, 4))),
])
def test_forward_result_survives_a_later_call(first, second):
    net = ValueNetwork(4, (8, 8), np.random.default_rng(1))
    q = net.forward(first)
    kept = q.copy()
    net.forward(second)
    assert np.array_equal(q, kept)


def test_forward_rejects_wrong_width():
    net = ValueNetwork(4, (8,), np.random.default_rng(1))
    with pytest.raises(ValueError):
        net.forward(np.ones(5))


def test_gradient_zero_when_targets_match():
    net = ValueNetwork(3, (5,), np.random.default_rng(2))
    states = np.random.default_rng(5).uniform(0, 1, size=(4, 3))
    actions = np.array([0, 1, 0, 1])
    targets = net.forward(states)[np.arange(4), actions]
    grad, loss = net.gradient(states, actions, targets)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert grad.shape == net.params.shape
    assert np.allclose(grad, 0.0)


@pytest.mark.parametrize("shape", [(3, ()), (4, (6,)), (5, (7, 6))])
def test_gradient_matches_finite_differences(shape):
    n_in, hidden = shape
    net = ValueNetwork(n_in, hidden, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    states = rng.uniform(-1, 1, size=(6, n_in))
    actions = rng.integers(0, 2, size=6)
    targets = rng.uniform(-2, 0, size=6)

    grad, _ = net.gradient(states, actions, targets)
    gw, gb = net.split(grad)

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
    grad1, loss1 = net.gradient(states, actions, targets)
    grad2, loss2 = net.gradient(
        np.vstack([states, states]), np.tile(actions, 2), np.tile(targets, 2)
    )
    assert loss2 == pytest.approx(loss1, abs=1e-12)
    assert np.allclose(grad1, grad2)


@pytest.mark.parametrize("states, targets", [
    (np.array([[0.5, np.nan, 0.0], [1.0, 1.0, 1.0]]), np.zeros(2)),
    (np.ones((2, 3)), np.array([0.0, np.inf])),
], ids=["nan-state", "inf-target"])
def test_gradient_of_non_finite_batch_is_a_fault(states, targets):
    net = ValueNetwork(3, (4,), np.random.default_rng(0))
    before = net.params.copy()
    with pytest.raises(TrainingFault, match="non-finite batch input"):
        net.gradient(states, np.array([0, 1]), targets)
    assert np.array_equal(net.params, before)


def test_weights_and_biases_are_views_of_params():
    net = ValueNetwork(3, (4,), np.random.default_rng(0))
    assert [w.shape for w in net.weights] == [(3, 4), (4, 2)]
    assert [b.shape for b in net.biases] == [(4,), (2,)]
    assert net.params.size == 3 * 4 + 4 + 4 * 2 + 2
    assert all(np.shares_memory(p, net.params) for p in net.weights + net.biases)
    net.apply_gradients(np.ones_like(net.params), lr=0.5)
    assert net.biases[1].tolist() == [-0.5, -0.5]
    clone = net.copy()
    assert not np.shares_memory(clone.params, net.params)
    assert all(np.shares_memory(p, clone.params) for p in clone.weights + clone.biases)
    assert np.array_equal(clone.params, net.params)


def test_update_to_non_finite_biases_is_a_fault():
    # zero states give zero weight gradients, so only the biases overflow
    net = ValueNetwork(3, (), np.random.default_rng(0))
    with np.errstate(over="ignore"):  # the loss and the update both overflow
        grad, _ = net.gradient(np.zeros((2, 3)), np.array([0, 1]), np.full(2, 1e300))
        grads_w, grads_b = net.split(grad)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads_w)
        with pytest.raises(TrainingFault, match="non-finite network parameters"):
            net.apply_gradients(grad, lr=1e10)
    assert all(np.isfinite(w).all() for w in net.weights)
    assert not all(np.isfinite(b).all() for b in net.biases)


def test_select_action_greedy_prefers_higher_q():
    net = ValueNetwork(2, (), np.random.default_rng(0))
    net.weights[0][:] = 0.0
    net.biases[0][:] = [-1.0, -0.5]
    action = select_action(net, (0.0, 0.0), True, 0.0, np.random.default_rng(0))
    assert action == Action.CLOUD
    net.biases[0][:] = [-0.5, -1.0]
    action = select_action(net, (0.0, 0.0), True, 0.0, np.random.default_rng(0))
    assert action == Action.FOG


def test_select_action_tie_breaks_to_cloud():
    net = zeroed(ValueNetwork(2, (), np.random.default_rng(0)))
    action = select_action(net, (0.0, 0.0), True, 0.0, np.random.default_rng(0))
    assert action == Action.CLOUD


def test_select_action_forced_by_mask():
    """A function that does not fit the fog goes to the cloud, with no rng draw."""
    net = zeroed(ValueNetwork(2, (), np.random.default_rng(0)))
    rng = np.random.default_rng(0)
    assert select_action(net, (0.0, 0.0), False, 0.0, rng) == Action.CLOUD
    assert select_action(net, (0.0, 0.0), False, 1.0, rng) == Action.CLOUD
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_select_action_exploration_is_seeded():
    net = zeroed(ValueNetwork(2, (), np.random.default_rng(0)))
    rng1, rng2 = np.random.default_rng(21), np.random.default_rng(21)
    seq1 = [select_action(net, (0.0,) * 2, True, 1.0, rng1) for _ in range(20)]
    seq2 = [select_action(net, (0.0,) * 2, True, 1.0, rng2) for _ in range(20)]
    assert seq1 == seq2
    assert Action.FOG in seq1 and Action.CLOUD in seq1


def test_replay_buffer_fifo_eviction():
    buf = ReplayBuffer(3, ValueNetwork(1, (), np.random.default_rng(0)), gamma=0.9)
    for i in range(5):
        buf.push([float(i)], 0, 0.0, [float(i)], False, True)
    assert len(buf) == 3
    states, *_ = buf.sample(8, np.random.default_rng(0))
    assert states.shape == (8, 1)
    assert set(states[:, 0]) <= {2.0, 3.0, 4.0}


def td_target(net, gamma, entry):
    """reward + gamma * best_next of one (state, action, reward, next state, done,
    next fog flag) transition, from a batch-1 forward of net."""
    _, _, reward, next_state, done, next_fog_ok = entry
    if done:
        return reward
    q = net.forward(next_state)
    return reward + gamma * (q.max() if next_fog_ok else q[Action.CLOUD])


@pytest.mark.parametrize("capacity, pushes", [
    (3, 2), (3, 3), (3, 5), (3, 7),
    (3000, 2999), (3000, 5000),  # the ring grows its rows before wrapping around
])
def test_replay_ring_samples_like_a_deque(capacity, pushes):
    """Row (oldest + i) % capacity holds the i-th oldest entry, and sample index i
    is that entry, before and after wrap-around."""
    width, gamma = 4, 0.9
    target = ValueNetwork(width, (3,), np.random.default_rng(1))
    buf = ReplayBuffer(capacity, target, gamma)
    reference = deque(maxlen=capacity)
    for i in range(pushes):
        entry = (np.full(width, i + 0.5), i % 2, -float(i), np.full(width, i + 0.25),
                 i % 3 == 0, i % 2 == 0)
        buf.push(*entry)
        reference.append(entry + (td_target(target, gamma, entry),))
    assert len(buf) == len(reference)
    oldest = pushes % capacity if pushes >= capacity else 0
    rows = (oldest + np.arange(len(reference))) % capacity
    fields = ("states", "actions", "rewards", "next_states", "dones", "next_fog_ok", "targets")
    for k, name in enumerate(fields):
        assert np.array_equal(getattr(buf, name)[rows], np.array([e[k] for e in reference])), name
    rng_ring, rng_ref = np.random.default_rng(5), np.random.default_rng(5)
    states, actions, targets = buf.sample(16, rng_ring)
    picked = [reference[i] for i in rng_ref.integers(0, len(reference), size=16)]
    assert np.array_equal(states, np.array([e[0] for e in picked]))
    assert actions.tolist() == [e[1] for e in picked]
    assert targets.tolist() == [e[6] for e in picked]


def assert_targets_match_target_net(buf):
    """Every stored target is reward + gamma * best_next under buf.target, from
    one fresh batched forward of every stored next state."""
    n = len(buf)
    q = buf.target.forward(buf.next_states[:n])
    expected = [
        reward + (0.0 if done else buf.gamma * (max(row) if fog_ok else row[Action.CLOUD]))
        for reward, done, fog_ok, row in zip(buf.rewards[:n], buf.dones[:n],
                                             buf.next_fog_ok[:n], q)
    ]
    assert np.allclose(buf.targets[:n], expected, rtol=1e-12, atol=0.0)


def test_replay_targets_follow_the_target_network():
    width, capacity = 5, 40
    rng = np.random.default_rng(11)
    buf = ReplayBuffer(capacity, ValueNetwork(width, (8, 6), np.random.default_rng(2)), 0.95)

    def push(count):
        for _ in range(count):
            buf.push(rng.uniform(0, 1, width), int(rng.integers(0, 2)), -rng.uniform(1, 2),
                     rng.uniform(0, 1, width), rng.uniform() < 0.3, rng.uniform() < 0.5)

    push(25)
    assert_targets_match_target_net(buf)
    push(30)  # wraps around: 15 rows are overwritten with their new targets
    assert len(buf) == capacity
    assert_targets_match_target_net(buf)
    online = ValueNetwork(width, (8, 6), np.random.default_rng(3))
    before = buf.targets.copy()
    buf.sync(online)
    assert not np.array_equal(buf.targets, before)
    assert_targets_match_target_net(buf)
    assert np.array_equal(buf.target.params, online.params)
    online.params += 1.0  # the target is a copy, frozen until the next sync
    assert not np.array_equal(buf.target.params, online.params)
    push(5)
    assert_targets_match_target_net(buf)


def test_replay_sync_of_an_empty_replay_only_copies():
    buf = ReplayBuffer(4, ValueNetwork(2, (), np.random.default_rng(0)), 0.9)
    online = ValueNetwork(2, (), np.random.default_rng(1))
    buf.sync(online)
    assert len(buf) == 0 and buf.target is not online
    assert np.array_equal(buf.target.params, online.params)


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
    write_csv(result.log, TRAINING_LOG_COLUMNS, path)
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


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    net = ValueNetwork(9, (6, 5), np.random.default_rng(14))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    net.save(first)
    ValueNetwork.load(first).save(second)
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert sorted(doc) == ["biases", "sizes", "version", "weights"]
    assert doc["version"] == 2 and doc["sizes"] == [9, 6, 5, 2]
    assert all(isinstance(entry, str) for entry in doc["weights"] + doc["biases"])


def test_checkpoint_version_1_loads_to_the_same_bits(tmp_path):
    net = ValueNetwork(9, (6, 5), np.random.default_rng(15))
    net.biases[0][:] = np.random.default_rng(16).normal(size=6)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps({"version": 1, "sizes": net.sizes,
                                "weights": [w.tolist() for w in net.weights],
                                "biases": [b.tolist() for b in net.biases]}))
    loaded = ValueNetwork.load(path)
    assert loaded.sizes == net.sizes
    assert loaded.params.tobytes() == net.params.tobytes()


def test_checkpoint_version_guard(tmp_path):
    net = ValueNetwork(3, (), np.random.default_rng(0))
    path = tmp_path / "checkpoint.json"
    net.save(path)
    doc = path.read_text().replace('"version": 2', '"version": 99')
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
    (lambda d: d.update(version=3), "version"),
    (lambda d: d.update(version=True), "version"),
    (lambda d: d.pop("biases"), "biases"),
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d.update(sizes=[2]), "sizes"),
    (lambda d: d.update(sizes=[2, 0, 2]), "sizes"),
    (lambda d: d.update(sizes=[2, 3.5, 2]), "sizes[1]"),
    (lambda d: d.update(sizes="2,3,2"), "sizes"),
    # one Q-value per action: an output width of 1 or 3 is not a placement network
    (lambda d: d.update(sizes=[2, 3, 1], weights=[d["weights"][0], [[1.0], [0.0], [0.5]]],
                        biases=[d["biases"][0], [0.0]]), "sizes"),
    (lambda d: d.update(sizes=[2, 3, 3], weights=[d["weights"][0], [[1.0, 0.0, 0.0]] * 3],
                        biases=[d["biases"][0], [0.0, 0.0, 0.0]]), "sizes"),
    (lambda d: d.update(weights=d["weights"][:1]), "weights"),
    (lambda d: d["weights"].__setitem__(0, list(zip(*d["weights"][0]))), "weights[0]"),  # transposed
    (lambda d: d["weights"][1].__setitem__(0, [1.0]), "weights[1]"),  # ragged
    (lambda d: d["weights"][1].__setitem__(0, [1.0, "2"]), "weights[1]"),
    (lambda d: d["biases"].__setitem__(1, [0.0, 0.0, 0.0]), "biases[1]"),
    (lambda d: d["biases"][0].__setitem__(2, float("nan")), "biases[0]"),
    (lambda d: d["weights"][0][1].__setitem__(0, float("inf")), "weights[0]"),
    # a layer of 10^12 rows that the file does not hold is refused, not allocated
    (lambda d: d.update(sizes=[2, 10**12, 2]), "weights[0]"),
])
def test_checkpoint_load_rejects(tmp_path, mutate, path):
    doc = valid_checkpoint_doc()
    mutate(doc)
    file = tmp_path / "checkpoint.json"
    file.write_text(json.dumps(doc))
    with pytest.raises(DecodeError) as info:
        ValueNetwork.load(file)
    assert info.value.path == path


def valid_checkpoint_v2_doc():
    doc = valid_checkpoint_doc()
    return {"version": 2, "sizes": doc["sizes"],
            "weights": [base64_array(w) for w in doc["weights"]],
            "biases": [base64_array(b) for b in doc["biases"]]}


def base64_array(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def test_checkpoint_v2_doc_loads(tmp_path):
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(valid_checkpoint_v2_doc()))
    net = ValueNetwork.load(path)
    v1 = valid_checkpoint_doc()
    assert [w.tolist() for w in net.weights] == v1["weights"]
    assert [b.tolist() for b in net.biases] == v1["biases"]


@pytest.mark.parametrize("mutate, path", [
    (lambda d: d["weights"].__setitem__(0, base64_array([0.5] * 5)), "weights[0]"),  # short
    (lambda d: d["biases"].__setitem__(1, base64_array([0.0] * 3)), "biases[1]"),  # long
    (lambda d: d["weights"].__setitem__(1, d["weights"][1] + "A"), "weights[1]"),  # padding
    (lambda d: d["weights"].__setitem__(0, "not base64!"), "weights[0]"),
    (lambda d: d["biases"].__setitem__(0, "\u00e9" * 32), "biases[0]"),  # not ASCII
    (lambda d: d["biases"].__setitem__(0, [0.0, 0.1, 0.2]), "biases[0]"),  # a version-1 list
    (lambda d: d["weights"].__setitem__(1, 7), "weights[1]"),
    (lambda d: d["biases"].__setitem__(1, base64_array([0.0, float("nan")])), "biases[1]"),
    (lambda d: d["weights"].__setitem__(0, base64_array([0.0] * 5 + [float("-inf")])),
     "weights[0]"),
    (lambda d: d.update(biases=d["biases"][:1]), "biases"),
    (lambda d: d.update(sizes=[2, 10**12, 2]), "weights[0]"),
    (lambda d: d.update(sizes=[2**40, 2**40, 2]), "weights[0]"),  # 2^80 entries
])
def test_checkpoint_v2_load_rejects(tmp_path, mutate, path):
    doc = valid_checkpoint_v2_doc()
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
    {"batch_size": 65, "replay_capacity": 64},  # the replay never holds a batch
])
def test_agent_config_rejects(bad):
    with pytest.raises(ValueError):
        AgentConfig(**bad)


def test_agent_config_round_trip():
    cfg = AgentConfig(episodes=12, hidden_sizes=(8, 8), seed=4)
    assert decode(AgentConfig, json.loads(json.dumps(encode(cfg)))) == cfg
