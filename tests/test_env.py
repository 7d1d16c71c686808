import dataclasses

import numpy as np
import pytest

from fogplace import costs
from fogplace.env import Action, PlacementEnv, SLOT_WIDTH, read_records, write_records
from fogplace.model import (
    Placement,
    ResourceVector,
    SSR,
    StateError,
    cloud_feasible,
    fog_feasible,
)
from fogplace.workload import GeneratorConfig, generate_bucket

from conftest import make_bucket, make_fn, make_limits, make_user


def small_bucket(seed=1):
    return generate_bucket(GeneratorConfig(seed=seed, n_ssrs=(2, 3), functions_per_ssr=(2, 4)))


def run_random_episode(env, rng):
    state = env.reset()
    actions, step_costs = [], []
    while not state.done:
        mask = env.feasible_actions(state)
        feasible = [a for a in (Action.FOG, Action.CLOUD) if mask[a]]
        action = feasible[int(rng.integers(0, len(feasible)))]
        outcome = env.step(state, action)
        actions.append(int(action))
        step_costs.append(outcome.cost)
        state = outcome.next_state
    return state, actions, step_costs


def test_reset_state():
    env = PlacementEnv(small_bucket())
    state = env.reset()
    assert state.cursor == 0
    assert not state.done and state.placement is None
    assert len(state.encoded) == env.n_functions * SLOT_WIDTH + 1
    # no slot carries a fog or cloud flag yet
    slots = state.encoded[:-1].reshape(env.n_functions, SLOT_WIDTH)
    assert not slots[:, :2].any()
    assert np.array_equal(env.reset().encoded, state.encoded)


def test_reset_respects_max_functions():
    env = PlacementEnv(small_bucket(), max_functions=20)
    assert len(env.reset().encoded) == 20 * SLOT_WIDTH + 1
    with pytest.raises(ValueError):
        PlacementEnv(small_bucket(), max_functions=2)


def test_mask_fog_cpu_cap():
    fn = make_fn(base=ResourceVector(3, 100, 10, 10))
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(dataclasses.replace(fn, priority=5.0),))],
        users=[make_user(0)],
    )
    env = PlacementEnv(bucket)
    assert env.feasible_actions(env.reset()) == (False, True)


def test_mask_fog_input_limit():
    fn = make_fn(input_size=2000.0, priority=5.0)
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(fn,))],
        users=[make_user(0)],
    )
    env = PlacementEnv(bucket)
    assert env.feasible_actions(env.reset())[0] is False


def test_mask_both_feasible():
    fn = make_fn(base=ResourceVector(1, 100, 10, 10), priority=5.0)
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(fn,))],
        users=[make_user(0)],
    )
    env = PlacementEnv(bucket)
    assert env.feasible_actions(env.reset()) == (True, True)


def test_step_zero_demand_fog_cost():
    fn = make_fn(priority=5.0)
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(fn,))],
        users=[make_user(0, priority=0.6)],
    )
    env = PlacementEnv(bucket)
    outcome = env.step(env.reset(), Action.FOG)
    assert outcome.cost == pytest.approx(0.6, abs=1e-9)
    assert outcome.done


def test_step_rejects_masked_action():
    fn = make_fn(base=ResourceVector(3, 100, 10, 10), priority=5.0)
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(fn,))],
        users=[make_user(0)],
    )
    env = PlacementEnv(bucket)
    with pytest.raises(StateError):
        env.step(env.reset(), Action.FOG)


def test_episode_costs_match_ssr_recomputation():
    bucket = small_bucket(3)
    env = PlacementEnv(bucket)
    state, actions, step_costs = run_random_episode(env, np.random.default_rng(0))
    ctx = costs.CostContext.from_bucket(bucket)
    expected = costs.placement_step_cost_sum(bucket, state.placement, ctx)
    assert sum(step_costs) == pytest.approx(expected, abs=1e-9)
    record = env.record(actions, step_costs, state.placement)
    assert record.bucket_step_cost == pytest.approx(expected / len(bucket.ssrs), abs=1e-9)


def test_episode_length_and_constraints_fuzz():
    rng = np.random.default_rng(9)
    for seed in range(50):
        bucket = small_bucket(seed)
        env = PlacementEnv(bucket)
        state, actions, _ = run_random_episode(env, rng)
        assert len(actions) == bucket.n_functions
        for (_, fn), (f, c) in zip(bucket.functions(), state.placement.flags):
            assert f + c == 1
            if f:
                assert fog_feasible(fn, bucket.fog)
            else:
                assert cloud_feasible(fn, bucket.cloud)


def test_replay_reproduces_costs_bitwise():
    bucket = small_bucket(8)
    env = PlacementEnv(bucket)
    _, actions, step_costs = run_random_episode(env, np.random.default_rng(4))

    env2 = PlacementEnv(bucket)
    state = env2.reset()
    replayed = []
    for action in actions:
        outcome = env2.step(state, Action(action))
        replayed.append(outcome.cost)
        state = outcome.next_state
    assert replayed == step_costs  # bit-for-bit


def test_encoding_in_unit_interval_fuzz():
    rng = np.random.default_rng(14)
    for seed in range(10):
        env = PlacementEnv(small_bucket(seed))
        state = env.reset()
        while True:
            assert all(0.0 <= v <= 1.0 for v in state.encoded)
            if state.done:
                break
            mask = env.feasible_actions(state)
            feasible = [a for a in (Action.FOG, Action.CLOUD) if mask[a]]
            state = env.step(state, feasible[int(rng.integers(0, len(feasible)))]).next_state


def test_encoding_locality_on_critical_value():
    fns = [make_fn(0, j, code=100 + j, input_size=500, critical=3, priority=1.0)
           for j in range(3)]
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=tuple(fns))],
        users=[make_user(0)],
    )
    bumped_fns = list(fns)
    bumped_fns[1] = dataclasses.replace(fns[1], critical_value=4)
    bucket2 = dataclasses.replace(
        bucket, ssrs=(SSR(user_id=0, functions=tuple(bumped_fns)),)
    )
    a = PlacementEnv(bucket, order="insertion").reset().encoded
    b = PlacementEnv(bucket2, order="insertion").reset().encoded
    diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    assert diffs == [1 * SLOT_WIDTH + 4]


def test_processing_order_priority_vs_insertion():
    bucket = small_bucket(2)
    pri = PlacementEnv(bucket, order="priority")
    ins = PlacementEnv(bucket, order="insertion")
    assert ins.order == list(range(bucket.n_functions))
    assert sorted(pri.order) == ins.order
    # SSR-major: user priorities along the visit order are non-increasing
    visited_users = [bucket.users[bucket.ssrs[pri.flat[i][0]].user_id].priority
                     for i in pri.order]
    blocks = []
    for p in visited_users:
        if not blocks or blocks[-1] != p:
            blocks.append(p)
    assert blocks == sorted(blocks, reverse=True)


def test_record_round_trip(tmp_path):
    bucket = small_bucket(5)
    env = PlacementEnv(bucket, bucket_seed=5)
    state, actions, step_costs = run_random_episode(env, np.random.default_rng(1))
    record = env.record(actions, step_costs, state.placement)
    path = tmp_path / "episodes.jsonl"
    write_records([record], path)
    loaded = read_records(path)
    assert loaded == [record]


def test_step_rejects_stale_state():
    env = PlacementEnv(small_bucket())
    first = env.reset()
    action = Action.CLOUD
    second = env.step(first, action).next_state
    with pytest.raises(StateError, match="stale"):
        env.step(first, action)  # already stepped
    env.step(second, action)
    fresh = env.reset()
    with pytest.raises(StateError, match="stale"):
        env.step(second, action)  # from an earlier episode
    env.step(fresh, action)


def test_invalid_bucket_rejected():
    bucket = make_bucket(ssrs=[SSR(user_id=0, functions=())], users=[make_user(0)])
    with pytest.raises(ValueError):
        PlacementEnv(bucket)
