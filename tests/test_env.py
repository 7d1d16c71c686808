import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given

from fogplace import costs, model
from fogplace.env import Action, PlacementEnv, SLOT_WIDTH
from fogplace.model import RESOURCE_KINDS, ResourceVector, StateError, validate_bucket
from fogplace.workload import GeneratorConfig, generate_bucket

from conftest import (
    PROPERTY,
    forced_and_free_bucket,
    generated_buckets,
    make_bucket,
    make_fn,
    make_limits,
    make_ssr,
    seeds,
)
from scalar_reference import cloud_feasible, fog_feasible


def small_bucket(seed=1):
    return generate_bucket(GeneratorConfig(seed=seed, n_ssrs=(2, 3), functions_per_ssr=(2, 4)))


def run_random_episode(env, rng):
    state = env.reset()
    actions, step_costs = [], []
    while not state.done:
        feasible = [a for a in (Action.FOG, Action.CLOUD) if state.mask[a]]
        action = feasible[int(rng.integers(0, len(feasible)))]
        outcome = env.step(state, action)
        actions.append(int(action))
        step_costs.append(outcome.cost)
        state = outcome.next_state
    return state, actions, step_costs


@PROPERTY
@given(generated_buckets, seeds)
def test_random_masked_episode_is_feasible(bucket, seed):
    state, _, _ = run_random_episode(PlacementEnv(bucket), np.random.default_rng(seed))
    assert len(state.placement) == bucket.n_functions
    for (_, fn), on_fog in zip(bucket.functions(), state.placement):
        assert fog_feasible(fn, bucket.fog) if on_fog else cloud_feasible(fn, bucket.cloud)


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
    with pytest.raises(ValueError, match="the encoder allows 0"):
        PlacementEnv(small_bucket(), max_functions=0)


# Six distinct fog limits, each within the default cloud's: a limit read from the
# wrong column or along the wrong axis moves the threshold of some case below.
FOG_LIMITS = {"cpu": 2.0, "ram": 1000.0, "storage": 3000.0, "net_io": 2000.0,
              "code": 300.0, "input_size": 1500.0}


@pytest.mark.parametrize("over", [0.0, 0.5], ids=["at", "over"])
@pytest.mark.parametrize("limit", list(FOG_LIMITS))
def test_mask_fog_limit(limit, over):
    # every other value sits well inside the fog's limits
    value = FOG_LIMITS[limit] + over
    demand = ResourceVector(1, 100, 10, 10)
    if limit in RESOURCE_KINDS:
        fn = make_fn(demand=dataclasses.replace(demand, **{limit: value}))
    else:
        fn = make_fn(demand=demand, **{limit: value})
    bucket = make_bucket(ssrs=[make_ssr((fn,))], fog=make_limits(**FOG_LIMITS))
    assert PlacementEnv(bucket).reset().mask == (over == 0, True)


def test_mask_fog_input_limit():
    fn = make_fn(input_size=2000.0, priority=5.0)
    bucket = make_bucket(
        ssrs=[make_ssr((fn,))],
    )
    env = PlacementEnv(bucket)
    assert env.reset().mask[0] is False


def test_mask_both_feasible():
    fn = make_fn(demand=ResourceVector(1, 100, 10, 10), priority=5.0)
    bucket = make_bucket(
        ssrs=[make_ssr((fn,))],
    )
    env = PlacementEnv(bucket)
    assert env.reset().mask == (True, True)


def test_step_zero_demand_fog_cost():
    fn = make_fn(priority=5.0)
    bucket = make_bucket(
        ssrs=[make_ssr((fn,), priority=0.6)],
    )
    env = PlacementEnv(bucket)
    outcome = env.step(env.reset(), Action.FOG)
    assert outcome.cost == pytest.approx(0.6, abs=1e-9)
    assert outcome.next_state.done
    assert outcome.next_state.placement == (True,)


def test_step_rejects_masked_action():
    fn = make_fn(demand=ResourceVector(3, 100, 10, 10), priority=5.0)
    bucket = make_bucket(
        ssrs=[make_ssr((fn,))],
    )
    env = PlacementEnv(bucket)
    with pytest.raises(StateError):
        env.step(env.reset(), Action.FOG)


def test_episode_costs_match_ssr_recomputation():
    bucket = small_bucket(3)
    env = PlacementEnv(bucket)
    state, _, step_costs = run_random_episode(env, np.random.default_rng(0))
    expected = costs.placement_step_cost_sum(bucket, state.placement)
    assert sum(step_costs) == pytest.approx(expected, abs=1e-9)


def test_episode_length_and_constraints_fuzz():
    rng = np.random.default_rng(9)
    for seed in range(50):
        bucket = small_bucket(seed)
        env = PlacementEnv(bucket)
        state, actions, _ = run_random_episode(env, rng)
        assert len(actions) == bucket.n_functions
        assert len(state.placement) == bucket.n_functions
        for (_, fn), on_fog in zip(bucket.functions(), state.placement):
            if on_fog:
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
            feasible = [a for a in (Action.FOG, Action.CLOUD) if state.mask[a]]
            state = env.step(state, feasible[int(rng.integers(0, len(feasible)))]).next_state


def test_encoding_locality_on_critical_value():
    fns = [make_fn(code=100 + j, input_size=500, critical=3, priority=1.0)
           for j in range(3)]
    bucket = make_bucket(
        ssrs=[make_ssr(tuple(fns))],
    )
    bumped_fns = list(fns)
    bumped_fns[1] = dataclasses.replace(fns[1], critical_value=4)
    bucket2 = make_bucket(ssrs=[make_ssr(tuple(bumped_fns))])
    # equal function priorities: the processing order is the insertion order
    env = PlacementEnv(bucket)
    assert env.order == [0, 1, 2]
    a = env.reset().encoded
    b = PlacementEnv(bucket2).reset().encoded
    diffs = [i for i, (x, y) in enumerate(zip(a, b)) if x != y]
    assert diffs == [1 * SLOT_WIDTH + 4]


def test_processing_order_priority_vs_insertion():
    bucket = small_bucket(2)
    pri = PlacementEnv(bucket)
    assert sorted(pri.order) == list(range(bucket.n_functions))
    # SSR-major: user priorities along the visit order are non-increasing
    flat = bucket.functions()
    visited_users = [bucket.user_priority[flat[i][0]] for i in pri.order]
    blocks = []
    for p in visited_users:
        if not blocks or blocks[-1] != p:
            blocks.append(p)
    assert blocks == sorted(blocks, reverse=True)


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


@pytest.mark.parametrize("pattern", ["ccc", "fff", "ccffcfcc", "fcc", "cf"])
def test_skip_forced_reaches_the_state_of_stepping_the_cloud(pattern):
    env, reference = (PlacementEnv(forced_and_free_bucket(pattern)) for _ in range(2))
    assert env.order == list(range(len(pattern)))
    state, ref = env.reset(), reference.reset()
    while not state.done:
        state, skipped = env.skip_forced(state)
        ref_costs = []
        while not ref.done and not ref.mask[Action.FOG]:
            outcome = reference.step(ref, Action.CLOUD)
            ref_costs.append(outcome.cost)
            ref = outcome.next_state
        assert skipped == ref_costs
        assert (state.cursor, state.mask, state.placement) == (ref.cursor, ref.mask, ref.placement)
        assert np.array_equal(state.encoded, ref.encoded)
        if not state.done:
            assert pattern[state.cursor] == "f"
            state = env.step(state, Action.FOG).next_state
            ref = reference.step(ref, Action.FOG).next_state
    assert state.placement == tuple(kind == "f" for kind in pattern)


def test_skip_forced_refuses_a_stale_or_finished_state():
    env = PlacementEnv(forced_and_free_bucket("cfc"))
    first = env.reset()
    at_free, skipped = env.skip_forced(first)
    assert at_free.cursor == 1 and len(skipped) == 1
    with pytest.raises(StateError, match="stale"):
        env.skip_forced(first)
    again, skipped = env.skip_forced(at_free)  # at a free decision it skips none
    assert again.cursor == 1 and skipped == []
    with pytest.raises(StateError, match="stale"):
        env.step(at_free, Action.FOG)
    done, skipped = env.skip_forced(env.step(again, Action.FOG).next_state)
    assert done.done and len(skipped) == 1
    for advance in (env.skip_forced, lambda state: env.step(state, Action.CLOUD)):
        with pytest.raises(StateError, match="episode is complete"):
            advance(done)


def test_invalid_bucket_rejected():
    bucket = make_bucket(ssrs=[make_ssr(())])
    with pytest.raises(ValueError):
        PlacementEnv(bucket)


def test_empty_bucket_rejected():
    bucket = make_bucket(ssrs=[])
    assert validate_bucket(bucket) == ["bucket has no functions"]
    with pytest.raises(ValueError, match="invalid bucket: bucket has no functions"):
        PlacementEnv(bucket)


def test_bucket_is_validated_once_per_bucket_object(monkeypatch):
    # as a training factory does: a fresh environment per episode on one bucket
    original, calls = model.validate_bucket, []

    def counting(bucket):
        calls.append(bucket)
        return original(bucket)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fogplace" and getattr(module, "validate_bucket", None) is original:
            monkeypatch.setattr(module, "validate_bucket", counting)
    bucket = small_bucket()
    for _ in range(80):
        PlacementEnv(bucket)
    assert calls == [bucket]
