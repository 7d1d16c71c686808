import numpy as np
import pytest

from fogplace import costs
from fogplace.baselines import (
    BRUTE_FORCE_LIMIT,
    brute_force_optimum,
    cloud_only,
    fog_first,
    greedy_cost,
    random_feasible,
)
from fogplace.model import SSR, ResourceVector, cloud_feasible, fog_feasible
from fogplace.workload import GeneratorConfig, generate_bucket

from conftest import make_bucket, make_fn, make_user


SMALL_CFG = GeneratorConfig(
    seed=0, n_ssrs=(2, 2), functions_per_ssr=(2, 4),
    cpu_demand=(1.0, 2.0), ram_demand=(100.0, 1024.0),
    storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
    code_size=(10.0, 300.0), input_size=(100.0, 1500.0),
)


def small_bucket(seed):
    return generate_bucket(SMALL_CFG, seed=seed)


def assert_feasible(bucket, placement):
    assert placement.is_complete()
    for (_, fn), (f, c) in zip(bucket.functions(), placement.flags):
        assert f + c == 1
        if f:
            assert fog_feasible(fn, bucket.fog)
        else:
            assert cloud_feasible(fn, bucket.cloud)


def test_cloud_only_places_everything_on_cloud():
    bucket = small_bucket(1)
    placement = cloud_only(bucket)
    assert all(flags == (0, 1) for flags in placement.flags)
    assert_feasible(bucket, placement)


def test_fog_first_uses_fog_when_possible():
    fn_small = make_fn(priority=5.0)  # zero demand, fits the fog
    fn_big = make_fn(index=1, base=ResourceVector(3, 100, 10, 10), priority=2.0)
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(fn_small, fn_big))],
        users=[make_user(0)],
    )
    assert fog_first(bucket).flags == ((1, 0), (0, 1))


def test_greedy_cost_prefers_fog_for_zero_demand():
    # zero demand and no extra latency on the fog side beats the cloud's
    # link latency, so the greedy policy keeps the function on the fog
    fn = make_fn(priority=5.0)
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(fn,))],
        users=[make_user(0)],
    )
    assert greedy_cost(bucket).flags == ((1, 0),)


def test_random_feasible_is_seeded():
    bucket = small_bucket(4)
    a = random_feasible(bucket, np.random.default_rng(5))
    b = random_feasible(bucket, np.random.default_rng(5))
    assert a == b
    assert_feasible(bucket, a)


def test_all_baselines_satisfy_constraints_fuzz():
    rng = np.random.default_rng(2)
    for seed in range(30):
        bucket = small_bucket(seed)
        for placement in (
            fog_first(bucket),
            cloud_only(bucket),
            greedy_cost(bucket),
            random_feasible(bucket, rng),
        ):
            assert_feasible(bucket, placement)


def test_brute_force_lower_bounds_every_baseline():
    rng = np.random.default_rng(3)
    for seed in range(20):
        bucket = small_bucket(seed)
        if bucket.n_functions > BRUTE_FORCE_LIMIT:
            continue
        ctx = costs.CostContext.from_bucket(bucket)
        best = brute_force_optimum(bucket)
        for placement in (
            fog_first(bucket),
            cloud_only(bucket),
            greedy_cost(bucket, ctx),
            random_feasible(bucket, rng),
        ):
            step = costs.placement_step_cost_sum(bucket, placement, ctx)
            _, objective = costs.bucket_objective(bucket, placement, ctx)
            assert best.best_step_cost <= step + 1e-12
            assert best.best_objective <= objective + 1e-12


def test_greedy_matches_brute_force_step_optimum():
    # step costs are per-function and independent of the other placements,
    # so the greedy policy is exactly optimal for the step-cost objective
    for seed in range(20):
        bucket = small_bucket(seed)
        if bucket.n_functions > BRUTE_FORCE_LIMIT:
            continue
        ctx = costs.CostContext.from_bucket(bucket)
        greedy = costs.placement_step_cost_sum(bucket, greedy_cost(bucket, ctx), ctx)
        assert greedy == pytest.approx(brute_force_optimum(bucket).best_step_cost, abs=1e-12)


def test_fog_fraction_ordering():
    for seed in range(20):
        bucket = small_bucket(seed)
        def fog_count(p):
            return sum(f for f, _ in p.flags)
        assert fog_count(fog_first(bucket)) >= fog_count(greedy_cost(bucket))
        assert fog_count(greedy_cost(bucket)) >= fog_count(cloud_only(bucket))
        assert fog_count(cloud_only(bucket)) == 0


def test_brute_force_size_limit():
    cfg = GeneratorConfig(seed=0, n_ssrs=(5, 5), functions_per_ssr=(3, 3))
    bucket = generate_bucket(cfg)
    assert bucket.n_functions == 15
    with pytest.raises(ValueError, match="14"):
        brute_force_optimum(bucket)


def test_brute_force_single_function():
    fn = make_fn(priority=5.0)
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(fn,))],
        users=[make_user(0)],
    )
    result = brute_force_optimum(bucket)
    ctx = costs.CostContext.from_bucket(bucket)
    fog_step, cloud_step = ctx.fog_step[0], ctx.cloud_step[0]
    assert result.best_step_cost == pytest.approx(min(fog_step, cloud_step), abs=1e-12)
    assert result.best_step_placement.flags == (((1, 0) if fog_step <= cloud_step else (0, 1)),)
