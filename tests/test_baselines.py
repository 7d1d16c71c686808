import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogplace import costs
from fogplace.baselines import (
    cloud_only,
    exact_optimum,
    fog_first,
    greedy_cost,
    random_feasible,
)
from fogplace.model import ResourceVector, cloud_feasible, fog_feasible
from fogplace.workload import GeneratorConfig, generate_bucket, generate_sweep

from conftest import (
    PROPERTY, generated_buckets, make_bucket, make_fn, make_limits, make_ssr, seeds,
)
from scalar_reference import brute_force_optimum


SMALL_CFG = GeneratorConfig(
    seed=0, n_ssrs=(2, 2), functions_per_ssr=(2, 4),
    cpu_demand=(1.0, 2.0), ram_demand=(100.0, 1024.0),
    storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
    code_size=(10.0, 300.0), input_size=(100.0, 1500.0),
)


def small_bucket(seed):
    return generate_bucket(SMALL_CFG, seed=seed)


def assert_feasible(bucket, placement):
    assert len(placement) == bucket.n_functions
    for (_, fn), on_fog in zip(bucket.functions(), placement):
        assert type(on_fog) is bool
        if on_fog:
            assert fog_feasible(fn, bucket.fog)
        else:
            assert cloud_feasible(fn, bucket.cloud)


def test_cloud_only_places_everything_on_cloud():
    bucket = small_bucket(1)
    placement = cloud_only(bucket)
    assert placement == (False,) * bucket.n_functions
    assert_feasible(bucket, placement)


def test_fog_first_uses_fog_when_possible():
    fn_small = make_fn(priority=5.0)  # zero demand, fits the fog
    fn_big = make_fn(demand=ResourceVector(3, 100, 10, 10), priority=2.0)
    bucket = make_bucket(
        ssrs=[make_ssr((fn_small, fn_big))],
    )
    assert fog_first(bucket) == (True, False)


def test_greedy_cost_prefers_fog_for_zero_demand():
    # zero demand and no extra latency on the fog side beats the cloud's
    # link latency, so the greedy policy keeps the function on the fog
    fn = make_fn(priority=5.0)
    bucket = make_bucket(
        ssrs=[make_ssr((fn,))],
    )
    assert greedy_cost(bucket) == (True,)


def test_random_feasible_is_seeded():
    bucket = small_bucket(4)
    a = random_feasible(bucket, np.random.default_rng(5))
    b = random_feasible(bucket, np.random.default_rng(5))
    assert a == b
    assert_feasible(bucket, a)


def test_random_feasible_draws_one_uniform_pick_per_function():
    """The draw stream of the rule "one rng.integers(0, fits_fog + 1) per function,
    and 0 means fog": an integers(0, 1) call for a function that does not fit the
    fog consumes no generator state."""
    mixed = 0
    cfg = dataclasses.replace(SMALL_CFG, cpu_demand=(1.0, 3.0))  # the fog takes at most 2 cores
    for seed in range(10):
        bucket = generate_bucket(cfg, seed=seed)
        fits_fog = [fog_feasible(fn, bucket.fog) for _, fn in bucket.functions()]
        mixed += any(fits_fog) and not all(fits_fog)
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = []
        for fits in fits_fog:
            pick = int(reference.integers(0, fits + 1))
            expected.append(fits and pick == 0)
        assert random_feasible(bucket, rng) == tuple(expected)
        assert rng.integers(0, 2**63) == reference.integers(0, 2**63)
    assert mixed == 10


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
        best = exact_optimum(bucket)
        for placement in (
            fog_first(bucket),
            cloud_only(bucket),
            greedy_cost(bucket),
            random_feasible(bucket, rng),
        ):
            step = costs.placement_step_cost_sum(bucket, placement)
            objective = costs.bucket_objective(bucket, placement)
            assert best.best_step_cost <= step + 1e-12
            assert best.best_objective <= objective + 1e-12


def test_greedy_matches_brute_force_step_optimum():
    # step costs are per-function and independent of the other placements,
    # so the greedy policy is exactly optimal for the step-cost objective
    for seed in range(20):
        bucket = small_bucket(seed)
        greedy = costs.placement_step_cost_sum(bucket, greedy_cost(bucket))
        assert greedy == pytest.approx(brute_force_optimum(bucket).best_step_cost, abs=1e-12)
        assert greedy == exact_optimum(bucket).best_step_cost


def test_fog_fraction_ordering():
    for seed in range(20):
        bucket = small_bucket(seed)
        assert sum(fog_first(bucket)) >= sum(greedy_cost(bucket))
        assert sum(greedy_cost(bucket)) >= sum(cloud_only(bucket))
        assert sum(cloud_only(bucket)) == 0


def test_brute_force_size_limit():
    # the exact optimum has no size limit: a bucket past the enumeration's
    # 14 functions, and the largest sweep bucket, are solved
    for bucket in (
        generate_bucket(GeneratorConfig(seed=0, n_ssrs=(5, 5), functions_per_ssr=(3, 3))),
        generate_sweep(GeneratorConfig(seed=0), 100),
    ):
        best = exact_optimum(bucket)
        greedy = greedy_cost(bucket)
        assert best.best_step_cost == costs.placement_step_cost_sum(bucket, greedy)
        assert_feasible(bucket, best.best_step_placement)
        assert_feasible(bucket, best.best_objective_placement)
    assert bucket.n_functions == 100


def test_brute_force_single_function():
    fn = make_fn(priority=5.0)
    bucket = make_bucket(
        ssrs=[make_ssr((fn,))],
    )
    result = exact_optimum(bucket)
    fog_step, cloud_step = bucket.costs.fog_step[0], bucket.costs.cloud_step[0]
    assert result.best_step_cost == pytest.approx(min(fog_step, cloud_step), abs=1e-12)
    assert result.best_step_placement == (bool(fog_step <= cloud_step),)


def test_exact_optimum_rejects_function_with_no_feasible_platform():
    tiny = make_limits(code=1.0)  # below the function's code size
    bucket = make_bucket(
        ssrs=[make_ssr((make_fn(priority=5.0),))],
        fog=tiny, cloud=tiny,
    )
    with pytest.raises(ValueError, match="does not fit the cloud limits"):
        exact_optimum(bucket)


# ---- properties ----------------------------------------------------------

@PROPERTY
@given(generated_buckets, seeds)
def test_exact_optimum_at_or_below_every_baseline(bucket, seed):
    best = exact_optimum(bucket)
    for placement in (
        fog_first(bucket),
        cloud_only(bucket),
        greedy_cost(bucket),
        random_feasible(bucket, np.random.default_rng(seed)),
    ):
        step = costs.placement_step_cost_sum(bucket, placement)
        objective = costs.bucket_objective(bucket, placement)
        assert best.best_step_cost <= step + 1e-12
        assert best.best_objective <= objective + 1e-12


@st.composite
def small_buckets(draw):
    """Buckets of at most 10 functions; forced ties make both sides cost the same."""
    cfg = dataclasses.replace(SMALL_CFG, n_ssrs=(1, 2), functions_per_ssr=(1, 5))
    if draw(st.booleans()):
        # equal limits and no link latency: every feasible function's step
        # costs tie, and without net I/O demand so do its objective terms
        io = (0.0, 0.0) if draw(st.booleans()) else cfg.net_io_demand
        cfg = dataclasses.replace(cfg, fog=cfg.cloud, link_latency=0.0, net_io_demand=io)
    return generate_bucket(cfg, seed=draw(seeds))


@settings(PROPERTY, max_examples=200)
@given(small_buckets())
def test_exact_optimum_equals_enumeration(bucket):
    assert bucket.n_functions <= 10
    exact = dataclasses.asdict(exact_optimum(bucket))
    assert exact == dataclasses.asdict(brute_force_optimum(bucket))
