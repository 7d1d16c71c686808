import dataclasses

import numpy as np
import pytest
from hypothesis import given

import scalar_reference as ref
from fogplace import baselines, costs, metrics
from fogplace.env import Action, PlacementEnv
from fogplace.model import ResourceVector, cloud_feasible, fog_feasible
from fogplace.workload import GeneratorConfig, generate_bucket

from conftest import (
    PROPERTY, generated_buckets, make_bucket, make_fn, make_limits, make_ssr, one_ssr_context,
)

UNIFORM = ResourceVector(0.25, 0.25, 0.25, 0.25)
# caps of 2 everywhere so a demand of 1 gives a ratio of 0.5
HALF_CAP = make_limits(cpu=2, ram=2, storage=2, net_io=2, code=500, input_size=2500)
ONES = ResourceVector(1, 1, 1, 1)


def kernel_for(fns, fog=HALF_CAP, cloud=HALF_CAP, **kwargs):
    return one_ssr_context(fns, fog, cloud, **kwargs)


def test_per_function_cap_selects_platform():
    # the fog vectors divide by the fog caps, the cloud vectors by the cloud caps
    fog = make_limits(cpu=2, ram=2, storage=2, net_io=2)
    cloud = make_limits(cpu=4, ram=4, storage=4, net_io=4)
    ctx = kernel_for([make_fn(demand=ONES)], fog=fog, cloud=cloud, link=40.0)
    # fog: 3 * 0.5 * 0.25 + 0.5 * 0.25 * 0.4; cloud: 3 * 0.25 * 0.25 + 0.25 * 0.25 * 0.4
    assert ctx.fog_comp[0] == pytest.approx(0.425, abs=1e-9)
    assert ctx.cloud_comp[0] == pytest.approx(0.2125, abs=1e-9)


def test_placement_needs_one_flag_per_function(simple_bucket):
    for placement in ((True, False), (True, False, True, False)):
        with pytest.raises(ValueError, match=f"placement has {len(placement)} flags for 3"):
            costs.placement_step_cost_sum(simple_bucket, placement)


@pytest.mark.parametrize("consumer", [costs.placement_step_cost_sum, costs.bucket_objective,
                                      metrics.report], ids=lambda f: f.__name__)
def test_fog_flag_on_a_function_the_fog_cannot_take_is_rejected(consumer):
    # 6 cores: beyond the fog cap of 2, within the cloud cap of 6
    bucket = make_bucket(ssrs=[make_ssr((make_fn(demand=ResourceVector(cpu=6)),))])
    assert bucket.costs.fog_ok.tolist() == [False]
    with pytest.raises(ValueError, match=r"puts function 0 \(flattened order\) on the fog"):
        consumer(bucket, (True,))


INVALID_BUCKETS = {
    "empty": lambda: make_bucket(ssrs=[]),
    "code-above-cloud-limit": lambda: make_bucket(
        ssrs=[make_ssr((make_fn(code=600.0, priority=5.0),))]),
}
BUCKET_CONSUMERS = {
    "report": lambda b: metrics.report(b, (False,) * b.n_functions),
    "placement_step_cost_sum": lambda b: costs.placement_step_cost_sum(b, (False,) * b.n_functions),
    "bucket_step_cost": lambda b: costs.bucket_step_cost(b, (False,) * b.n_functions),
    "bucket_objective": lambda b: costs.bucket_objective(b, (False,) * b.n_functions),
    "exact_optimum": baselines.exact_optimum,
    "greedy_cost": baselines.greedy_cost,
    "fog_first": baselines.fog_first,
    "cloud_only": baselines.cloud_only,
    "random_feasible": lambda b: baselines.random_feasible(b, np.random.default_rng(0)),
    "PlacementEnv": PlacementEnv,
}


@pytest.mark.parametrize("consumer", sorted(BUCKET_CONSUMERS))
@pytest.mark.parametrize("bucket", sorted(INVALID_BUCKETS))
def test_every_consumer_rejects_an_invalid_bucket(bucket, consumer):
    with pytest.raises(ValueError, match="invalid bucket"):
        BUCKET_CONSUMERS[consumer](INVALID_BUCKETS[bucket]())


def test_total_demand():
    ctx = kernel_for([
        make_fn(demand=ResourceVector(1, 100, 10, 10)),
        make_fn(demand=ResourceVector(2, 150, 30, 40)),
        make_fn(),
    ], cloud=make_limits())
    assert ctx.demand[:3].tolist() == [[1, 100, 10, 10], [2, 150, 30, 40], [0, 0, 0, 0]]


def test_ssr_demand_sums():
    # SSR 0 is shorter than SSR 1, so its padded slot is summed too
    bucket = make_bucket(ssrs=[
        make_ssr((make_fn(demand=ResourceVector(1, 100, 10, 10), priority=1.0),)),
        make_ssr((
            make_fn(demand=ResourceVector(1, 100, 10, 10), priority=1.0),
            make_fn(demand=ResourceVector(2, 200, 20, 20), priority=1.0),
        )),
    ])
    ctx = bucket.costs
    per_ssr = ctx.ssr_sums(ctx.demand.T)  # one row per resource kind
    assert per_ssr.T.tolist() == [[1, 100, 10, 10], [3, 300, 30, 30]]


def test_comm_latency_fn():
    ctx = kernel_for([make_fn()], priority=0.6, link=10.0)
    assert ctx.objective(np.array([True]))[0][0] == pytest.approx(0.6, abs=1e-9)
    assert ctx.objective(np.array([False]))[0][0] == pytest.approx(0.7, abs=1e-9)
    ctx = kernel_for([make_fn()], priority=0.0, link=0.0)
    assert ctx.objective(np.array([False]))[0][0] == 0.0


def test_comp_latency_fn_zero_demand():
    ctx = kernel_for([make_fn()], latency=40.0, link=10.0)
    assert ctx.fog_comp[0] == 0.0
    assert ctx.cloud_comp[0] == 0.0


def test_comp_latency_fn_hand_value_fog():
    # 3 * 0.5 * 0.25 + 0.5 * 0.25 * 0.4 = 0.425
    ctx = kernel_for([make_fn(demand=ONES)], latency=40.0, link=0.0)
    assert ctx.fog_comp[0] == pytest.approx(0.425, abs=1e-9)


def test_comp_latency_fn_hand_value_cloud():
    ctx = kernel_for([make_fn(demand=ONES)], latency=10.0, link=40.0)
    assert ctx.cloud_comp[0] == pytest.approx(0.425, abs=1e-9)


def test_step_cost_fog():
    ctx = kernel_for([make_fn(), make_fn(demand=ONES)], latency=40.0, priority=0.6)
    assert ctx.fog_step[0] == pytest.approx(0.6)
    # 0.375 + 0.05 + 0.6 = 1.025
    assert ctx.fog_step[1] == pytest.approx(1.025, abs=1e-9)
    assert kernel_for([make_fn()], latency=40.0, priority=0.0).fog_step[0] == 0.0


def test_step_cost_cloud():
    ctx = kernel_for([make_fn(), make_fn(demand=ONES)],
                     latency=40.0, link=10.0, priority=0.6)
    assert ctx.cloud_step[0] == pytest.approx(0.7)
    # 0.375 + 0.125 * 0.5 + 0.6 + 0.1 = 1.1375
    assert ctx.cloud_step[1] == pytest.approx(1.1375, abs=1e-9)
    ctx = kernel_for([make_fn()], latency=40.0, link=0.0, priority=0.0)
    assert ctx.cloud_step[0] == 0.0


def objective_parts(bucket, placement):
    """Per-SSR (communication, computation) objective terms of a placement."""
    comm, comp = bucket.costs.objective(bucket.costs.on_fog(placement))
    return list(zip(comm.tolist(), comp.tolist()))


def test_ssr_comm_latency(simple_bucket):
    # SSR 0: user priority 0.6, normalized link 0.1; SSR 1: priority 0.5
    parts = objective_parts(simple_bucket, (True, False, False))
    assert parts[0][0] == pytest.approx(1.3, abs=1e-9)
    assert parts[1][0] == pytest.approx(0.6, abs=1e-9)
    parts = objective_parts(simple_bucket, (True, False, True))
    assert parts[1][0] == pytest.approx(0.5, abs=1e-9)


def test_ssr_comp_latency_priority_weighting(simple_bucket):
    # functions with priorities 5.0 and 2.5: weights 1.0 and 0.5
    ssr = simple_bucket.ssrs[0]
    fns = (
        make_fn(demand=ONES, priority=5.0),
        make_fn(demand=ONES, priority=2.5),
    )
    weighted = dataclasses.replace(ssr, functions=fns)
    bucket = dataclasses.replace(
        simple_bucket,
        ssrs=(weighted, simple_bucket.ssrs[1]),
        fog=HALF_CAP, cloud=HALF_CAP,
    )
    # fog placement, user 0: l_i = 0.4 -> per-function comp 0.425
    _, comp = objective_parts(bucket, (True,) * 3)[0]
    assert comp == pytest.approx(0.425 * 1.0 + 0.425 * 0.5, abs=1e-9)


def test_ssr_comp_latency_two_term_hand_value(simple_bucket):
    # comp values (0.4, 0.2) with priorities (5.0, 2.5) -> 0.4 + 0.2 * 0.5 = 0.5
    weights = [1.0, 0.5]
    comps = [0.4, 0.2]
    assert sum(c * w for c, w in zip(comps, weights)) == pytest.approx(0.5)


def test_ssr_objective_total(simple_bucket):
    comm, comp = objective_parts(simple_bucket, (True, False, True))[0]
    # zero-demand functions: comp is 0, the SSR total is the comm latency 1.3
    assert comp == 0.0
    assert comm + comp == pytest.approx(1.3, abs=1e-9)
    total = costs.bucket_objective(simple_bucket, (True, False, True))
    assert total == pytest.approx(1.3 + 0.5, abs=1e-9)


def test_bucket_step_cost_is_mean_of_ssrs():
    # SSR 0: two zero-demand fog functions with P=0.5 -> cost 1.0
    # SSR 1: six zero-demand fog functions with P=0.5 -> cost 3.0
    ssrs = [
        make_ssr(tuple(make_fn(priority=5.0) for _ in range(2)), latency=50, priority=0.5),
        make_ssr(tuple(make_fn(priority=5.0) for _ in range(6)), latency=50, priority=0.5),
    ]
    bucket = make_bucket(ssrs)
    placement = (True,) * 8
    assert costs.bucket_step_cost(bucket, placement) == pytest.approx(2.0, abs=1e-9)
    assert costs.placement_step_cost_sum(bucket, placement) == pytest.approx(4.0, abs=1e-9)


def test_single_ssr_bucket_step_cost_equals_ssr_cost(simple_bucket):
    bucket = dataclasses.replace(
        simple_bucket,
        ssrs=(make_ssr((make_fn(),), latency=100.0),),
    )
    ssr_cost = bucket.costs.ssr_sums(bucket.costs.cloud_step)[0]
    assert costs.bucket_step_cost(bucket, (False,)) == pytest.approx(ssr_cost)


def _random_fn(rng):
    demand = ResourceVector(*rng.uniform(0.01, 2.0, size=4))
    return make_fn(demand=demand, priority=1.0)


def test_cloud_dominance_under_equal_ratios_fuzz():
    rng = np.random.default_rng(21)
    caps = make_limits(cpu=3, ram=3, storage=3, net_io=3)
    for _ in range(100):
        fns = [_random_fn(rng) for _ in range(5)]
        ctx = kernel_for(fns, fog=caps, cloud=caps,
                         latency=float(rng.uniform(1, 100)), link=float(rng.uniform(0, 100)),
                         priority=float(rng.uniform(0, 1)))
        assert (ctx.cloud_step - ctx.fog_step >= -1e-12).all()


def test_step_cost_monotone_in_demand_fuzz():
    rng = np.random.default_rng(22)
    caps = make_limits(cpu=4, ram=4, storage=4, net_io=4)
    for _ in range(300):
        fn = _random_fn(rng)
        kind = int(rng.integers(0, 4))
        bump = [0.0] * 4
        bump[kind] = float(rng.uniform(0.01, 1.0))
        grown = [d + b for d, b in zip(fn.demand.as_tuple(), bump)]
        bigger = dataclasses.replace(fn, demand=ResourceVector(*grown))
        ctx = kernel_for([fn, bigger], fog=caps, cloud=caps,
                         latency=float(rng.uniform(1, 100)), link=float(rng.uniform(1, 100)),
                         priority=0.5)
        assert ctx.fog_step[1] > ctx.fog_step[0]
        assert ctx.cloud_step[1] > ctx.cloud_step[0]


def test_cap_selector_partition_fuzz():
    # the fog terms use the fog caps and the cloud terms the cloud caps, exactly
    rng = np.random.default_rng(23)
    fog = make_limits(cpu=2, ram=1024, storage=1024, net_io=2048)
    cloud = make_limits()
    for _ in range(200):
        fn = _random_fn(rng)
        latency, link = float(rng.uniform(1, 100)), float(rng.uniform(0, 100))
        ctx = kernel_for([fn], fog=fog, cloud=cloud, latency=latency, link=link)
        l_i, lf = latency / 100.0, link / 100.0
        args = (fog, cloud, UNIFORM, l_i, lf)
        assert ctx.fog_comp[0] == ref.comp_latency_fn(fn, 1, 0, *args)
        assert ctx.cloud_comp[0] == ref.comp_latency_fn(fn, 0, 1, *args)


def test_episode_additivity_recomputation():
    bucket = generate_bucket(GeneratorConfig(seed=15, n_ssrs=(3, 3), functions_per_ssr=(2, 4)))
    ctx = bucket.costs
    rng = np.random.default_rng(5)
    placement = tuple(fog_feasible(fn, bucket.fog) and rng.uniform() < 0.5
                      for _, fn in bucket.functions())
    total = costs.placement_step_cost_sum(bucket, placement)
    # recompute per function, independent of the per-SSR sums
    expected = 0.0
    for idx, on_fog in enumerate(placement):
        expected += float(ctx.fog_step[idx] if on_fog else ctx.cloud_step[idx])
    assert total == pytest.approx(expected, abs=1e-9)
    assert costs.bucket_step_cost(bucket, placement) == pytest.approx(
        total / len(bucket.ssrs), abs=1e-12)


# -- the vector kernel against the scalar reference, bit for bit ------------------

# paper-default buckets (most decisions forced by the fog limits) and buckets
# whose every function fits the fog (every decision free)
FUZZ_GENERATORS = [
    GeneratorConfig(seed=700),
    GeneratorConfig(seed=800, n_ssrs=(2, 4), functions_per_ssr=(1, 5),
                    cpu_demand=(1.0, 2.0), ram_demand=(100.0, 1024.0),
                    storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
                    code_size=(10.0, 300.0), input_size=(100.0, 1500.0)),
]


def _fuzz_buckets():
    for cfg in FUZZ_GENERATORS:
        for seed in range(12):
            yield generate_bucket(cfg, seed=seed)


def test_kernel_vectors_equal_scalar_reference_fuzz():
    free = forced = 0
    rng = np.random.default_rng(31)
    for bucket in _fuzz_buckets():
        ctx = bucket.costs
        terms, lf = ref.user_terms(bucket)
        k = 0
        for ssr, (l_i, p_i) in zip(bucket.ssrs, terms):
            max_p = max(fn.priority for fn in ssr.functions)
            for fn in ssr.functions:
                w = fn.priority / max_p
                args = (bucket.fog, bucket.cloud, bucket.importance_factors, l_i, lf)
                assert ctx.fog_step[k] == ref.step_cost_fog(
                    fn, bucket.fog, bucket.importance_factors, l_i, p_i)
                assert ctx.cloud_step[k] == ref.step_cost_cloud(
                    fn, bucket.cloud, bucket.importance_factors, l_i, lf, p_i)
                assert ctx.fog_comp[k] == ref.comp_latency_fn(fn, 1, 0, *args) * w
                assert ctx.cloud_comp[k] == ref.comp_latency_fn(fn, 0, 1, *args) * w
                assert ctx.fog_ok[k] == fog_feasible(fn, bucket.fog)
                assert cloud_feasible(fn, bucket.cloud)  # the cloud takes every function
                if ctx.fog_ok[k]:
                    free += 1
                else:
                    forced += 1
                k += 1
        for _ in range(3):
            on_fog = ctx.fog_ok & (rng.uniform(size=len(ctx.fog_ok)) < 0.5)
            placement = tuple(on_fog.tolist())
            assert costs.placement_step_cost_sum(bucket, placement) == ref.step_cost_sum(
                bucket, placement)
            ref_parts, ref_total = ref.ssr_objectives(bucket, placement)
            assert objective_parts(bucket, placement) == ref_parts
            assert costs.bucket_objective(bucket, placement) == ref_total
    assert free > 50 and forced > 50


def test_env_steps_and_encodings_equal_scalar_reference_fuzz():
    rng = np.random.default_rng(32)
    for bucket in _fuzz_buckets():
        env = PlacementEnv(bucket, max_functions=100)
        fn_costs = ref.function_step_costs(bucket)
        flags = [(0, 0)] * bucket.n_functions
        state = env.reset()
        while True:
            assert state.encoded.tolist() == ref.encode(
                bucket, env.order, flags, state.cursor, 100)
            if state.done:
                break
            fog_ok, cloud_ok = state.mask
            action = Action.FOG if fog_ok and (not cloud_ok or rng.uniform() < 0.5) else Action.CLOUD
            idx = env.order[state.cursor]
            outcome = env.step(state, action)
            assert outcome.cost == fn_costs[idx][action]
            flags[idx] = (1, 0) if action == Action.FOG else (0, 1)
            state = outcome.next_state
        assert state.placement == tuple(f == 1 for f, _ in flags)


@PROPERTY
@given(generated_buckets)
def test_cloud_net_io_weights_differ_by_user_latency(bucket):
    # the cloud step cost weights the net I/O ratio by l + lf, the cloud
    # objective by lf alone: their difference is that ratio times l
    ctx = bucket.costs
    top_latency = max(ssr.user_latency for ssr in bucket.ssrs)
    l = np.array([ssr.user_latency / top_latency for ssr in bucket.ssrs for _ in ssr.functions])
    w = np.array([fn.priority / max(f.priority for f in ssr.functions)
                  for ssr in bucket.ssrs for fn in ssr.functions])
    r_io = (ctx.demand[:, 3] / bucket.cloud.per_function_cap.net_io
            * bucket.importance_factors.net_io)
    gap = ctx.cloud_step - (ctx.priority + ctx.norm_link) - ctx.cloud_comp / w
    assert np.abs(gap - r_io * l).max() <= 1e-12
