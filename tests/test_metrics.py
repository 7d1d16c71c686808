import numpy as np
import pytest

from fogplace.baselines import cloud_only, fog_first, greedy_cost, random_feasible
from fogplace.metrics import PLACEMENT_COLUMNS, REPORT_COLUMNS, report
from fogplace.model import RESOURCE_KINDS, ResourceVector
from fogplace.workload import GeneratorConfig, generate_bucket, generate_sweep

from conftest import make_bucket, make_fn, make_limits, make_ssr


def bucket_with(fns, fog=None, cloud=None):
    return make_bucket(
        ssrs=[make_ssr(tuple(fns))],
        fog=fog,
        cloud=cloud,
    )


def critical_counts(rep, value):
    return rep[f"crit{value}_fog"], rep[f"crit{value}_cloud"]


def flags_for(fns, fog_indices):
    return tuple(i in fog_indices for i in range(len(fns)))


def test_fog_fraction_three_of_ten():
    fns = [make_fn(priority=1.0) for _ in range(10)]
    rep = report(bucket_with(fns), [flags_for(fns, {0, 1, 2})])[0]
    assert rep["fog_fraction"] == pytest.approx(30.0, abs=1e-12)
    assert rep["cloud_fraction"] == pytest.approx(70.0, abs=1e-12)


def test_all_cloud_report():
    bucket = generate_bucket(GeneratorConfig(seed=6))
    rep = report(bucket, [cloud_only(bucket)])[0]
    assert rep["fog_fraction"] == 0.0
    assert rep["avg_code_fog"] is None
    assert rep["avg_critical_fog"] is None
    fns = [fn for _, fn in bucket.functions()]
    assert rep["avg_code_cloud"] == pytest.approx(
        sum(f.code_size for f in fns) / len(fns), abs=1e-9)
    assert rep["avg_critical_cloud"] == pytest.approx(
        sum(f.critical_value for f in fns) / len(fns), abs=1e-9)
    for kind in RESOURCE_KINDS:
        assert rep[f"{kind}_cloud_pct"] == pytest.approx(100.0, abs=1e-12)


def test_demand_percentage_hand_value():
    # fog CPU share: 6 of 30 total -> 20%; the fog takes 6 cores, the cloud 24
    fns = [
        make_fn(demand=ResourceVector(cpu=6), priority=1.0),
        make_fn(demand=ResourceVector(cpu=24), priority=1.0),
    ]
    bucket = bucket_with(fns, fog=make_limits(cpu=6), cloud=make_limits(cpu=24))
    rep = report(bucket, [flags_for(fns, {0})])[0]
    assert rep["cpu_fog_pct"] == pytest.approx(20.0, abs=1e-12)
    assert rep["cpu_cloud_pct"] == pytest.approx(80.0, abs=1e-12)


def test_critical_histogram_hand_values():
    # 15 functions with critical value 5, three of them on the fog: 20% / 80%
    fns = [make_fn(critical=5, priority=1.0) for _ in range(15)]
    rep = report(bucket_with(fns), [flags_for(fns, {0, 1, 2})])[0]
    assert critical_counts(rep, 5) == (3, 12)
    assert critical_counts(rep, 1) == (0, 0)


def test_critical_histogram_split_counts():
    fns = [make_fn(critical=1, priority=1.0) for _ in range(28)]
    rep = report(bucket_with(fns), [flags_for(fns, set(range(12)))])[0]
    assert critical_counts(rep, 1) == (12, 16)


def test_histogram_counts_sum_to_totals():
    rng = np.random.default_rng(8)
    for seed in range(10):
        bucket = generate_bucket(GeneratorConfig(seed=seed))
        placement = random_feasible(bucket, rng)
        rep = report(bucket, [placement])[0]
        fog_total = sum(critical_counts(rep, v)[0] for v in range(1, 6))
        cloud_total = sum(critical_counts(rep, v)[1] for v in range(1, 6))
        assert fog_total + cloud_total == rep["n_functions"]
        assert rep["fog_fraction"] == pytest.approx(
            100.0 * fog_total / rep["n_functions"], abs=1e-12)


def test_placement_of_wrong_length_rejected():
    bucket = generate_bucket(GeneratorConfig(seed=1))
    with pytest.raises(ValueError, match="flags for"):
        report(bucket, [(False,) * (bucket.n_functions + 1)])


def test_report_row_covers_all_columns():
    bucket = generate_bucket(GeneratorConfig(seed=2))
    row = report(bucket, [cloud_only(bucket)])[0]
    assert sorted(row) == sorted(PLACEMENT_COLUMNS)
    assert REPORT_COLUMNS == ["run", "algorithm", "total_functions", "seed"] + PLACEMENT_COLUMNS
    assert row["fog_fraction"] == 0.0
    assert row["avg_code_fog"] is None
    assert row["crit1_fog"] == 0


def test_report_step_cost_matches_episode_replay():
    from fogplace.env import Action, PlacementEnv

    bucket = generate_bucket(GeneratorConfig(seed=9, n_ssrs=(2, 3)))
    env = PlacementEnv(bucket)
    rng = np.random.default_rng(3)
    state = env.reset()
    total = 0.0
    while not state.done:
        feasible = [a for a in (Action.FOG, Action.CLOUD) if state.mask[a]]
        outcome = env.step(state, feasible[int(rng.integers(0, len(feasible)))])
        total += outcome.cost
        state = outcome.next_state
    rep = report(bucket, [state.placement])[0]
    assert rep["total_step_cost"] == pytest.approx(total, abs=1e-9)


def test_report_sums_equal_cost_context_and_column_reference_fuzz():
    # the totals are the cost context's own sums; the demand shares and the
    # averages add each quantity function by function, first to last
    rng = np.random.default_rng(41)
    # paper-default buckets (nearly every function forced to the cloud) and
    # buckets whose every function fits the fog
    fits_fog = GeneratorConfig(cpu_demand=(1.0, 2.0), ram_demand=(100.0, 1024.0),
                               storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
                               code_size=(10.0, 300.0), input_size=(100.0, 1500.0))
    buckets = [generate_sweep(cfg, n, seed=seed) for cfg in (GeneratorConfig(), fits_fog)
               for seed, n in enumerate((10, 37, 64, 100))]
    buckets += [generate_bucket(fits_fog, seed=seed) for seed in range(6)]
    for bucket in buckets:
        ctx = bucket.costs
        placement = random_feasible(bucket, rng)
        on_fog = ctx.on_fog(placement)
        rep = report(bucket, [placement])[0]
        assert rep["total_step_cost"] == float(ctx.step_cost_sum(on_fog)[0])
        assert rep["objective_sum"] == float(ctx.objective_total(on_fog)[0])

        fns = [fn for _, fn in bucket.functions()]
        n_fog = sum(placement)
        n_cloud = len(fns) - n_fog
        for k, kind in enumerate(RESOURCE_KINDS):
            total = fog = 0.0
            for fn, flag in zip(fns, placement):
                total += fn.demand.as_tuple()[k]
                if flag:
                    fog += fn.demand.as_tuple()[k]
            assert rep[f"{kind}_fog_pct"] == 100.0 * fog / total
            assert rep[f"{kind}_cloud_pct"] == 100.0 - 100.0 * fog / total
        for name, attr in (("code", "code_size"), ("input", "input_size"),
                           ("critical", "critical_value"), ("priority", "priority")):
            fog = cloud = 0.0
            for fn, flag in zip(fns, placement):
                if flag:
                    fog += getattr(fn, attr)
                else:
                    cloud += getattr(fn, attr)
            assert rep[f"avg_{name}_fog"] == (fog / n_fog if n_fog else None)
            assert rep[f"avg_{name}_cloud"] == (cloud / n_cloud if n_cloud else None)


MIXED_FIT = GeneratorConfig(cpu_demand=(1.0, 3.0), ram_demand=(100.0, 1024.0),
                            storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
                            code_size=(10.0, 300.0), input_size=(100.0, 1500.0))


def test_stacked_report_rows_equal_each_placement_reported_alone():
    rng = np.random.default_rng(23)
    buckets = [generate_sweep(cfg, n, seed=seed) for cfg in (GeneratorConfig(), MIXED_FIT)
               for seed, n in enumerate((10, 45, 100))]
    buckets += [generate_bucket(MIXED_FIT, seed=seed) for seed in range(6)]
    for k, bucket in enumerate(buckets):
        # every side empty somewhere: all cloud, and all the fog can take
        pool = [cloud_only(bucket), fog_first(bucket), greedy_cost(bucket)]
        pool += [random_feasible(bucket, rng) for _ in range(3)]
        placements = [pool[i] for i in rng.permutation(6)[:1 + k % 6]]
        rows = report(bucket, placements)
        assert rows == [report(bucket, [placement])[0] for placement in placements]


def test_stacked_report_refuses_a_fog_flag_on_an_unfit_function():
    bucket = generate_sweep(MIXED_FIT, 30, seed=2)
    unfit = int(np.flatnonzero(~bucket.costs.fog_ok)[2])
    bad = list(fog_first(bucket))
    bad[unfit] = True
    for position in range(3):
        placements = [fog_first(bucket), cloud_only(bucket)]
        placements.insert(position, tuple(bad))
        with pytest.raises(ValueError, match=rf"puts function {unfit} \(flattened order\) on the fog"):
            report(bucket, placements)
