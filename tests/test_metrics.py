import numpy as np
import pytest

from fogplace.baselines import cloud_only, random_feasible
from fogplace.metrics import PLACEMENT_COLUMNS, REPORT_COLUMNS, report
from fogplace.model import RESOURCE_KINDS, ResourceVector
from fogplace.workload import GeneratorConfig, generate_bucket

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
    rep = report(bucket_with(fns), flags_for(fns, {0, 1, 2}))
    assert rep["fog_fraction"] == pytest.approx(30.0, abs=1e-12)
    assert rep["cloud_fraction"] == pytest.approx(70.0, abs=1e-12)


def test_all_cloud_report():
    bucket = generate_bucket(GeneratorConfig(seed=6))
    rep = report(bucket, cloud_only(bucket))
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
    rep = report(bucket, flags_for(fns, {0}))
    assert rep["cpu_fog_pct"] == pytest.approx(20.0, abs=1e-12)
    assert rep["cpu_cloud_pct"] == pytest.approx(80.0, abs=1e-12)


def test_critical_histogram_hand_values():
    # 15 functions with critical value 5, three of them on the fog: 20% / 80%
    fns = [make_fn(critical=5, priority=1.0) for _ in range(15)]
    rep = report(bucket_with(fns), flags_for(fns, {0, 1, 2}))
    assert critical_counts(rep, 5) == (3, 12)
    assert critical_counts(rep, 1) == (0, 0)


def test_critical_histogram_split_counts():
    fns = [make_fn(critical=1, priority=1.0) for _ in range(28)]
    rep = report(bucket_with(fns), flags_for(fns, set(range(12))))
    assert critical_counts(rep, 1) == (12, 16)


def test_histogram_counts_sum_to_totals():
    rng = np.random.default_rng(8)
    for seed in range(10):
        bucket = generate_bucket(GeneratorConfig(seed=seed))
        placement = random_feasible(bucket, rng)
        rep = report(bucket, placement)
        fog_total = sum(critical_counts(rep, v)[0] for v in range(1, 6))
        cloud_total = sum(critical_counts(rep, v)[1] for v in range(1, 6))
        assert fog_total + cloud_total == rep["n_functions"]
        assert rep["fog_fraction"] == pytest.approx(
            100.0 * fog_total / rep["n_functions"], abs=1e-12)


def test_placement_of_wrong_length_rejected():
    bucket = generate_bucket(GeneratorConfig(seed=1))
    with pytest.raises(ValueError, match="flags for"):
        report(bucket, (False,) * (bucket.n_functions + 1))


def test_report_row_covers_all_columns():
    bucket = generate_bucket(GeneratorConfig(seed=2))
    row = report(bucket, cloud_only(bucket))
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
    rep = report(bucket, state.placement)
    assert rep["total_step_cost"] == pytest.approx(total, abs=1e-9)
