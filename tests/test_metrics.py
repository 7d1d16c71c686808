import numpy as np
import pytest

from fogplace.baselines import cloud_only, random_feasible
from fogplace.metrics import REPORT_COLUMNS, report, report_row
from fogplace.model import ResourceKind, SSR, ResourceVector
from fogplace.workload import GeneratorConfig, generate_bucket

from conftest import make_bucket, make_fn, make_user


def bucket_with(fns):
    return make_bucket(
        ssrs=[SSR(user_id=0, functions=tuple(fns))],
        users=[make_user(0)],
    )


def flags_for(fns, fog_indices):
    return tuple(i in fog_indices for i in range(len(fns)))


def test_fog_fraction_three_of_ten():
    fns = [make_fn(index=i, priority=1.0) for i in range(10)]
    rep = report(bucket_with(fns), flags_for(fns, {0, 1, 2}))
    assert rep.fog_fraction == pytest.approx(30.0, abs=1e-12)
    assert rep.cloud_fraction == pytest.approx(70.0, abs=1e-12)


def test_all_cloud_report():
    bucket = generate_bucket(GeneratorConfig(seed=6))
    rep = report(bucket, cloud_only(bucket))
    assert rep.fog_fraction == 0.0
    assert rep.avg_code_fog is None
    assert rep.avg_critical_fog is None
    fns = [fn for _, fn in bucket.functions()]
    assert rep.avg_code_cloud == pytest.approx(
        sum(f.code_size for f in fns) / len(fns), abs=1e-9)
    assert rep.avg_critical_cloud == pytest.approx(
        sum(f.critical_value for f in fns) / len(fns), abs=1e-9)
    for kind, pct in rep.demand_cloud_pct.items():
        assert pct == pytest.approx(100.0, abs=1e-12)


def test_demand_percentage_hand_value():
    # fog CPU share: 6 of 30 total -> 20%
    fns = [
        make_fn(index=0, base=ResourceVector(cpu=6), priority=1.0),
        make_fn(index=1, base=ResourceVector(cpu=24), priority=1.0),
    ]
    bucket = bucket_with(fns)
    rep = report(bucket, flags_for(fns, {0}))
    assert rep.demand_fog_pct[ResourceKind.CPU] == pytest.approx(20.0, abs=1e-12)
    assert rep.demand_cloud_pct[ResourceKind.CPU] == pytest.approx(80.0, abs=1e-12)


def test_critical_histogram_hand_values():
    # 15 functions with critical value 5, three of them on the fog: 20% / 80%
    fns = [make_fn(index=i, critical=5, priority=1.0) for i in range(15)]
    rep = report(bucket_with(fns), flags_for(fns, {0, 1, 2}))
    assert rep.critical_counts[5] == (3, 12)
    row = report_row(rep, 0, "test", 15, 0)
    assert (row["crit5_fog"], row["crit5_cloud"]) == (3, 12)
    assert rep.critical_counts[1] == (0, 0)


def test_critical_histogram_split_counts():
    fns = [make_fn(index=i, critical=1, priority=1.0) for i in range(28)]
    rep = report(bucket_with(fns), flags_for(fns, set(range(12))))
    assert rep.critical_counts[1] == (12, 16)


def test_histogram_counts_sum_to_totals():
    rng = np.random.default_rng(8)
    for seed in range(10):
        bucket = generate_bucket(GeneratorConfig(seed=seed))
        placement = random_feasible(bucket, rng)
        rep = report(bucket, placement)
        fog_total = sum(f for f, _ in rep.critical_counts.values())
        cloud_total = sum(c for _, c in rep.critical_counts.values())
        assert fog_total + cloud_total == rep.n_functions
        assert rep.fog_fraction == pytest.approx(
            100.0 * fog_total / rep.n_functions, abs=1e-12)


def test_placement_of_wrong_length_rejected():
    bucket = generate_bucket(GeneratorConfig(seed=1))
    with pytest.raises(ValueError, match="flags for"):
        report(bucket, (False,) * (bucket.n_functions + 1))


def test_report_row_covers_all_columns():
    bucket = generate_bucket(GeneratorConfig(seed=2))
    rep = report(bucket, cloud_only(bucket))
    row = report_row(rep, run=0, algorithm="cloud_only",
                     total_functions=bucket.n_functions, seed=2)
    assert set(row) == set(REPORT_COLUMNS)
    assert row["algorithm"] == "cloud_only"
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
        mask = env.feasible_actions(state)
        feasible = [a for a in (Action.FOG, Action.CLOUD) if mask[a]]
        outcome = env.step(state, feasible[int(rng.integers(0, len(feasible)))])
        total += outcome.cost
        state = outcome.next_state
    rep = report(bucket, state.placement)
    assert rep.total_step_cost == pytest.approx(total, abs=1e-9)
