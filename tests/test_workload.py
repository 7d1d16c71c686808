import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as reference
from fogplace.codec import decode, encode
from fogplace.model import fog_feasible, validate_bucket
from fogplace.workload import GeneratorConfig, generate_bucket, generate_sweep

from conftest import PROPERTY, seeds


def test_default_ranges_respected():
    cfg = GeneratorConfig(seed=100)
    checked = 0
    for seed in range(250):
        bucket = generate_bucket(cfg, seed=seed)
        for _, fn in bucket.functions():
            demand = fn.demand
            assert 1 <= demand.cpu <= 4
            assert 100 <= demand.ram <= 2048
            assert 10 <= demand.storage <= 2048
            assert 10 <= demand.net_io <= 4096
            assert 10 <= fn.code_size <= 500
            assert 100 <= fn.input_size <= 2500
            assert 1 <= fn.critical_value <= 5
            checked += 1
    assert checked >= 10_000


def test_same_seed_identical_buckets():
    cfg = GeneratorConfig(seed=42)
    assert generate_bucket(cfg) == generate_bucket(cfg)


def test_forced_cardinality():
    cfg = GeneratorConfig(seed=7, n_ssrs=(10, 10), functions_per_ssr=(1, 1))
    bucket = generate_bucket(cfg)
    assert bucket.n_functions == 10
    assert all(len(s.functions) == 1 for s in bucket.ssrs)


def test_generated_buckets_validate():
    cfg = GeneratorConfig(seed=0)
    for seed in range(20):
        assert validate_bucket(generate_bucket(cfg, seed=seed)) == []


def test_infeasible_demand_range_rejected():
    with pytest.raises(ValueError, match="^cpu_demand range max 10.0 exceeds the cloud limit 6$"):
        GeneratorConfig(seed=0, cpu_demand=(1.0, 10.0))  # cloud CPU cap is 6


def test_sweep_exact_splits():
    cfg = GeneratorConfig(seed=3)
    ten = generate_sweep(cfg, 10)
    assert [len(s.functions) for s in ten.ssrs] == [1] * 10
    hundred = generate_sweep(cfg, 100)
    assert [len(s.functions) for s in hundred.ssrs] == [10] * 10
    mid = generate_sweep(cfg, 55)
    counts = [len(s.functions) for s in mid.ssrs]
    assert sum(counts) == 55
    assert all(1 <= c <= 10 for c in counts)
    assert len(mid.ssrs) == 10


def test_sweep_domain_errors():
    cfg = GeneratorConfig(seed=3)
    with pytest.raises(ValueError):
        generate_sweep(cfg, 9)
    with pytest.raises(ValueError):
        generate_sweep(cfg, 101)


def test_fog_infeasible_functions_exist_on_average():
    cfg = GeneratorConfig(seed=77)
    infeasible = 0
    buckets = 0
    for seed in range(30):
        bucket = generate_sweep(cfg, 100, seed=seed)
        buckets += 1
        infeasible += sum(
            1 for _, fn in bucket.functions() if not fog_feasible(fn, bucket.fog)
        )
    assert infeasible / buckets >= 1.0


def test_priorities_are_cached():
    bucket = generate_bucket(GeneratorConfig(seed=12))
    assert all(0 <= ssr.user_priority <= 1 for ssr in bucket.ssrs)
    for ssr in bucket.ssrs:
        for fn in ssr.functions:
            assert fn.priority is not None and fn.priority > 0


def test_config_round_trip():
    cfg = GeneratorConfig(seed=9, n_ssrs=(2, 3), latency=(1.0, 10.0))
    assert decode(GeneratorConfig, json.loads(json.dumps(encode(cfg)))) == cfg


def test_bad_range_rejected():
    with pytest.raises(ValueError):
        GeneratorConfig(cpu_demand=(4.0, 1.0))


@pytest.mark.parametrize("field, value", [
    ("n_ssrs", (0, 0)),
    ("functions_per_ssr", (0, 4)),
    ("critical_value", (0, 7)),
    ("critical_value", (2, 6)),
    ("seed", -1),
])
def test_out_of_domain_value_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} "):
        GeneratorConfig(**{field: value})


def ranges(low, high):
    """(min, max) inside [low, high]: int-valued as JSON configs keep them, or float, or one point."""
    value = st.one_of(st.integers(int(low), int(high)), st.floats(low, high))
    return st.one_of(st.tuples(value, value).map(lambda r: (min(r), max(r))),
                     value.map(lambda v: (v, v)))


counts = st.tuples(st.integers(1, 10), st.integers(1, 10)).map(lambda r: (min(r), max(r)))
# any range of critical values, and explicitly the two-value ranges
criticals = st.one_of(st.integers(1, 5).flatmap(lambda lo: st.tuples(st.just(lo), st.integers(lo, 5))),
                      st.integers(1, 4).map(lambda lo: (lo, lo + 1)))
# every range inside the default cloud caps, so generation is feasible
configs = st.builds(
    GeneratorConfig,
    n_ssrs=counts,
    functions_per_ssr=counts,
    code_size=ranges(1, 500),
    input_size=ranges(1, 2500),
    cpu_demand=ranges(0, 6),
    ram_demand=ranges(0, 5120),
    storage_demand=ranges(0, 10240),
    net_io_demand=ranges(0, 10240),
    critical_value=criticals,
    latency=ranges(1, 100),
    priority_blend=st.floats(0, 1),
    delta=st.floats(0.05, 2),
)


@settings(PROPERTY, max_examples=100)
@given(configs, seeds)
def test_bucket_matches_scalar_reference(cfg, seed):
    assert encode(generate_bucket(cfg, seed)) == encode(reference.generate_bucket(cfg, seed))


@settings(PROPERTY, max_examples=100)
@given(configs, st.integers(10, 100), seeds)
def test_sweep_matches_scalar_reference(cfg, total, seed):
    assert (encode(generate_sweep(cfg, total, seed=seed))
            == encode(reference.generate_sweep(cfg, total, seed=seed)))
