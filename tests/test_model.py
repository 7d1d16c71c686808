import dataclasses
import math

import pytest

from fogplace.codec import encode
from fogplace.model import (
    ResourceVector,
    RESOURCE_KINDS,
    SSR,
    load_bucket,
    save_bucket,
    validate_bucket,
)
from fogplace.workload import GeneratorConfig, generate_bucket

from conftest import make_bucket, make_fn, make_limits, make_user


def test_resource_kinds_fixed_order():
    assert RESOURCE_KINDS == ("cpu", "ram", "storage", "net_io")
    vector = ResourceVector(1, 2, 3, 4)
    assert tuple(getattr(vector, kind) for kind in RESOURCE_KINDS) == vector.as_tuple()


def test_resource_vector_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        ResourceVector(cpu=-1)
    with pytest.raises(ValueError):
        ResourceVector(ram=math.inf)


def test_validate_fog_cap_above_cloud_cap_reported():
    def violations(fog_cap):
        bucket = make_bucket(
            ssrs=[SSR(user_id=0, functions=(make_fn(),))], users=[make_user(0)],
            fog=make_limits(*fog_cap), cloud=make_limits(1, 100, 10, 10),
        )
        return [v for v in validate_bucket(bucket) if "fog per-function cap" in v]

    assert violations((1, 100, 10, 10)) == []  # equal caps fit
    for kind in range(4):
        fog_cap = [1, 100, 10, 10]
        fog_cap[kind] += 1
        assert violations(fog_cap) == ["fog per-function cap exceeds cloud cap in some component"]


def test_validate_empty_ssr_reported():
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=())],
        users=[make_user(0)],
    )
    report = validate_bucket(bucket)
    assert any("empty SSR at index 0" in v for v in report)


def test_validate_uniform_importance_factors_pass():
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(make_fn(),))],
        users=[make_user(0)],
        weights=ResourceVector(0.25, 0.25, 0.25, 0.25),
    )
    assert not any("importance" in v for v in validate_bucket(bucket))


def test_validate_importance_factor_sum_violation():
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(make_fn(),))],
        users=[make_user(0)],
        weights=ResourceVector(0.5, 0.5, 0.5, 0.5),
    )
    assert any("importance factors sum 2.0 != 1" in v for v in validate_bucket(bucket))


def test_validate_duplicate_user_and_excess_ssrs():
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(make_fn(),)),
              SSR(user_id=0, functions=(make_fn(ssr_index=1),))],
        users=[make_user(0)],
    )
    report = validate_bucket(bucket)
    assert any("duplicate user id 0" in v for v in report)
    assert any("exceed" in v for v in report)


def test_generated_bucket_is_valid():
    bucket = generate_bucket(GeneratorConfig(seed=9))
    assert validate_bucket(bucket) == []


def test_critical_value_range_enforced():
    with pytest.raises(ValueError):
        make_fn(critical=0)
    with pytest.raises(ValueError):
        make_fn(critical=6)


def test_bucket_serialization_round_trip(tmp_path):
    bucket = generate_bucket(GeneratorConfig(seed=4))
    path = tmp_path / "bucket.json"
    save_bucket(bucket, path)
    loaded = load_bucket(path)
    # exact round trip: ints bit-for-bit, floats via JSON repr (shortest exact)
    assert loaded == bucket


def test_bucket_costs_is_built_once_per_bucket():
    bucket = generate_bucket(GeneratorConfig(seed=4))
    doc = encode(bucket)
    ctx = bucket.costs
    assert bucket.costs is ctx
    # the cache is no field: equality, hashing and the file format ignore it
    copy = dataclasses.replace(bucket)
    assert copy == bucket and hash(copy) == hash(bucket) and encode(bucket) == doc
    assert copy.costs is not ctx
    assert copy.costs.fog_step.tolist() == ctx.fog_step.tolist()
    slower = dataclasses.replace(
        bucket, cloud=dataclasses.replace(bucket.cloud, link_latency=2 * bucket.cloud.link_latency))
    assert slower.costs.norm_link == 2 * ctx.norm_link


def test_validate_reports_non_finite_latency_and_distance_cap():
    # a NaN latency next to a NaN coverage radius passes every comparison
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(make_fn(),))],
        users=[make_user(0, latency=math.nan)],
        distance_cap=math.nan,
    )
    violations = validate_bucket(bucket)
    assert any("user 0 latency nan" in v for v in violations)
    assert any("distance cap nan" in v for v in violations)
    infinite = make_bucket(
        ssrs=[SSR(user_id=0, functions=(make_fn(),))],
        users=[make_user(0, latency=math.inf)],
    )
    assert any("user 0 latency inf" in v for v in validate_bucket(infinite))


def test_validate_reports_non_finite_user_position():
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=(make_fn(),))],
        users=[make_user(0, position=(math.nan, 1.0))],
    )
    assert any("user 0 position" in v and "not finite" in v for v in validate_bucket(bucket))
