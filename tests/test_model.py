import math

import numpy as np
import pytest

from fogplace.model import (
    Placement,
    ResourceKind,
    ResourceVector,
    RESOURCE_KINDS,
    SSR,
    StateError,
    load_bucket,
    save_bucket,
    validate_bucket,
)
from fogplace.workload import GeneratorConfig, generate_bucket

from conftest import make_bucket, make_fn, make_user


def test_resource_kinds_fixed_order():
    assert [k.value for k in RESOURCE_KINDS] == ["cpu", "ram", "storage", "net_io"]
    assert len(ResourceKind) == 4


def test_resource_vector_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        ResourceVector(cpu=-1)
    with pytest.raises(ValueError):
        ResourceVector(ram=math.inf)


def test_resource_vector_addition_and_fit():
    a = ResourceVector(1, 100, 10, 10)
    b = ResourceVector(1, 50, 20, 30)
    assert (a + b).as_tuple() == (2, 150, 30, 40)
    assert a.fits_within(ResourceVector(1, 100, 10, 10))
    assert not (a + b).fits_within(ResourceVector(1, 100, 10, 10))


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


def test_placement_partial_states_allowed():
    assert not Placement(flags=((0, 0),) * 3).is_complete()
    p = Placement(flags=((1, 0), (0, 0), (0, 1)))
    assert not p.is_complete()
    assert Placement.from_fog([True, False]).flags == ((1, 0), (0, 1))
    with pytest.raises(ValueError):
        Placement(flags=((1, 1),))


def test_complete_placement_has_exactly_one_flag_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        p = Placement.from_fog(rng.integers(0, 2, size=n).tolist())
        assert p.is_complete()
        assert all(f + c == 1 for f, c in p.flags)


def test_bucket_serialization_round_trip(tmp_path):
    bucket = generate_bucket(GeneratorConfig(seed=4))
    path = tmp_path / "bucket.json"
    save_bucket(bucket, path)
    loaded = load_bucket(path)
    # exact round trip: ints bit-for-bit, floats via JSON repr (shortest exact)
    assert loaded == bucket


def test_unassigned_lookup_raises():
    p = Placement(flags=((1, 0), (0, 0)))
    assert p.on_fog(0)
    with pytest.raises(StateError):
        p.on_fog(1)


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
