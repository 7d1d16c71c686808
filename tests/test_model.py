import dataclasses
import math

import pytest

from fogplace import costs
from fogplace.codec import encode
from fogplace.model import (
    ResourceVector,
    RESOURCE_KINDS,
    load_bucket,
    save_bucket,
    validate_bucket,
)
from fogplace.workload import GeneratorConfig, generate_bucket

from conftest import make_bucket, make_fn, make_limits, make_ssr


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
            ssrs=[make_ssr((make_fn(),))],
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
        ssrs=[make_ssr(())],
    )
    report = validate_bucket(bucket)
    assert any("empty SSR at index 0" in v for v in report)


def test_validate_uniform_importance_factors_pass():
    bucket = make_bucket(
        ssrs=[make_ssr((make_fn(),))],
        weights=ResourceVector(0.25, 0.25, 0.25, 0.25),
    )
    assert not any("importance" in v for v in validate_bucket(bucket))


def test_validate_importance_factor_sum_violation():
    bucket = make_bucket(
        ssrs=[make_ssr((make_fn(),))],
        weights=ResourceVector(0.5, 0.5, 0.5, 0.5),
    )
    assert any("importance factors sum 2.0 != 1" in v for v in validate_bucket(bucket))


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
    slower = dataclasses.replace(bucket, link_latency=2 * bucket.link_latency)
    assert slower.costs.norm_link == 2 * ctx.norm_link


def test_validate_reports_non_finite_latency():
    nan = make_bucket(ssrs=[make_ssr((make_fn(),), latency=math.nan)])
    assert any("SSR 0 user latency nan" in v for v in validate_bucket(nan))
    infinite = make_bucket(ssrs=[make_ssr((make_fn(),)), make_ssr((make_fn(),), latency=math.inf)])
    assert any("SSR 1 user latency inf" in v for v in validate_bucket(infinite))


@pytest.mark.parametrize("link, latency, n_functions, overflows", [
    (1e308, 1e-10, 1, True),  # the link's share of the largest user latency overflows
    (1e308, 1.0, 2, True),  # the share is finite, but a total of two cloud steps is not
    (1e300, 1.0, 2, False),
    (0.0, 1e-300, 2, False),
])
def test_validate_reports_a_link_that_overflows_the_costs(link, latency, n_functions, overflows):
    bucket = make_bucket(ssrs=[make_ssr([make_fn()] * n_functions, latency=latency)], link=link)
    if overflows:
        assert validate_bucket(bucket) == [
            f"link latency {link} over the largest user latency {latency} overflows the costs"]
        with pytest.raises(ValueError, match="overflows the costs"):
            bucket.costs
    else:
        assert validate_bucket(bucket) == []
        all_cloud = (False,) * n_functions
        assert math.isfinite(costs.placement_step_cost_sum(bucket, all_cloud))
        assert math.isfinite(costs.bucket_objective(bucket, all_cloud))


def test_validate_reports_a_negative_link():
    bucket = make_bucket(ssrs=[make_ssr((make_fn(),))], link=-1.0)
    assert validate_bucket(bucket) == ["link latency -1.0 must be finite and >= 0"]

