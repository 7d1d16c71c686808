import dataclasses
import math

import numpy as np
import pytest

import scalar_reference as ref
from fogplace import costs, metrics
from fogplace.codec import DecodeError
from fogplace.env import PlacementEnv
from fogplace.model import (
    ResourceVector,
    RESOURCE_KINDS,
    TABLE_COLUMNS,
    cloud_feasible,
    decode_bucket,
    encode_bucket,
    fog_feasible,
    load_bucket,
    save_bucket,
    validate_bucket,
)
from fogplace.workload import GeneratorConfig, generate_bucket, generate_sweep

from conftest import bucket_objective, make_bucket, make_fn, make_limits, make_ssr


def test_resource_kinds_fixed_order():
    assert RESOURCE_KINDS == ("cpu", "ram", "storage", "net_io")
    vector = ResourceVector(1, 2, 3, 4)
    assert tuple(getattr(vector, kind) for kind in RESOURCE_KINDS) == vector.as_tuple()


def test_resource_vector_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        ResourceVector(cpu=-1)
    with pytest.raises(ValueError):
        ResourceVector(ram=math.inf)


@pytest.mark.parametrize("limit", ["code", "input_size"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_environment_limits_reject_a_size_limit_not_finite_and_positive(limit, bad):
    with pytest.raises(ValueError, match="size limits must be finite and > 0"):
        make_limits(**{limit: bad})


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
    for critical in (0, 6):
        with pytest.raises(DecodeError, match=r"^functions.critical_value\[1\]: must be in 1..5"):
            make_bucket([make_ssr([make_fn(), make_fn(critical=critical)])])


def test_bucket_serialization_round_trip(tmp_path):
    bucket = generate_bucket(GeneratorConfig(seed=4))
    path = tmp_path / "bucket.json"
    save_bucket(bucket, path)
    loaded = load_bucket(path)
    # exact round trip: ints bit-for-bit, floats via JSON repr (shortest exact)
    assert loaded.table.tobytes() == bucket.table.tobytes()
    assert encode_bucket(loaded) == encode_bucket(bucket)


@pytest.mark.parametrize("table_shape, counts, message", [
    ((8, 16), [8, 8], r"^functions: expected a table of 8 columns, got shape \(8, 16\)$"),
    ((128,), [8, 8], r"^functions: expected a table of 8 columns, got shape \(128,\)$"),
    # truncated, these would be counts of 7 and 9 that sum to the 16 rows
    ((16, 8), [7.9, 9.9], "^function_count: every count must be an integer$"),
    ((16, 8), [math.nan, 8], "^function_count: every count must be an integer$"),
], ids=["transposed-table", "flat-table", "fractional-counts", "nan-count"])
def test_bucket_refuses_a_table_or_count_it_would_coerce(table_shape, counts, message):
    bucket = generate_bucket(GeneratorConfig(seed=4, n_ssrs=(2, 2), functions_per_ssr=(8, 8)))
    with pytest.raises(DecodeError, match=message):
        dataclasses.replace(bucket, table=bucket.table.reshape(table_shape),
                            function_count=counts)


def test_bucket_costs_is_built_once_per_bucket():
    bucket = generate_bucket(GeneratorConfig(seed=4))
    doc = encode_bucket(bucket)
    ctx = bucket.costs
    assert bucket.costs is ctx
    # the cache is no field: the file format ignores it
    copy = dataclasses.replace(bucket)
    assert encode_bucket(copy) == encode_bucket(bucket) == doc
    assert copy.costs is not ctx
    assert copy.costs.fog_step.tolist() == ctx.fog_step.tolist()
    slower = dataclasses.replace(bucket, link_latency=2 * bucket.link_latency)
    assert slower.costs.norm_link == 2 * ctx.norm_link


def test_bucket_table_is_built_once_per_bucket():
    bucket = generate_bucket(GeneratorConfig(seed=4))
    table, starts = bucket.table, bucket.starts
    validate_bucket(bucket)
    PlacementEnv(bucket)
    metrics.report(bucket, [(False,) * bucket.n_functions])
    assert bucket.table is table and bucket.starts is starts
    for column in (table, starts, bucket.function_count, bucket.user_latency,
                   bucket.user_priority):
        assert not column.flags.writeable
    assert starts.tolist() == np.cumsum([0, *bucket.function_count[:-1]]).tolist()
    # the function objects are built on request, one per row
    assert table.tolist() == ref.function_table(bucket)
    copy = dataclasses.replace(bucket)
    assert copy.table is not table
    assert copy.table.tolist() == table.tolist()


# about half of these functions fit the fog: a cpu demand in [1, 3] against its 2 cores
HALF_FIT = GeneratorConfig(cpu_demand=(1.0, 3.0), ram_demand=(100.0, 1024.0),
                           storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
                           code_size=(10.0, 300.0), input_size=(100.0, 1500.0))


def test_scalar_fit_tests_agree_with_the_reference():
    outcomes = set()
    for cfg in (GeneratorConfig(), HALF_FIT):
        for seed in range(5):
            bucket = generate_sweep(cfg, 60, seed=seed)
            for _, fn in bucket.functions():
                for limits in (bucket.fog, bucket.cloud):
                    expected = ref.fits_platform(fn, limits)
                    assert fog_feasible(fn, limits) is cloud_feasible(fn, limits) is expected
                    outcomes.add(expected)
    assert outcomes == {True, False}


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
        assert math.isfinite(bucket_objective(bucket, all_cloud))


def test_validate_reports_a_negative_link():
    bucket = make_bucket(ssrs=[make_ssr((make_fn(),))], link=-1.0)
    assert validate_bucket(bucket) == ["link latency -1.0 must be finite and >= 0"]


# ---- bucket files --------------------------------------------------------

def set_value(column, index, value):
    """An edit of a bucket document: one entry of a per-SSR or a function column."""
    def edit(doc):
        (doc["functions"] if column in TABLE_COLUMNS else doc)[column][index] = value
    return edit


SSR_COLUMNS = ("(root): function_count, user_latency and user_priority must hold one entry "
               "per SSR, the counts >= 0 and summing to 4")


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(version=1), "version: unsupported bucket version 1, expected 2"),
    (lambda doc: doc.pop("version"), "version: unsupported bucket version null, expected 2"),
    (set_value("critical_value", 1, 0), "functions.critical_value[1]: must be in 1..5, got 0.0"),
    (set_value("code_size", 3, 0.0), "functions.code_size[3]: must be > 0, got 0.0"),
    (set_value("input_size", 2, -1.0), "functions.input_size[2]: must be >= 0, got -1.0"),
    (set_value("ram", 0, -0.5), "functions.ram[0]: must be finite and >= 0, got -0.5"),
    (set_value("code_size", 3, math.inf), "functions.code_size[3]: not finite"),
    (set_value("user_latency", 1, 10**400), "user_latency[1]: not finite"),
    (lambda doc: doc["functions"]["net_io"].pop(),
     "functions: columns of unequal lengths: one entry per function each"),
    (lambda doc: doc["user_priority"].pop(), SSR_COLUMNS),
    (set_value("function_count", 0, 3), SSR_COLUMNS),
    (set_value("function_count", 0, -1), SSR_COLUMNS),
    (set_value("function_count", 0, 10**19), SSR_COLUMNS),  # beyond int64
    # four counts whose int64 sum wraps round to the 4 functions
    (lambda doc: doc.update(function_count=[2**62] * 3 + [2**62 + 4], user_latency=[1.0] * 4,
                            user_priority=[0.5] * 4), SSR_COLUMNS),
], ids=["version", "no-version", "critical-value", "code-size", "input-size", "demand",
        "not-finite", "int-not-finite", "function-columns", "ssr-columns", "count-sum",
        "negative-count", "count-beyond-int64", "count-sum-wraps"])
def test_bucket_document_refusals_name_the_column_and_index(edit, message):
    doc = encode_bucket(generate_bucket(GeneratorConfig(seed=3, n_ssrs=(2, 2),
                                                        functions_per_ssr=(2, 2))))
    decode_bucket(doc)
    edit(doc)
    with pytest.raises(DecodeError) as info:
        decode_bucket(doc)
    assert str(info.value) == message
