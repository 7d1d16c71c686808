import base64
import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fogplace
from fogplace.agent import MAX_PARAMETERS, AgentConfig, ValueNetwork, train
from fogplace.baselines import greedy_cost
from fogplace.cli import main
from fogplace.codec import encode
from fogplace.costs import placement_step_cost_sum
from fogplace.experiment import (
    ALGORITHMS,
    MAX_FUNCTIONS,
    ExperimentConfig,
    SweepSettings,
    aggregate_rows,
    load_config,
    run_compare,
    save_config,
    training_env_factory,
)
from fogplace.env import SLOT_WIDTH, PlacementEnv
from fogplace.metrics import PLACEMENT_COLUMNS
from fogplace.model import (
    RESOURCE_KINDS,
    EnvironmentLimits,
    InvalidBucket,
    ResourceVector,
    load_bucket,
    save_bucket,
    validate_bucket,
)
from fogplace.workload import GeneratorConfig, generate_bucket, generate_sweep

import scalar_reference as ref
from conftest import PROPERTY, locations, make_bucket, make_fn, make_ssr


SMALL_AGENT = AgentConfig(episodes=3, hidden_sizes=(8,))


def small_experiment(generator=GeneratorConfig(seed=5), **settings):
    """A small config; ``settings`` replace entries of its experiment section."""
    defaults = dict(sweep=(10, 20), algorithms=("fog_first", "cloud_only"), runs_per_point=2)
    return ExperimentConfig(generator, SMALL_AGENT, SweepSettings(**{**defaults, **settings}))


def test_config_round_trip(tmp_path):
    cfg = small_experiment()
    path = tmp_path / "config.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_validation():
    with pytest.raises(ValueError):
        SweepSettings(sweep=(5,))
    with pytest.raises(ValueError):
        SweepSettings(runs_per_point=0)
    with pytest.raises(ValueError):
        SweepSettings(algorithms=("nonsense",))
    with pytest.raises(ValueError, match=r"^sweep lists an entry twice: \[10, 20, 10\]$"):
        SweepSettings(sweep=(10, 20, 10))
    with pytest.raises(ValueError, match="^algorithms lists an entry twice: "):
        SweepSettings(algorithms=("fog_first", "cloud_only", "fog_first"))


def test_run_compare_shapes_and_sharing():
    cfg = small_experiment()
    rows = run_compare(cfg, net=None)
    assert len(rows) == 2 * 2 * 2  # sweep points x algorithms x runs
    # every algorithm sees the same bucket for a given (total, run)
    by_key = {}
    for row in rows:
        by_key.setdefault((row["total_functions"], row["run"]), []).append(row)
    for members in by_key.values():
        assert len({m["seed"] for m in members}) == 1
        assert len({m["n_functions"] for m in members}) == 1
    cloud_rows = [r for r in rows if r["algorithm"] == "cloud_only"]
    assert all(r["fog_fraction"] == 0.0 for r in cloud_rows)


def test_aggregate_rows_means():
    cfg = small_experiment()
    rows = run_compare(cfg, net=None)
    means = aggregate_rows(rows)
    assert len(means) == 4  # 2 algorithms x 2 sweep points
    group = [r for r in rows
             if r["algorithm"] == "cloud_only" and r["total_functions"] == 10]
    agg = next(m for m in means
               if m["algorithm"] == "cloud_only" and m["total_functions"] == 10)
    assert agg["runs"] == 2
    expected = sum(r["total_step_cost"] for r in group) / len(group)
    assert agg["total_step_cost"] == pytest.approx(expected, abs=1e-12)


# functions whose cpu demand in [1, 3] meets the fog's 2 cores about half the time, and
# functions that all fit the fog: some fog sides and some cloud sides hold no functions
MIXED_GENERATOR = GeneratorConfig(cpu_demand=(1.0, 3.0), ram_demand=(100.0, 1024.0),
                                  storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
                                  code_size=(10.0, 300.0), input_size=(100.0, 1500.0))
FOG_FIT_GENERATOR = dataclasses.replace(MIXED_GENERATOR, cpu_demand=(1.0, 2.0))
# random weights at the compare width: the greedy rollouts take both actions
COMPARE_NET = ValueNetwork(MAX_FUNCTIONS * SLOT_WIDTH + 1, (8,), np.random.default_rng(7))


def reprs(rows):
    """Each row as its (key, repr of value) pairs, in order: equal bits, types and None."""
    return [[(key, repr(value)) for key, value in row.items()] for row in rows]


@PROPERTY
@given(st.lists(st.integers(10, 100), min_size=1, max_size=4, unique=True), st.integers(1, 3),
       st.sampled_from([GeneratorConfig(), MIXED_GENERATOR, FOG_FIT_GENERATOR]),
       st.integers(0, 2**32 - 1), st.booleans(), st.permutations(ALGORITHMS[1:]),
       st.integers(1, 4))
def test_run_compare_equals_the_per_bucket_loop(sweep, runs, generator, seed, defdrel, baselines,
                                                 n_baselines):
    """Unsorted sweeps of uneven sizes: the stacked rows and means equal those of the
    bucket-by-bucket loop, value for value, and ``random`` keeps one draw per fog fit."""
    algorithms = ("defdrel",) * defdrel + tuple(baselines[:n_baselines])
    cfg = ExperimentConfig(dataclasses.replace(generator, seed=seed), SMALL_AGENT,
                           SweepSettings(tuple(sweep), algorithms, runs))
    net = COMPARE_NET if defdrel else None
    rows = run_compare(cfg, net)
    expected = ref.run_compare(cfg, net)
    assert reprs(rows) == reprs(expected)
    assert reprs(aggregate_rows(rows)) == reprs(ref.aggregate_rows(expected))


def set_unchecked(cfg, **changes):
    """The config with these fields set past its checks, which refuse every config that
    could generate an invalid bucket."""
    for name, value in changes.items():
        object.__setattr__(cfg, name, value)
    return cfg


# functions of code size above 480 do not fit the cloud: at seed 0 the sweep's first
# bucket is valid and the second is not
MISFITS = {"cloud": EnvironmentLimits(ResourceVector(6, 5120, 10240, 10240),
                                      code_size_limit=480.0, input_size_limit=2500.0)}
# a link of 1e308 ms over a top user latency near 100 ms overflows the cost totals of
# the 100-function buckets only, the last ones drawn
OVERFLOW = {"link_latency": 1e308}


@pytest.mark.parametrize("changes", [
    MISFITS, OVERFLOW, {**MISFITS, **OVERFLOW},
    {"importance_factors": ResourceVector(0.5, 0.25, 0.25, 0.25)},
], ids=["cloud-misfits", "link-overflow", "misfits-and-overflow", "factor-sum"])
@pytest.mark.parametrize("seed", [0, 1])
def test_run_compare_refuses_an_invalid_bucket_as_the_per_bucket_loop(changes, seed):
    cfg = ExperimentConfig(set_unchecked(GeneratorConfig(seed=seed), **changes), SMALL_AGENT,
                           SweepSettings((30, 10, 100), ALGORITHMS, 2))
    with pytest.raises(InvalidBucket) as expected:
        ref.run_compare(cfg, COMPARE_NET)
    with pytest.raises(InvalidBucket) as raised:
        run_compare(cfg, COMPARE_NET)
    assert str(raised.value) == str(expected.value)


def test_means_add_left_to_right():
    # each 1e-16 rounds away when added to 1.0, so the left-to-right sum is 1.0; an exact
    # or a compensated sum (the builtin sum from Python 3.12 on) is 1.0000000000000002
    values = [1.0, 1e-16, 1e-16]
    assert ref.left_to_right_mean(values) == 1.0 / 3 != math.fsum(values) / 3
    rows = [{"algorithm": "fog_first", "total_functions": 10,
             **dict.fromkeys(PLACEMENT_COLUMNS, value)} for value in values]
    rows.insert(1, {"algorithm": "cloud_only", "total_functions": 10,
                    **dict.fromkeys(PLACEMENT_COLUMNS, None)})
    means = aggregate_rows(rows)
    assert reprs(means) == reprs(ref.aggregate_rows(rows))
    assert [(m["algorithm"], m["runs"], m["objective_sum"]) for m in means] == [
        ("cloud_only", 1, None), ("fog_first", 3, 1.0 / 3)]


def test_cli_train_reports_a_training_fault_as_an_error(tmp_path, capsys):
    """A learning rate of 1e308 is finite, so the config takes it, but the first update
    overflows the parameters."""
    config = tmp_path / "config.json"
    save_config(ExperimentConfig(
        GeneratorConfig(seed=2, n_ssrs=(1, 2), functions_per_ssr=(1, 2)),
        AgentConfig(episodes=10, hidden_sizes=(4,), batch_size=2, replay_capacity=16,
                    learning_rate=1e308)), config)
    with np.errstate(over="ignore"):
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: training fault: episode 1: non-finite network parameters after update\n")


def test_cli_generate_and_validate(tmp_path, capsys):
    out = tmp_path / "bucket.json"
    assert main(["generate", "--seed", "4", "--out", str(out)]) == 0
    bucket = load_bucket(out)
    assert 4 <= len(bucket.function_count) <= 10
    for _, fn in bucket.functions():
        assert 10 <= fn.code_size <= 500
        assert 1 <= fn.critical_value <= 5
    assert main(["validate", str(out)]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--seed", "11", "--out", str(a)]) == 0
    assert main(["generate", "--seed", "11", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_generate_sweep_cardinality(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["generate", "--seed", "2", "--out", str(out), "--sweep-n", "40"]) == 0
    bucket = load_bucket(out)
    assert len(bucket.function_count) == 10
    assert bucket.n_functions == 40


def test_cli_generate_bad_sweep_is_usage_error(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["generate", "--out", str(out), "--sweep-n", "7"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["generate", "--seed", "-1"], "seed must be >= 0, got -1"),
    (["train", "--episodes", "-1"], "episodes must be >= 0"),
])
def test_cli_out_of_domain_flag_is_usage_error(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: invalid command line value: {message}\n"


@pytest.mark.parametrize("command", ["train", "compare"])
def test_cli_rejects_a_negative_agent_seed(tmp_path, capsys, command):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"agent": {"seed": -1, "episodes": 1}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: malformed config {cfg_path}: agent: seed must be >= 0, got -1\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "bucket.json"
    assert main(["generate", "--config", str(bad), "--out", str(out)]) == 2


def test_cli_config_env_var(tmp_path, monkeypatch):
    cfg_path = tmp_path / "config.json"
    save_config(small_experiment(generator=GeneratorConfig(
        seed=8, n_ssrs=(4, 4), functions_per_ssr=(1, 1))), cfg_path)
    monkeypatch.setenv("FOGPLACE_CONFIG", str(cfg_path))
    out = tmp_path / "bucket.json"
    assert main(["generate", "--out", str(out)]) == 0
    assert load_bucket(out).n_functions == 4
    # command line flag beats the config file
    out2 = tmp_path / "bucket2.json"
    assert main(["generate", "--seed", "9", "--out", str(out2)]) == 0
    assert load_bucket(out2) != load_bucket(out)


def test_cli_train_writes_artifacts(tmp_path):
    cfg_path = tmp_path / "config.json"
    save_config(small_experiment(generator=GeneratorConfig(
        seed=1, n_ssrs=(2, 2), functions_per_ssr=(2, 3))), cfg_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out),
                 "--episodes", "2"]) == 0
    assert (out / "checkpoint.json").exists()
    log = (out / "training_log.csv").read_text().strip().splitlines()
    assert log[0] == "episode,total_cost,epsilon,loss"
    assert len(log) == 3


def test_cli_train_zero_episodes_empty_log(tmp_path):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), "--episodes", "0"]) == 0
    log = (out / "training_log.csv").read_text().strip().splitlines()
    assert log == ["episode,total_cost,epsilon,loss"]


def test_cli_compare_requires_checkpoint_for_agent(tmp_path):
    assert main(["compare", "--out", str(tmp_path / "res")]) == 2


def test_cli_compare_baselines_only(tmp_path):
    cfg_path = tmp_path / "config.json"
    save_config(small_experiment(), cfg_path)
    out = tmp_path / "res"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out)]) == 0
    detail = (out / "results_detail.csv").read_text().splitlines()
    header = detail[0].split(",")
    assert header[:5] == ["run", "algorithm", "total_functions", "seed", "n_functions"]
    assert len(detail) == 1 + 8
    mean = (out / "results_mean.csv").read_text().splitlines()
    assert mean[0].split(",")[:3] == ["algorithm", "total_functions", "runs"]
    assert len(mean) == 1 + 4

    # rerun into a second directory: byte-identical outputs
    out2 = tmp_path / "res2"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out / "results_detail.csv").read_bytes() == (out2 / "results_detail.csv").read_bytes()
    assert (out / "results_mean.csv").read_bytes() == (out2 / "results_mean.csv").read_bytes()


def test_cli_compare_with_trained_agent(tmp_path):
    cfg_path = tmp_path / "config.json"
    save_config(small_experiment(
        algorithms=("defdrel", "cloud_only"), sweep=(10,), runs_per_point=1,
    ), cfg_path)
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(run_dir),
                 "--episodes", "2"]) == 0
    out = tmp_path / "res"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out),
                 "--checkpoint", str(run_dir / "checkpoint.json")]) == 0
    detail = (out / "results_detail.csv").read_text().splitlines()
    assert len(detail) == 1 + 2
    assert any(line.split(",")[1] == "defdrel" for line in detail[1:])


def test_cli_oracle_small_bucket(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    save_config(small_experiment(generator=GeneratorConfig(
        seed=3, n_ssrs=(1, 1), functions_per_ssr=(1, 1))), cfg_path)
    out = tmp_path / "bucket.json"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["oracle", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"best_step_cost", "best_step_placement",
                        "best_objective", "best_objective_placement"}
    assert len(doc["best_step_placement"]) == 1


# SSR 0's second function is too large for the fog's 300 MB code limit
ORACLE_GOLDEN = """\
{
  "best_step_cost": 2.9526041666666667,
  "best_step_placement": [
    [
      1,
      0
    ],
    [
      0,
      1
    ],
    [
      1,
      0
    ]
  ],
  "best_objective": 2.8483072916666665,
  "best_objective_placement": [
    [
      1,
      0
    ],
    [
      0,
      1
    ],
    [
      1,
      0
    ]
  ]
}
"""


def test_cli_oracle_stdout_is_pinned(tmp_path, capsys):
    demand = ResourceVector(1, 256, 64, 128)
    bucket = make_bucket(
        ssrs=[
            make_ssr((
                make_fn(demand=demand, priority=2.0),
                make_fn(code=480.0, demand=demand, priority=4.0),
            ), latency=20.0, priority=0.75),
            make_ssr((
                make_fn(demand=ResourceVector(2, 512, 128, 256), priority=3.0),
            ), latency=80.0, priority=0.25),
        ],
    )
    path = tmp_path / "bucket.json"
    save_bucket(bucket, path)
    assert main(["oracle", str(path)]) == 0
    assert capsys.readouterr().out == ORACLE_GOLDEN


def test_cli_oracle_size_limit(tmp_path, capsys):
    # no size limit: a 15-function bucket and the largest sweep bucket are solved
    cfg_path = tmp_path / "config.json"
    save_config(small_experiment(generator=GeneratorConfig(
        seed=3, n_ssrs=(5, 5), functions_per_ssr=(3, 3))), cfg_path)
    small, sweep = tmp_path / "bucket.json", tmp_path / "sweep.json"
    assert main(["generate", "--config", str(cfg_path), "--out", str(small)]) == 0
    assert main(["generate", "--seed", "3", "--sweep-n", "100", "--out", str(sweep)]) == 0
    for path, n in ((small, 15), (sweep, 100)):
        capsys.readouterr()
        assert main(["oracle", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["best_step_placement"]) == len(doc["best_objective_placement"]) == n
        bucket = load_bucket(path)
        greedy = placement_step_cost_sum(bucket, greedy_cost(bucket))
        assert doc["best_step_cost"] == greedy


@pytest.mark.parametrize("command", ["validate", "oracle"])
def test_cli_empty_bucket_is_invalid(tmp_path, capsys, command):
    out = tmp_path / "bucket.json"
    assert main(["generate", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for column in ("function_count", "user_latency", "user_priority"):
        doc[column] = []
    for column in doc["functions"].values():
        column.clear()
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(out)]) == 1
    assert capsys.readouterr().out == "VIOLATION: bucket has no functions\n"


@pytest.mark.parametrize("command", ["validate", "oracle"])
@pytest.mark.parametrize("field", ["code_size", "input_size", *RESOURCE_KINDS])
def test_cli_overflowing_demand_does_not_fit(tmp_path, capsys, command, field):
    out = tmp_path / "bucket.json"
    assert main(["generate", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # far beyond every cloud limit, in the first function of SSR 1
    doc["functions"][field][doc["function_count"][0]] = 1e308
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(out)]) == 1
    assert capsys.readouterr().out == "VIOLATION: function (1, 0) does not fit the cloud limits\n"


@pytest.mark.parametrize("command", ["validate", "oracle"])
def test_cli_malformed_bucket_is_usage_error(tmp_path, capsys, command):
    bad = tmp_path / "bucket.json"
    bad.write_text("{}")
    assert main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed bucket" in err and "version" in err


def test_cli_oracle_validates_bucket_first(tmp_path, capsys):
    out = tmp_path / "bucket.json"
    assert main(["generate", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["importance_factors"]["cpu"] = 0.5
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(out)]) == 1
    expected = capsys.readouterr().out
    assert main(["oracle", str(out)]) == 1
    printed = capsys.readouterr().out
    assert printed == expected
    assert "VIOLATION: importance factors sum 1.25 != 1" in printed


def test_cli_oracle_validates_a_valid_bucket_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bucket.json"
    save_bucket(generate_bucket(GeneratorConfig(seed=3)), path)
    original, calls = fogplace.model.validate_bucket, []

    def counting(bucket):
        calls.append(bucket)
        return original(bucket)

    for name, module in list(sys.modules.items()):  # every fogplace module that binds it
        if name.split(".")[0] == "fogplace" and vars(module).get("validate_bucket") is original:
            monkeypatch.setattr(module, "validate_bucket", counting)
    assert main(["oracle", str(path)]) == 0
    assert len(calls) == 1


# Each edit of a bucket document returns what validate and oracle must print for it.
def zero_ssr_0_priorities(doc):
    count = doc["function_count"][0]
    assert count > 1  # a line per function of SSR 0, in order
    doc["functions"]["priority"][:count] = [0.0] * count
    return "".join(f"VIOLATION: function (0, {j}) priority 0.0 must be finite and > 0\n"
                   for j in range(count))


def negative_priority(doc):
    doc["functions"]["priority"][sum(doc["function_count"][:2]) + 1] = -3.0
    return "VIOLATION: function (2, 1) priority -3.0 must be finite and > 0\n"


def drop_user_priorities(doc):
    del doc["user_priority"]
    return "user_priority: missing"


@pytest.mark.parametrize("command", ["validate", "oracle"])
@pytest.mark.parametrize("edit, code", [
    (zero_ssr_0_priorities, 1),
    (negative_priority, 1),
    (drop_user_priorities, 2),
], ids=["zero-priorities", "negative-priority", "no-user-priorities"])
def test_cli_validate_and_oracle_agree_on_bucket_priorities(tmp_path, capsys, command, edit,
                                                             code):
    out = tmp_path / "bucket.json"
    assert main(["generate", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    expected = edit(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(out)]) == code
    printed = capsys.readouterr()
    if code == 1:
        assert printed.out == expected
    else:
        assert printed.err == f"error: malformed bucket {out}: {expected}\n"


def test_cli_compare_rejects_checkpoint_of_wrong_width(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    save_config(small_experiment(
        generator=GeneratorConfig(seed=1, n_ssrs=(2, 2), functions_per_ssr=(3, 3)),
        algorithms=("defdrel",), sweep=(10,), runs_per_point=1,
    ), cfg_path)
    # train at the bucket's own width (12 inputs) rather than the compare width
    result = train(lambda episode: PlacementEnv(generate_bucket(GeneratorConfig(
        seed=1, n_ssrs=(1, 1), functions_per_ssr=(1, 1)))), SMALL_AGENT)
    assert result.net.input_size == 12
    checkpoint = tmp_path / "narrow.json"
    result.net.save(checkpoint)
    out = tmp_path / "res"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out),
                 "--checkpoint", str(checkpoint)]) == 2
    assert "takes 12 inputs" in capsys.readouterr().err
    assert not (out / "results_detail.csv").exists()


def set_at(doc, keys, value):
    """Set the value at ``keys``; True when the document had no such key before."""
    for key in keys[:-1]:
        doc = doc[key]
    added = isinstance(doc, dict) and keys[-1] not in doc
    doc[keys[-1]] = value
    return added


NAN = float("nan")


@pytest.mark.parametrize("command, keys, value, path", [
    ("validate", ("fog", "code_size_limit"), NAN, "fog.code_size_limit"),
    ("validate", ("functions", "critical_value", 0), 3.7, "functions.critical_value[0]"),
    ("validate", ("functions", "code_size", 0), "12.5", "functions.code_size[0]"),
    ("validate", ("extra",), 1, "extra"),
    # users, ssrs, the fog's link_latency and base_demand: keys of older bucket formats
    ("validate", ("users",), [{"id": 0, "latency": 20.0, "priority": 0.5}], "users"),
    ("oracle", ("functions", "priority", 0), NAN, "functions.priority[0]"),
    ("oracle", ("ssrs",), [{"user_latency": 20.0, "user_priority": 0.5, "functions": []}],
     "ssrs"),
    ("oracle", ("function_count", 1), 1.5, "function_count[1]"),
    ("validate", ("fog", "link_latency"), 0.0, "fog.link_latency"),
    ("validate", ("functions", "base_demand"), [1.0, 100.0, 10.0, 10.0],
     "functions.base_demand"),
    ("validate", ("function_count", 0), 10**19, "(root)"),  # a count beyond int64
], ids=[  # fixed, so that no change of the bucket format renames a case
    "validate-keys0-nan-fog.code_size_limit",
    "validate-keys1-3.7-functions.critical_value[0]",
    "validate-keys2-12.5-functions.code_size[0]",
    "validate-keys3-1-extra",
    "validate-keys4-value4-users",
    "oracle-keys5-nan-functions.priority[0]",
    "oracle-keys6-value6-ssrs",
    "oracle-keys7-1.5-function_count[1]",
    "validate-keys8-0.0-fog.link_latency",
    "validate-keys9-value9-functions.base_demand",
    "validate-keys10-10000000000000000000-(root)",
])
def test_cli_rejects_malformed_bucket(tmp_path, capsys, command, keys, value, path):
    cfg_path = tmp_path / "config.json"
    save_config(small_experiment(generator=GeneratorConfig(
        seed=3, n_ssrs=(2, 2), functions_per_ssr=(2, 2))), cfg_path)
    out = tmp_path / "bucket.json"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    unknown = set_at(doc, keys, value)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed bucket {out}: {path}: ")
    if unknown:
        assert captured.err == f"error: malformed bucket {out}: {path}: unknown key\n"


@pytest.mark.parametrize("doc, path", [
    ({"generator": {"seed": "3"}}, "generator.seed"),
    ({"generator": {"seed": 3.5}}, "generator.seed"),
    ({"generator": {"sede": 3}}, "generator.sede"),
    ({"genrator": {"seed": 3}}, "genrator"),
    ({"agent": {"hidden_sizes": "64"}}, "agent.hidden_sizes"),
    ({"agent": {"learning_rate": NAN}}, "agent.learning_rate"),
    ({"agent": {"episodes": True}}, "agent.episodes"),
    ({"generator": {"fog": {"code_size_limit": 300.0}}}, "generator.fog.per_function_cap"),
    ({"experiment": {"sweep": [5]}}, "experiment"),
    ({"experiment": []}, "experiment"),
    ([1, 2], "(root)"),
    ({"generator": {"n_ssrs": [0, 0]}}, "generator"),
    ({"generator": {"functions_per_ssr": [0, 4]}}, "generator"),
    ({"generator": {"critical_value": [0, 7]}}, "generator"),
    ({"generator": {"critical_value": [2, 6]}}, "generator"),
    ({"generator": {"seed": -1}}, "generator"),
    ({"experiment": {"algorithms": ["fog_first", "fog_first"], "sweep": [10, 10],
                     "runs_per_point": 1}}, "experiment"),
    # the one link latency is the generator's; the fog's of the older format is unknown
    ({"generator": {"fog": {**encode(GeneratorConfig().fog), "link_latency": 0.0}}},
     "generator.fog.link_latency"),
    # a replay that never holds a batch would train without a gradient step
    ({"agent": {"episodes": 3, "batch_size": 64, "replay_capacity": 10}}, "agent"),
    # buckets of more than 2**20 functions: about 7e12 functions, were one generated
    ({"generator": {"n_ssrs": [1, 2**40]}}, "generator"),
    ({"generator": {"functions_per_ssr": [1, 2**32]}}, "generator"),
    ({"generator": {"n_ssrs": [2**40, 2**40]}}, "generator"),
    ({"generator": {"functions_per_ssr": [2**33, 2**33]}}, "generator"),
])
def test_cli_rejects_malformed_config(tmp_path, capsys, doc, path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "bucket.json"
    assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed config {cfg_path}: {path}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "train"])
@pytest.mark.parametrize("field", ["sweep", "algorithms"])
def test_cli_refuses_an_empty_sweep_or_algorithm_list(tmp_path, capsys, command, field):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"experiment": {
        "sweep": [10], "algorithms": ["fog_first"], "runs_per_point": 1, field: []}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: malformed config {cfg_path}: experiment: "
                            f"{field} is empty: compare would write no rows\n")
    assert not out.exists()


FOG_CPU_ABOVE_CLOUD = {
    "per_function_cap": {"cpu": 8, "ram": 1024, "storage": 1024, "net_io": 2048},
    "code_size_limit": 300.0, "input_size_limit": 1500.0,
}


# generator sections that decode field by field but cannot generate a valid bucket
@pytest.mark.parametrize("command", ["generate", "train", "compare"])
@pytest.mark.parametrize("generator, message", [
    ({"cpu_demand": [1, 10]}, "cpu_demand range max 10 exceeds the cloud limit 6"),
    ({"distance_cap": 0}, "distance cap 0 must be finite and > 0"),
    ({"latency": [-5, 100]}, "latency range has min -5 <= 0"),
    ({"priority_blend": 2}, "priority blend 2 outside [0, 1]"),
    ({"delta": 0}, "delta must be > 0 with a finite 1/delta, got 0"),
    ({"importance_factors": {"cpu": 0.5, "ram": 0.5, "storage": 0.5, "net_io": 0.5}},
     "importance factors sum 2.0 != 1"),
    ({"fog": FOG_CPU_ABOVE_CLOUD}, "fog per-function cap exceeds cloud cap in some component"),
    ({"link_latency": -1.0}, "link latency -1.0 must be finite and >= 0"),
    ({"link_latency": 1e308, "latency": [1e-10, 1.0]},
     "link latency 1e+308 over the latency range min 1e-10 overflows the costs"),
], ids=["cpu-demand", "distance-cap", "latency", "blend", "delta", "factors", "fog-cap",
        "fog-link", "link-overflow"])
def test_cli_rejects_config_that_cannot_generate(tmp_path, capsys, command, generator, message):
    cfg_path = tmp_path / "config.json"
    # without defdrel, compare needs no checkpoint and goes straight to generation
    cfg_path.write_text(json.dumps({"generator": generator, "experiment": {
        "sweep": [10], "algorithms": ["fog_first"], "runs_per_point": 1}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: malformed config {cfg_path}: generator: {message}\n"
    assert captured.out == ""
    assert not out.exists()


# a 401-digit JSON integer: an int decodes as itself, but this one is beyond the float range
@pytest.mark.parametrize("command", ["generate", "train", "compare"])
def test_cli_refuses_an_integer_beyond_the_float_range(tmp_path, capsys, command):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"generator": {"n_ssrs": [1, 10**400]}, "experiment": {
        "sweep": [10], "algorithms": ["fog_first"], "runs_per_point": 1}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: malformed config {cfg_path}: generator.n_ssrs[1]: not finite\n"
    assert not out.exists()


def test_cli_train_refuses_a_network_larger_than_the_cap(tmp_path, capsys, monkeypatch):
    assert MAX_FUNCTIONS * SLOT_WIDTH + 1 == 1101  # the input width the cap is counted at
    wide = (4096, 4096)  # 21 million parameters
    assert AgentConfig(hidden_sizes=wide).hidden_sizes == wide
    monkeypatch.setattr(fogplace.cli, "train", lambda *args: pytest.fail("training started"))
    cfg_path = tmp_path / "config.json"
    for sizes in ([64, 100_000_000], [4096] * 3, [4096] * 200, [40_000]):
        cfg_path.write_text(json.dumps({"agent": {"hidden_sizes": sizes}}))
        assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == (
            f"error: malformed config {cfg_path}: agent: hidden_sizes: each must be >= 1, "
            f"for at most {MAX_PARAMETERS} parameters at 1101 inputs, got {sizes}\n")
    assert not (tmp_path / "run").exists()


def per_function_format(doc):
    """A version-2 bucket document in the unversioned per-function format before it."""
    rows = [dict(zip(doc["functions"], values)) for values in zip(*doc["functions"].values())]
    ssrs, start = [], 0
    for count, latency, priority in zip(doc["function_count"], doc["user_latency"],
                                        doc["user_priority"]):
        ssrs.append({"user_latency": latency, "user_priority": priority, "functions": [
            {"code_size": row["code_size"], "input_size": row["input_size"],
             "critical_value": row["critical_value"], "priority": row["priority"],
             "demand": {kind: row[kind] for kind in RESOURCE_KINDS}}
            for row in rows[start:start + count]]})
        start += count
    return {"ssrs": ssrs, **{key: doc[key]
                             for key in ("link_latency", "fog", "cloud", "importance_factors")}}


@pytest.mark.parametrize("command", ["validate", "oracle"])
def test_cli_refuses_a_bucket_file_of_another_version(tmp_path, capsys, command):
    out = tmp_path / "bucket.json"
    assert main(["generate", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for other, version in ((per_function_format(doc), "null"), ({**doc, "version": 1}, "1")):
        out.write_text(json.dumps(other))
        capsys.readouterr()
        assert main([command, str(out)]) == 2
        assert capsys.readouterr().err == (f"error: malformed bucket {out}: version: "
                                           f"unsupported bucket version {version}, expected 2\n")


def test_cli_train_refuses_buckets_wider_than_the_encoder(tmp_path, capsys):
    # 20 SSRs of 10 functions: 200 functions, but a training state encodes 100
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "generator": {"n_ssrs": [20, 20], "functions_per_ssr": [10, 10]},
        "agent": {"episodes": 2}}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: invalid config: the generator draws buckets of up to 200 "
                            "functions, but training encodes at most 100\n")
    assert not out.exists()
    # generate draws from both ranges, and compare's sweep from neither
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "b.json")]) == 0
    assert load_bucket(tmp_path / "b.json").n_functions == 200
    widest = ExperimentConfig(GeneratorConfig(n_ssrs=(10, 10), functions_per_ssr=(10, 10)))
    assert training_env_factory(widest)(0).max_functions == 100


def test_config_sections_may_be_partial(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"agent": {"episodes": 7}, "experiment": {"sweep": [30]}}))
    assert load_config(path) == ExperimentConfig(
        agent=AgentConfig(episodes=7), experiment=SweepSettings(sweep=(30,)))
    path.write_text("{}")
    assert load_config(path) == ExperimentConfig()


def base64_floats(values):
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


@pytest.mark.parametrize("doc, path", [
    ({"version": 2, "sizes": [1101, 2], "weights": [base64_floats([0.0] * 2202)],
      "biases": [base64_floats([0.0, 0.0])]}, "version"),
    ({"version": 3}, "sizes"),
    ([1], "(root)"),
    ({"version": 1, "sizes": [1101, 2], "weights": [[[0.0, 0.0]] * 1101],
      "biases": [[0.0, 0.0]]}, "version"),
    # named as when version 1 refused these cases at weights[0]
    pytest.param({"version": 3, "sizes": [1101, 2], "params": base64_floats([0.0] * 2202)},
                 "params", id="doc4-weights[0]"),  # one row short
    pytest.param({"version": 3, "sizes": [1101, 2],
                  "params": base64_floats([0.0, NAN] * 1101 + [0.0, 0.0])},
                 "params", id="doc5-weights[0]"),
    # consistent params, but not one Q-value per action
    ({"version": 3, "sizes": [1101, 1], "params": base64_floats([0.0] * 1102)}, "sizes"),
    ({"version": 3, "sizes": [1101, 3], "params": base64_floats([0.0] * 3306)}, "sizes"),
])
def test_cli_compare_rejects_malformed_checkpoint(tmp_path, capsys, doc, path):
    cfg_path = tmp_path / "config.json"
    save_config(small_experiment(algorithms=("defdrel",), sweep=(10,), runs_per_point=1),
                cfg_path)
    checkpoint = tmp_path / "checkpoint.json"
    checkpoint.write_text(json.dumps(doc))
    out = tmp_path / "res"
    assert main(["compare", "--config", str(cfg_path), "--out", str(out),
                 "--checkpoint", str(checkpoint)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: malformed checkpoint {checkpoint}: {path}: ")
    assert not (out / "results_detail.csv").exists()


@pytest.mark.parametrize("command", ["validate", "oracle"])
def test_cli_bucket_that_is_not_json_is_usage_error(tmp_path, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main([command, str(bad)]) == 2


NOT_UTF8 = b"\xff\xfe\x00garbage"


# a config that is not JSON, and a bucket that is not JSON, have tests of their own
@pytest.mark.parametrize("kind, content", [
    ("config", None), ("bucket", None), ("checkpoint", None), ("checkpoint", b"{not json"),
    ("config", NOT_UTF8), ("bucket", NOT_UTF8), ("checkpoint", NOT_UTF8),
], ids=["missing-config", "missing-bucket", "missing-checkpoint", "checkpoint-not-json",
        "config-not-utf8", "bucket-not-utf8", "checkpoint-not-utf8"])
def test_cli_input_file_that_cannot_be_read_is_usage_error(tmp_path, capsys, kind, content):
    path = tmp_path / f"{kind}.json"
    if content is not None:
        path.write_bytes(content)
    cfg_path = tmp_path / "small.json"
    save_config(small_experiment(algorithms=("defdrel",), sweep=(10,), runs_per_point=1),
                cfg_path)
    argv = {
        "config": ["generate", "--config", str(path), "--out", str(tmp_path / "out.json")],
        "bucket": ["oracle", str(path)],
        "checkpoint": ["compare", "--config", str(cfg_path), "--checkpoint", str(path),
                       "--out", str(tmp_path / "res")],
    }[kind]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot load {kind} {path}: ")
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "res").exists()


@pytest.mark.parametrize("command", ["validate", "oracle"])
@pytest.mark.parametrize("change, violation", [
    # the costs divide the fog-cloud link by the largest user latency: 1e318 overflows
    ({"link_latency": 1e308},
     "link latency 1e+308 over the largest user latency 1e-10 overflows the costs"),
], ids=["fog-link"])
def test_cli_reports_bucket_data_the_costs_would_ignore(tmp_path, capsys, command, change,
                                                         violation):
    bucket = make_bucket(ssrs=[make_ssr((make_fn(),), latency=1e-10),
                               make_ssr((make_fn(), make_fn()), latency=1e-10)])
    path = tmp_path / "bucket.json"
    save_bucket(dataclasses.replace(bucket, **change), path)
    assert main([command, str(path)]) == 1
    assert capsys.readouterr().out == f"VIOLATION: {violation}\n"


def test_output_digests_tool_prints_one_line_per_output():
    root = Path(__file__).resolve().parent.parent
    src = str(Path(fogplace.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(root / "tools" / "output_digests.py")],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert [re.fullmatch(r"[0-9a-f]{64}  (.+)", line).group(1) for line in lines] == [
        "saved_config.json", "bucket.json", "sweep.json", "run/checkpoint.json",
        "run/training_log.csv", "results/results_detail.csv", "results/results_mean.csv",
        "bucket arrays", "sweep arrays", "run/checkpoint params", "oracle stdout",
        "validate stdout",
        "cost_model_walkthrough.py stdout",
        "wrap/checkpoint.json", "wrap/training_log.csv", "wrap/checkpoint params",
        "mixed/results_detail.csv", "mixed/results_mean.csv",
        "sweep100.json", "point.json", "two_critical.json",
        "ragged/results_detail.csv", "ragged/results_mean.csv",
    ]


# ---- whole files mutated through the command line ---------------------------

# Odd JSON values: zeros, a subnormal, ends of the float and int64 ranges, an int
# beyond the float range, wrong types, fractions, small counts, and large counts that
# the generator's bucket cap and the checkpoint's size check must refuse before they
# allocate.
ODD_VALUES = [0, -1, -0.0, 1e-320, 1e308, 10**400, 2**63, True, None, "x", [], {}, [1], 0.5,
              5, 6, 1e-12, 1e12, 2**40, 10**12]
# Buckets of at most 4 functions and one 4-unit hidden layer: one episode does not fill
# a batch of 8 rows, so only mutated values make a run large or let it update.
TINY = ExperimentConfig(
    GeneratorConfig(seed=2, n_ssrs=(1, 2), functions_per_ssr=(1, 2)),
    AgentConfig(episodes=1, hidden_sizes=(4,), batch_size=8, replay_capacity=16),
    SweepSettings(sweep=(10,), algorithms=ALGORITHMS, runs_per_point=1))


@st.composite
def mutated(draw, doc):
    """A copy of ``doc`` with one to three values set to odd values, a key deleted, or
    a list repeated 0-3 times."""
    doc = json.loads(json.dumps(doc))
    places = list(locations(doc))
    keys_of = {"delete": [keys for keys, _ in places if keys and isinstance(keys[-1], str)],
               "repeat": [keys for keys, value in places if isinstance(value, list)]}
    kind = draw(st.sampled_from(["set", "delete", "repeat"]))
    if kind == "set" or not keys_of[kind]:
        for _ in range(draw(st.integers(1, 3))):
            keys, _ = draw(st.sampled_from(list(locations(doc))))
            value = draw(st.sampled_from(ODD_VALUES))
            if keys:
                set_at(doc, keys, value)
            else:
                doc = value
        return doc
    keys = draw(st.sampled_from(keys_of[kind]))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = parent[keys[-1]] * draw(st.integers(0, 3))
    return doc


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A directory with the tiny config, a bucket it generates and a checkpoint at the
    compare width."""
    work = tmp_path_factory.mktemp("tiny")
    save_config(TINY, work / "config.json")
    assert main(["generate", "--config", str(work / "config.json"),
                 "--out", str(work / "bucket.json")]) == 0
    assert main(["train", "--config", str(work / "config.json"), "--out", str(work)]) == 0
    return work


@settings(PROPERTY, max_examples=120)
@given(st.sampled_from(["config", "bucket", "checkpoint"]), st.data())
def test_cli_exits_cleanly_on_mutated_files(tmp_path, capsys, tiny, kind, data):
    """A config goes through ``generate`` and a one-episode ``train`` (a mutated
    ``runs_per_point`` of 10**12 is a valid compare of 10**12 runs, so configs skip
    ``compare``); a bucket through ``validate`` and ``oracle``; a checkpoint through
    ``compare`` with the tiny config."""
    path = tmp_path / f"mutated-{kind}.json"
    path.write_text(json.dumps(data.draw(mutated(json.loads((tiny / f"{kind}.json").read_text())))))
    out = str(tmp_path / "out")
    commands = {
        "config": [["generate", "--config", str(path), "--out", str(tmp_path / "b.json")],
                   ["train", "--config", str(path), "--episodes", "1", "--out", out]],
        "bucket": [["validate", str(path)], ["oracle", str(path)]],
        "checkpoint": [["compare", "--config", str(tiny / "config.json"), "--checkpoint", str(path),
                        "--out", out]],
    }[kind]
    for argv in commands:
        capsys.readouterr()
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        lines = (captured.out + captured.err).splitlines()
        assert code == 0 or any(line.startswith(("error: ", "VIOLATION: ")) for line in lines), (
            argv, code, lines)
