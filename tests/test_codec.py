"""The strict JSON codec: decoding rules, round trips, and totality on mutated documents."""
import dataclasses
import json
from typing import Any

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fogplace.agent import AgentConfig, EpisodeRecord
from fogplace.codec import DecodeError, decode, encode
from fogplace.env import Action, PlacementEnv
from fogplace.experiment import (
    ALGORITHMS,
    ExperimentConfig,
    SweepSettings,
    load_config,
    save_config,
)
from fogplace.model import (
    RESOURCE_KINDS,
    EnvironmentLimits,
    ResourceVector,
    SSRBucket,
    load_bucket,
    save_bucket,
    validate_bucket,
)
from fogplace.workload import GeneratorConfig, generate_bucket, generate_sweep

from conftest import PROPERTY, generated_buckets


@dataclasses.dataclass(frozen=True)
class Leaf:
    count: int
    share: float
    label: str
    note: float

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be >= 0")


@dataclasses.dataclass(frozen=True)
class Tree:
    leaves: tuple[Leaf, ...]
    corner: tuple[float, int]
    extra: Any
    tag: str


LEAF = {"count": 1, "share": 0.5, "label": "a", "note": 0.0}


def tree_doc(**leaf):
    return {"leaves": [LEAF, {**LEAF, **leaf}], "corner": [1.5, 2], "extra": [1, "x"], "tag": "t"}


@pytest.mark.parametrize("leaf, expected", [
    ({}, Leaf(1, 0.5, "a", 0.0)),
    ({"count": 3.0}, Leaf(3, 0.5, "a", 0.0)),  # an integral float is an int
    ({"share": 2}, Leaf(1, 2, "a", 0.0)),  # an int is a float, kept as written
    ({"note": 4.25}, Leaf(1, 0.5, "a", 4.25)),
])
def test_decode_accepts(leaf, expected):
    tree = decode(Tree, tree_doc(**leaf))
    assert tree.leaves[1] == expected
    assert tree.corner == (1.5, 2) and tree.extra == [1, "x"] and tree.tag == "t"


def test_decode_keeps_exact_ints_and_rounds_the_rest():
    assert type(decode(Tree, tree_doc(share=2)).leaves[1].share) is int
    share = decode(Tree, tree_doc(share=2**53 + 1)).leaves[1].share
    assert type(share) is float and share == float(2**53 + 1)


@pytest.mark.parametrize("leaf, message", [
    ({"count": True}, "leaves[1].count: expected an integer, got true"),
    ({"count": 3.7}, "leaves[1].count: expected an integer, got 3.7"),
    ({"count": "3"}, 'leaves[1].count: expected an integer, got "3"'),
    ({"count": float("inf")}, "leaves[1].count: not finite"),
    ({"share": False}, "leaves[1].share: expected a number, got false"),
    ({"share": "0.5"}, 'leaves[1].share: expected a number, got "0.5"'),
    ({"share": float("nan")}, "leaves[1].share: not finite"),
    ({"share": 10**400}, "leaves[1].share: not finite"),
    ({"share": None}, "leaves[1].share: expected a number, got null"),
    ({"share": [0.5]}, "leaves[1].share: expected a number, got an array"),
    ({"note": float("-inf")}, "leaves[1].note: not finite"),
    ({"label": 7}, "leaves[1].label: expected a string, got 7"),
    ({"colour": "red"}, "leaves[1].colour: unknown key"),
    ({"count": -1}, "leaves[1]: count must be >= 0"),
])
def test_decode_rejects(leaf, message):
    with pytest.raises(DecodeError) as info:
        decode(Tree, tree_doc(**leaf))
    assert str(info.value) == message


@pytest.mark.parametrize("doc, message", [
    ([LEAF], "(root): expected an object, got an array"),
    ({"leaves": [], "corner": [1.5]}, "corner: expected 2 entries, got 1"),
    ({"leaves": [], "corner": [1.5, 2, 3], "extra": 0}, "corner: expected 2 entries, got 3"),
    ({"leaves": {}, "corner": [1.5, 2], "extra": 0}, "leaves: expected an array, got an object"),
    ({"leaves": [], "corner": [1.5, 2]}, "extra: missing"),
    ({"leaves": [{"count": 1}], "corner": [1.5, 2], "extra": 0}, "leaves[0].share: missing"),
])
def test_decode_rejects_shapes(doc, message):
    with pytest.raises(DecodeError) as info:
        decode(Tree, doc)
    assert str(info.value) == message


def episode_record():
    bucket = generate_bucket(GeneratorConfig(seed=5, n_ssrs=(2, 3), functions_per_ssr=(2, 4)))
    env = PlacementEnv(bucket)
    rng = np.random.default_rng(1)
    state, actions, step_costs = env.reset(), [], []
    while not state.done:
        feasible = [a for a in (Action.FOG, Action.CLOUD) if state.mask[a]]
        action = feasible[int(rng.integers(len(feasible)))]
        outcome = env.step(state, action)
        actions.append(int(action))
        step_costs.append(outcome.cost)
        state = outcome.next_state
    return EpisodeRecord(tuple(actions), tuple(step_costs))


ROUND_TRIP_INPUTS = {
    "bucket": lambda: generate_bucket(GeneratorConfig(seed=4)),
    "sweep-bucket": lambda: generate_sweep(GeneratorConfig(seed=4), 40),
    "generator-config": lambda: GeneratorConfig(seed=9, n_ssrs=(2, 3), latency=(1.0, 10.0)),
    "agent-config": lambda: AgentConfig(episodes=12, hidden_sizes=(8, 8), seed=4),
    "experiment-config": lambda: ExperimentConfig(
        experiment=SweepSettings(sweep=(10, 30), runs_per_point=2)),
    "episode-record": episode_record,
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP_INPUTS))
def test_round_trip(name):
    obj = ROUND_TRIP_INPUTS[name]()
    assert decode(type(obj), json.loads(json.dumps(encode(obj)))) == obj


# ---- property tests ------------------------------------------------------

def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def ordered(elements):
    return st.tuples(elements, elements).map(lambda pair: tuple(sorted(pair)))


positive_vectors = st.builds(ResourceVector, *[finite(1e-3, 1e5)] * 4)
limits = st.builds(EnvironmentLimits, positive_vectors, finite(1e-3, 1e4), finite(1e-3, 1e4))
shares = st.tuples(*[finite(1e-3, 1.0)] * 4)


def within_limit(draw, limit):
    """A range inside (0, limit]."""
    lo, hi = draw(ordered(finite(1e-3, 1.0)))
    return (lo * limit, hi * limit)


@st.composite
def generator_configs(draw):
    """Generator configs that can generate: fog caps at most the cloud caps, a link
    latency of at most 1000, every range inside the cloud limits with minima > 0,
    normalised importance factors, delta > 0."""
    cloud = draw(limits)
    cap = cloud.per_function_cap
    fog = dataclasses.replace(draw(limits), per_function_cap=ResourceVector(
        *(c * share for c, share in zip(cap.as_tuple(), draw(shares)))))
    weights = draw(st.tuples(*[finite(0.0, 1.0)] * 4).filter(lambda w: sum(w) > 1e-3))
    return GeneratorConfig(
        seed=draw(st.integers(0, 2**63)),
        n_ssrs=draw(ordered(st.integers(1, 20))),
        functions_per_ssr=draw(ordered(st.integers(1, 20))),
        code_size=within_limit(draw, cloud.code_size_limit),
        input_size=within_limit(draw, cloud.input_size_limit),
        **{f"{kind}_demand": within_limit(draw, getattr(cap, kind)) for kind in RESOURCE_KINDS},
        critical_value=draw(ordered(st.integers(1, 5))),
        fog=fog,
        cloud=cloud,
        link_latency=draw(finite(0.0, 1e3)),
        distance_cap=draw(finite(1e-3, 1e3)),
        latency=draw(ordered(finite(1e-3, 1e3))),
        priority_blend=draw(finite(0.0, 1.0)),
        importance_factors=ResourceVector(*(w / sum(weights) for w in weights)),
        delta=draw(finite(1e-3, 1.0)),
    )


# values that may make a generator config unable to generate
RISKY_VALUES = {
    "code_size": ordered(finite(-1e4, 1e4)),
    "input_size": ordered(finite(-1e4, 1e4)),
    "cpu_demand": ordered(finite(-1e5, 1e5)),
    "net_io_demand": ordered(finite(-1e5, 1e5)),
    "fog": limits,
    "link_latency": finite(-1.0, 1e308),
    "distance_cap": finite(-1.0, 1e3),
    "latency": ordered(finite(-1e3, 1e3)),
    "priority_blend": finite(-1.0, 2.0),
    "importance_factors": st.builds(ResourceVector, *[finite(0.0, 1.0)] * 4),
    "delta": st.one_of(finite(-1.0, 1.0), st.just(1e-320)),  # 1 / 1e-320 overflows
}
risky_changes = st.sampled_from(sorted(RISKY_VALUES)).flatmap(
    lambda name: RISKY_VALUES[name].map(lambda value: {name: value}))


# No shrinking: each shrink step regenerates two buckets of up to 400 functions,
# so a failure took minutes to report with it and takes seconds without.
@settings(PROPERTY, max_examples=100, phases=[p for p in Phase if p is not Phase.shrink])
@given(generator_configs(), st.integers(10, 100), st.one_of(st.just({}), risky_changes))
def test_every_config_that_constructs_generates_valid_buckets(cfg, total, change):
    try:
        cfg = dataclasses.replace(cfg, **change)
    except ValueError:
        return  # refused where it is built
    assert validate_bucket(generate_bucket(cfg)) == []
    assert validate_bucket(generate_sweep(cfg, total)) == []


@st.composite
def agent_configs(draw):
    epsilon_end, epsilon_start = draw(ordered(finite(0.0, 1.0)))
    batch_size = draw(st.integers(1, 4096))
    return AgentConfig(
        learning_rate=draw(finite(1e-9, 1.0)),
        gamma=draw(finite(0.0, 1.0)),
        epsilon_start=epsilon_start,
        epsilon_end=epsilon_end,
        epsilon_decay=draw(finite(1e-6, 1.0)),
        batch_size=batch_size,
        replay_capacity=draw(st.integers(batch_size, 10**7)),  # the replay holds a batch
        target_sync_interval=draw(st.integers(1, 10**6)),
        episodes=draw(st.integers(0, 10**6)),
        hidden_sizes=tuple(draw(st.lists(st.integers(1, 1024), max_size=4))),
        seed=draw(st.integers(0, 2**63)),
    )


experiment_configs = st.builds(
    ExperimentConfig,
    generator=generator_configs(),
    agent=agent_configs(),
    experiment=st.builds(
        SweepSettings,
        sweep=st.lists(st.integers(10, 100), max_size=6, unique=True).map(tuple),
        algorithms=st.lists(st.sampled_from(ALGORITHMS), unique=True).map(tuple),
        runs_per_point=st.integers(1, 1000),
    ),
)


@PROPERTY
@given(st.one_of(generated_buckets, generator_configs(), agent_configs(), experiment_configs))
def test_round_trip_property(obj):
    assert decode(type(obj), json.loads(json.dumps(encode(obj)))) == obj


@PROPERTY
@given(generated_buckets)
def test_bucket_save_load_save_is_byte_identical(tmp_path, bucket):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_bucket(bucket, first)
    save_bucket(load_bucket(first), second)
    assert first.read_bytes() == second.read_bytes()


@PROPERTY
@given(st.one_of(st.just(ExperimentConfig()), experiment_configs))
def test_config_save_load_save_is_byte_identical(tmp_path, cfg):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_config(cfg, first)
    assert load_config(first) == cfg
    save_config(load_config(first), second)
    assert first.read_bytes() == second.read_bytes()


# ---- totality ------------------------------------------------------------

def locations(doc, keys=()):
    """Every (keys, value) position of a JSON document, the root included."""
    yield keys, doc
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from locations(value, keys + (key,))


def path_of(keys):
    out = ""
    for key in keys:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else key)
    return out


def within(path, target):
    """True when ``path`` names ``target`` or one of its ancestors."""
    return path == "" or target == path or target.startswith((path + ".", path + "["))


# -1 also reaches the range checks that the dataclasses run on construction
REPLACEMENTS = ["text", True, float("nan"), float("inf"), [1.0], None, -1.0]


@st.composite
def mutations(draw, doc):
    """A copy of ``doc`` changed at one drawn position, and the path of that position."""
    doc = json.loads(json.dumps(doc))
    keys, value = draw(st.sampled_from(list(locations(doc))))
    kinds = ["replace"] + (["add"] if isinstance(value, dict) else []) + (
        ["truncate"] if isinstance(value, list) and value else []) + (
        ["drop"] if keys and isinstance(keys[-1], str) else [])
    kind = draw(st.sampled_from(kinds))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if kind == "add":
        value["surplus"] = 1
        return doc, path_of(keys + ("surplus",))
    if kind == "truncate":
        del value[draw(st.integers(0, len(value) - 1)):]
        return doc, path_of(keys)
    if kind == "drop":
        del parent[keys[-1]]
        return doc, path_of(keys)
    replacement = draw(st.sampled_from(REPLACEMENTS))
    if not keys:
        return replacement, ""
    parent[keys[-1]] = replacement
    return doc, path_of(keys)


def assert_total(load, target):
    """``load()`` rejects only at the mutated path; returns what it accepted, else None."""
    try:
        return load()
    except DecodeError as exc:
        assert within(exc.path, target), (str(exc), target)
        return None


BUCKET_DOC = encode(generate_bucket(GeneratorConfig(seed=3, n_ssrs=(2, 3), functions_per_ssr=(1, 3))))
CONFIG_DOC = encode(ExperimentConfig())  # the default config file, every key written


@st.composite
def invalid_buckets(draw, doc):
    """A copy of ``doc`` that decodes but breaks one bucket invariant, and the
    text of the violation that ``validate_bucket`` must report for it."""
    doc = json.loads(json.dumps(doc))
    ssr_index = draw(st.integers(0, len(doc["ssrs"]) - 1))
    ssr = doc["ssrs"][ssr_index]
    fn_index = draw(st.integers(0, len(ssr["functions"]) - 1))
    fn = ssr["functions"][fn_index]
    flaw = draw(st.sampled_from(["latency", "priority", "function priority", "factors",
                                 "link overflow", "empty SSR"]))
    if flaw == "latency":
        ssr["user_latency"] = draw(st.sampled_from([0.0, -1e-9, -1.0]))
        return doc, f"SSR {ssr_index} user latency"
    if flaw == "priority":
        ssr["user_priority"] = draw(st.sampled_from([-0.5, 1.5]))
        return doc, f"SSR {ssr_index} user priority"
    if flaw == "function priority":
        fn["priority"] = draw(st.sampled_from([0.0, -1.0]))
        return doc, f"function ({ssr_index}, {fn_index}) priority"
    if flaw == "factors":
        doc["importance_factors"]["cpu"] += draw(st.sampled_from([-0.2, 0.5]))
        return doc, "importance factors sum"
    if flaw == "link overflow":
        doc["link_latency"] = draw(st.sampled_from([1e308, 1.7e308]))
        for each in doc["ssrs"]:
            each["user_latency"] = draw(st.sampled_from([1e-10, 1.0]))
        return doc, "overflows the costs"
    ssr["functions"] = []
    return doc, f"empty SSR at index {ssr_index}"


@settings(PROPERTY, max_examples=150)
@given(st.data())
def test_decode_bucket_is_total(data):
    if data.draw(st.booleans()):
        # decodable, invalid: the violation is reported as data, never raised
        doc, flaw = data.draw(invalid_buckets(BUCKET_DOC))
        violations = validate_bucket(decode(SSRBucket, doc))
        assert any(flaw in v for v in violations), (flaw, violations)
        return
    doc, target = data.draw(mutations(BUCKET_DOC))
    bucket = assert_total(lambda: decode(SSRBucket, doc), target)
    if bucket is not None:  # violations are data: validation never raises
        assert isinstance(validate_bucket(bucket), list)


@settings(PROPERTY, max_examples=150)
@given(st.data())
def test_load_config_is_total(tmp_path, data):
    doc, target = data.draw(mutations(CONFIG_DOC))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert_total(lambda: load_config(path), target)


def test_mutated_paths_are_named_as_decode_names_them():
    assert path_of(("ssrs", 2, "functions", 0, "code_size")) == "ssrs[2].functions[0].code_size"
    assert within("ssrs[2]", "ssrs[2].functions[0].code_size")
    assert not within("ssrs[2]", "ssrs[22].user_latency")
