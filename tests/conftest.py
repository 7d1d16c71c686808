import dataclasses

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from fogplace.model import (
    EnvironmentLimits,
    ResourceVector,
    SSR,
    SSRBucket,
    ServerlessFunction,
    User,
)
from fogplace.workload import GeneratorConfig, generate_bucket, generate_sweep

# Few, fixed examples: the properties add seconds, not minutes, to the suite.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=25,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

seeds = st.integers(0, 2**32 - 1)
# paper-default buckets, and sweep buckets of N = 10..100 functions
generated_buckets = st.one_of(
    seeds.map(lambda seed: generate_bucket(GeneratorConfig(), seed=seed)),
    st.tuples(st.integers(10, 100), seeds).map(
        lambda args: generate_sweep(GeneratorConfig(), args[0], seed=args[1])),
)


def make_limits(cpu=6, ram=5120, storage=10240, net_io=10240,
                code=500.0, input_size=2500.0, link=0.0):
    return EnvironmentLimits(
        per_function_cap=ResourceVector(cpu=cpu, ram=ram, storage=storage, net_io=net_io),
        code_size_limit=code,
        input_size_limit=input_size,
        link_latency=link,
    )


def make_fn(code=100.0, input_size=500.0, critical=3, base=None, suppl=None, priority=5.0):
    return ServerlessFunction(
        code_size=code,
        input_size=input_size,
        critical_value=critical,
        base_demand=base or ResourceVector(),
        supplementary_demand=suppl or ResourceVector(),
        priority=priority,
    )


def make_bucket(ssrs, users, fog=None, cloud=None, weights=None):
    return SSRBucket(
        ssrs=tuple(ssrs),
        users=tuple(users),
        fog=fog or make_limits(cpu=2, ram=1024, storage=1024, net_io=2048,
                               code=300.0, input_size=1500.0),
        cloud=cloud or make_limits(link=40.0),
        importance_factors=weights or ResourceVector(0.25, 0.25, 0.25, 0.25),
    )


def make_user(uid=0, latency=50.0, priority=0.5):
    return User(id=uid, latency=latency, priority=priority)


def one_ssr_context(fns, fog, cloud, latency=40.0, link=10.0, priority=0.6,
                    weights=ResourceVector(0.25, 0.25, 0.25, 0.25)):
    """Cost context of one SSR holding fns, whose user has latency share latency / 100.

    A second user without functions has latency 100, so l_i = latency / 100
    and lf = link / 100.
    """
    bucket = make_bucket(
        ssrs=[SSR(user_id=0, functions=tuple(fns))],
        users=[make_user(0, latency=latency, priority=priority),
               make_user(1, latency=100.0, priority=0.5)],
        fog=fog, cloud=dataclasses.replace(cloud, link_latency=link), weights=weights,
    )
    return bucket.costs


@pytest.fixture
def simple_bucket():
    """Two SSRs, zero-demand functions, exact normalized latencies.

    User 0: latency 40 of max 100 -> normalized 0.4; priority 0.6.
    User 1: latency 100 -> normalized 1.0; priority 0.5.
    Cloud link latency 10 of max 100 -> normalized 0.1.
    """
    users = [
        make_user(0, latency=40.0, priority=0.6),
        make_user(1, latency=100.0, priority=0.5),
    ]
    ssrs = [
        SSR(user_id=0, functions=(
            make_fn(priority=5.0),
            make_fn(priority=2.5),
        )),
        SSR(user_id=1, functions=(make_fn(priority=5.0),)),
    ]
    return make_bucket(ssrs, users, cloud=make_limits(link=10.0))
