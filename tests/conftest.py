import os

# Pin BLAS to one thread before numpy loads, as perfbench/run.py does: two
# unpinned suites running side by side on a 2-CPU host slowed one fixture ten-fold.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fogplace.model import (  # noqa: E402
    EnvironmentLimits,
    ResourceVector,
    SSR,
    SSRBucket,
    ServerlessFunction,
)
from fogplace.workload import GeneratorConfig, generate_bucket, generate_sweep  # noqa: E402

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
                code=500.0, input_size=2500.0):
    return EnvironmentLimits(
        per_function_cap=ResourceVector(cpu=cpu, ram=ram, storage=storage, net_io=net_io),
        code_size_limit=code,
        input_size_limit=input_size,
    )


def make_fn(code=100.0, input_size=500.0, critical=3, demand=None, priority=5.0):
    return ServerlessFunction(
        code_size=code,
        input_size=input_size,
        critical_value=critical,
        demand=demand or ResourceVector(),
        priority=priority,
    )


def make_bucket(ssrs, fog=None, cloud=None, weights=None, link=40.0):
    return SSRBucket(
        ssrs=tuple(ssrs),
        link_latency=link,
        fog=fog or make_limits(cpu=2, ram=1024, storage=1024, net_io=2048,
                               code=300.0, input_size=1500.0),
        cloud=cloud or make_limits(),
        importance_factors=weights or ResourceVector(0.25, 0.25, 0.25, 0.25),
    )


def make_ssr(fns, latency=50.0, priority=0.5):
    """An SSR of the given functions, whose user has this latency and priority."""
    return SSR(user_latency=latency, user_priority=priority, functions=tuple(fns))


def one_ssr_context(fns, fog, cloud, latency=40.0, link=10.0, priority=0.6,
                    weights=ResourceVector(0.25, 0.25, 0.25, 0.25)):
    """Cost context of one SSR holding fns, whose user has latency share latency / 100.

    A second SSR, of one zero-demand function, has user latency 100, so
    l_i = latency / 100 and lf = link / 100. Its function comes last in the
    context's arrays.
    """
    bucket = make_bucket(
        ssrs=[make_ssr(fns, latency=latency, priority=priority),
              make_ssr([make_fn()], latency=100.0)],
        fog=fog, cloud=cloud, weights=weights, link=link,
    )
    return bucket.costs


@pytest.fixture
def simple_bucket():
    """Two SSRs, zero-demand functions, exact normalized latencies.

    SSR 0: user latency 40 of max 100 -> normalized 0.4; priority 0.6.
    SSR 1: user latency 100 -> normalized 1.0; priority 0.5.
    Link latency 10 of max 100 -> normalized 0.1.
    """
    ssrs = [
        make_ssr([make_fn(priority=5.0), make_fn(priority=2.5)], latency=40.0, priority=0.6),
        make_ssr([make_fn(priority=5.0)], latency=100.0),
    ]
    return make_bucket(ssrs, link=10.0)
