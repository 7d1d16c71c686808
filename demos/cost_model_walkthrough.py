"""Walk through the cost model on a tiny hand-built request bucket.

Two users, each with one serverless service request (SSR). We compute user
priorities from distance and latency, function priorities from critical value
and sizes, and then compare the per-function step cost of a fog placement
against a cloud placement.

Run: python3 demos/cost_model_walkthrough.py
"""
from fogplace import costs, scoring
from fogplace.model import (
    EnvironmentLimits,
    ResourceVector,
    SSR,
    SSRBucket,
    ServerlessFunction,
    User,
)

fog = EnvironmentLimits(
    per_function_cap=ResourceVector(2, 1024, 1024, 2048),
    code_size_limit=300.0,
    input_size_limit=1500.0,
    link_latency=0.0,
)
cloud = EnvironmentLimits(
    per_function_cap=ResourceVector(6, 5120, 10240, 10240),
    code_size_limit=500.0,
    input_size_limit=2500.0,
    link_latency=40.0,
)


def fn(ssr_index, index, code, inp, critical, cpu, ram, storage, net_io):
    return ServerlessFunction(
        ssr_index=ssr_index, index=index,
        code_size=code, input_size=inp, critical_value=critical,
        base_demand=ResourceVector(cpu, ram, storage, net_io),
        supplementary_demand=ResourceVector(),
    )


bucket = SSRBucket(
    users=(
        User(id=0, position=(30.0, 40.0), latency=20.0),
        User(id=1, position=(60.0, 0.0), latency=80.0),
    ),
    ssrs=(
        SSR(user_id=0, functions=(
            fn(0, 0, code=120, inp=400, critical=2, cpu=1, ram=256, storage=64, net_io=128),
            fn(0, 1, code=480, inp=2000, critical=5, cpu=3, ram=2048, storage=512, net_io=512),
        )),
        SSR(user_id=1, functions=(
            fn(1, 0, code=200, inp=900, critical=3, cpu=2, ram=512, storage=128, net_io=256),
        )),
    ),
    fog=fog,
    cloud=cloud,
    importance_factors=ResourceVector(0.25, 0.25, 0.25, 0.25),
    distance_cap=100.0,
    priority_blend=0.5,
)

print("== user priorities ==")
bucket = scoring.with_priorities(bucket)
for user in bucket.users:
    d = scoring.user_distance((0.0, 0.0), user.position)
    print(f"user {user.id}: distance {d:5.1f} km, latency {user.latency:5.1f} ms"
          f" -> priority {user.priority:.3f}")

print("\n== function priorities (within each SSR) ==")
for i, ssr in enumerate(bucket.ssrs):
    for f in ssr.functions:
        print(f"SSR {i} fn {f.index}: critical {f.critical_value},"
              f" code {f.code_size:5.0f} MB, input {f.input_size:6.0f} MB"
              f" -> priority {f.priority:.3f}")

print("\n== per-function step costs ==")
ctx = bucket.costs  # the per-function cost arrays, built once per bucket
for k, (i, f) in enumerate(bucket.functions()):
    fog_c, cloud_c = ctx.fog_step[k], ctx.cloud_step[k]
    if ctx.fog_ok[k]:
        pick = "fog" if fog_c < cloud_c else "cloud"
        print(f"SSR {i} fn {f.index}: fog {fog_c:.4f} vs cloud {cloud_c:.4f}"
              f" -> {pick}")
    else:
        print(f"SSR {i} fn {f.index}: fog infeasible, cloud {cloud_c:.4f} -> cloud")

print("\n== whole-bucket objective for two candidate placements ==")
# a placement is one fog flag per function, in the bucket's flattened order
all_cloud = (False,) * bucket.n_functions
mixed = (True, False, True)
for name, placement in (("all cloud", all_cloud), ("small fns on fog", mixed)):
    objective = costs.bucket_objective(bucket, placement)
    step = costs.bucket_step_cost(bucket, placement)
    print(f"{name:18s}: objective sum {objective:.4f}, mean step cost {step:.4f}")
