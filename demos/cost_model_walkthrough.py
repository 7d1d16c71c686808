"""Walk through the cost model on a tiny hand-built request bucket.

Two users, each with one serverless service request (SSR). We compute user
priorities from distance and latency and function priorities from critical
value and sizes, as the bucket generator does, and then compare the
per-function step cost of a fog placement against a cloud placement.

Run: python3 demos/cost_model_walkthrough.py
"""
import numpy as np

from fogplace import costs, scoring
from fogplace.model import EnvironmentLimits, ResourceVector, SSRBucket

fog = EnvironmentLimits(
    per_function_cap=ResourceVector(2, 1024, 1024, 2048),
    code_size_limit=300.0,
    input_size_limit=1500.0,
)
cloud = EnvironmentLimits(
    per_function_cap=ResourceVector(6, 5120, 10240, 10240),
    code_size_limit=500.0,
    input_size_limit=2500.0,
)

DISTANCE_CAP, BLEND = 100.0, 0.5  # coverage radius (km), distance vs latency weight
positions, latencies = [(30.0, 40.0), (60.0, 0.0)], [20.0, 80.0]
user_scores = scoring.user_priorities(positions, latencies, DISTANCE_CAP, BLEND)

# one row per function, SSR by SSR: code MB, input MB, critical, cpu, ram, storage, net_io
rows = np.array([(120, 400, 2, 1, 256, 64, 128), (480, 2000, 5, 3, 2048, 512, 512),
                 (200, 900, 3, 2, 512, 128, 256)], dtype=float)
counts = [2, 1]  # SSR 0 holds the first two functions, SSR 1 the third
code, inp, critical = rows[:, 0], rows[:, 1], rows[:, 2]
bucket = SSRBucket(
    # the table's columns: the demand kinds, code, input, critical value, priority
    table=np.column_stack([rows[:, 3:], code, inp, critical,
                           scoring.ssr_priorities(critical, code, inp, counts=counts)]),
    function_count=counts,
    user_latency=latencies,
    user_priority=user_scores,
    link_latency=40.0,  # ms, the fog-cloud round trip
    fog=fog,
    cloud=cloud,
    importance_factors=ResourceVector(0.25, 0.25, 0.25, 0.25),
)
# function j of SSR i, in the bucket's flattened order
slots = [(i, j) for i, count in enumerate(counts) for j in range(count)]

print("== user priorities ==")
for i, position in enumerate(positions):
    d = scoring.user_distance((0.0, 0.0), position)
    print(f"user {i}: distance {d:5.1f} km, latency {bucket.user_latency[i]:5.1f} ms"
          f" -> priority {bucket.user_priority[i]:.3f}")

print("\n== function priorities (within each SSR) ==")
for (i, j), (*_, code_mb, input_mb, crit, priority) in zip(slots, bucket.table.tolist()):
    print(f"SSR {i} fn {j}: critical {crit:.0f},"
          f" code {code_mb:5.0f} MB, input {input_mb:6.0f} MB"
          f" -> priority {priority:.3f}")

print("\n== per-function step costs ==")
ctx = bucket.costs  # the per-function cost arrays, built once per bucket
for k, (i, j) in enumerate(slots):
    fog_c, cloud_c = ctx.fog_step[k], ctx.cloud_step[k]
    if ctx.fog_ok[k]:
        pick = "fog" if fog_c < cloud_c else "cloud"
        print(f"SSR {i} fn {j}: fog {fog_c:.4f} vs cloud {cloud_c:.4f}"
              f" -> {pick}")
    else:
        print(f"SSR {i} fn {j}: fog infeasible, cloud {cloud_c:.4f} -> cloud")

print("\n== whole-bucket objective for two candidate placements ==")
# a placement is one fog flag per function, in the bucket's flattened order
all_cloud = (False,) * bucket.n_functions
mixed = (True, False, True)
for name, placement in (("all cloud", all_cloud), ("small fns on fog", mixed)):
    objective = float(ctx.objective_total(ctx.on_fog(placement))[0])  # one bucket's total
    step = costs.placement_step_cost_sum(bucket, placement) / len(counts)
    print(f"{name:18s}: objective sum {objective:.4f}, mean step cost {step:.4f}")
