"""Train the placement agent on one small bucket and compare it to the oracle.

The exact oracle gives the true step-cost optimum, so we can report how
close the learned greedy policy gets to it.

Run: python3 demos/train_small_agent.py  (about 5 seconds)
"""
from fogplace.agent import AgentConfig, greedy_rollout, train
from fogplace.baselines import cloud_only, exact_optimum, fog_first
from fogplace import costs
from fogplace.env import PlacementEnv
from fogplace.workload import GeneratorConfig, generate_bucket

cfg = GeneratorConfig(
    seed=7, n_ssrs=(2, 2), functions_per_ssr=(2, 4),
    cpu_demand=(1.0, 2.0), ram_demand=(100.0, 1024.0),
    storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
    code_size=(10.0, 300.0), input_size=(100.0, 1500.0),
)
bucket = generate_bucket(cfg)
print(f"bucket: {len(bucket.ssrs)} SSRs, {bucket.n_functions} functions")

env = PlacementEnv(bucket)  # one env for every episode: reset() starts each afresh
result = train(lambda episode: env, AgentConfig(episodes=2000, seed=0))
for row in result.log[::400] + [result.log[-1]]:
    print(f"episode {row['episode']:4d}: cost {row['total_cost']:.4f},"
          f" epsilon {row['epsilon']:.3f}")

placement, record = greedy_rollout(result.net, env)
agent_cost = sum(record.step_costs)
oracle = exact_optimum(bucket)

print("\n== final comparison (summed step cost) ==")
print(f"agent      : {agent_cost:.4f}")
print(f"oracle     : {oracle.best_step_cost:.4f}"
      f"  (ratio {agent_cost / oracle.best_step_cost:.4f})")
print(f"fog first  : {costs.placement_step_cost_sum(bucket, fog_first(bucket)):.4f}")
print(f"cloud only : {costs.placement_step_cost_sum(bucket, cloud_only(bucket)):.4f}")
print(f"\nagent placement, fog flag per function: {placement}")
