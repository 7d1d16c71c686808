"""Short version of the sweep experiment: agent vs baselines at several sizes.

Trains for a modest number of episodes, then evaluates the agent, fog_first,
and cloud_only on shared buckets of 10 to 50 functions and prints the mean
fog fraction and step cost per sweep point.

Run: python3 demos/sweep_comparison.py  (about 30 seconds)
"""
from fogplace.agent import AgentConfig, train
from fogplace.experiment import (
    ExperimentConfig,
    SweepSettings,
    aggregate_rows,
    run_compare,
    training_env_factory,
)
from fogplace.workload import GeneratorConfig

cfg = ExperimentConfig(
    generator=GeneratorConfig(seed=3),
    agent=AgentConfig(episodes=100, seed=0),
    experiment=SweepSettings(
        sweep=(10, 30, 50),
        algorithms=("defdrel", "fog_first", "cloud_only"),
        runs_per_point=10,
    ),
)

print(f"training for {cfg.agent.episodes} episodes...")
result = train(training_env_factory(cfg), cfg.agent)

print("running the sweep comparison...")
rows = run_compare(cfg, result.net)
means = aggregate_rows(rows)

print(f"\n{'N':>4s} {'algorithm':>12s} {'fog %':>8s} {'step cost':>10s}")
for m in means:
    print(f"{m['total_functions']:4d} {m['algorithm']:>12s}"
          f" {m['fog_fraction']:8.2f} {m['total_step_cost']:10.3f}")

print("\nFog capacity is tight under the default demand ranges, so the agent"
      "\nand the cost-aware policies keep most functions in the cloud while"
      "\nfog_first pushes everything that fits onto the fog node.")
