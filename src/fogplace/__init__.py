"""Seedable fog/cloud serverless function placement simulator.

Submodules:
  codec      the strict JSON codec behind every config, bucket and checkpoint file
  model      domain entities, resource kind names, validation, bucket JSON files
  scoring    user and function priority formulas
  costs      latency cost model as per-bucket arrays, built after validation
  workload   seeded synthetic bucket generation
  env        episodic placement environment with action masking
  agent      from-scratch DQN (value network, replay, training loop)
  baselines  reference policies and the exact O(n) oracle
  metrics    one CSV row dict per placement, and the CSV columns
  experiment sweep runner and experiment config
  cli        command line interface
"""
from .model import (
    EnvironmentLimits,
    Placement,
    ResourceVector,
    SSR,
    SSRBucket,
    ServerlessFunction,
    load_bucket,
    save_bucket,
    validate_bucket,
)
from .workload import GeneratorConfig, generate_bucket, generate_sweep
from .env import Action, PlacementEnv
from .agent import AgentConfig, ValueNetwork, train
from .experiment import ExperimentConfig, SweepSettings

__all__ = [
    "Action",
    "AgentConfig",
    "EnvironmentLimits",
    "ExperimentConfig",
    "GeneratorConfig",
    "Placement",
    "PlacementEnv",
    "ResourceVector",
    "SSR",
    "SSRBucket",
    "ServerlessFunction",
    "SweepSettings",
    "ValueNetwork",
    "generate_bucket",
    "generate_sweep",
    "load_bucket",
    "save_bucket",
    "train",
    "validate_bucket",
]
