"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion. The heavyweight
training and sweep runs are shared through module-scoped fixtures, so the
whole module stays within its runtime budget.
"""
import numpy as np
import pytest

from fogplace import costs, scoring
from fogplace.agent import AgentConfig, ValueNetwork, greedy_rollout, train
from fogplace.baselines import cloud_only, exact_optimum, fog_first, greedy_cost
from fogplace.env import Action, PlacementEnv
from fogplace.experiment import (
    ExperimentConfig,
    SweepSettings,
    aggregate_rows,
    run_compare,
    training_env_factory,
    write_detail_csv,
    write_mean_csv,
)
from fogplace.model import ResourceVector, cloud_feasible, fog_feasible
from fogplace.workload import GeneratorConfig, generate_bucket

from conftest import make_bucket, make_fn, make_limits, make_ssr, one_ssr_context


def verdict(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


# configuration for the full-scale sweep behind criteria 5 to 9
SWEEP_EXPERIMENT = ExperimentConfig(
    generator=GeneratorConfig(seed=3),
    agent=AgentConfig(episodes=300, seed=0),
    experiment=SweepSettings(algorithms=("defdrel", "fog_first", "cloud_only"),
                             runs_per_point=150),
)

# small buckets where both platforms are usually feasible, for the oracle check
ORACLE_GENERATOR = GeneratorConfig(
    seed=0, n_ssrs=(2, 2), functions_per_ssr=(2, 4),
    cpu_demand=(1.0, 2.0), ram_demand=(100.0, 1024.0),
    storage_demand=(10.0, 1024.0), net_io_demand=(10.0, 2048.0),
    code_size=(10.0, 300.0), input_size=(100.0, 1500.0),
)


@pytest.fixture(scope="module")
def trained_sweep():
    cfg = SWEEP_EXPERIMENT
    result = train(training_env_factory(cfg), cfg.agent)
    rows = run_compare(cfg, result.net)
    return cfg, result.net, rows, aggregate_rows(rows)


def mean_of(means, algorithm, total, column):
    row = next(m for m in means
               if m["algorithm"] == algorithm and m["total_functions"] == total)
    return row[column]


def test_criterion_1_formula_suite():
    tol = 1e-9
    half_cap = make_limits(cpu=2, ram=2, storage=2, net_io=2, code=500, input_size=2500)
    ones = make_fn(demand=ResourceVector(1, 1, 1, 1))
    # function priorities of an SSR with (critical, code, input) (1, 100, 500), (5, 500, 2500)
    fn_priorities = scoring.ssr_priorities([1, 5], [100.0, 500.0], [500.0, 2500.0], 0.2)
    two_ssrs = make_bucket(
        [make_ssr(tuple(make_fn(priority=5.0) for _ in range(2)), latency=50, priority=0.5),
         make_ssr(tuple(make_fn(priority=5.0) for _ in range(6)), latency=50, priority=0.5)],
    )
    all_fog = (True,) * 8
    on_fog, on_cloud = np.array([True]), np.array([False])
    # one function of demand 1 everywhere; l_i = 0.4, lf = 0.1, user priority 0.6
    kernel = one_ssr_context([ones], half_cap, half_cap, latency=40.0, link=10.0, priority=0.6)
    # zero-demand function: the objective's communication term alone, of SSR 0
    comm = one_ssr_context([make_fn()], half_cap, half_cap, link=10.0, priority=0.6)
    fog_comp = one_ssr_context([ones], half_cap, half_cap, latency=40.0, link=0.0)
    cloud_comp = one_ssr_context([ones], half_cap, half_cap, latency=10.0, link=40.0)

    checks = [
        abs(scoring.user_distance((0, 0), (3, 4)) - 5.0) < tol,
        abs(scoring.distance_priority(25.0, 100.0) - 0.25) < tol,
        abs(scoring.latency_priority(20.0, [20.0, 80.0]) - 0.25) < tol,
        abs(scoring.user_priority(0.4, 0.8, 0.5) - 0.6) < tol,
        abs(fn_priorities[0] - 1 / 0.712) < tol,
        abs(fn_priorities[1] - 5.0) < tol,
        abs(comm.objective(on_fog)[0][0] - 0.6) < tol,
        abs(comm.objective(on_cloud)[0][0] - 0.7) < tol,
        abs(fog_comp.fog_comp[0] - 0.425) < tol,
        abs(cloud_comp.cloud_comp[0] - 0.425) < tol,
        abs(kernel.fog_step[0] - 1.025) < tol,
        abs(kernel.cloud_step[0] - 1.1375) < tol,
        abs(costs.bucket_step_cost(two_ssrs, all_fog) - 2.0) < tol,
        abs(costs.placement_step_cost_sum(two_ssrs, all_fog) - 4.0) < tol,
    ]
    verdict(1, "derived formula examples match hand values within 1e-9",
            all(checks))


def _placement_satisfies_constraints(bucket, placement):
    return len(placement) == bucket.n_functions and all(
        fog_feasible(fn, bucket.fog) if on_fog else cloud_feasible(fn, bucket.cloud)
        for (_, fn), on_fog in zip(bucket.functions(), placement)
    )


def test_criterion_2_constraint_soundness():
    rng = np.random.default_rng(2024)
    episodes = 0
    violations = 0
    for seed in range(200):
        bucket = generate_bucket(GeneratorConfig(seed=1_000_000), seed=seed)
        # two random-policy environment episodes
        for _ in range(2):
            env = PlacementEnv(bucket)
            state = env.reset()
            while not state.done:
                feasible = [a for a in (Action.FOG, Action.CLOUD) if state.mask[a]]
                state = env.step(
                    state, feasible[int(rng.integers(0, len(feasible)))]
                ).next_state
            episodes += 1
            if not _placement_satisfies_constraints(bucket, state.placement):
                violations += 1
        # one pass of each deterministic baseline
        for placement in (fog_first(bucket), cloud_only(bucket), greedy_cost(bucket)):
            episodes += 1
            if not _placement_satisfies_constraints(bucket, placement):
                violations += 1
    verdict(2, f"{episodes} seeded episodes with zero constraint violations",
            episodes == 1000 and violations == 0)


def test_criterion_3_gradient_correctness():
    worst = 0.0
    for shape_seed, (n_in, hidden) in enumerate([(6, ()), (8, (10,)), (12, (16, 8))]):
        net = ValueNetwork(n_in, hidden, np.random.default_rng(100 + shape_seed))
        rng = np.random.default_rng(200 + shape_seed)
        states = rng.uniform(-1, 1, size=(8, n_in))
        actions = rng.integers(0, 2, size=8)
        targets = rng.uniform(-2, 0, size=8)
        grad, _ = net.gradient(states, actions, targets)
        gw, gb = net.split(grad)  # per-layer views of the flat gradient

        def loss_at():
            picked = net.forward(states)[np.arange(8), actions]
            return float(np.mean((picked - targets) ** 2))

        eps = 1e-6
        params = [(net.weights, gw), (net.biases, gb)]
        for tensors, grads in params:
            for layer, grad in enumerate(grads):
                flat = tensors[layer].reshape(-1)
                flat_grad = np.asarray(grad).reshape(-1)
                idx = np.random.default_rng(layer).integers(0, flat.size, size=min(20, flat.size))
                for i in idx:
                    orig = flat[i]
                    flat[i] = orig + eps
                    up = loss_at()
                    flat[i] = orig - eps
                    down = loss_at()
                    flat[i] = orig
                    fd = (up - down) / (2 * eps)
                    rel = abs(flat_grad[i] - fd) / max(abs(fd), abs(flat_grad[i]), 1e-6)
                    worst = max(worst, rel)
    verdict(3, f"analytic vs finite-difference gradients, max relative error {worst:.2e}",
            worst < 1e-4)


def test_criterion_4_oracle_proximity():
    hits = 0
    for bucket_seed in range(20):
        bucket = generate_bucket(ORACLE_GENERATOR, seed=bucket_seed)
        assert bucket.n_functions <= 8
        env = PlacementEnv(bucket)  # reset() starts every episode afresh

        result = train(lambda episode: env, AgentConfig(episodes=2000, seed=0))
        _, record = greedy_rollout(result.net, env)
        agent_cost = sum(record.step_costs)
        optimum = exact_optimum(bucket).best_step_cost
        if agent_cost <= 1.10 * optimum + 1e-12:
            hits += 1
    verdict(4, f"trained agent within 10% of the exact optimum on {hits}/20 buckets",
            hits >= 16)


def test_criterion_5_function_distribution(trained_sweep):
    cfg, _, _, means = trained_sweep
    ok = True
    for total in cfg.experiment.sweep:
        agent_fog = mean_of(means, "defdrel", total, "fog_fraction")
        agent_cloud = mean_of(means, "defdrel", total, "cloud_fraction")
        ff_fog = mean_of(means, "fog_first", total, "fog_fraction")
        if not (agent_fog <= 35.0 and agent_cloud >= 65.0 and ff_fog > agent_fog):
            ok = False
    verdict(5, "agent fog fraction <= 35% at every sweep point and below fog_first", ok)


def test_criterion_6_resource_distribution(trained_sweep):
    _, _, _, means = trained_sweep
    fractions = {
        kind: mean_of(means, "defdrel", 100, f"{kind}_fog_pct")
        for kind in ("cpu", "ram", "storage", "net_io")
    }
    ok = all(v <= 30.0 for v in fractions.values())
    pretty = ", ".join(f"{k} {v:.1f}%" for k, v in fractions.items())
    verdict(6, f"fog demand fractions at N=100 all <= 30% ({pretty})", ok)


def test_criterion_7_function_characteristics(trained_sweep):
    _, _, _, means = trained_sweep
    code_fog = mean_of(means, "defdrel", 100, "avg_code_fog")
    code_cloud = mean_of(means, "defdrel", 100, "avg_code_cloud")
    input_fog = mean_of(means, "defdrel", 100, "avg_input_fog")
    input_cloud = mean_of(means, "defdrel", 100, "avg_input_cloud")
    ok = (code_fog is not None and code_fog < code_cloud
          and input_fog is not None and input_fog < input_cloud)
    verdict(7, "fog-placed functions are smaller in code and input at N=100", ok)


def test_criterion_8_critical_values(trained_sweep):
    _, _, _, means = trained_sweep
    crit_fog = mean_of(means, "defdrel", 100, "avg_critical_fog")
    crit_cloud = mean_of(means, "defdrel", 100, "avg_critical_cloud")
    ok = crit_fog is not None and crit_fog <= crit_cloud
    verdict(8, f"fog avg critical value {crit_fog:.3f} <= cloud {crit_cloud:.3f} at N=100",
            ok)


def test_criterion_9_determinism(trained_sweep, tmp_path):
    cfg, net, rows, means = trained_sweep
    rerun = run_compare(cfg, net)
    first_detail = tmp_path / "detail_a.csv"
    second_detail = tmp_path / "detail_b.csv"
    write_detail_csv(rows, first_detail)
    write_detail_csv(rerun, second_detail)
    first_mean = tmp_path / "mean_a.csv"
    second_mean = tmp_path / "mean_b.csv"
    write_mean_csv(means, first_mean)
    write_mean_csv(aggregate_rows(rerun), second_mean)
    ok = (first_detail.read_bytes() == second_detail.read_bytes()
          and first_mean.read_bytes() == second_mean.read_bytes())
    verdict(9, "repeated sweep with identical seeds gives byte-identical CSVs", ok)
