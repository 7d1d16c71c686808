"""The benchmark's three workloads: set-up, the timed job, output checks, quality.

Every workload drives the package from outside: through ``fogplace.cli.main``
wherever the command line covers the job, and otherwise through the public
names of its modules. The package only ever sees generated config files,
bucket files and checkpoints. Each workload has

* ``setup()``: makes the inputs from the workload seed (run several times,
  the benchmark reports the median);
* ``job(rep_dir)``: one repeat of the timed work, returning its work units;
* ``check(rep_dir, first)``: output checks, untimed and untraced;
* ``finish()``: quality figures from the kept outputs, untimed.

Failed operations and failed checks are counted in a ``Ledger``.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

from fogplace import agent, baselines, cli, costs, env, experiment, model

ALGORITHMS = ("defdrel", "fog_first", "cloud_only", "random", "greedy_cost")
TOL = 1e-9

# The package derives per-episode and per-sweep-point seeds by adding small
# offsets (under 10^6) to the configured seed, so workload seeds are spread
# this far apart to keep the inputs of different workload seeds disjoint.
SEED_STRIDE = 1_000_000

# Demand and size ranges of the oracle check in tests/test_acceptance.py
# (ORACLE_GENERATOR). Every range fits the default fog caps, so every function
# is fog-feasible and every decision is free.
SMALL_RANGES = {
    "cpu_demand": [1.0, 2.0],
    "ram_demand": [100.0, 1024.0],
    "storage_demand": [10.0, 1024.0],
    "net_io_demand": [10.0, 2048.0],
    "code_size": [10.0, 300.0],
    "input_size": [100.0, 1500.0],
}


class Ledger:
    """Operations attempted, and the ones that failed.

    An operation fails when it raises, exits with a non-zero code, or one of
    the output checks made on it fails. Each operation counts once.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.messages: list[str] = []

    def call(self, label: str, fn, *args, **kwargs):
        """Run one operation; returns (operation id, result or None)."""
        op = self.attempted
        self.attempted += 1
        try:
            return op, fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.fail(op, f"{label}: {type(exc).__name__}: {exc}")
            return op, None

    def fail(self, op: int, message: str) -> None:
        self.failed_ops.add(op)
        if len(self.messages) < 50:
            self.messages.append(message)

    def check(self, op: int, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op, message)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def run_cli(ledger: Ledger, argv: list[str]) -> tuple[int, str]:
    """``fogplace <argv>`` in this process; returns (operation id, stdout)."""
    out, err = io.StringIO(), io.StringIO()

    def invoke() -> int:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                return exc.code if isinstance(exc.code, int) else 2

    op, rc = ledger.call(f"fogplace {argv[0]}", invoke)
    if rc is not None:
        ledger.check(op, rc == 0,
                     f"fogplace {argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}")
    return op, out.getvalue()


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2))
    return path


def read_rows(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def step_cost_ratios(ledger: Ledger, op: int, rows: list[dict]) -> list[float]:
    """Per (sweep point, run): defdrel's step cost over greedy_cost's.

    Also checks that greedy_cost, the exact step-cost optimum of a separable
    cost, is at most every other algorithm's step cost at that point.
    """
    by_point: dict[tuple[str, str], dict[str, float]] = {}
    for row in rows:
        key = (row["total_functions"], row["run"])
        by_point.setdefault(key, {})[row["algorithm"]] = float(row["total_step_cost"])
    ratios = []
    for key, costs_by_algo in by_point.items():
        best = costs_by_algo.get("greedy_cost")
        ledger.check(op, best is not None, f"no greedy_cost row at {key}")
        if best is None:
            continue
        for algo, cost in costs_by_algo.items():
            ledger.check(op, best <= cost + TOL,
                         f"greedy_cost {best} above {algo} {cost} at {key}")
        if "defdrel" in costs_by_algo:
            ratios.append(costs_by_algo["defdrel"] / best)
    return ratios


def write_train_config(ledger: Ledger, path: Path, seed: int, target_steps: int) -> tuple[int, int]:
    """Write a train config whose episodes add up to at least target_steps env steps.

    Bucket sizes vary by seed (16 to 100 functions per episode), and the
    replay buffer's memory and the share of steps before learning starts
    follow the step count. So the episode count is the smallest that reaches
    the target, rather than one fixed number for all seeds. Returns
    (episodes, steps).
    """
    generator = {"seed": seed}
    write_json(path, {"generator": generator})
    op, factory = ledger.call(
        "training_env_factory",
        lambda: experiment.training_env_factory(experiment.load_config(path)),
    )
    episodes = steps = 0
    while factory is not None and steps < target_steps:
        steps += factory(episodes).n_functions  # one env step per function
        episodes += 1
    ledger.check(op, steps > 0, "no training steps")
    write_json(path, {"generator": generator, "agent": {"episodes": episodes, "seed": seed}})
    return episodes, steps


class TrainWide:
    """``fogplace train`` on the paper-default generator at the 1101-input width."""

    name = "train-wide"

    def __init__(self, seed: int, work: Path, tiny: bool, ledger: Ledger):
        self.seed, self.work, self.ledger = seed * SEED_STRIDE, work, ledger
        self.target_steps = 40 if tiny else 640
        self.episodes = 0
        self.eval_sweep = [10, 20] if tiny else list(experiment.DEFAULT_SWEEP)
        self.config = work / "train_config.json"
        self.steps = 0
        self.reference: str | None = None
        self.kept = work / "rep0"
        self.phases: dict = {}
        self.detail: dict = {}

    def setup(self) -> None:
        self.episodes, self.steps = write_train_config(
            self.ledger, self.config, self.seed, self.target_steps)

    def job(self, rep: Path) -> int:
        t0 = time.perf_counter()
        run_cli(self.ledger, ["train", "--config", str(self.config), "--out", str(rep)])
        self.phases = {"train_steps_per_s": (self.steps, time.perf_counter() - t0)}
        return self.steps

    def check(self, rep: Path, first: bool) -> None:
        op, rows = self.ledger.call("read training log", read_rows, rep / "training_log.csv")
        rows = rows or []
        self.ledger.check(op, len(rows) == self.episodes,
                          f"training log has {len(rows)} rows, expected {self.episodes}")
        for i, row in enumerate(rows):
            try:
                ok = int(row["episode"]) == i and all(
                    math.isfinite(float(row[k])) for k in ("total_cost", "epsilon", "loss"))
            except (KeyError, TypeError, ValueError):
                ok = False
            self.ledger.check(op, ok, f"training log row {i} is not a finite row of episode {i}")
        outputs = digest(rep / "training_log.csv", rep / "checkpoint.json")
        if first:
            self.reference = outputs
            width = experiment.MAX_FUNCTIONS * env.SLOT_WIDTH + 1
            op, net = self.ledger.call("load checkpoint", agent.ValueNetwork.load,
                                       rep / "checkpoint.json")
            if net is not None:
                self.ledger.check(op, net.input_size == width,
                                  f"checkpoint input width {net.input_size}, expected {width}")
            self.kept = rep
        else:
            self.ledger.check(op, outputs == self.reference,
                              "training log or checkpoint differs from the first repeat")
            shutil.rmtree(rep, ignore_errors=True)

    def finish(self) -> float:
        """Greedy step cost of the trained checkpoint over the exact optimum on a sweep."""
        config = write_json(self.work / "eval_config.json", {
            "generator": {"seed": self.seed},
            "experiment": {"sweep": self.eval_sweep, "algorithms": ["defdrel", "greedy_cost"],
                           "runs_per_point": 1},
        })
        out = self.work / "eval"
        op, _ = run_cli(self.ledger, ["compare", "--config", str(config), "--checkpoint",
                                      str(self.kept / "checkpoint.json"), "--out", str(out)])
        ratios = step_cost_ratios(self.ledger, op, read_rows(out / "results_detail.csv"))
        self.ledger.check(op, len(ratios) == len(self.eval_sweep), "evaluation rows missing")
        self.detail = {"episodes": self.episodes, "train_steps_per_repeat": self.steps,
                       "eval_points": len(ratios)}
        return sum(ratios) / len(ratios) if ratios else float("nan")


class SweepCompare:
    """``fogplace compare`` over the paper sweep with all five algorithms."""

    name = "sweep-compare"

    def __init__(self, seed: int, work: Path, tiny: bool, ledger: Ledger):
        self.seed, self.work, self.ledger = seed * SEED_STRIDE, work, ledger
        self.sweep = [10, 20] if tiny else list(experiment.DEFAULT_SWEEP)
        self.runs = 1 if tiny else 4
        self.checkpoint_steps = 20 if tiny else 200
        self.checkpoint = work / "setup" / "checkpoint.json"
        self.config = work / "compare_config.json"
        self.checkpoint_episodes = 0
        self.setup_digest: str | None = None
        self.reference: str | None = None
        self.ratios: list[float] = []
        self.phases: dict = {}
        self.detail: dict = {}

    @property
    def expected_rows(self) -> int:
        return len(self.sweep) * self.runs * len(ALGORITHMS)

    def setup(self) -> None:
        train_config = self.work / "train_config.json"
        self.checkpoint_episodes, _ = write_train_config(
            self.ledger, train_config, self.seed, self.checkpoint_steps)
        op, _ = run_cli(self.ledger, ["train", "--config", str(train_config),
                                      "--out", str(self.checkpoint.parent)])
        made = digest(self.checkpoint)
        self.ledger.check(op, self.setup_digest in (None, made),
                          "set-up checkpoint differs between set-ups")
        self.setup_digest = made
        write_json(self.config, {
            "generator": {"seed": self.seed},
            "experiment": {"sweep": self.sweep, "algorithms": list(ALGORITHMS),
                           "runs_per_point": self.runs},
        })

    def job(self, rep: Path) -> int:
        t0 = time.perf_counter()
        run_cli(self.ledger, ["compare", "--config", str(self.config),
                              "--checkpoint", str(self.checkpoint), "--out", str(rep)])
        self.phases = {"compare_rows_per_s": (self.expected_rows, time.perf_counter() - t0)}
        return self.expected_rows

    def check(self, rep: Path, first: bool) -> None:
        detail, mean = rep / "results_detail.csv", rep / "results_mean.csv"
        op, rows = self.ledger.call("read compare output", read_rows, detail)
        rows = rows or []
        self.ledger.check(op, len(rows) == self.expected_rows,
                          f"{len(rows)} detail rows, expected {self.expected_rows}")
        for row in rows:
            split = float(row["fog_fraction"]) + float(row["cloud_fraction"])
            self.ledger.check(op, abs(split - 100.0) <= TOL,
                              f"fog + cloud fraction {split} != 100")
        ratios = step_cost_ratios(self.ledger, op, rows)
        outputs = digest(detail, mean)
        if first:
            self.reference = outputs
            self.ratios = ratios
        else:
            self.ledger.check(op, outputs == self.reference,
                              "compare CSVs differ from the first repeat")
        shutil.rmtree(rep, ignore_errors=True)

    def finish(self) -> float:
        self.detail = {"sweep": self.sweep, "runs_per_point": self.runs,
                       "rows_per_repeat": self.expected_rows,
                       "checkpoint_episodes": self.checkpoint_episodes}
        return sum(self.ratios) / len(self.ratios) if self.ratios else float("nan")


class SmallExact:
    """Train at each small bucket's own width, roll out greedily, solve with the oracle."""

    name = "small-exact"

    def __init__(self, seed: int, work: Path, tiny: bool, ledger: Ledger):
        self.seed, self.work, self.ledger = seed * SEED_STRIDE, work, ledger
        # (SSRs, functions per SSR) of each bucket: 6, 8, 9 and 12 functions
        self.shapes = ((2, 2), (2, 3)) if tiny else ((2, 3), (2, 4), (3, 3), (3, 4))
        self.episodes = 3 if tiny else 80
        self.buckets = [work / f"bucket_{i}.json" for i in range(len(self.shapes))]
        self.sizes: list[int] = []
        self.placements = 0
        self.results: list[tuple[int, float | None, str]] = []  # (oracle op, agent cost, oracle stdout)
        self.reference: list | None = None
        self.greedy: list[float | None] = []
        self.ratios: list[float] = []
        self.phases: dict = {}
        self.detail: dict = {}

    def setup(self) -> None:
        self.sizes, self.placements = [], 0
        for i, (ssrs, per_ssr) in enumerate(self.shapes):
            config = write_json(self.work / f"bucket_config_{i}.json", {"generator": {
                **SMALL_RANGES, "n_ssrs": [ssrs, ssrs], "functions_per_ssr": [per_ssr, per_ssr],
            }})
            op, _ = run_cli(self.ledger, ["generate", "--config", str(config),
                                          "--seed", str(self.seed), "--out", str(self.buckets[i])])
            _, bucket = self.ledger.call("load bucket", model.load_bucket, self.buckets[i])
            if bucket is None:
                continue
            fns = [fn for _, fn in bucket.functions()]
            self.ledger.check(op, all(model.fog_feasible(fn, bucket.fog) for fn in fns),
                              f"bucket {i} is not fog-feasible")
            options = 1
            for fn in fns:
                options *= model.fog_feasible(fn, bucket.fog) + model.cloud_feasible(fn, bucket.cloud)
            self.placements += options
            self.sizes.append(len(fns))

    def job(self, rep: Path) -> int:
        self.results = []
        train_s = oracle_s = 0.0
        for path in self.buckets:
            t0 = time.perf_counter()
            _, bucket = self.ledger.call("load bucket", model.load_bucket, path)
            agent_cost = None
            if bucket is not None:
                def factory(episode, bucket=bucket):
                    return env.PlacementEnv(bucket)

                config = agent.AgentConfig(episodes=self.episodes, seed=self.seed)
                _, trained = self.ledger.call("train", agent.train, factory, config)
                if trained is not None:
                    _, rollout = self.ledger.call("greedy_rollout", agent.greedy_rollout,
                                                  trained.net, factory(0))
                    if rollout is not None:
                        agent_cost = sum(rollout[1].step_costs)
            t1 = time.perf_counter()
            op, out = run_cli(self.ledger, ["oracle", str(path)])
            oracle_s += time.perf_counter() - t1
            train_s += t1 - t0
            self.results.append((op, agent_cost, out))
        steps = self.episodes * sum(self.sizes)
        self.phases = {"train_steps_per_s": (steps, train_s),
                       "oracle_buckets_per_s": (len(self.buckets), oracle_s)}
        return len(self.buckets)

    def check(self, rep: Path, first: bool) -> None:
        if first:
            self.greedy = []
            for path in self.buckets:
                _, bucket = self.ledger.call("load bucket", model.load_bucket, path)
                _, cost = self.ledger.call(
                    "greedy_cost", lambda b: costs.placement_step_cost_sum(b, baselines.greedy_cost(b)),
                    bucket)
                self.greedy.append(cost)
        outputs = []
        for i, (op, agent_cost, out) in enumerate(self.results):
            try:
                best = float(json.loads(out)["best_step_cost"])
            except (ValueError, KeyError, TypeError):
                self.ledger.fail(op, f"oracle output for bucket {i} is not readable")
                continue
            for label, cost in (("agent", agent_cost), ("greedy_cost", self.greedy[i])):
                self.ledger.check(op, cost is not None and best <= cost + TOL,
                                  f"oracle {best} above {label} {cost} on bucket {i}")
            outputs.append((agent_cost, out))
        if first:
            self.reference = outputs
            self.ratios = [a / json.loads(o)["best_step_cost"] for a, o in outputs if a is not None]
        elif outputs != self.reference:
            self.ledger.fail(self.results[0][0] if self.results else 0,
                             "agent costs or oracle output differ from the first repeat")

    def finish(self) -> float:
        self.detail = {"bucket_sizes": self.sizes, "episodes": self.episodes,
                       "train_steps_per_repeat": self.episodes * sum(self.sizes),
                       "oracle_placements_per_repeat": self.placements}
        return sum(self.ratios) / len(self.ratios) if self.ratios else float("nan")


WORKLOADS = {w.name: w for w in (TrainWide, SweepCompare, SmallExact)}
