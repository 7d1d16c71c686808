"""Print the SHA-256 digest of every output of one fixed, tiny fogplace job.

The job runs through ``fogplace.cli.main``, in this process, inside a
temporary directory that is removed afterwards:

  config     the file that ``save_config`` writes for ``load_config`` of CONFIG
  generate   the default bucket, and a 40-function sweep bucket; later a
             100-function sweep bucket, whose last split picks have a single
             open SSR to choose, and two buckets that pin the integer rule
             lo + floor(u * (hi - lo + 1)) on spans of 1 and 2: one whose SSR
             count, function counts and critical value are each one value,
             and one with two critical values
  train      a few episodes at the compare width, and again with a replay
             and a target sync interval small enough that the replay wraps
             around and the target network syncs
  compare    all five algorithms, including defdrel, on the sweep [10, 20], and
             again on buckets where about half the functions fit the fog, so
             the greedy rollouts alternate forced runs and free decisions; last,
             on the unsorted sweep [100, 10, 55] with two runs, whose buckets of
             uneven sizes one stacked pass pads and whose rows it reorders
  oracle     on the generated default bucket
  validate   on a copy of that bucket edited to break rules in two SSRs, so
             the order and wording of its VIOLATION lines are pinned

and then runs ``demos/cost_model_walkthrough.py`` of the checkout whose
``src/`` holds the imported package. One line ``<sha256>  <name>`` is printed
per output file, for the oracle's, the demo's and validate's stdout, for each
checkpoint's ``<dir>/checkpoint params``: the bytes of the ``params`` vector
that ``ValueNetwork.load`` reads from it, and for ``bucket arrays`` and ``sweep
arrays``: the bytes of the loaded bucket's ``table``, then of its cost context's
``priority``, ``fog_step``, ``cloud_step``, ``fog_comp`` and ``cloud_comp``.
Those stay equal when only a file format changes. Two source trees whose lines
match wrote byte-identical outputs.

Run: PYTHONPATH=<checkout>/src python tools/output_digests.py
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

import fogplace.cli
from fogplace.agent import ValueNetwork
from fogplace.experiment import load_config, save_config
from fogplace.model import load_bucket

CONFIG = {
    "agent": {"episodes": 3},
    "experiment": {
        "sweep": [10, 20],
        "algorithms": ["defdrel", "fog_first", "cloud_only", "random", "greedy_cost"],
        "runs_per_point": 2,
    },
}
# 680 steps: two wrap-arounds of a 300-row replay and 13 target syncs
WRAP_CONFIG = {**CONFIG, "agent": {"episodes": 12, "replay_capacity": 300,
                                   "target_sync_interval": 50}}
# functions that fit the fog but for a cpu demand drawn in [1, 3] against the
# fog's 2-core cap: about half of them fit it
MIXED_CONFIG = {**CONFIG, "generator": {
    "cpu_demand": [1.0, 3.0], "ram_demand": [100.0, 1024.0], "storage_demand": [10.0, 1024.0],
    "net_io_demand": [10.0, 2048.0], "code_size": [10.0, 300.0], "input_size": [100.0, 1500.0],
}}
# an unsorted sweep of uneven sizes: a padding or row-order fault changes its outputs
RAGGED_CONFIG = {**CONFIG, "experiment": {**CONFIG["experiment"], "sweep": [100, 10, 55]}}
# every count range and the critical value a single value: each integer's double is
# drawn, and floor(u * 1) is 0
POINT_CONFIG = {"generator": {"n_ssrs": [3, 3], "functions_per_ssr": [4, 4],
                              "critical_value": [2, 2]}}
# a critical value on a span of 2: floor(u * 2) splits the doubles at 0.5
TWO_CRITICAL_CONFIG = {"generator": {"critical_value": [4, 5]}}
OUTPUT_FILES = (
    "saved_config.json",
    "bucket.json",
    "sweep.json",
    "run/checkpoint.json",
    "run/training_log.csv",
    "results/results_detail.csv",
    "results/results_mean.csv",
)
DEMO = "cost_model_walkthrough.py"


def run(*argv: str, expected_code: int = 0) -> str:
    """``fogplace <argv>``; returns its stdout and stops on any other exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fogplace.cli.main(list(argv))
    if code != expected_code:
        raise SystemExit(f"fogplace {' '.join(argv)} exited {code}")
    return out.getvalue()


def broken_bucket(bucket_path: Path, out: Path) -> None:
    """Write a copy of the bucket that breaks these rules, in its first two SSRs: the
    importance factors' sum, a user latency, a cloud fit, a user priority, and a
    function priority next to a cloud fit of the same function."""
    doc = json.loads(bucket_path.read_text())
    functions = doc["functions"]
    second = doc["function_count"][0]  # the table row of SSR 1's first function
    doc["importance_factors"]["cpu"] += 0.5
    doc["user_latency"][0] = 0.0
    functions["ram"][1] = 1e6
    doc["user_priority"][1] = 1.5
    functions["priority"][second] = -1.0
    functions["code_size"][second] = 1e4
    out.write_text(json.dumps(doc))


def bucket_arrays(path: Path) -> bytes:
    """The table of the bucket that ``path`` loads to, then its cost context's vectors."""
    bucket = load_bucket(path)
    vectors = (getattr(bucket.costs, name) for name in
               ("priority", "fog_step", "cloud_step", "fog_comp", "cloud_comp"))
    return bucket.table.tobytes() + b"".join(vector.tobytes() for vector in vectors)


def loaded_params(run_dir: Path) -> bytes:
    """The parameters of the network that ``run_dir``'s checkpoint loads to."""
    return ValueNetwork.load(run_dir / "checkpoint.json").params.tobytes()


def digests(work: Path) -> list[tuple[str, str]]:
    """(sha256, name) of every output of the job, run inside ``work``."""
    config = work / "config.json"
    config.write_text(json.dumps(CONFIG))
    save_config(load_config(config), work / "saved_config.json")
    run("generate", "--config", str(config), "--out", str(work / "bucket.json"))
    run("generate", "--config", str(config), "--sweep-n", "40", "--out", str(work / "sweep.json"))
    run("train", "--config", str(config), "--out", str(work / "run"))
    run("compare", "--config", str(config), "--checkpoint", str(work / "run" / "checkpoint.json"),
        "--out", str(work / "results"))
    outputs = [(name, (work / name).read_bytes()) for name in OUTPUT_FILES]
    outputs += [(f"{name} arrays", bucket_arrays(work / f"{name}.json"))
                for name in ("bucket", "sweep")]
    outputs.append(("run/checkpoint params", loaded_params(work / "run")))
    outputs.append(("oracle stdout", run("oracle", str(work / "bucket.json")).encode()))
    broken_bucket(work / "bucket.json", work / "broken.json")
    outputs.append(("validate stdout",
                    run("validate", str(work / "broken.json"), expected_code=1).encode()))
    demo = Path(fogplace.__file__).resolve().parents[2] / "demos" / DEMO
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    outputs.append((f"{DEMO} stdout", out.getvalue().encode()))
    wrap_config = work / "wrap_config.json"
    wrap_config.write_text(json.dumps(WRAP_CONFIG))
    run("train", "--config", str(wrap_config), "--out", str(work / "wrap"))
    outputs += [(name, (work / name).read_bytes())
                for name in ("wrap/checkpoint.json", "wrap/training_log.csv")]
    outputs.append(("wrap/checkpoint params", loaded_params(work / "wrap")))
    mixed_config = work / "mixed_config.json"
    mixed_config.write_text(json.dumps(MIXED_CONFIG))
    run("compare", "--config", str(mixed_config), "--checkpoint",
        str(work / "run" / "checkpoint.json"), "--out", str(work / "mixed"))
    outputs += [(name, (work / name).read_bytes())
                for name in ("mixed/results_detail.csv", "mixed/results_mean.csv")]
    run("generate", "--config", str(config), "--sweep-n", "100", "--out", str(work / "sweep100.json"))
    for name, doc in (("point", POINT_CONFIG), ("two_critical", TWO_CRITICAL_CONFIG)):
        (work / f"{name}_config.json").write_text(json.dumps(doc))
        run("generate", "--config", str(work / f"{name}_config.json"),
            "--out", str(work / f"{name}.json"))
    outputs += [(name, (work / name).read_bytes())
                for name in ("sweep100.json", "point.json", "two_critical.json")]
    ragged_config = work / "ragged_config.json"
    ragged_config.write_text(json.dumps(RAGGED_CONFIG))
    run("compare", "--config", str(ragged_config), "--checkpoint",
        str(work / "run" / "checkpoint.json"), "--out", str(work / "ragged"))
    outputs += [(name, (work / name).read_bytes())
                for name in ("ragged/results_detail.csv", "ragged/results_mean.csv")]
    return [(hashlib.sha256(data).hexdigest(), name) for name, data in outputs]


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fogplace-digests-") as tmp:
        for digest, name in digests(Path(tmp)):
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
