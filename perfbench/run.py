"""fogplace benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload train-wide --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` of that checkout and refuses to run without it. With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run.
Outputs, the machine record and the spans go to ``perfbench/out/``.
See perfbench/README.md for the workloads and metrics.
"""
import time

T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS to one thread before numpy loads: with default OpenBLAS threads a
# batch-64 forward pass at the 1101-input width ran about 20x slower on a
# 2-CPU machine. Any parallel evaluation must pin BLAS threads the same way.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description="fogplace benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("train-wide", "sweep-compare", "small-exact"))
    parser.add_argument("--seed", type=int, default=20211029,
                        help="workload seed; every input is generated from it")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the measured part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, one set-up (self-check only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_package():
    """Import fogplace from this checkout's src/, and nowhere else."""
    if not (SRC / "fogplace" / "__init__.py").is_file():
        raise SystemExit(f"error: no fogplace sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fogplace

    if Path(fogplace.__file__).resolve().parent != (SRC / "fogplace").resolve():
        raise SystemExit(f"error: fogplace imported from {fogplace.__file__}, not from {SRC}")


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def start_and_import_s() -> float:
    """Wall time of a fresh interpreter that imports the package and exits."""
    t = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import fogplace.cli"],
        check=True, timeout=60,
    )
    return time.perf_counter() - t


def machine_record(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


def quartiles(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import spans
    from workloads import WORKLOADS, Ledger

    import_s = time.perf_counter() - T0
    record = machine_record(args.seed)
    work = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    ledger = Ledger()
    workload = WORKLOADS[args.workload](args.seed, work, args.tiny, ledger)
    # Process start and import happen once in this process, so they are
    # timed in fresh interpreters, as often as the set-up is repeated.
    setup_repeats = 1 if args.tiny else SETUP_REPEATS
    start_times = [start_and_import_s() for _ in range(setup_repeats)]
    setup_times = []
    for _ in range(setup_repeats):
        t = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t)

    # Repeats run back to back until the time is up. In a traced run every
    # second repeat is traced, so the traced and untraced walls compare like
    # with like; the first repeat is never traced.
    untraced, traced = [], []  # (wall s, work units, phases) / (wall s, tracer)
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        rep = work / f"rep{index}"
        tracer = spans.Tracer() if args.trace and index % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        t = time.perf_counter()
        try:
            units = (tracer.span(spans.ROOT_SPAN, workload.job, rep) if tracer
                     else workload.job(rep))
        finally:
            wall = time.perf_counter() - t
            if tracer is not None:
                tracer.uninstall()
        if tracer is None:
            untraced.append((wall, units, dict(workload.phases)))
        else:
            traced.append((wall, tracer))
        workload.check(rep, first=index == 0)
        index += 1
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break
    quality = workload.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rates = [units / wall for wall, units, _ in untraced]
    named = {}
    for name in untraced[0][2]:
        named[name] = quartiles([p[name][0] / p[name][1] for _, _, p in untraced])
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "import_s": import_s,
        "start_and_import_s": start_times,
        "setup_repeat_s": setup_times,
        "untraced_repeats": len(untraced),
        "throughput_per_repeat": quartiles(rates),
        "repeat_rates": rates,
        "named_rates": named,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": ledger.failed / ledger.attempted,
        "failures": ledger.messages,
        **workload.detail,
    }

    if args.trace:
        metrics = traced_metrics(spans, traced, [w for w, _, _ in untraced], ledger, detail)
        tracer = sorted(traced, key=lambda t: t[0])[len(traced) // 2][1]
        tracer.write_spans(work / "spans.csv")
        print_layer_table(args.workload, metrics)
    else:
        values = {
            "setup_s": (statistics.median(start_times) + statistics.median(setup_times), "s"),
            "throughput": (statistics.median(rates), "1/s"),
            "agent_cost_ratio": (quality, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        for name, q in named.items():
            print(f"{args.workload}: {name} median {q['median']:.4g} over {q['n']} repeats")
    detail["metrics"] = metrics
    (work / "result.json").write_text(
        json.dumps({"machine": record, "detail": detail}, indent=2, sort_keys=True))
    print(f"machine: {json.dumps(record, sort_keys=True)}")
    print(f"{args.workload}: {ledger.attempted} operations, {ledger.failed} failed, "
          f"{len(untraced)} untraced and {len(traced)} traced repeats")
    for message in ledger.messages:
        print(f"FAILED: {message}")

    correct = ledger.failed == 0 and all(
        isinstance(m["value"], (int, float)) and m["value"] == m["value"] for m in metrics.values()
    )
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def traced_metrics(spans, traced, untraced_walls, ledger, detail) -> dict:
    """Median per-layer figures over the traced repeats, plus the trace's own cost."""
    per_repeat = [tracer.figures(detail.get("oracle_placements_per_repeat", 0))
                  for _, tracer in traced]
    shares = [tracer.self_sum_ms() / (wall * 1e3) for wall, tracer in traced]
    # repeat 2k+1 is traced and repeat 2k is not: pairing neighbours keeps
    # slow drifts of the machine out of the difference
    overhead_ms = statistics.median(
        (traced_wall - untraced_wall) * 1e3
        for (traced_wall, _), untraced_wall in zip(traced, untraced_walls)
    )
    # self times partition the root span, so they must account for the traced wall
    share = statistics.median(shares)
    op, _ = ledger.call("trace accounting", lambda: None)
    ledger.check(op, abs(share - 1.0) <= 0.03,
                 f"span self times sum to {share:.4f} of the traced wall time")
    detail["absent_callables"] = sorted({n for _, t in traced for n in t.absent})
    detail["traced_repeats"] = len(traced)
    values = {}
    for name, unit, _ in spans.per_layer_metric_specs():
        if name == "trace.overhead_ms":
            value = overhead_ms
        elif name == "trace.self_sum_share":
            value = share
        else:
            value = statistics.median(r[name] for r in per_repeat)
        values[name] = {"value": value, "unit": unit}
    return values


def print_layer_table(workload: str, metrics: dict) -> None:
    print(f"{workload}: per-layer self time, median over traced repeats")
    print(f"{'span':48s} {'calls':>10s} {'self ms':>12s}")
    for name in sorted(k[:-len(".calls")] for k in metrics if k.endswith(".calls")):
        calls = metrics[f"{name}.calls"]["value"]
        if calls:
            print(f"{name:48s} {calls:10.0f} {metrics[f'{name}.self_ms']['value']:12.2f}")
    for name in ("env.steps", "env.free_decision_ratio", "agent.forward_ratio",
                 "agent.learn_per_step", "baselines.oracle_placements", "bench.job.self_ms",
                 "trace.overhead_ms", "trace.self_sum_share"):
        print(f"{name:48s} {metrics[name]['value']:23.4f}")


if __name__ == "__main__":
    sys.exit(main())
