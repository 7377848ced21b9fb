"""Run one rockland benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fundsol --seed 1 --seconds 20 --trace 0

Run from the root of a rockland checkout; rockland is loaded from ./src.
Lines before the last describe the machine and every metric with its unit
and sample count; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer metrics
of a run in which the layer boundaries are wrapped in spans.  The run's
record (machine, every printed row, each item's times, the result and, when
traced, the spans and counters) goes to perfbench/out/<workload>-seed<n>-trace<0|1>.json.  The
exit code is 0 when every correctness gate passed, 1 when one failed and 2
on a usage error.
"""

import os

# BLAS threads spin inside scipy's L-BFGS-B routine under contention, so the
# benchmark pins them before numpy is first loaded.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

from time import perf_counter  # noqa: E402

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from stats import failed_share, percentile, tail_percentiles  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402


# the import is timed in this process and in fresh interpreters, and setup_s
# takes the median, like every repeated set-up: one import is too noisy alone
IMPORT_CODE = ("import sys; sys.path[:0] = sys.argv[1:]; from workloads "
               "import Run; run = Run(0, 1.0, '.', '.')\n"
               "with run.setup_step(): import rockland, rockland.cli\n"
               "print(run.scaled(run.setup_builds)[0])")
IMPORT_REPEATS = 3


def fresh_import_s() -> float:
    """Scaled seconds to import rockland in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, HERE, SRC],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def commit() -> str:
    """The checkout's commit, or 'unknown' outside a git repository."""
    # the ceiling keeps git from searching above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine(seed: int) -> dict:
    import numpy
    import scipy
    import sympy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "sympy": sympy.__version__,
        "commit": commit(),
        "seed": seed,
    }


def end_to_end(run: Run, setup_s: float) -> dict:
    """The end-to-end metrics of BENCHMARK.json as (value, unit, samples)."""
    ops, batch = run.round_s(run.op_items), run.round_s(run.batch_items)
    return {
        "setup_s": (setup_s, "s", len(run.setup_builds)),
        "wall_s": (setup_s + ops + batch, "s", run.rounds),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", 1),
        "ops_ok_frac": (1.0 - failed_share(run.attempted, run.failed),
                        "ratio", run.attempted),
        "op_per_s": (run.ops_per_round / ops, "1/s", len(run.op_times)),
        "op_p50_ms": (1e3 * run.op_p50_s(), "ms", len(run.op_items)),
        "batch_s": (batch, "s", len(next(iter(run.batch_items.values())))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rockland", "__init__.py")):
        print(f"error: no rockland sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    sys.path.insert(0, SRC)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    run = Run(args.seed, args.seconds, ROOT, OUT, tracer)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run.warnings = caught
        imported = Run(args.seed, args.seconds, ROOT, OUT)
        with imported.setup_step():
            import rockland  # noqa: F401
            import rockland.cli  # noqa: F401
        if tracer is not None:
            import layers
            layers.install(tracer)
        try:
            WORKLOADS[args.workload](run)
        finally:
            if tracer is not None:
                tracer.restore()
    t_end = perf_counter()
    imports = imported.scaled(imported.setup_builds) + [
        fresh_import_s() for _ in range(IMPORT_REPEATS - 1)]
    setup_s = statistics.median(imports) + statistics.median(
        run.scaled(run.setup_builds))

    info = machine(args.seed)
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload}: {run.attempted} operations, "
          f"{run.failed} failed, gates "
          + ", ".join(f"{k}={'pass' if v else 'FAIL'}"
                      for k, v in sorted(run.gates.items())))
    for err in run.errors:
        print("first errors:\n" + err, file=sys.stderr)

    e2e = end_to_end(run, setup_s)
    rows = dict(e2e)
    n = len(run.op_times)
    op_times = run.scaled(run.op_times)
    rows[f"{run.op_name}_p50_ms"] = e2e["op_p50_ms"]
    for p in tail_percentiles(n):
        rows[f"{run.op_name}_p{p}_ms"] = (1e3 * percentile(op_times, p),
                                          "ms", n)
    rows.update(run.notes)
    rows["machine_speed"] = (run.speed.speed(), "ratio",
                             len(run.speed.probes))
    rows["unscaled_s"] = (t_end - T_START, "s", 1)
    for name, (value, unit, samples) in rows.items():
        print(f"  {name:<24} {value:>14.6g} {unit:<6} samples={samples}")

    record = {"machine": info, "workload": args.workload,
              "rows": {k: {"value": v, "unit": u, "samples": s}
                       for k, (v, u, s) in rows.items()},
              "op_items": {str(k): run.scaled(v)
                           for k, v in run.op_items.items()},
              "batch_items": {str(k): run.scaled(v)
                              for k, v in run.batch_items.items()}}
    if tracer is None:
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    else:
        metrics = per_layer(tracer, run, setup_s, e2e["wall_s"][0], t_end)
        record.update({"span_fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans, "counters": tracer.counters,
                       "busy": tracer.busy})
    correct = all(run.gates.values())
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record["result"] = result
    with open(result_path(args.workload, args.seed, args.trace), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0 if correct else 1


def result_path(workload: str, seed: int, trace: int) -> str:
    """Where a run writes its machine record, every printed row, each item's
    times and, when traced, its spans and counters."""
    return os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")


def per_layer(tracer, run: Run, setup_s: float, wall_s: float,
              t_end: float) -> dict:
    """Per-layer metrics with their units."""
    import layers

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    values = layers.layer_metrics(tracer, run, T_START, t_end, setup_s,
                                  wall_s)
    for name, value in sorted(values.items()):
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


if __name__ == "__main__":
    sys.exit(main())
