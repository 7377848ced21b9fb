"""Run every workload and print every end-to-end metric in one table.

    python3 perfbench/suite.py                  # seed 1
    python3 perfbench/suite.py --seeds 1 2 3 4 5

Every workload runs untraced and traced once per seed, each run its own
`perfbench/run.py` process of BENCHMARK.json's run_seconds, one at a time.
For each workload the table gives every end-to-end metric and every other
row the runs print, with its unit, the median over the seeds, the spread
(third minus first quartile over the median, as the acceptance check
computes it) and the per-run sample count.  Below it come the tracing
overhead (traced wall_s minus untraced wall_s), the share of the run covered
by top-level layer spans and, on fundsol, the share of setup_s spent in
kernel calibration.  The collected records also go to
perfbench/out/suite.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import result_path  # noqa: E402
from stats import quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(cmd)} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    with open(result_path(workload, seed, trace), encoding="utf-8") as fh:
        record = json.load(fh)
    record["exit"] = proc.returncode
    record.pop("spans", None)   # they stay in the run's own record
    return record


def spread(values):
    return quartile_spread(values) if len(values) >= 2 else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    seconds = bench["run_seconds"]

    results = {}
    ok = True
    for workload in names:
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        traced = [run_once(workload, s, seconds, 1) for s in args.seeds]
        results[workload] = {"seeds": args.seeds, "runs": runs,
                             "traced": traced}
        print(f"\n{workload}  (seeds {args.seeds}, {seconds} s runs)")
        print(f"  {'metric':<24}{'median':>14}  {'unit':<6}{'spread':>8}"
              f"{'bound':>7}  samples/run")
        extra = sorted({k for r in runs for k in r["rows"]}
                       - {m["name"] for m in bench["end_to_end"]})
        for m in bench["end_to_end"] + [{"name": k} for k in extra]:
            name = m["name"]
            vals = [r["rows"][name]["value"] for r in runs
                    if name in r["rows"]]
            if not vals:
                continue
            samples = sorted({r["rows"][name]["samples"] for r in runs
                              if name in r["rows"]})
            unit = runs[0]["rows"].get(name, {}).get("unit", "")
            bound = f"{m['bound']:.2f}" if "bound" in m else ""
            print(f"  {name:<24}{statistics.median(vals):>14.6g}  {unit:<6}"
                  f"{spread(vals):>8.3f}{bound:>7}  "
                  f"{samples[0]}..{samples[-1]}")
        res = [r["result"] for r in runs]
        ok = ok and all(r["result"]["correct"] and r["exit"] == 0
                        for r in runs + traced)
        print(f"  correct on every run: {all(r['correct'] for r in res)}; "
              f"attempted {[r['attempted'] for r in res]}, "
              f"failed {[r['failed'] for r in res]}")
        lm = [t["result"]["metrics"] for t in traced]
        over = [t["trace.wall_s"]["value"] - r["metrics"]["wall_s"]["value"]
                for t, r in zip(lm, res)]
        cover = [t["trace.root_coverage"]["value"] for t in lm]
        print(f"  tracing overhead (traced - untraced wall_s): "
              f"median {statistics.median(over):+.3f} s; top-level layer "
              f"spans cover {min(cover):.1%}..{max(cover):.1%} of the run")
        if workload == "fundsol":
            share = [t["fundsol.calibrate_share"]["value"] for t in lm]
            print(f"  fundsol.calibrate_s is "
                  f"{statistics.median(share):.1%} of setup_s")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "suite.json"), "w",
              encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
