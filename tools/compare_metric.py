"""Replay the metric benchmark workload's operations on two rockland trees.

    python3 tools/compare_metric.py SRC_A SRC_B [--seeds 1 2 3] [--rounds 3]

SRC_A and SRC_B are the roots of two rockland checkouts (each holding
src/rockland).  For every seed, each tree runs the metric workload of
perfbench/workloads.py in this checkout for exactly --rounds rounds, with
its seeded systems, distance pairs and ball-volume curves, and with no
timing: the clock decides neither how many rounds run nor any result, so
both trees run the same operations on the same inputs.  Per seed the
report lists the operations that fail on either tree (a raise or a result
the workload rejects), the distribution of upper_B / upper_A - 1 over the
distances and whether every ball volume agrees.  The exit code is 1 when
any ball_volume result (hits, estimate, interval) differs, 0 when none
does and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# runs in a fresh interpreter on one tree: argv[1] is perfbench/, argv[2]
# the round count and argv[3:] the seeds; prints, per seed, the workload's
# gates and [kind, round, result, ok] per operation
DRIVER = """
import json, sys, tempfile
from time import perf_counter
sys.path.insert(0, sys.argv[1])
import workloads

class Clockless:
    def tick(self): pass
    def burst(self, count=0): pass
    def scaled(self, timing): return timing[1]

class Replay(workloads.Run):
    def __init__(self, seed, rounds, scratch):
        super().__init__(seed, 0.0, sys.argv[1], scratch)
        self.speed = Clockless()
        self.fixed_rounds = rounds
        self.ops = []

    def more_rounds(self, stop, minimum=1):
        return self.rounds < self.fixed_rounds

    def attempt(self, fn, *args, ok=None):
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self.ops.append([fn.__name__, self.rounds, repr(exc), False])
            return None, (t0, perf_counter() - t0)
        if fn.__name__ == "distance":
            got = [result.upper, result.lower]
        else:
            got = [[v.hits, v.estimate, list(v.confidence_interval)]
                   for v in result]
        self.ops.append([fn.__name__, self.rounds, got, bool(ok(result))])
        return result, (t0, perf_counter() - t0)

out = {}
for seed in map(int, sys.argv[3:]):
    with tempfile.TemporaryDirectory() as scratch:
        run = Replay(seed, int(sys.argv[2]), scratch)
        workloads.metric(run)
    out[seed] = {"ops": run.ops, "gates": run.gates}
print(json.dumps(out))
"""


def replay(tree: str, seeds, rounds: int):
    """Per seed, the operations and gates of the metric workload on tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="compare-metric-") as cwd:
        proc = subprocess.run(
            [sys.executable, "-c", DRIVER, os.path.join(ROOT, "perfbench"),
             str(rounds)] + [str(s) for s in seeds],
            cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: metric replay failed\n{proc.stderr}")
    return {int(k): v for k, v in json.loads(proc.stdout).items()}


def _failed(ops):
    return {k for k, (_, _, _, ok) in enumerate(ops) if not ok}


def _describe(k, ops) -> str:
    kind, rnd, result, _ = ops[k]
    if kind == "curve" and isinstance(result, list):
        result = "hits " + str([v[0] for v in result])
    return f"op {k} (round {rnd}) {kind}: {result}"


def compare_seed(seed: int, a, b) -> bool:
    """Print one seed's comparison; True when every ball volume agrees."""
    ops_a, ops_b = a["ops"], b["ops"]
    if [op[0] for op in ops_a] != [op[0] for op in ops_b]:
        print(f"seed {seed}: the trees ran different operations")
        return False
    fail_a, fail_b = _failed(ops_a), _failed(ops_b)
    dist = [k for k, op in enumerate(ops_a) if op[0] == "distance"]
    balls = [k for k, op in enumerate(ops_a) if op[0] != "distance"]
    print(f"seed {seed}: {len(dist)} distances, {len(balls)} ball curves; "
          f"failed A {len(fail_a)}, B {len(fail_b)}"
          + (" (the same operations)" if fail_a == fail_b else ""))
    for k in sorted(fail_a | fail_b):
        side = "A and B" if k in fail_a & fail_b else \
            "A only" if k in fail_a else "B only"
        print(f"    failed on {side}: {_describe(k, ops_a)}"
              + ("" if k in fail_a & fail_b else
                 f" / B {_describe(k, ops_b)}"))
    rel = [ops_b[k][2][0] / ops_a[k][2][0] - 1.0 for k in dist
           if isinstance(ops_a[k][2], list) and isinstance(ops_b[k][2], list)
           and ops_a[k][2][0] > 0]
    if rel:
        q = statistics.quantiles(rel, n=4) if len(rel) > 1 else rel * 3
        print(f"    upper_B/upper_A - 1 over {len(rel)}: min {min(rel):.3e}, "
              f"q1 {q[0]:.3e}, median {q[1]:.3e}, q3 {q[2]:.3e}, "
              f"max {max(rel):.3e}; {sum(r < 0 for r in rel)} lower, "
              f"{sum(r > 0 for r in rel)} higher")
    same = [ops_a[k][2] == ops_b[k][2] for k in balls]
    print(f"    ball_volume: {sum(same)} of {len(balls)} curves identical")
    if a["gates"] != b["gates"]:
        print(f"    gates differ: A {a['gates']}, B {b['gates']}")
    return all(same)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)
    for tree in (args.src_a, args.src_b):
        if not os.path.isfile(os.path.join(tree, "src", "rockland",
                                           "__init__.py")):
            print(f"error: no rockland sources under {tree}", file=sys.stderr)
            return 2
    if args.rounds < 1:
        print(f"error: --rounds must be at least 1, got {args.rounds}",
              file=sys.stderr)
        return 2
    runs = [replay(os.path.abspath(tree), args.seeds, args.rounds)
            for tree in (args.src_a, args.src_b)]
    agree = [compare_seed(s, runs[0][s], runs[1][s]) for s in args.seeds]
    print(f"ball volumes identical on {sum(agree)} of {len(agree)} seeds")
    return 0 if all(agree) else 1


if __name__ == "__main__":
    sys.exit(main())
