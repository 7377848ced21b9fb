"""Check that two rockland source trees write byte-identical reports.

    python3 tools/compare_reports.py SRC_A SRC_B [--seeds 501 777]
        [--passes 3] [--workdir DIR]

SRC_A and SRC_B are the roots of two rockland checkouts (each holding
src/rockland).  The models are the bundled models of SRC_A and seeded
passes over the catalogue of the symbolic benchmark workload
(perfbench/workloads.py of this checkout), drawn as that workload draws
them: each pass holds one fresh member of every catalogue family.  Every
model is written once into the work directory, and each tree runs
`rockland report --json` on the same model paths, all reports in one
process, so the reports share every byte that does not come from the code.
The exit code is 0 when every report and exit code agree, 1 when one
differs and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import difflib
import glob
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import CATALOGUE, catalogue_model  # noqa: E402

# runs in a fresh interpreter on one tree: argv[1] holds the (model, report)
# path pairs; prints each report's exit code
DRIVER = """
import contextlib, io, json, sys
from rockland.cli import main
for model, out in json.load(open(sys.argv[1], encoding="utf-8")):
    with contextlib.redirect_stdout(io.StringIO()):
        print(main(["report", "--model", model, "--json", out]),
              file=sys.__stdout__)
"""


def catalogue_texts(seed: int, passes: int):
    """(name, model text) of `passes` seeded catalogue passes."""
    rng = random.Random(seed)
    seen = set()
    out = []
    for k in range(passes):
        for family, param in CATALOGUE:
            text, _ = catalogue_model(rng, family, param)
            while text in seen:
                text, _ = catalogue_model(rng, family, param)
            seen.add(text)
            out.append((f"s{seed}_p{k}_{family}{param}", text))
    return out


def run_tree(tree: str, jobs, workdir: str, label: str):
    """Each report's exit code and JSON bytes under tree."""
    outdir = os.path.join(workdir, label)
    os.makedirs(outdir)
    pairs = [(model, os.path.join(outdir, name + ".json"))
             for name, model in jobs]
    listing = os.path.join(workdir, label + "-jobs.json")
    with open(listing, "w", encoding="utf-8") as fh:
        json.dump(pairs, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", DRIVER, listing], cwd=workdir,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: report run failed\n{proc.stderr}")
    codes = [int(v) for v in proc.stdout.split()]
    reports = []
    for _, out in pairs:
        if os.path.exists(out):
            with open(out, "rb") as fh:
                reports.append(fh.read())
        else:
            reports.append(b"")
    return codes, reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument("--seeds", type=int, nargs="*", default=[501, 777])
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--workdir", help="keep the models and reports here "
                        "(a new directory; default a temporary one)")
    args = parser.parse_args(argv)
    for tree in (args.src_a, args.src_b):
        if not os.path.isfile(os.path.join(tree, "src", "rockland",
                                           "__init__.py")):
            print(f"error: no rockland sources under {tree}", file=sys.stderr)
            return 2
    if args.workdir and os.path.exists(args.workdir):
        print(f"error: --workdir {args.workdir} already exists",
              file=sys.stderr)
        return 2
    workdir = args.workdir or tempfile.mkdtemp(prefix="compare-reports-")
    os.makedirs(workdir, exist_ok=True)
    workdir = os.path.abspath(workdir)
    try:
        models = os.path.join(workdir, "models")
        os.makedirs(models)
        names = []
        for path in sorted(glob.glob(os.path.join(args.src_a, "models",
                                                  "*.model"))):
            name = os.path.basename(path)[:-len(".model")]
            shutil.copy(path, os.path.join(models, name + ".model"))
            names.append(name)
        bundled = len(names)
        for seed in args.seeds:
            for name, text in catalogue_texts(seed, args.passes):
                with open(os.path.join(models, name + ".model"), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
                names.append(name)
        jobs = [(name, os.path.join(models, name + ".model")) for name in names]
        codes_a, reps_a = run_tree(os.path.abspath(args.src_a), jobs, workdir, "a")
        codes_b, reps_b = run_tree(os.path.abspath(args.src_b), jobs, workdir, "b")
        differ = [k for k in range(len(jobs))
                  if codes_a[k] != codes_b[k] or reps_a[k] != reps_b[k]]
        for k in differ:
            name = jobs[k][0]
            print(f"DIFFERS {name}: exit {codes_a[k]} vs {codes_b[k]}")
            diff = difflib.unified_diff(
                reps_a[k].decode().splitlines(), reps_b[k].decode().splitlines(),
                "a/" + name, "b/" + name, lineterm="", n=1)
            for line in list(diff)[:20]:
                print("    " + line)
        print(f"{len(jobs) - len(differ)} of {len(jobs)} reports identical "
              f"({bundled} bundled models, {len(jobs) - bundled} catalogue "
              f"members; exit codes {sorted(set(codes_a))})")
        return 1 if differ else 0
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
