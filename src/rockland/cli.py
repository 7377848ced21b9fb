"""Command-line front end: analyze, lift, gamma, verify, distance, ballvol,
heat, and report over model files written in the declaration language.

Every command reads a model with --model, runs seeded deterministic checks,
optionally writes a JSON report (--json) and a CSV table (--csv), prints a
one-line status per check, and exits 0 iff every check passed.
"""

from __future__ import annotations

import argparse
import functools
import io
import csv as _csv
import json
import math
import os
import random
import sys
import tempfile
from typing import List, Optional, Sequence, Tuple

from .fields import (
    DilationFamily,
    certify_homogeneity,
    classify_positive_rockland_pattern,
    heat_extend,
)
from .fundsol import (
    BumpSpec,
    ExistenceError,
    SaturationEvaluator,
    calibration_residuals,
    kernel_calibrate,
    require_existence,
)
from .kernels import heisenberg_gauge_kernel
from .liealg import generate_lie_algebra, hormander_rank, nilpotency_step
from .lifting import build_lifting, lift_identity_check, saturable_check
from .metric import _TOL, MetricSpace
from .model import ModelParseError, ModelSpec, load_model
from .poly import Poly

SCHEMA_VERSION = "2"

# "tol" is the library's own default distance tolerance
DEFAULTS = {"tol": _TOL, "seed": 0, "samples": 200, "radius": 1.0}

VERIFY_TOLS = {
    "calibration": 1e-3,
    "homogeneity": 1e-6,
    "symmetry": 1e-5,
    "left_inverse": 5e-3,
    "tail_doubling": 0.0,
}


# -- report plumbing -----------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rockland-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class Report:
    """Accumulates named checks and results into a schema-versioned document."""

    def __init__(self, command: str, model: ModelSpec, model_path: str,
                 args: argparse.Namespace):
        self.doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "model": {"path": model_path, "canonical": model.render(),
                      **model.describe()},
            "flags": {"tol": args.tol, "seed": args.seed,
                      "samples": args.samples,
                      "at": args.at or [],
                      "defaults": dict(DEFAULTS)},
            "checks": [],
            "results": {},
            "artifacts": [],
        }
        if hasattr(args, "radius"):
            self.doc["flags"]["radius"] = args.radius

    def check(self, name: str, residual: float, tolerance: float,
              seed: Optional[int] = None) -> bool:
        status = "pass" if residual <= tolerance else "fail"
        self.doc["checks"].append({
            "name": name, "status": status,
            "residual": float(residual), "tolerance": float(tolerance),
            "seed": seed,
        })
        return status == "pass"

    @property
    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.doc["checks"])

    def emit(self, args: argparse.Namespace,
             csv_rows: Optional[Tuple[List[str], List[List]]] = None) -> None:
        if args.csv and csv_rows is not None:
            header, rows = csv_rows
            buf = io.StringIO()
            w = _csv.writer(buf)
            w.writerow(header)
            w.writerows(rows)
            _atomic_write(args.csv, buf.getvalue())
            self.doc["artifacts"].append(args.csv)
        if args.json:
            text = json.dumps(self.doc, indent=2,
                              default=lambda o: o.item()
                              if hasattr(o, "item") else str(o))
            _atomic_write(args.json, text + "\n")
        for c in self.doc["checks"]:
            print(f"[{c['status']}] {c['name']}: residual {c['residual']:.3g}"
                  f" (tolerance {c['tolerance']:.3g})")


def _parse_points(text: str) -> List[List[float]]:
    """The points 'x1,..,xn;y1,..,yn' of an --at value; a coordinate that
    is not a finite number is a ValueError naming it."""
    points = []
    for part in text.split(";"):
        point = []
        for v in part.split(","):
            try:
                x = float(v)
            except ValueError:
                x = math.nan
            if not math.isfinite(x):
                raise ValueError(f"--at {text!r}: coordinate {v.strip()!r} "
                                 "is not a finite number")
            point.append(x)
        points.append(point)
    return points


def _pairs_from_flags(args: argparse.Namespace, n: int,
                      default_count: int = 3) -> List[Tuple[List[float], List[float]]]:
    if args.at:
        pairs = []
        for spec in args.at:
            pts = _parse_points(spec)
            if len(pts) != 2 or any(len(p) != n for p in pts):
                raise ValueError(
                    f"--at {spec!r} must be two {n}-dimensional "
                    "points 'x1,..,xn;y1,..,yn'")
            pairs.append((pts[0], pts[1]))
        return pairs
    rng = random.Random(args.seed)
    pairs = []
    while len(pairs) < default_count:
        x = [rng.uniform(-1, 1) for _ in range(n)]
        y = [rng.uniform(-1, 1) for _ in range(n)]
        if sum((a - b) ** 2 for a, b in zip(x, y)) > 0.1:
            pairs.append((x, y))
    return pairs


# -- shared system construction -------------------------------------------------------

def _algebra(model: ModelSpec):
    return generate_lie_algebra(list(model.fields), model.delta)


def _lifting(model: ModelSpec, algebra=None, step=None):
    basis, sc = algebra or _algebra(model)
    return build_lifting(basis, sc, model.delta, step)


def _evaluator(model: ModelSpec, lifted=None):
    """Lifted system (built unless given), calibrated kernel and saturation
    evaluator, or raise."""
    require_existence(model.operator.nu, sum(model.sigma))
    if model.kernel is None:
        raise ExistenceError(
            "model declares no kernel; fundamental-solution evaluation needs "
            "a closed-form homogeneous kernel on the lifted group "
            "(declare 'kernel heisenberg_gauge;' for step-2 rank-2 lifts)")
    lifted = lifted or _lifting(model)
    shape = heisenberg_gauge_kernel(lifted, nu=model.operator.nu)
    op_lifted = model.operator.with_fields(lifted.lifted_fields)
    kernel = kernel_calibrate(shape, lifted, op_lifted)
    ev = SaturationEvaluator(lifted, model.operator, kernel)
    return lifted, kernel, op_lifted, ev


# -- commands -------------------------------------------------------------------------

# analyze, lift and verify take the algebra or the lifting when report has
# already built it

def cmd_analyze(model: ModelSpec, args, rep: Report, algebra=None):
    basis, sc = algebra or _algebra(model)
    n = model.n
    step = nilpotency_step(sc, basis.degrees)
    rng = random.Random(args.seed)
    points = [[0] * n] + [
        [rng.randint(-3, 3) for _ in range(n)] for _ in range(4)]
    table = [{"point": pt, "rank": hormander_rank(basis, pt)} for pt in points]
    rep.doc["results"] = {
        "nu": list(model.field_degrees),
        "q": sum(model.sigma),
        "N": basis.N,
        "p": basis.N - n,
        "step": step,
        "operator_nu": model.operator.nu,
        "rank_table": table,
    }
    rep.check("hormander_rank_full",
              n - min(row["rank"] for row in table), 0, args.seed)
    rep.check("step_within_dilation_range", max(0, step - model.sigma[-1]), 0)
    rep.check("positive_extra_dimensions", max(0, 1 - (basis.N - n)), 0)
    return [("point", "rank")], [[";".join(map(str, r["point"])), r["rank"]]
                                 for r in table]


def cmd_lift(model: ModelSpec, args, rep: Report, lifted=None):
    lifted = lifted or _lifting(model)
    rep.doc["results"] = json.loads(lifted.to_json())

    # residuals act only in the new variables and are not all zero
    bad = 0
    any_nonzero = False
    for R in lifted.residuals():
        for j, c in enumerate(R.coeffs):
            if c.is_zero():
                continue
            any_nonzero = True
            if j < lifted.n:
                bad += 1
    rep.check("residuals_xi_directions_only", bad, 0)
    rep.check("residuals_nonzero", 0 if any_nonzero else 1, 0)

    group_delta = DilationFamily(lifted.D_exponents)
    mism = sum(
        1 for X, d in zip(lifted.lifted_fields, model.field_degrees)
        if certify_homogeneity(X, group_delta, triangular=False) != d)
    rep.check("lifted_field_homogeneity", mism, 0)

    rng = random.Random(args.seed)
    fails = 0
    for _ in range(20):
        terms = {}
        for _ in range(4):
            mono = tuple(rng.randint(0, 2) for _ in range(lifted.n))
            terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
        u = Poly(lifted.n, {m: c for m, c in terms.items() if c})
        if u.is_zero():
            continue
        if not lift_identity_check(model.operator, lifted, u):
            fails += 1
    rep.check("lift_identity_random_polys", fails, 0, args.seed)

    worst = 0.0
    for _ in range(10):
        a = [rng.uniform(-1, 1) for _ in range(lifted.N)]
        b = [rng.uniform(-1, 1) for _ in range(lifted.N)]
        c = [rng.uniform(-1, 1) for _ in range(lifted.N)]
        ab_c = lifted.mult_eval(lifted.mult_eval(a, b), c)
        a_bc = lifted.mult_eval(a, lifted.mult_eval(b, c))
        worst = max(worst, max(abs(float(u) - float(v))
                               for u, v in zip(ab_c, a_bc)))
        inv = lifted.inverse_eval(a)
        worst = max(worst, max(abs(float(v))
                               for v in lifted.mult_eval(a, inv)))
        lam = 2.0
        da = [lam ** e * v for e, v in zip(lifted.D_exponents, a)]
        db = [lam ** e * v for e, v in zip(lifted.D_exponents, b)]
        dab = [lam ** e * float(v)
               for e, v in zip(lifted.D_exponents, lifted.mult_eval(a, b))]
        worst = max(worst, max(abs(float(u) - v) for u, v in
                               zip(lifted.mult_eval(da, db), dab)))
    rep.check("group_axioms_and_dilation_automorphism", worst, 1e-9, args.seed)

    s1 = saturable_check(model.operator, lifted)
    rep.check("saturable_structure", 0 if s1.ok else 1, 0)
    return None


def cmd_gamma(model: ModelSpec, args, rep: Report):
    pairs = _pairs_from_flags(args, model.n)
    lifted, kernel, op_lifted, ev = _evaluator(model)
    m = len(model.fields)
    rows = []
    finite = True
    for x, y in pairs:
        rec = ev.gamma_record(x, y)
        derivs = {f"d{model.field_names[i]}": ev.gamma_x_derivative((i,), x, y)
                  for i in range(m)}
        finite = finite and math.isfinite(rec.value) \
            and all(math.isfinite(v) for v in derivs.values())
        rows.append({"x": x, "y": y, "gamma": rec.value,
                     "error_bound": rec.error_bound, **derivs})
    rep.doc["results"] = {
        "kernel_constant": kernel.calibration_constant,
        "homogeneity_degree": model.operator.nu - lifted.q,
        "values": rows,
    }
    rep.check("gamma_values_finite", 0 if finite else 1, 0, args.seed)
    header = ["x", "y", "gamma", "error_bound"] \
        + [f"d{nm}" for nm in model.field_names]
    csv_rows = [[";".join(map(str, r["x"])), ";".join(map(str, r["y"])),
                 r["gamma"], r["error_bound"]]
                + [r[f"d{nm}"] for nm in model.field_names] for r in rows]
    return header, csv_rows


def cmd_verify(model: ModelSpec, args, rep: Report, lifted=None):
    unknown = [name for name, _ in model.tols if name not in VERIFY_TOLS]
    if unknown:
        raise ValueError(
            f"{args.model}: unknown tolerance {', '.join(map(repr, unknown))}"
            f" in a tol statement; known: {', '.join(VERIFY_TOLS)}")
    lifted, kernel, op_lifted, ev = _evaluator(model, lifted)
    tols = dict(VERIFY_TOLS)
    tols.update(model.tols)
    if args.tol is not None:
        tols = {k: args.tol for k in tols}
        tols["tail_doubling"] = 0.0
    residuals = calibration_residuals(kernel, op_lifted)
    for i, r in enumerate(residuals):
        rep.check(f"calibration_pole_{i + 1}", r, tols["calibration"])

    pairs = _pairs_from_flags(args, model.n, default_count=5)
    hom = ev.verify_homogeneity(pairs, (0.5, 2.0, 4.0))
    rep.check("joint_homogeneity", hom, tols["homogeneity"], args.seed)

    sym = ev.verify_symmetry(pairs)
    rep.check("symmetry", sym, tols["symmetry"], args.seed)
    star = ev.verify_symmetry(pairs, star=True)
    rep.check("transpose_route_symmetry", star, tols["symmetry"], args.seed)

    bump = BumpSpec(center=(0.0,) * model.n)
    li = ev.verify_left_inverse(bump, list(bump.center))
    rep.check("left_inverse", li, tols["left_inverse"])

    tail = ev.tail_doubling_check(pairs)
    worst = max(max(0.0, d - b) for d, b, _ in tail)
    rep.check("tail_doubling_within_error_bars", worst,
              tols["tail_doubling"], args.seed)

    rep.doc["results"] = {
        "calibration_residuals": residuals,
        "joint_homogeneity": hom,
        "symmetry": sym,
        "transpose_route_symmetry": star,
        "left_inverse": li,
        "tail_doubling": [{"delta": d, "bound": b, "ok": ok}
                          for d, b, ok in tail],
        "tolerances": tols,
    }
    header = ["check", "residual", "tolerance"]
    rows = [[c["name"], c["residual"], c["tolerance"]]
            for c in rep.doc["checks"]]
    return header, rows


def cmd_distance(model: ModelSpec, args, rep: Report):
    space = MetricSpace(model.fields, model.delta)
    pairs = _pairs_from_flags(args, model.n)
    tol = args.tol if args.tol is not None else DEFAULTS["tol"]
    rows = []
    worst = 0.0
    for x, y in pairs:
        res = space.distance(x, y, tol=tol, seed=args.seed)
        worst = max(worst, res.lower - res.upper)
        rows.append({"x": x, "y": y, "lower": res.lower, "upper": res.upper,
                     "seed": res.seed})
    rep.doc["results"] = {"tol": tol, "pairs": rows,
                          "lower_is_box_certificate": True}
    rep.check("distance_bracket_ordered", max(0.0, worst), 0.0, args.seed)
    header = ["x", "y", "lower", "upper"]
    return header, [[";".join(map(str, r["x"])), ";".join(map(str, r["y"])),
                     r["lower"], r["upper"]] for r in rows]


def cmd_ballvol(model: ModelSpec, args, rep: Report):
    space = MetricSpace(model.fields, model.delta)
    if args.at:
        center = _parse_points(args.at[0])[0]
        if len(center) != model.n:
            raise ValueError(f"--at {args.at[0]!r}: the center must have "
                             f"{model.n} coordinates")
    else:
        center = [0.0] * model.n
    radii = [args.radius * 2.0 ** k for k in range(-3, 3)]
    curve = []
    for i, r in enumerate(radii):
        v = space.ball_volume(center, r, n_samples=args.samples,
                              seed=args.seed + i)
        curve.append({"radius": r, "volume": v.estimate,
                      "ci_lo": v.confidence_interval[0],
                      "ci_hi": v.confidence_interval[1],
                      "hits": v.hits, "samples": v.samples, "seed": v.seed})
    main = curve[3]  # the requested radius itself
    rep.doc["results"] = {"center": center, "radius": args.radius,
                          "volume": main["volume"],
                          "confidence_interval": [main["ci_lo"], main["ci_hi"]],
                          "curve": curve,
                          "membership_bias": "over-count (relaxed tolerance)"}
    rep.check("volume_positive",
              0 if main["volume"] > 0 else 1, 0, args.seed)
    mono = sum(1 for a, b in zip(curve, curve[1:])
               if a["ci_lo"] > b["ci_hi"])
    rep.check("volume_curve_monotone_within_ci", mono, 0, args.seed)
    header = ["r", "volume", "ci_lo", "ci_hi", "hits", "samples", "seed"]
    return header, [[c["radius"], c["volume"], c["ci_lo"], c["ci_hi"],
                     c["hits"], c["samples"], c["seed"]] for c in curve]


def cmd_heat(model: ModelSpec, args, rep: Report):
    H, delta_ext = heat_extend(model.operator, model.delta)
    rep.doc["results"] = {
        "extended_dilation": list(delta_ext.sigma),
        "t_exponent": delta_ext.sigma[-1],
        "nu": H.nu,
        "q_extended": sum(delta_ext.sigma),
        "spatial_positive_pattern":
            classify_positive_rockland_pattern(model.operator),
    }
    mism = sum(1 for X in H.fields
               if certify_homogeneity(X, delta_ext, triangular=False)
               != X.declared_degree)
    rep.check("extended_fields_homogeneous", mism, 0)
    rep.check("extended_dimension_grows_by_nu",
              abs(sum(delta_ext.sigma) - sum(model.sigma) - model.operator.nu), 0)
    rep.check("spatial_positive_pattern",
              0 if classify_positive_rockland_pattern(model.operator) else 1, 0)
    return None


def cmd_report(model: ModelSpec, args, rep: Report):
    algebra = _algebra(model)
    cmd_analyze(model, args, rep, algebra)
    analyze_results = rep.doc["results"]
    lifted = _lifting(model, algebra, analyze_results["step"])
    cmd_lift(model, args, rep, lifted)
    lift_results = rep.doc["results"]
    cmd_heat(model, args, rep)
    heat_results = rep.doc["results"]
    results = {"analyze": analyze_results, "lift": lift_results,
               "heat": heat_results}
    try:
        require_existence(model.operator.nu, sum(model.sigma))
        verify = model.kernel is not None
    except ExistenceError:
        verify = False
    if verify:
        cmd_verify(model, args, rep, lifted)
        results["verify"] = rep.doc["results"]
    else:
        results["verify"] = {
            "skipped": "no kernel declared or the existence hypothesis "
                       "nu < q fails; see the gamma command for the gate"}
    rep.doc["results"] = results
    header = ["check", "status", "residual", "tolerance"]
    rows = [[c["name"], c["status"], c["residual"], c["tolerance"]]
            for c in rep.doc["checks"]]
    return header, rows


# the commands whose function returns no CSV table
NO_CSV_TABLE = ("lift", "heat")
# the commands whose function reads no --tol
NO_TOL = ("analyze", "lift", "gamma", "ballvol", "heat")

COMMANDS = {
    "analyze": cmd_analyze,
    "lift": cmd_lift,
    "gamma": cmd_gamma,
    "verify": cmd_verify,
    "distance": cmd_distance,
    "ballvol": cmd_ballvol,
    "heat": cmd_heat,
    "report": cmd_report,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="rockland",
        description="Analysis of dilation-homogeneous vector-field systems: "
                    "lifting, fundamental solutions, control metric.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("analyze", "degrees, homogeneous dimension, rank table"),
            ("lift", "construct and check the lifted group"),
            ("gamma", "evaluate the fundamental solution and derivatives"),
            ("verify", "residual table for the defining identities"),
            ("distance", "weighted control distance between point pairs"),
            ("ballvol", "Monte Carlo ball-volume curve"),
            ("heat", "time extension of the operator"),
            ("report", "aggregate JSON report over all applicable checks")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model file to load")
        p.add_argument("--tol", type=float, default=None,
                       help=f"tolerance override (default {DEFAULTS['tol']} "
                            "for distance, the per-check table for verify "
                            "and report)")
        p.add_argument("--seed", type=int, default=DEFAULTS["seed"],
                       help=f"random seed (default {DEFAULTS['seed']})")
        p.add_argument("--samples", type=int, default=DEFAULTS["samples"],
                       help=f"Monte Carlo samples (default {DEFAULTS['samples']})")
        p.add_argument("--json", help="write the JSON report here (atomic)")
        p.add_argument("--csv", help="write the per-command CSV table here")
        p.add_argument("--at", action="append",
                       help="point pair 'x1,..,xn;y1,..,yn' (repeatable); "
                            "a single point for ballvol")
        if name == "ballvol":
            p.add_argument("--radius", type=float, default=DEFAULTS["radius"],
                           help=f"ball radius (default {DEFAULTS['radius']})")
    return parser


def _bad_flag(args) -> Optional[str]:
    """Why a numeric flag is out of range or unread, or None when all are
    usable."""
    if args.tol is not None and args.command in NO_TOL:
        return f"--tol {args.tol}: the {args.command} command takes no tolerance"
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        return f"--tol must be positive and finite, got {args.tol}"
    if args.samples < 1:
        return f"--samples must be at least 1, got {args.samples}"
    radius = getattr(args, "radius", DEFAULTS["radius"])
    if not (math.isfinite(radius) and radius > 0):
        return f"--radius must be positive and finite, got {radius}"
    return None


def _bad_path(args) -> Optional[str]:
    """Why --json or --csv cannot be written, or None when both can."""
    if args.csv and args.command in NO_CSV_TABLE:
        return f"--csv {args.csv}: the {args.command} command has no CSV table"
    for flag, path in (("--json", args.json), ("--csv", args.csv)):
        if path is None:
            continue
        if os.path.isdir(path):
            return f"{flag} {path}: is a directory"
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            return f"{flag} {path}: directory {directory} does not exist"
    return None


def _attach_at_values(argv: Sequence[str]) -> List[str]:
    """Each '--at' joined with a following value that starts with a negative
    number, as '--at=VALUE': argparse would take the value for an option."""
    out: List[str] = []
    for arg in argv:
        if out and out[-1] == "--at" and arg[:1] == "-" \
                and (arg[1:2].isdigit() or arg[1:2] == "."):
            out[-1] = f"--at={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(
        _attach_at_values(sys.argv[1:] if argv is None else argv))
    bad = _bad_flag(args) or _bad_path(args)
    if bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    try:
        model = load_model(args.model)
    except FileNotFoundError:
        print(f"error: model file not found: {args.model}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: --model {args.model}: {exc.strerror}", file=sys.stderr)
        return 2
    except ModelParseError as exc:
        print(f"error: {args.model}: {exc}", file=sys.stderr)
        return 2
    rep = Report(args.command, model, args.model, args)
    try:
        csv_rows = COMMANDS[args.command](model, args, rep)
    except (ExistenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rep.emit(args, csv_rows)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())
