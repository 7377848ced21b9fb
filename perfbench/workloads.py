"""The three benchmark workloads and the seeded inputs they run.

Each workload function takes a Run, builds its inputs from run.seed, sets up
(timed into run.setup_builds), repeats rounds of its items until run.seconds
have passed, runs its fixed batch, and applies its correctness gates.
rockland is imported inside the functions, after run.py has timed the import
and, in a traced run, wrapped the layer boundaries.  See NOTES.md for why
each workload was chosen.
"""

from __future__ import annotations

import contextlib
import glob
import io
import json
import math
import os
import random
import shutil
import statistics
import tempfile
import traceback
import warnings
from collections import defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from speed import SpeedLog
from stats import harrell_davis_median, percentile

Timing = Tuple[float, float]      # (perf_counter start, seconds)

# Fixed design points for the point pairs and ball centres.  Pair cost varies
# twentyfold across the square, so each round draws one pair in a small cell
# around every design point: an item keeps its cost from round to round while
# its inputs are always fresh.  The run seed moves the pairs inside their
# cells.  Metric design points live in coordinates that undo the seeded
# coefficients (x2 -> c*x2 for c*x1*d2), so every seed poses problems of the
# same difficulty.
DESIGN_SEED = 20260217
CELL = 0.02
BALL_SAMPLES = 20          # Monte Carlo samples per radius of a ballvol curve
BALL_RADII = tuple(2.0 ** k for k in range(-3, 3))   # as `rockland ballvol`
MAIN_RADIUS_INDEX = 3      # radius 1, the one `rockland ballvol` checks
DISTANCE_TOL = 1e-3
SETUP_REPEATS = 3


class Run:
    """Inputs, timings, failure counts and gates of one workload run.

    A workload repeats rounds of a fixed set of items, fresh seeded inputs
    each round.  Every timing is kept as a (start, seconds) pair and read
    scaled by the machine's speed around it (see speed.py).  Each item is
    summed up by the median of its scaled times.  A workload whose
    operations cost a different amount on every input sets `pooled`, and
    each item is then summed up by its mean scaled time, which averages
    over the inputs.
    """

    def __init__(self, seed: int, seconds: float, root: str, scratch: str,
                 tracer=None) -> None:
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.scratch = scratch
        self.tracer = tracer
        self.speed = SpeedLog()
        self.op_name = "op"                  # what a primary operation is
        self.pooled = False
        self.setup_builds: List[Timing] = []
        self.op_times: List[Timing] = []     # every primary operation
        self.ops_per_round = 0
        self.op_items: Dict[object, List[Timing]] = defaultdict(list)
        self.batch_items: Dict[object, List[Timing]] = defaultdict(list)
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.gates: Dict[str, bool] = {}
        self.notes: Dict[str, Tuple[float, str, int]] = {}
        self.layer: Dict[str, float] = {}
        self.errors: List[str] = []
        self.warnings: List[warnings.WarningMessage] = []
        self.integration_warnings = 0
        self._ops = 0

    def attempt(self, fn: Callable, *args,
                ok: Callable[[object], bool] = None) -> Tuple[object, Timing]:
        """Run one operation and count it; a raise, a non-finite result,
        an IntegrationWarning or a failed ok(result) make it a failure.
        Returns (result or None, timing)."""
        from scipy.integrate import IntegrationWarning

        self.speed.tick()
        self._ops += 1
        if self.tracer is not None:
            self.tracer.op = self._ops
        seen = len(self.warnings)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception:  # an operation boundary: record it and go on
            timing = (t0, perf_counter() - t0)
            self.attempted += 1
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc(limit=3))
            return None, timing
        timing = (t0, perf_counter() - t0)
        warned = sum(1 for w in self.warnings[seen:]
                     if issubclass(w.category, IntegrationWarning))
        self.integration_warnings += warned
        good = not warned and (ok(result) if ok else _finite(result))
        self.attempted += 1
        self.failed += 0 if good else 1
        return result, timing

    @contextlib.contextmanager
    def setup_step(self):
        """Time one set-up build into setup_builds, with probes around it."""
        self.speed.burst()
        t0 = perf_counter()
        yield
        self.setup_builds.append((t0, perf_counter() - t0))
        self.speed.burst()

    def more_rounds(self, stop: float, minimum: int = 1) -> bool:
        """Whether to start another round."""
        return self.rounds < minimum or perf_counter() < stop

    def scaled(self, timings: Sequence[Timing]) -> List[float]:
        return [self.speed.scaled(t) for t in timings]

    def item_s(self, timings: Sequence[Timing]) -> float:
        """One item's time: its median scaled time, or its mean when pooled."""
        times = self.scaled(timings)
        if self.pooled:
            return statistics.fmean(times)
        return statistics.median(times)

    def round_s(self, items: Dict[object, List[Timing]]) -> float:
        """Seconds of one round of the items, the sum of their item times."""
        return sum(self.item_s(v) for v in items.values())

    def op_p50_s(self) -> float:
        """Median over the primary items of their item times, as the
        Harrell-Davis estimate."""
        return harrell_davis_median([self.item_s(v)
                                     for v in self.op_items.values()])

    def gate(self, name: str, passed: bool) -> None:
        self.gates[name] = self.gates.get(name, True) and bool(passed)

    def note(self, name: str, value: float, unit: str, samples: int) -> None:
        self.notes[name] = (value, unit, samples)

    def deadline(self) -> float:
        return perf_counter() + self.seconds


def _finite(value: object) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


# -- seeded model texts --------------------------------------------------------

def rational(rng: random.Random, lo: float, hi: float) -> Fraction:
    """A seeded rational in [lo, hi] with a small denominator."""
    q = rng.randint(2, 9)
    return Fraction(rng.randint(math.ceil(lo * q), math.floor(hi * q)), q)


def signed_rational(rng: random.Random) -> Fraction:
    return rational(rng, 0.2, 4.0) * rng.choice((1, -1))


def _field_text(terms: Sequence[Tuple[Fraction, str]]) -> str:
    out = []
    for k, (c, body) in enumerate(terms):
        a = abs(c)
        text = body if a == 1 else f"{a}*{body}"
        if k == 0:
            out.append(("-" if c < 0 else "") + text)
        else:
            out.append((" - " if c < 0 else " + ") + text)
    return "".join(out)


def _model_text(sigma: Sequence[int], x2: Sequence[Tuple[Fraction, str]],
                operator: str, kernel: bool = False) -> str:
    lines = ["dilation [" + ", ".join(map(str, sigma)) + "];",
             "field X1 = d1;",
             f"field X2 = {_field_text(x2)};",
             f"operator L = {operator};"]
    if kernel:
        lines.append("kernel heisenberg_gauge;")
    return "\n".join(lines) + "\n"


def grushin_text(c: Fraction, kernel: bool = False) -> str:
    return _model_text((1, 2), [(c, "x1*d2")], "X1^2 + X2^2", kernel)


def three_var_text(a: Fraction, b: Fraction) -> str:
    return _model_text((1, 2, 5), [(a, "x1*d2"), (b, "x2^2*d3")],
                       "X1^2 + X2^2")


def chain_text(coeffs: Sequence[Fraction]) -> str:
    n = len(coeffs) + 1
    terms = [(c, f"x{i + 1}*d{i + 2}") for i, c in enumerate(coeffs)]
    return _model_text(range(1, n + 1), terms, "X1^2 + X2^2")


def monomial_text(k: int, c: Fraction, quartic: bool = False) -> str:
    body = "x1*d2" if k == 1 else f"x1^{k}*d2"
    if quartic:
        return _model_text((1, k + 1), [(c, body)], "X1^4 + X2^4", kernel=True)
    return _model_text((1, k + 1), [(c, body)], "X1^2 + X2^2")


# one report of each member makes a symbolic round; the quartic members
# with k <= 2 have nu = 4 >= q = k + 2 and so stop at the existence gate
CATALOGUE = ([("chain", n) for n in range(3, 7)]
             + [("monomial", k) for k in range(1, 6)]
             + [("three_var", 0)]
             + [("quartic", k) for k in (1, 2)])


def catalogue_model(rng: random.Random, family: str,
                    param: int) -> Tuple[str, Tuple[int, int]]:
    """Seeded model text of a family member, with the (N, step) of its
    algebra in closed form."""
    if family == "chain":
        return (chain_text([signed_rational(rng) for _ in range(param - 1)]),
                (param + 1, param))
    if family == "three_var":
        return (three_var_text(signed_rational(rng), signed_rational(rng)),
                (6, 5))
    return (monomial_text(param, signed_rational(rng), family == "quartic"),
            (param + 2, param + 1))


def in_cell(rng: random.Random, point: Sequence[float],
            scale: Sequence[float]) -> List[float]:
    """A seeded point in the cell around a design point, mapped from
    normalized coordinates into the system's own by the factors in scale."""
    return [(v + rng.uniform(-CELL, CELL)) * f for v, f in zip(point, scale)]


def separated_pairs(rng: random.Random, n: int, count: int):
    """Pairs drawn the way `rockland gamma` and `verify` draw their defaults;
    with a fixed rng, the design pairs."""
    out = []
    while len(out) < count:
        x = [rng.uniform(-1, 1) for _ in range(n)]
        y = [rng.uniform(-1, 1) for _ in range(n)]
        if sum((a - b) ** 2 for a, b in zip(x, y)) > 0.1:
            out.append((x, y))
    return out


# -- fundsol ---------------------------------------------------------------------

GAMMA_PAIRS = 50
VERIFY_REPEATS = 2


def fundsol(run: Run) -> None:
    """Grushin-family Γ: calibrate, stream point evaluations, run `verify`."""
    import rockland
    from rockland.cli import VERIFY_TOLS
    from rockland.model import parse_model

    rng = random.Random(run.seed)
    c = rational(rng, 0.5, 2.0)

    with run.setup_step():
        model = parse_model(grushin_text(c, kernel=True))
        basis, sc = rockland.generate_lie_algebra(list(model.fields),
                                                  model.delta)
        lifted = rockland.build_lifting(basis, sc, model.delta)
        shape = rockland.heisenberg_gauge_kernel(lifted, nu=model.operator.nu)
        op_lifted = model.operator.with_fields(lifted.lifted_fields)
        kernel = rockland.kernel_calibrate(shape, lifted, op_lifted)
        ev = rockland.SaturationEvaluator(lifted, model.operator, kernel)
        wx, wy = [1.0, 0.0], [0.0, 0.0]
        ev.gamma_eval(wx, wy)
        ev.gamma_star_eval(wx, wy)
        for i in range(2):
            ev.gamma_x_derivative((i,), wx, wy)
        ev.gamma_y_derivative((0,), wx, wy)

    # the checks `rockland verify` runs, on the evaluator built above; each
    # runs twice
    tols = VERIFY_TOLS
    pairs = separated_pairs(rng, 2, 5)
    bump = rockland.BumpSpec(center=(0.0, 0.0))
    checks = {
        "calibration": (rockland.calibration_residuals, (kernel, op_lifted),
                        lambda r: max(r) <= tols["calibration"]),
        "homogeneity": (ev.verify_homogeneity, (pairs, (0.5, 2.0, 4.0)),
                        lambda r: r <= tols["homogeneity"]),
        "symmetry": (ev.verify_symmetry, (pairs,),
                     lambda r: r <= tols["symmetry"]),
        "transpose_symmetry": (ev.verify_symmetry, (pairs, True),
                               lambda r: r <= tols["symmetry"]),
        "left_inverse": (ev.verify_left_inverse, (bump, [0.0, 0.0]),
                         lambda r: r <= tols["left_inverse"]),
        "tail_doubling": (ev.tail_doubling_check, (pairs,),
                          lambda r: all(ok for _, _, ok in r)),
    }
    out = {}

    def check(name):
        fn, args, ok = checks[name]
        out[name], t = run.attempt(fn, *args, ok=ok)
        run.batch_items[name].append(t)

    # Γ rounds fill the measured window, and the checks run at evenly spaced
    # times inside it, so every item's median is taken over the whole
    # window rather than over one stretch of it.  One pair per round in the
    # cell around each design pair: fresh inputs every round, so no result
    # can be reused, at a steady cost per item.
    design = separated_pairs(random.Random(DESIGN_SEED), 2, GAMMA_PAIRS)
    # x2 -> c*x2 takes the c = 1 system to the seeded one, so the design
    # pairs pose integrals of the same difficulty for every seed
    scale = (1.0, float(c))
    run.op_name = "gamma"
    run.ops_per_round = GAMMA_PAIRS
    schedule = [name for _ in range(VERIFY_REPEATS) for name in checks]
    step = run.seconds / (len(schedule) + 1)
    done = 0
    deriv_times = []
    start = perf_counter()
    stop = run.deadline()
    while run.more_rounds(stop):
        while (done < len(schedule)
               and perf_counter() - start >= step * (done + 1)):
            check(schedule[done])
            done += 1
        for k, (x0, y0) in enumerate(design):
            x, y = in_cell(rng, x0, scale), in_cell(rng, y0, scale)
            _, t = run.attempt(ev.gamma_eval, x, y)
            run.op_times.append(t)
            run.op_items[k].append(t)
            for i in range(2):
                deriv_times.append(
                    run.attempt(ev.gamma_x_derivative, (i,), x, y)[1])
            deriv_times.append(run.attempt(ev.gamma_y_derivative, (0,), x, y)[1])
        run.rounds += 1
    for name in schedule[done:]:
        check(name)
    cal, hom, sym, star, li, tail = (out[name] for name in checks)

    residuals = {
        "calibration": max(cal) if cal else math.inf,
        "homogeneity": hom if hom is not None else math.inf,
        "symmetry": max(sym, star) if None not in (sym, star) else math.inf,
        "left_inverse": li if li is not None else math.inf,
    }
    for name, value in residuals.items():
        run.gate(f"verify_{name}", value <= tols[name])
        run.layer[f"fundsol.residual.{name}"] = value
    run.gate("verify_tail_doubling",
             tail is not None and all(ok for _, _, ok in tail))

    run.note("gamma_per_s", run.ops_per_round / run.round_s(run.op_items),
             "1/s", len(run.op_times))
    run.note("derivative_p50_ms",
             1e3 * percentile(run.scaled(deriv_times), 50), "ms",
             len(deriv_times))
    run.note("verify_s", run.round_s(run.batch_items), "s", VERIFY_REPEATS)


# -- metric ----------------------------------------------------------------------

GRUSHIN_PAIRS_PER_ROUND = 8
# a solve's cost moves with the coefficients as much as with the pair (the
# mean n = 3 solve took 1.2 s under one seed's a, b and 2.3 s under
# another's), so a run holds several seeded systems of each family and
# rotates its pairs and balls over them from round to round
SYSTEMS = {2: 4, 3: 3}
# the n = 3 design pair a round solves, the second of its design.  An n = 3
# solve's cost swings most with the coefficients and the input (the first
# design pair costs 1.6-3.6 s, the second 1.1-2.2 s), so one such pair keeps
# that swing to a third of the round's distance time
THREE_VAR_PAIRS = slice(1, 2)
METRIC_MIN_ROUNDS = 3


def _curve_ok(curve) -> bool:
    """The checks `rockland ballvol` applies to its curve."""
    main = curve[MAIN_RADIUS_INDEX]
    monotone = all(a.confidence_interval[0] <= b.confidence_interval[1]
                   for a, b in zip(curve, curve[1:]))
    finite = all(math.isfinite(v.estimate) for v in curve)
    return main.estimate > 0 and monotone and finite


def _distance_ok(res) -> bool:
    return math.isfinite(res.upper) and res.lower <= res.upper


def metric(run: Run) -> None:
    """Control distance and ball volumes on Grushin and step-5 systems."""
    from rockland import MetricSpace
    from rockland.model import parse_model

    rng = random.Random(run.seed)
    # (model text, the diagonal map taking the c = a = b = 1 system to it)
    seeded = {2: [], 3: []}
    for _ in range(SYSTEMS[2]):
        c = rational(rng, 1.0, 2.0)
        seeded[2].append((grushin_text(c), (1.0, float(c))))
    for _ in range(SYSTEMS[3]):
        a, b = rational(rng, 0.8, 1.25), rational(rng, 0.8, 1.25)
        seeded[3].append((three_var_text(a, b),
                          (1.0, float(a), float(a * a * b))))
    for _ in range(SETUP_REPEATS):
        with run.setup_step():
            systems = {}
            for n, family in seeded.items():
                models = [parse_model(text) for text, _ in family]
                systems[n] = [(MetricSpace(m.fields, m.delta), f)
                              for m, (_, f) in zip(models, family)]

    designs = [separated_pairs(random.Random(DESIGN_SEED + 2), 2,
                               GRUSHIN_PAIRS_PER_ROUND),
               separated_pairs(random.Random(DESIGN_SEED + 3), 3,
                               THREE_VAR_PAIRS.stop)[THREE_VAR_PAIRS]]
    # each design pair keeps one multi-start seed: an n = 3 solve's cost
    # moves by up to 60% with its starts alone (2.6-4.3 s for the first
    # design pair), so a seed drawn per run would move the figures more than
    # the machine does.  Pairs, ball centres and Monte
    # Carlo seeds are fresh every round: the n = 3 ball at r = 1 gets a hit
    # from about one sample seed in twenty, so a seed held for a whole run
    # would make that run's zero-hit count all or nothing.
    design_rng = random.Random(DESIGN_SEED)
    starts = {(n, k): design_rng.randrange(1 << 30)
              for n, d in zip((2, 3), designs) for k in range(len(d))}
    run.op_name = "distance"
    # a solve's cost is chaotic in its input: a 0.001 shift of a pair moves
    # it between 0.46 and 0.84 s, while the same pair repeats within 5%; so
    # the figures average over every solve instead of taking the median
    run.pooled = True
    run.ops_per_round = sum(len(d) for d in designs)
    stop = run.deadline()
    while run.more_rounds(stop, METRIC_MIN_ROUNDS):
        for family in systems.values():
            space, f = family[run.rounds % len(family)]
            center = in_cell(rng, [0.0] * len(f), f)
            base = rng.randrange(1 << 30)

            def curve(space=space, center=center, base=base):
                vols = []
                for i, r in enumerate(BALL_RADII):
                    run.speed.tick()
                    t0 = perf_counter()
                    vols.append(space.ball_volume(
                        center, r, n_samples=BALL_SAMPLES, seed=base + i))
                    run.batch_items[(space.n, r)].append(
                        (t0, perf_counter() - t0))
                return vols

            run.attempt(curve, ok=_curve_ok)
        for n, design in zip((2, 3), designs):
            for k, (x0, y0) in enumerate(design):
                space, f = systems[n][(k + run.rounds) % len(systems[n])]
                x, y = in_cell(rng, x0, f), in_cell(rng, y0, f)
                _, t = run.attempt(space.distance, x, y, DISTANCE_TOL,
                                   starts[n, k], ok=_distance_ok)
                run.op_times.append(t)
                run.op_items[("pair", space.n, k)].append(t)
        run.rounds += 1

    for space, _ in systems[2]:
        try:
            unit = space.distance([0.0, 0.0], [1.0, 0.0],
                                  tol=DISTANCE_TOL).upper
        except RuntimeError:
            unit = math.inf
        run.gate("grushin_unit_distance", abs(unit - 1.0) <= DISTANCE_TOL)

    per_round = len(run.batch_items) * BALL_SAMPLES
    run.note("distance_per_s", run.ops_per_round / run.round_s(run.op_items),
             "1/s", len(run.op_times))
    run.note("ballvol_samples_per_s", per_round / run.round_s(run.batch_items),
             "1/s", per_round * run.rounds)
    run.note("rounds", run.rounds, "", run.rounds)


# -- symbolic --------------------------------------------------------------------

def _report(run: Run, cli, path: str, workdir: str):
    """One `rockland report --json` in this process; its JSON, or None."""
    report = os.path.join(workdir, os.path.basename(path) + ".json")
    args = ["report", "--model", path, "--json", report]
    with contextlib.redirect_stdout(io.StringIO()):
        rc, t = run.attempt(cli.main, args, ok=lambda r: r == 0)
    run.gate("report_exit_0", rc == 0)
    if rc != 0:
        return None, t
    with open(report, encoding="utf-8") as fh:
        doc = json.load(fh)
    run.gate("report_checks_pass",
             all(c["status"] == "pass" for c in doc["checks"]))
    return doc, t


def symbolic(run: Run) -> None:
    """`rockland report` over seeded members of the bundled families."""
    from rockland import cli
    from rockland.model import load_model

    rng = random.Random(run.seed)
    seen = set()

    def next_pass():
        out = []
        for family, param in CATALOGUE:
            text, shape = catalogue_model(rng, family, param)
            while text in seen:
                text, shape = catalogue_model(rng, family, param)
            seen.add(text)
            out.append((family, param, text, shape))
        return out

    workdir = tempfile.mkdtemp(prefix="symbolic-", dir=run.scratch)
    try:
        for _ in range(SETUP_REPEATS):
            with run.setup_step():
                models = next_pass()
                # the batch: every bundled model that calibrates no kernel
                bundled = [p for p in sorted(glob.glob(os.path.join(
                    run.root, "models", "*.model")))
                    if load_model(p).kernel is None]
        run.op_name = "report"
        run.ops_per_round = len(CATALOGUE)
        stop = run.deadline()
        while run.more_rounds(stop):
            if run.rounds:
                models = next_pass()
            for k, (family, param, text, shape) in enumerate(models):
                path = os.path.join(workdir, f"m{run.rounds}_{k}.model")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                doc, t = _report(run, cli, path, workdir)
                run.op_times.append(t)
                run.op_items[(family, param)].append(t)
                if doc is not None:
                    res = doc["results"]["analyze"]
                    run.gate(f"{family}_N_and_step",
                             (res["N"], res["step"]) == shape)
            for path in bundled:
                _, t = _report(run, cli, path, workdir)
                run.batch_items[os.path.basename(path)].append(t)
            run.rounds += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run.note("reports_per_s", run.ops_per_round / run.round_s(run.op_items),
             "1/s", len(run.op_times))
    run.note("bundled_models", len(bundled), "", len(bundled))
    run.note("passes", run.rounds, "", run.rounds)


WORKLOADS = {"fundsol": fundsol, "metric": metric, "symbolic": symbolic}
