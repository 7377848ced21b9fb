"""Control distance, ball volumes, doubling and the estimate harness."""

import itertools
import json
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from flow_reference import SegmentChainFlow, flow_maps
from grushin_reference import grushin_ball_volume, grushin_distance_from_origin
from rockland import metric
from rockland.fields import DilationFamily, PolyVectorField
from rockland.metric import (
    ControlPath,
    DistanceResult,
    MetricSpace,
    derivative_words,
    endpoint,
    estimate_scan,
    volume_interpolator,
    volume_slope,
)
from rockland.model import load_model
from rockland.poly import Poly, depends_on, poly_diff, poly_eval

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")
DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(params=["grushin", "three_var_step5"])
def system(request):
    """A bundled system with its metric space."""
    sysd = request.getfixturevalue(request.param)
    return sysd, MetricSpace(sysd["gens"], sysd["delta"])


def path_from_controls(ctr, S, m, scale):
    """The ControlPath of feasible()'s time-1 segment controls."""
    return ControlPath(tuple((1.0 / S, tuple(float(v) * S for v in ctr[s * m:(s + 1) * m]))
                             for s in range(S)), scale)


# -- endpoints ----------------------------------------------------------------------

def test_endpoint_single_segment(grushin):
    path = ControlPath(((1.0, (0.75, 0.0)),), 1.0)
    assert endpoint([0, 0], path, grushin["gens"]) == [0.75, 0.0]


def test_endpoint_empty_controls(grushin):
    path = ControlPath(((1.0, (0.0, 0.0)),), 1.0)
    assert endpoint([0.5, -2.0], path, grushin["gens"]) == [0.5, -2.0]


def test_endpoint_two_segments(grushin):
    # flow d1 for half time at speed 2, then x1*d2 with x1 frozen at 1
    path = ControlPath(((0.5, (2.0, 0.0)), (0.5, (0.0, 2.0))), 1.0)
    assert endpoint([0, 0], path, grushin["gens"]) == [1.0, 1.0]


def test_control_path_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        ControlPath(((0.4, (0.0,)),), 1.0)
    p = ControlPath(((1.0, (0.5, 0.25)),), 0.5)
    assert p.check_bounds((1, 2))
    assert not ControlPath(((1.0, (0.9, 0.0)),), 0.5).check_bounds((1, 2))


# -- distance ----------------------------------------------------------------------

def test_distance_zero(grushin_metric):
    res = grushin_metric.distance([0.3, -1.0], [0.3, -1.0])
    assert res.upper == 0.0 and res.lower == 0.0


def test_distance_result_value_is_upper():
    assert DistanceResult(upper=1.25, lower=0.5, path=None, seed=3).value == 1.25


def test_distance_grushin_unit(grushin_metric):
    res = grushin_metric.distance([0.0, 0.0], [1.0, 0.0])
    assert abs(res.upper - 1.0) <= 1e-3
    assert res.lower <= 1.0 <= res.upper


def test_distance_lower_is_box_certificate(system):
    """lower <= upper, and y lies outside the excursion box of radius lower."""
    _, space = system
    rng = random.Random(8)
    for _ in range(3):
        x = [rng.uniform(-1, 1) for _ in range(space.n)]
        y = [rng.uniform(-1, 1) for _ in range(space.n)]
        res = space.distance(x, y, tol=1e-2, seed=3)
        assert 0.0 < res.lower <= res.upper
        B = space.box_bounds(x, res.lower)
        assert any(abs(a - b) > bound for a, b, bound in zip(x, y, B))


def test_distance_bracket_and_path(grushin, grushin_metric):
    res = grushin_metric.distance([0.0, 0.0], [0.7, 0.4])
    assert res.lower <= res.upper
    assert res.path.check_bounds(grushin_metric.degrees)
    reached = endpoint([0.0, 0.0], res.path, grushin["gens"])
    err = math.hypot(reached[0] - 0.7, reached[1] - 0.4)
    assert err <= 1e-6


def test_distance_symmetry(grushin_metric):
    rng = random.Random(12)
    for _ in range(3):
        x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        y = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        a = grushin_metric.distance(x, y).upper
        b = grushin_metric.distance(y, x).upper
        assert abs(a - b) <= 2e-3 * max(a, b)


def test_distance_triangle(grushin_metric):
    rng = random.Random(21)
    for _ in range(3):
        pts = [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(3)]
        dxz = grushin_metric.distance(pts[0], pts[2]).upper
        dxy = grushin_metric.distance(pts[0], pts[1]).upper
        dyz = grushin_metric.distance(pts[1], pts[2]).upper
        assert dxz <= dxy + dyz + 3e-3 * (dxy + dyz)


def test_distance_origin_scaling(grushin_metric):
    rng = random.Random(31)
    for _ in range(3):
        y = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        base = grushin_metric.distance([0.0, 0.0], y).upper
        for lam in (0.5, 2.0):
            scaled = grushin_metric.distance(
                [0.0, 0.0], [lam * y[0], lam ** 2 * y[1]]).upper
            assert abs(scaled - lam * base) <= 0.05 * lam * base


@pytest.mark.parametrize("tol", [0.0, -1e-3, math.nan, math.inf])
def test_distance_rejects_bad_tol(grushin_metric, tol):
    """A bisection to a tolerance that is not positive and finite never ends
    (0, negative) or never starts (nan)."""
    with pytest.raises(ValueError, match="tol"):
        grushin_metric.distance([0.0, 0.0], [1.0, 0.0], tol=tol)
    with pytest.raises(ValueError, match="tol"):
        grushin_metric.box_lower([0.0, 0.0], [1.0, 0.0], 1.0, tol)


@pytest.mark.parametrize("call, message", [
    (lambda s: s.distance([math.nan, 0.0], [0.0, 0.0]), r"x .*\[nan, 0\.0\]"),
    (lambda s: s.distance([math.inf, 0.0], [0.0, 0.0]), r"x .*\[inf, 0\.0\]"),
    (lambda s: s.distance([0.0, 0.0], [1.0]), r"y .*\[1\.0\]"),
    (lambda s: s.distance([0.0, 0.0, 0.0], [1.0, 0.0]), r"x .*\[0\.0, 0\.0, 0\.0\]"),
    (lambda s: s.ball_volume([math.nan, 0.0], 1.0), r"x .*\[nan, 0\.0\]"),
    (lambda s: s.ball_volume([0.0], 1.0), r"x .*\[0\.0\]"),
    (lambda s: s.ball_volume([0.0, 0.0], math.nan), r"r .*nan"),
    (lambda s: s.ball_volume([0.0, 0.0], math.inf), r"r .*inf"),
    (lambda s: s.ball_volume([0.0, 0.0], 1.0, n_samples=0), r"n_samples .*0"),
], ids=["distance-x-nan", "distance-x-inf", "distance-y-short",
        "distance-x-long", "volume-x-nan", "volume-x-short", "volume-r-nan",
        "volume-r-inf", "volume-no-samples"])
def test_metric_rejects_bad_points(grushin_metric, call, message):
    """Points need n finite coordinates, a radius must be positive and
    finite, and a volume at least one sample; the error names the argument
    and its value."""
    with pytest.raises(ValueError, match=message):
        call(grushin_metric)


def test_distance_seeded_reproducible(grushin_metric):
    a = grushin_metric.distance([0.1, 0.5], [-0.8, 0.2], seed=5)
    b = grushin_metric.distance([0.1, 0.5], [-0.8, 0.2], seed=5)
    assert a.upper == b.upper and a.lower == b.lower


def test_distance_brackets_grushin_closed_form(grushin_metric):
    """From the origin, lower <= d <= upper against the closed form, on
    seeded targets inside the constant-control region |q| <= p^2 / 2 and
    outside it.  upper may sit below d only by what the reach allows."""
    rng = random.Random(23)
    targets = []
    for k in range(44):
        p = rng.choice((-1, 1)) * rng.uniform(0.1, 1.0)
        if k % 2:
            q = rng.uniform(-1.0, 1.0) * p * p / 2
        else:
            q = rng.choice((-1, 1)) * (p * p / 2 + rng.uniform(0.01, 1.0))
        targets.append((p, q))
    inside = sum(abs(q) <= p * p / 2 for p, q in targets)
    assert inside >= 20 and len(targets) - inside >= 20
    for p, q in targets:
        d = grushin_distance_from_origin(p, q)
        res = grushin_metric.distance([0.0, 0.0], [p, q], seed=5)
        assert res.lower <= d, (p, q, res, d)
        assert res.upper >= d * (1.0 - 1e-6), (p, q, res, d)


def test_distance_config_accepts_edges(grushin, monkeypatch):
    """One start on one segment still finds d((0, 0), (1, 0)) = 1."""
    monkeypatch.setattr(metric, "_SEGMENT_SCHEDULE", (1,))
    monkeypatch.setattr(metric, "_STARTS", 1)
    space = MetricSpace(grushin["gens"], grushin["delta"])
    res = space.distance([0.0, 0.0], [1.0, 0.0])
    assert res.lower <= res.upper and abs(res.upper - 1.0) <= 1e-3


# -- compiled flow and the batched feasibility solve -----------------------------

@pytest.fixture(scope="module")
def unsorted_weights():
    """sigma = (1, 2, 1): X1 = d1, X2 = x1*d2 + d3; x3 has the lowest
    weight and the last index."""
    delta = DilationFamily((1, 2, 1))
    z = Poly.zero(3)
    gens = [PolyVectorField(3, (Poly.const(3, 1), z, z)),
            PolyVectorField(3, (z, Poly.var(3, 0), Poly.const(3, 1)))]
    return {"gens": gens, "delta": delta}


def bundled_spaces():
    """(name, metric space) of every bundled model."""
    for name in sorted(os.listdir(MODELS)):
        model = load_model(os.path.join(MODELS, name))
        yield name, MetricSpace(model.fields, model.delta)


def test_compiled_flow_matches_exact(system):
    """One segment: endpoint and control Jacobian against endpoint() and
    exact poly_diff values, and every level's increments and derivatives
    against the exact time-1 flow."""
    sysd, space = system
    n, m = space.n, space.m
    maps = flow_maps(space.fields)
    rng = random.Random(5)
    pts = [[Fraction(rng.randint(-64, 64), 32) for _ in range(n + m)]
           for _ in range(6)]

    def close(got, want):
        assert abs(got - float(want)) <= 1e-12 * max(1.0, abs(float(want)))

    for pt in pts:
        x, a = pt[:n], pt[n:]
        p, J = space._flow_batch(np.array(x, float),
                                 np.array(a, float).reshape(1, 1, m))
        exact = endpoint(x, ControlPath(((1, tuple(a)),), 1.0), sysd["gens"])
        for i in range(n):
            close(p[0, i], exact[i])
            for j in range(m):
                close(J[0, i, j], poly_eval(poly_diff(maps[i], n + j), pt))
        perm = np.arange(n)[space._perm]
        for lo, hi, polys in space._levels:
            inputs = list(range(n, n + m)) + list(perm[:lo])
            out = polys(np.array([[float(pt[k])] for k in inputs]))[:, 0]
            incs = [maps[i] - Poly.var(n + m, i) for i in perm[lo:hi]]
            want = [poly_eval(g, pt) for g in incs] + [
                poly_eval(poly_diff(g, k), pt) for g in incs for k in inputs]
            assert len(out) == len(want)
            for got, w in zip(out, want):
                close(got, w)


@pytest.mark.parametrize("name", ["grushin", "three_var_step5",
                                  "unsorted_weights"])
def test_flow_batch_chains_segment_jacobians(name, request):
    """The endpoints and control Jacobians of multi-segment paths of
    several members, against the exact endpoint and its exact central
    differences."""
    sysd = request.getfixturevalue(name)
    space = MetricSpace(sysd["gens"], sysd["delta"])
    n, m = space.n, space.m
    maps = flow_maps(space.fields)
    rng = random.Random(6)
    for S, B in ((1, 3), (4, 3), (16, 2)):
        x = [Fraction(rng.randint(-32, 32), 32) for _ in range(n)]
        ctr = [[Fraction(rng.randint(-32, 32), 16 * S) for _ in range(S * m)]
               for _ in range(B)]
        p, J = space._flow_batch(np.array(x, float),
                                 np.array(ctr, float).reshape(B, S, m))

        def end(c):
            cur = list(x)
            for s in range(S):
                pt = cur + list(c[s * m:(s + 1) * m])
                cur = [poly_eval(f, pt) for f in maps]
            return cur

        for b, c in enumerate(ctr):
            segs = tuple((Fraction(1, S), tuple(v * S for v in c[s * m:(s + 1) * m]))
                         for s in range(S))
            base = endpoint(x, ControlPath(segs, 1.0), sysd["gens"])
            assert base == end(c)
            assert np.allclose(p[b], [float(v) for v in base], rtol=0, atol=1e-12)
            h = Fraction(1, 10 ** 4)
            for k in range(S * m):
                up = end([v + h * (i == k) for i, v in enumerate(c)])
                dn = end([v - h * (i == k) for i, v in enumerate(c)])
                fd = [float((a - b) / (2 * h)) for a, b in zip(up, dn)]
                assert np.allclose(J[b, :, k], fd, rtol=0, atol=1e-6)


def test_flow_levels_read_only_lower_weights(unsorted_weights):
    """Every level's increments, on every bundled model and on a system
    whose weights are not in index order, read no coordinate of their own
    weight or above, and the compiled levels take exactly the controls and
    the lower-weight coordinates."""
    spaces = list(bundled_spaces()) + [
        ("unsorted", MetricSpace(unsorted_weights["gens"],
                                 unsorted_weights["delta"]))]
    assert len(spaces) == 8
    for name, space in spaces:
        n, m, sigma = space.n, space.m, space.delta.sigma
        maps = flow_maps(space.fields)
        perm = list(np.arange(n)[space._perm])
        assert sorted(perm) == list(range(n))
        assert [sigma[i] for i in perm] == sorted(sigma)
        assert space._levels[0][0] == 0 and space._levels[-1][1] == n
        for (lo, hi, polys), nxt in zip(space._levels, space._levels[1:] + [(n,)]):
            assert nxt[0] == hi
            weight = sigma[perm[lo]]
            assert {sigma[i] for i in perm[lo:hi]} == {weight}
            assert all(sigma[i] < weight for i in perm[:lo])
            assert polys.nvars == m + lo
            for i in perm[lo:hi]:
                g = maps[i] - Poly.var(n + m, i)
                assert not any(depends_on(g, k) for k in range(n)
                               if sigma[k] >= weight), (name, i)


def test_flow_levels_reject_ungraded_field():
    """A field that only declares its degree, and whose flow moves x1 by
    the same-weight x2, has no level structure."""
    z = Poly.zero(2)
    X = PolyVectorField(2, (Poly.var(2, 1), z), declared_degree=1)
    Y = PolyVectorField(2, (Poly.const(2, 1), z))
    with pytest.raises(ValueError, match="increment of x1 reads a "
                                         "coordinate of weight 1 or more"):
        MetricSpace([X, Y], DilationFamily((1, 1)))


def test_flow_batch_matches_segment_chain():
    """Endpoints and control Jacobians agree with the segment-by-segment
    reference on every bundled model, for several sizes and segments."""
    rng = np.random.default_rng(12)
    for name, space in bundled_spaces():
        reference = SegmentChainFlow(space.fields)
        for B in (1, 10, 320):
            for S in (4, 8, 16):
                x = rng.uniform(-1, 1, space.n)
                ctr = rng.uniform(-1, 1, (B, S, space.m)) / S
                p, J = space._flow_batch(x, ctr)
                p0, J0 = reference(x, ctr)
                for got, want in ((p, p0), (J, J0)):
                    assert got.shape == want.shape
                    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                    assert err.max() <= 1e-13, (name, B, S, err.max())


def test_feasible_reports_only_genuine_paths(system):
    """A mixed batch: every reported success reaches its target within
    reach by an in-bounds path, and no target outside the certified box is
    reported feasible."""
    sysd, space = system
    n, m, S, r = space.n, space.m, 4, 0.8
    rng = random.Random(9)
    x = [rng.uniform(-0.5, 0.5) for _ in range(n)]
    B = space.box_bounds(x, r)
    reachable = []
    for _ in range(6):
        segs = tuple((1.0 / S, tuple(rng.uniform(-1, 1) * r ** nu
                                     for nu in space.degrees))
                     for _ in range(S))
        reachable.append(endpoint(x, ControlPath(segs, r), sysd["gens"]))
    outside = [[xi + rng.choice((-1, 1)) * 1.5 * b if i == k else xi
                for i, (xi, b) in enumerate(zip(x, B))]
               for k in range(n)]
    targets = reachable + outside
    reach = 1e-6
    res = space.feasible(x, targets, r, S, random.Random(1), reach)
    assert res.hits == int(res.ok.sum())
    assert not res.ok[len(reachable):].any()
    assert res.ok[:len(reachable)].sum() >= len(reachable) // 2
    for ok, ctr, y in zip(res.ok, res.controls, targets):
        if ok:
            path = path_from_controls(ctr, S, m, r)
            assert path.check_bounds(space.degrees)
            got = endpoint(x, path, sysd["gens"])
            assert math.dist(got, y) <= reach


def test_feasible_pads_shorter_paths(system):
    """Several segment counts in one solve: a target reached by a member of
    fewer segments gets that count, its path in the leading entries and
    zeros after them, and the path reaches the target."""
    sysd, space = system
    n, m, r = space.n, space.m, 0.8
    rng = random.Random(4)
    x = [rng.uniform(-0.5, 0.5) for _ in range(n)]
    targets = []
    for _ in range(5):
        segs = tuple((0.5, tuple(rng.uniform(-1, 1) * r ** nu
                                 for nu in space.degrees)) for _ in range(2))
        targets.append(endpoint(x, ControlPath(segs, r), sysd["gens"]))
    reach = 1e-6
    res = space.feasible(x, targets, r, (2, 8), random.Random(2), reach)
    assert res.controls.shape == (len(targets), 8 * m)
    assert res.hits == int(res.ok.sum()) >= 3
    for ok, S, ctr, y in zip(res.ok, res.segments, res.controls, targets):
        assert S in (2, 8)
        assert not ctr[S * m:].any()
        if ok:
            path = path_from_controls(ctr, S, m, r)
            assert path.check_bounds(space.degrees)
            assert math.dist(endpoint(x, path, sysd["gens"]), y) <= reach


def test_feasible_one_count_as_int_or_tuple(system):
    """One segment count given bare or as a one-count schedule is the same
    solve, bit for bit."""
    _, space = system
    x = [0.1] * space.n
    ys = [[0.1 + 0.2 * k] * space.n for k in range(1, 4)]
    a = space.feasible(x, ys, 0.5, 4, random.Random(3), 1e-9)
    b = space.feasible(x, ys, 0.5, (4,), random.Random(3), 1e-9)
    assert a.hits == b.hits
    for u, v in zip(a[1:], b[1:]):
        assert np.array_equal(u, v)


def test_segment_sums_built_once():
    """The prefix-sum matrices are shared per segment count, and read-only."""
    from rockland.metric import _segment_sums
    sums, later = _segment_sums(6)
    assert _segment_sums(6)[0] is sums
    assert np.array_equal(sums, np.tri(6, 6, -1)) and np.array_equal(later, sums.T)
    assert not sums.flags.writeable and not later.flags.writeable


# -- bounding box certificate -----------------------------------------------------

def test_box_bounds_certify(grushin, three_var_step5):
    """Feasible paths never leave the certified box: random controls with
    |a_j| <= r^nu_j and every constant-sign bang-bang control, on both
    systems, at scales below and above 1."""
    rng = random.Random(44)
    for sysd in (grushin, three_var_step5):
        space = MetricSpace(sysd["gens"], sysd["delta"])
        x0 = [0.5, -0.3, 0.2][:space.n]
        for r in (0.5, 2.0):
            B = space.box_bounds(x0, r)
            paths = [tuple((0.25, tuple(rng.uniform(-1, 1) * r ** nu
                                        for nu in space.degrees))
                           for _ in range(4))
                     for _ in range(20)]
            paths += [((1.0, tuple(s * r ** nu
                                   for s, nu in zip(signs, space.degrees))),)
                      for signs in itertools.product((-1, 1), repeat=space.m)]
            for segs in paths:
                reached = endpoint(x0, ControlPath(segs, r), sysd["gens"])
                for v, c, b in zip(reached, x0, B):
                    assert abs(float(v) - c) <= b


def test_box_bounds_sharp_at_origin(grushin, grushin_metric):
    """From the origin the constant controls (r, r) reach x2 = r^2 / 2, the
    edge of the box."""
    for r in (0.5, 2.0):
        B = grushin_metric.box_bounds([0.0, 0.0], r)
        path = ControlPath(((1.0, (r, r)),), r)
        reached = endpoint([0.0, 0.0], path, grushin["gens"])
        assert reached == [r, r * r / 2]
        assert B[1] == pytest.approx(r * r / 2, rel=1e-5)
        assert reached[1] <= B[1]


# -- ball volumes ------------------------------------------------------------------

def test_volume_positive_and_monotone(grushin_metric):
    v1 = grushin_metric.ball_volume([0.0, 0.0], 0.5, 200, seed=1)
    v2 = grushin_metric.ball_volume([0.0, 0.0], 1.0, 200, seed=2)
    assert v1.estimate > 0
    assert v1.confidence_interval[0] <= v2.confidence_interval[1]
    assert v1.confidence_interval[0] <= v1.estimate <= v1.confidence_interval[1]


def test_volume_reproducible(system):
    """The seed fixes the samples and every random start."""
    _, space = system
    x = [0.1] * space.n
    a = space.ball_volume(x, 0.5, 40, seed=17)
    assert a == space.ball_volume(x, 0.5, 40, seed=17)
    assert a.hits > 0
    ys = [[0.1 + 0.3 * k] * space.n for k in range(1, 4)]
    runs = [space.feasible(x, ys, 0.5, 4, random.Random(3), 1e-9)
            for _ in range(2)]
    assert np.array_equal(runs[0].controls, runs[1].controls)


def test_volume_pinned_results():
    """(hits, estimate) of seeded ball volumes on both bundled systems,
    bit for bit as recorded in tests/data/ballvol_pins.json; a change to
    the feasibility solve must leave every membership as it was."""
    with open(os.path.join(DATA, "ballvol_pins.json"), encoding="utf-8") as fh:
        cases = json.load(fh)
    spaces = {}
    for case in cases:
        name = case["model"]
        if name not in spaces:
            model = load_model(os.path.join(MODELS, name + ".model"))
            spaces[name] = MetricSpace(model.fields, model.delta)
        v = spaces[name].ball_volume(case["x"], case["r"], case["samples"],
                                     seed=case["seed"])
        assert (v.hits, v.estimate) == (case["hits"], case["estimate"]), case
    assert len(spaces) == 2 and len(cases) >= 20


def test_volume_grushin_contains_exact(grushin_metric):
    """From the origin, the 95% interval contains |B| = 5 r^3 / 3."""
    for r in (0.25, 1.0, 4.0):
        v = grushin_metric.ball_volume([0.0, 0.0], r, 400, seed=3)
        lo, hi = v.confidence_interval
        assert lo <= grushin_ball_volume(r) <= hi, (r, v)


def test_volume_slope_at_origin(grushin_metric):
    radii = [2.0 ** k for k in range(-4, 3)]
    vols = [grushin_metric.ball_volume([0.0, 0.0], r, 300, seed=40 + i).estimate
            for i, r in enumerate(radii)]
    slope = volume_slope(radii, vols)
    assert abs(slope - 3.0) <= 0.15


def test_doubling_origin(grushin_metric):
    checks = grushin_metric.doubling_check([0.0, 0.0], [1.0], 400, seed=11)
    ratio = checks[0]["ratio"]
    assert checks[0]["ratio_lo"] <= 8.0 <= checks[0]["ratio_hi"]
    assert 6.0 <= ratio <= 10.0


def test_doubling_off_origin_bounded(grushin_metric):
    radii = [0.25, 0.5, 1.0, 2.0, 4.0]
    checks = grushin_metric.doubling_check([1.0, 0.0], radii, 250, seed=9)
    for c in checks:
        assert 1.0 <= c["ratio_hi"]
        assert c["ratio"] <= 32.0


def test_fractional_integral_stable(grushin_metric):
    x = [0.0, 0.0]
    radii = [2.0 * 2.0 ** k for k in range(-7, 1)]
    curve = [grushin_metric.ball_volume(x, s, 200, seed=60 + i).estimate
             for i, s in enumerate(radii)]
    vol_fn = volume_interpolator(radii, curve)
    vals = [grushin_metric.fractional_integral_check(
        x, r, 1.0, n_samples=100, seed=7, vol_fn=vol_fn)
        for r in (0.5, 1.0, 2.0)]
    mid = sorted(vals)[1]
    assert all(abs(v - mid) <= 0.3 * mid for v in vals)


def test_volume_interpolator_roundtrip():
    radii = [0.5, 1.0, 2.0]
    vols = [1.0, 8.0, 64.0]
    fn = volume_interpolator(radii, vols)
    assert fn(1.0) == pytest.approx(8.0)
    assert fn(1.5) == pytest.approx(27.0, rel=1e-12)  # log-log linear
    assert fn(4.0) == pytest.approx(512.0, rel=1e-12)  # edge-slope extrapolation


def test_volume_slope_exact_powerlaw():
    radii = [2.0 ** k for k in range(-2, 3)]
    assert volume_slope(radii, [r ** 3 for r in radii]) == pytest.approx(3.0)


# -- estimate harness ---------------------------------------------------------------

def scaled_pair(pair, lam):
    (x, y) = pair
    return ([lam * x[0], lam ** 2 * x[1]], [lam * y[0], lam ** 2 * y[1]])


def test_derivative_words():
    assert derivative_words((1, 1), 1) == [(0,), (1,)]
    assert set(derivative_words((1, 2), 2)) == {(0, 0), (1,)}
    assert derivative_words((1, 1), 0) == [()]


def test_estimate_scan_rejects_low_order(grushin_gamma, grushin_metric):
    with pytest.raises(ValueError, match="nu - n"):
        estimate_scan(grushin_gamma["ev"], grushin_metric, -1,
                      [([1.0, 0.0], [0.0, 0.0])])


def test_estimate_scan_noncritical_stable(grushin_gamma, grushin_metric):
    """Sup ratio at order 1 varies by < 2x across two dyadic scale decades."""
    rng = random.Random(17)
    base = []
    while len(base) < 3:
        x = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        y = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
        if (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2 > 0.2:
            base.append((x, y))
    sups = {}
    for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
        pairs = [scaled_pair(p, lam) for p in base]
        rep = estimate_scan(grushin_gamma["ev"], grushin_metric, 1, pairs,
                            n_samples=250, seed=3)
        assert not rep.critical
        assert math.isfinite(rep.sup_ratio)
        sups[lam] = rep.sup_ratio
    assert max(sups.values()) < 2.0 * min(sups.values())


def test_estimate_scan_critical_bounded(grushin_gamma, grushin_metric):
    """Order 0 is the critical case for the Grushin operator (nu - n = 0)."""
    rng = random.Random(19)
    pairs = []
    while len(pairs) < 5:
        x = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        y = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
        if (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2 > 0.2:
            pairs.append((x, y))
    rep = estimate_scan(grushin_gamma["ev"], grushin_metric, 0, pairs,
                        n_samples=250, seed=5)
    assert rep.critical and rep.r0 is not None
    assert math.isfinite(rep.sup_ratio)
    for row in rep.rows:
        assert row.dist < rep.r0
