"""Kernel calibration, the saturation integral and its identity checks."""

import json
import math
import os
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from rockland import fundsol
from rockland.fields import make_standard_operator, operator_transpose
from rockland.fundsol import (
    BumpSpec,
    ExistenceError,
    SaturationEvaluator,
    _star_bump_quadrature,
    bump_jet,
    calibration_residuals,
    jet_values,
    kernel_calibrate,
    tensor_gl_grid,
)
from rockland.kernels import KernelSpec, heisenberg_gauge_kernel
from rockland.lifting import HomNorm
from rockland.poly import Poly, is_graded_homogeneous
from sympy_reference import (apply_operator_sympy, apply_word_sympy,
                             poly_to_sympy, smoothstep_expr)


def random_pairs(rng, count, lo=-2.0, hi=2.0, min_sep=0.1):
    pairs = []
    while len(pairs) < count:
        x = [rng.uniform(lo, hi), rng.uniform(lo, hi)]
        y = [rng.uniform(lo, hi), rng.uniform(lo, hi)]
        if (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2 > min_sep:
            pairs.append((x, y))
    return pairs


# -- kernel family -----------------------------------------------------------------

def test_kernel_homogeneity_invariant(grushin_gamma):
    """P is exactly homogeneous of degree (nu - Q) / a under the lifted
    dilations, so c * P^a is homogeneous of degree nu - Q."""
    K = grushin_gamma["kernel"]
    assert K.homogeneity_degree == -2
    assert is_graded_homogeneous(K.base, K.lifted.D_exponents, K.base_degree)


def test_kernel_decay_bound(grushin_gamma):
    """|kernel(z)| * gauge(z)^(Q - nu) stays bounded far from the origin."""
    K = grushin_gamma["kernel"]
    gauge = HomNorm(K.lifted.D_exponents)
    rng = random.Random(31337)
    fn = K.word_evaluator()
    bound = K.sup_on_gauge_sphere(n_samples=500)
    for _ in range(1000):
        z = [rng.gauss(0, 1) for _ in range(3)]
        rho = gauge(z)
        if rho < 1e-6:
            continue
        scale = rng.uniform(1.0, 1e3) / rho
        zs = [v * scale ** e for v, e in zip(z, K.lifted.D_exponents)]
        rho_s = gauge(zs)
        assert abs(float(fn(*zs))) * rho_s ** 2 <= bound


def _uncached_gauge_sphere_samples(N, D_exponents, n_samples, seed):
    """The seeded draw of kernels.gauge_sphere_samples, made afresh."""
    rng = random.Random(seed)
    pts = []
    while len(pts) < n_samples:
        u = [rng.gauss(0.0, 1.0) for _ in range(N)]
        lam = sum(abs(v) ** (1.0 / e) for v, e in zip(u, D_exponents))
        if lam < 1e-8:
            continue
        pts.append([v / lam ** e for v, e in zip(u, D_exponents)])
    return np.array(pts)


def test_gauge_sphere_samples_cached(grushin_gamma, monkeypatch):
    """The sampled bounds give bitwise the values of a fresh draw; the
    shared array is read-only and keyed by its arguments."""
    from rockland import kernels
    K = grushin_gamma["kernel"]
    N, exps = K.lifted.N, K.lifted.D_exponents

    def values():
        return (K.sup_on_gauge_sphere((0, 1), star=True),
                K.rounding_on_gauge_sphere((1,), False, -3))

    cached = values()
    monkeypatch.setattr(kernels, "gauge_sphere_samples",
                        _uncached_gauge_sphere_samples)
    fresh = values()
    monkeypatch.undo()
    assert cached[0] == fresh[0]
    assert cached[1][0] == fresh[1][0]
    assert np.array_equal(cached[1][1], fresh[1][1])

    pts = kernels.gauge_sphere_samples(N, exps, 2000, 10007)
    assert kernels.gauge_sphere_samples(N, exps, 2000, 10007) is pts
    assert np.array_equal(
        pts, _uncached_gauge_sphere_samples(N, exps, 2000, 10007))
    with pytest.raises(ValueError):
        pts[0, 0] = 0.0
    other_seed = kernels.gauge_sphere_samples(N, exps, 2000, 10008)
    assert not np.array_equal(pts, other_seed)
    fewer = kernels.gauge_sphere_samples(N, exps, 1999, 10007)
    assert fewer.shape == (1999, N) and np.array_equal(fewer, pts[:1999])


def test_kernel_annihilated_symbolically(grushin, grushin_gamma):
    assert grushin_gamma["kernel"].annihilation_residual(grushin["L"]) == 0


@pytest.mark.parametrize("word", [(), (0,), (0, 1), (1, 1, 0)])
@pytest.mark.parametrize("star", [False, True])
def test_kernel_jet_matches_sympy(grushin_gamma, word, star):
    """The exact jet of a word derivative agrees with sympy's derivative of
    the closed-form kernel c * P^a, on the plain and the star route."""
    import sympy as sp
    K = grushin_gamma["kernel"]
    lifted = K.lifted
    syms = sp.symbols(f"z1:{lifted.N + 1}", real=True)
    base = poly_to_sympy(K.base, syms)
    if star:
        base = base.subs({s: poly_to_sympy(p, syms)
                          for s, p in zip(syms, lifted.inverse)},
                         simultaneous=True)
    expr = apply_word_sympy(lifted.lifted_fields, word, syms,
                            base ** sp.Rational(K.power.numerator,
                                                K.power.denominator))
    ref = sp.lambdify(syms, K.calibration_constant * expr, modules="numpy")
    pts = K._gauge_sphere_samples(50, 99) * np.array([[0.5], [2.0]] * 25) \
        ** np.array(lifted.D_exponents)
    got = K.word_evaluator(word, star)(*pts.T)
    want = ref(*pts.T)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11


def test_kernel_requires_heisenberg_lift(three_var_step5):
    with pytest.raises(ValueError, match="step-2"):
        heisenberg_gauge_kernel(three_var_step5["lifted"])


def test_star_kernel_is_inverse_composition(grushin_gamma):
    K = grushin_gamma["kernel"]
    lifted = K.lifted
    rng = random.Random(7)
    star = K.word_evaluator(star=True)
    plain = K.word_evaluator()
    for _ in range(10):
        z = [rng.uniform(-2, 2) for _ in range(3)]
        zi = [float(v) for v in lifted.inverse_eval(z)]
        assert float(star(*z)) == pytest.approx(float(plain(*zi)), rel=1e-12)


# -- calibration -------------------------------------------------------------------

def test_calibration_pole_residuals(grushin_gamma):
    res = calibration_residuals(grushin_gamma["kernel"], grushin_gamma["Lt"])
    assert len(res) == 3
    assert max(res) <= 1e-3


def test_calibration_constant_is_one_over_two_pi(grushin_gamma):
    """The Heisenberg gauge kernel of the Grushin lift is 1/(2 pi) rho^-2.

    The pin is the 8x12 rule's own value, 5e-9 relative from 1/(2 pi):
    any change of the rule's nodes or weights moves it, rounding does not."""
    c = grushin_gamma["kernel"].calibration_constant
    assert c == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-6)
    assert c == pytest.approx(0.1591549422929308, rel=1e-13)


def test_calibration_independent_of_block_size(grushin_gamma, monkeypatch):
    """Blocks of an odd size do not line up with the rules' slabs: a
    dropped or doubled block would move the constant and the residuals."""
    import rockland.fundsol as fundsol
    K, Lt = grushin_gamma["kernel"], grushin_gamma["Lt"]
    monkeypatch.setattr(fundsol, "_EVAL_BLOCK", 997)
    small = kernel_calibrate(K.with_constant(1.0), K.lifted, Lt)
    assert small.calibration_constant == pytest.approx(
        K.calibration_constant, rel=1e-14)
    np.testing.assert_allclose(calibration_residuals(small, Lt),
                               calibration_residuals(K, Lt), rtol=0,
                               atol=1e-12)


def test_calibration_reports_rule_disagreement(grushin_gamma):
    """The two rules differ by ~4e-7 relative on the Grushin kernel: a
    tighter check_tol fails, and the message gives both integrals, their
    gap and the tolerance."""
    K, Lt = grushin_gamma["kernel"], grushin_gamma["Lt"]
    with pytest.raises(ValueError) as err:
        kernel_calibrate(K.with_constant(1.0), K.lifted, Lt, check_tol=1e-8)
    message = str(err.value)
    for text in ("6x10 rule gives -6.2831", "8x12 rule -6.2831",
                 "relative gap of 4", "check_tol 1e-08"):
        assert text in message, message


def test_calibration_linearity(grushin_gamma):
    """Scaling the kernel by 2 doubles the identity's left side."""
    K = grushin_gamma["kernel"]
    K2 = K.with_constant(2.0 * K.calibration_constant)
    res = calibration_residuals(K2, grushin_gamma["Lt"],
                                poles=[[0.0, 0.0, 0.0]])
    # identity value moves from -1 to -2, so the residual becomes ~1
    assert res[0] == pytest.approx(1.0, abs=1e-4)


def test_calibration_rejects_wrong_shape(grushin, grushin_gamma):
    """A non-annihilating shape cannot satisfy the identity consistently."""
    K = grushin_gamma["kernel"]
    bad = type(K)(K.lifted, K.nu, sum(s ** 2 for s in Poly.variables(3)),
                  Fraction(-1, 2), 1.0, "bad")
    calibrated = kernel_calibrate(bad, K.lifted, grushin_gamma["Lt"])
    res = calibration_residuals(calibrated, grushin_gamma["Lt"])
    assert max(res) > 1e-3  # identity fails away from the reference pole


# -- existence gates ---------------------------------------------------------------

def test_existence_gate_nu_ge_q(grushin, grushin_quartic, grushin_gamma):
    # nu = 4 >= q = 3: no homogeneous global fundamental solution
    with pytest.raises(ExistenceError, match="nu < q"):
        SaturationEvaluator(grushin["lifted"], grushin_quartic,
                            grushin_gamma["kernel"])


def test_kernel_degree_mismatch_rejected(grushin, grushin_gamma):
    K = grushin_gamma["kernel"]
    bad = type(K)(K.lifted, 1, K.base, K.power, 1.0)
    with pytest.raises(ValueError, match="nu - Q"):
        SaturationEvaluator(grushin["lifted"], grushin["L"], bad)


def test_multi_fiber_lifting_rejected(three_var_step5):
    lifted = three_var_step5["lifted"]
    assert lifted.p > 1
    kernel = KernelSpec(lifted, 2, Poly.const(lifted.N, 1), Fraction(1))
    with pytest.raises(ValueError, match="one lifted variable"):
        SaturationEvaluator(lifted, three_var_step5["L"], kernel)


def test_pole_rejected(grushin_gamma):
    with pytest.raises(ValueError, match="pole"):
        grushin_gamma["ev"].gamma_eval([1.0, 2.0], [1.0, 2.0])


def test_config_validation(grushin_gamma):
    """A tolerance given per call must be positive and finite: a NaN
    tolerance gave a NaN Gamma with no warning."""
    ev = grushin_gamma["ev"]
    with pytest.raises(ValueError, match="rel_tol"):
        ev.gamma_record([1.0, 0.0], [0.0, 0.5], rel_tol=math.nan)
    with pytest.raises(ValueError, match="rel_tol"):
        ev.gamma_batch([[1.0, 0.0]], [0.0, 0.5], rel_tol=math.inf)


# -- gamma values ------------------------------------------------------------------

def test_gamma_joint_homogeneity(grushin_gamma):
    rng = random.Random(99)
    pairs = random_pairs(rng, 10)
    dev = grushin_gamma["ev"].verify_homogeneity(pairs, [0.5, 2.0, 4.0])
    assert dev <= 1e-6


def test_gamma_homogeneity_lambda_one(grushin_gamma):
    dev = grushin_gamma["ev"].verify_homogeneity([([1.0, 0.5], [0.0, 0.0])],
                                                 [1.0])
    assert dev == 0.0


def test_gamma_symmetry(grushin_gamma):
    rng = random.Random(123)
    pairs = random_pairs(rng, 10)
    assert grushin_gamma["ev"].verify_symmetry(pairs) <= 1e-5


def test_gamma_star_route_symmetry(grushin_gamma):
    rng = random.Random(321)
    pairs = random_pairs(rng, 5)
    assert grushin_gamma["ev"].verify_symmetry(pairs, star=True) <= 1e-5


def test_tail_doubling_stability(grushin_gamma):
    rng = random.Random(55)
    pairs = random_pairs(rng, 20)
    checks = grushin_gamma["ev"].tail_doubling_check(pairs)
    assert all(ok for _, _, ok in checks)


def test_tail_doubling_detects_truncated_tail(grushin, grushin_gamma):
    """An evaluator whose tails stop at |zeta| = 8 r0, with no bound for
    the rest, fails the check on every pair."""
    ev = SaturationEvaluator(grushin["lifted"], grushin["L"],
                             grushin_gamma["kernel"])
    splits, _ = fundsol._CORE_LAYOUT
    ev._layouts[fundsol._CORE_LAYOUT] = fundsol._start_panels(
        (splits, (0.125, 1.0)), fundsol._CORE_RADIUS_FACTOR)
    checks = ev.tail_doubling_check(random_pairs(random.Random(55), 5))
    assert not any(ok for _, _, ok in checks)


def test_gamma_error_bound_reported(grushin_gamma):
    rec = grushin_gamma["ev"].gamma_record([1.0, 0.0], [0.0, 0.5])
    assert rec.error_bound > 0
    assert rec.tail_bound <= rec.error_bound
    assert rec.error_bound < 1e-6 * abs(rec.value)


# -- derivatives -------------------------------------------------------------------

def test_derivative_zero_word_equals_gamma(grushin_gamma):
    ev = grushin_gamma["ev"]
    x, y = [1.0, 0.3], [0.2, -0.5]
    assert ev.gamma_x_derivative((), x, y) == ev.gamma_eval(x, y)


def test_derivative_matches_finite_differences(grushin_gamma):
    ev = grushin_gamma["ev"]
    rng = random.Random(77)
    for x, y in random_pairs(rng, 10, lo=-1.5, hi=1.5, min_sep=0.3):
        for word in [(0,), (1,)]:
            exact = ev.gamma_x_derivative(word, x, y)
            fd = ev.gamma_x_derivative_fd(word, x, y, step=1e-4)
            assert fd.method == "fd"
            assert abs(exact - fd.value) <= 1e-4 * max(abs(exact), 1e-6)


def test_derivative_scaling_exponent(grushin_gamma):
    """First derivatives scale with exponent nu - q - 1 = -2."""
    ev = grushin_gamma["ev"]
    rng = random.Random(88)
    for x, y in random_pairs(rng, 5):
        base = ev.gamma_x_derivative((0,), x, y)
        for lam in (0.5, 2.0):
            xs = [lam * x[0], lam ** 2 * x[1]]
            ys = [lam * y[0], lam ** 2 * y[1]]
            scaled = ev.gamma_x_derivative((0,), xs, ys)
            assert abs(scaled - lam ** -2 * base) <= 1e-5 * abs(base)


def test_y_derivative_matches_finite_differences(grushin_gamma):
    from rockland.lifting import exp_flow
    ev = grushin_gamma["ev"]
    x, y = [1.0, 0.3], [0.2, -0.5]
    h = 1e-4
    for i in range(2):
        X = ev.lifted.base_fields[i]
        fd = (ev.gamma_eval(x, exp_flow(X, y, h))
              - ev.gamma_eval(x, exp_flow(X, y, -h))) / (2 * h)
        exact = ev.gamma_y_derivative((i,), x, y)
        assert abs(exact - fd) <= 1e-4 * max(abs(exact), 1e-6)


# -- left inverse ------------------------------------------------------------------

def test_left_inverse_identity(grushin_gamma):
    ev = grushin_gamma["ev"]
    y = [1.0, 0.0]
    residual = ev.verify_left_inverse(BumpSpec((1.0, 0.0)), y)
    assert residual <= 5e-3


def test_left_inverse_far_bump(grushin_gamma):
    """A bump whose support misses y integrates to ~0 = phi(y)."""
    ev = grushin_gamma["ev"]
    residual = ev.verify_left_inverse(BumpSpec((30.0, 30.0)), [1.0, 0.0])
    assert residual <= 1e-4


def test_left_inverse_rescaled_bump(grushin_gamma):
    """Residual stays the same order under shrinking the bump and pole."""
    ev = grushin_gamma["ev"]
    residual = ev.verify_left_inverse(
        BumpSpec((0.5, 0.0), flat_radius=0.5, support_radius=1.0), [0.5, 0.0])
    assert residual <= 5e-3


def test_gamma_batch_matches_pointwise(grushin_gamma):
    """One batched run of the panel rule agrees with the pointwise route,
    near the pole and far."""
    ev = grushin_gamma["ev"]
    rng = random.Random(4242)
    y = [0.3, -0.2]
    offsets = [[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(20)]
    offsets += [[1e-3, 0.0], [0.0, 1e-4], [30.0, 30.0], [-50.0, 400.0]]
    xs = [[a + y[0], b + y[1]] for a, b in offsets]
    batch = ev.gamma_batch(xs, y)
    ref = np.array([ev.gamma_record(x, y).value for x in xs])
    assert np.max(np.abs(batch.value - ref) / np.abs(ref)) <= 1e-10
    assert np.all(batch.tail_bound <= batch.error_bound)


def test_gamma_values_match_golden(grushin_gamma):
    """Gamma, Gamma* and the x- and y-derivative words up to order 3 on
    test_gamma_batch_matches_pointwise's points, against the values of the
    scipy-quad evaluator over sympy expressions that this one replaced.

    A value agrees to 1e-10 relative or lies within the sum of both error
    bounds, except where quad warned that it had not converged.  The rows
    at the four fixed offsets, near the pole and far, also hold a
    high-precision reference (tests/gamma_reference.py), and the new value
    lies within its own error bound of that.  Where the panel rule does not
    warn, that bound lies within the requested tolerance.
    """
    path = os.path.join(os.path.dirname(__file__), "data", "gamma_values.json")
    with open(path) as fh:
        data = json.load(fh)
    ev = grushin_gamma["ev"]
    y = data["y"]
    for row in data["values"]:
        word, x = tuple(row["word"]), row["x"]
        # near the pole, some do not converge
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", IntegrationWarning)
            rec = ev._integral("plain", word, x, y) \
                if row["route"] == "plain" else ev._integral("star", word, y, x)
        if not any(issubclass(w.category, IntegrationWarning)
                   for w in caught):
            assert rec.error_bound <= max(
                fundsol._ABS_TOL, fundsol._REL_TOL * abs(rec.value)), row
        miss = abs(rec.value - row["value"])
        assert row.get("warned") or miss <= 1e-10 * abs(row["value"]) \
            or miss <= rec.error_bound + row["error_bound"], row
        if "reference" in row:
            assert abs(rec.value - row["reference"]) <= rec.error_bound, row


@pytest.mark.parametrize("bump, y", [
    (BumpSpec((0.0, 0.0)), [0.0, 0.0]),
    (BumpSpec((30.0, 30.0)), [1.0, 0.0]),
    (BumpSpec((0.5, 0.0), flat_radius=0.5, support_radius=1.0), [0.5, 0.0]),
])
def test_left_inverse_matches_pointwise_sum(grushin_gamma, bump, y):
    ev = grushin_gamma["ev"]
    jet = bump_jet(operator_transpose(ev.operator), bump.center)
    pts, gws = _star_bump_quadrature(jet, bump, panels=2, nodes=4)
    total = sum(gw * ev.gamma_record(pt, y, rel_tol=1e-6).value
                for pt, gw in zip(pts, gws))
    residual = ev.verify_left_inverse(bump, y, panels=2, nodes=4)
    assert residual == pytest.approx(abs(total + bump(y)), abs=1e-10)


def test_gamma_batch_warns_without_convergence(grushin, grushin_gamma,
                                               monkeypatch):
    monkeypatch.setattr(fundsol, "_MAX_BISECTIONS", 10)
    ev = SaturationEvaluator(grushin["lifted"], grushin["L"],
                             grushin_gamma["kernel"])
    with pytest.warns(IntegrationWarning, match="panel rule"):
        ev.gamma_batch([[1.0, 0.0], [1e-3, 0.0]], [0.0, 0.0], rel_tol=1e-14)


# -- plumbing ----------------------------------------------------------------------

def test_smoothstep_endpoints():
    import sympy as sp
    t = sp.Symbol("t")
    s = smoothstep_expr(t, 5)
    assert s.subs(t, 0) == 0 and s.subs(t, 1) == 1
    # C^5: first five derivatives vanish at both ends
    d = s
    for _ in range(5):
        d = sp.diff(d, t)
        assert d.subs(t, 0) == 0 and d.subs(t, 1) == 0


def _annulus_points(rng, bump, count):
    """Uniform points of the open annulus flat_radius < |z - c| < support."""
    dim = len(bump.center)
    a, b = bump.flat_radius, bump.support_radius
    pts = []
    while len(pts) < count:
        z = [rng.uniform(-b, b) for _ in range(dim)]
        if a ** 2 < sum(v * v for v in z) < b ** 2:
            pts.append([v + c for v, c in zip(z, bump.center)])
    return np.array(pts)


def _sympy_star_bump(op, bump):
    """op* applied by sympy to the annulus polynomial 1 - smoothstep(t)."""
    import sympy as sp
    syms = sp.symbols(f"z1:{op.nvars + 1}", real=True)
    a2 = sp.nsimplify(bump.flat_radius ** 2)
    b2 = sp.nsimplify(bump.support_radius ** 2)
    r2 = sum((s - sp.nsimplify(c)) ** 2 for s, c in zip(syms, bump.center))
    h = 1 - smoothstep_expr((r2 - a2) / (b2 - a2), bump.order)
    g = apply_operator_sympy(operator_transpose(op), syms, h)
    return sp.lambdify(syms, g, modules="mpmath")


@pytest.mark.parametrize("case", ["lifted_grushin", "base_quartic"])
def test_star_bump_jet_matches_sympy(case, grushin_gamma, grushin_quartic):
    """The exact jet of op*(bump) agrees with sympy's derivative of it."""
    import mpmath
    if case == "lifted_grushin":
        op, bump = grushin_gamma["Lt"], BumpSpec((0.0, 0.0, 0.0))
    else:
        op = grushin_quartic
        bump = BumpSpec((0.75, -0.5), flat_radius=0.5, support_radius=1.25,
                        order=5)
    pts = _annulus_points(random.Random(2718), bump, 40)
    got = jet_values(bump_jet(operator_transpose(op), bump.center), bump, pts)
    ref_fn = _sympy_star_bump(op, bump)
    with mpmath.workdps(30):
        ref = np.array([float(ref_fn(*map(mpmath.mpf, p))) for p in pts])
    assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


def test_bump_matches_smoothstep():
    import sympy as sp
    bump = BumpSpec((0.5, -1.0), flat_radius=0.75, support_radius=1.5)
    t = sp.Symbol("t")
    step = smoothstep_expr(t, bump.order)
    a2, b2 = bump.flat_radius ** 2, bump.support_radius ** 2
    for p in _annulus_points(random.Random(161), bump, 50):
        r2 = sum((v - c) ** 2 for v, c in zip(p, bump.center))
        ref = 1 - step.subs(t, sp.Rational((r2 - a2) / (b2 - a2)))
        assert abs(bump(p) - float(ref)) <= 1e-12


def test_bump_values():
    b = BumpSpec((0.0, 0.0))
    assert b([0.5, 0.0]) == 1.0
    assert b([3.0, 0.0]) == 0.0
    assert 0.0 < b([1.5, 0.0]) < 1.0
    with pytest.raises(ValueError):
        BumpSpec((0.0,), flat_radius=2.0, support_radius=1.0)


def test_kronrod_rule_exactness():
    """The 21-point Kronrod rule integrates x^k exactly up to k = 31 and its
    embedded 10-point Gauss rule up to k = 19."""
    from rockland.fundsol import _NODES, _RULE_WEIGHTS
    for k in range(34):
        exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
        kronrod, gauss = (_NODES ** k) @ _RULE_WEIGHTS
        assert (abs(kronrod - exact) <= 1e-15) == (k <= 31) or k % 2
        assert (abs(gauss - exact) <= 1e-15) == (k <= 19) or k % 2


def test_panel_integral_per_owner():
    """Peaks of widths 10 to 1e-5, one owner each: every owner meets its own
    tolerance, and only the narrow peaks are bisected."""
    from rockland.fundsol import panel_integral
    widths = np.array([10.0, 1e-2, 1e-5])
    lo = np.repeat([[-1.0, 0.0]], 3, axis=0).ravel()
    hi = np.repeat([[0.0, 2.0]], 3, axis=0).ravel()
    owner = np.repeat(np.arange(3), 2)
    rows_seen = []

    def f(t, rows):
        rows_seen.append(rows)
        a = widths[owner[rows]][:, None]
        return a / (a * a + (t - 0.3) ** 2), np.zeros((len(t), 10))

    sums = panel_integral(f, lo, hi, owner, 1e-14, 1e-10, 200)
    got = sums.value.reshape(3, 2).sum(axis=1)
    exact = np.arctan(1.7 / widths) + np.arctan(1.3 / widths)
    assert np.all(np.abs(got - exact) <= 1e-10 * exact)
    assert np.all(sums.error.reshape(3, 2).sum(axis=1) <= 1e-10 * exact)
    refined = np.concatenate(rows_seen[1:])
    assert set(owner[refined]) == {1, 2}


@pytest.mark.parametrize("route, word", [("plain", ()), ("plain", (0,)),
                                         ("star", (1, 0, 1))])
def test_integrand_error_bound_holds(grushin_gamma, route, word):
    """Along fibers near the pole, where the fiber's coordinates cancel,
    and far from it, the float integrand lies within its stated evaluation
    error of the same integrand in 40-digit arithmetic on the same fiber
    coefficients."""
    import mpmath
    from rockland.poly import poly_eval
    ev = grushin_gamma["ev"]
    jet = ev.kernel.word_expr(word, star=(route == "star"))
    on_fiber = ev._on_fiber(route, word)
    c = ev.kernel.calibration_constant
    y = [0.3, -0.2]
    with mpmath.workdps(40):
        power = mpmath.mpf(jet.power.numerator) / jet.power.denominator
        for off in ([0.0, 1e-4], [1e-3, 0.0], [0.7, -1.1], [30.0, 30.0]):
            x = [y[0] + off[0], y[1] + off[1]]
            a, b = (x, y) if route == "plain" else (y, x)
            coeffs, g0 = ev._fiber(np.array(a)[:, None], np.array(b)[:, None])
            coeffs = coeffs[..., 0]
            # nodes across the core, and about where a coordinate vanishes
            zeta = [g0[0] * v for v in np.linspace(-8.0, 8.0, 41)]
            for row in coeffs:
                if row[1]:
                    z0 = -row[0] / row[1]
                    zeta += [z0 * (1 + v) for v in np.linspace(-1e-2, 1e-2, 41)]
            zeta = np.array(zeta)
            got, err = on_fiber(coeffs[:, :, None], zeta)
            for t, g, e in zip(zeta, got, err):
                pt = [sum(Fraction(float(cj)) * Fraction(float(t)) ** j
                          for j, cj in enumerate(row)) for row in coeffs]
                p = poly_eval(jet.base, pt)
                want = c * sum(
                    mpmath.mpf(q.numerator) / q.denominator
                    * (mpmath.mpf(p.numerator) / p.denominator) ** (power - k)
                    for k, q in enumerate(poly_eval(qk, pt)
                                          for qk in jet.coeffs))
                assert abs(g - float(want)) <= e, (off, t)


def test_panel_integral_counts_evaluation_error():
    """A stated evaluation error enters the estimate; an owner whose
    evaluation error alone passes its tolerance warns at once instead of
    bisecting to the limit, and the other owner is unaffected."""
    from rockland.fundsol import panel_integral
    lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    owner = np.arange(2)
    noise = np.array([1e-12, 1e-6])
    passes = []

    def f(t, rows):
        passes.append(rows)
        return np.cos(t), np.broadcast_to(noise[rows][:, None],
                                          (len(t), 10))

    with pytest.warns(IntegrationWarning, match="evaluation error"):
        sums = panel_integral(f, lo, hi, owner, 1e-14, 1e-8, 200)
    assert sums.value == pytest.approx([np.sin(1.0)] * 2, rel=1e-12)
    # the Gauss weights sum to the width: the bound counts noise * width
    assert sums.error[1] >= 1e-6
    assert 1e-12 <= sums.error[0] <= 1e-8 * np.sin(1.0)
    assert len(passes) <= 2


def test_panel_integral_rounding_floor_binds():
    """Both rules integrate t^19 + 3 t^4 + 1 exactly, so on [0, 1] their
    gap is pure rounding and lies below the floor: the estimate is the
    floor, _ROUNDING times the integral of |f| (here f > 0, so 33/20)."""
    from rockland.fundsol import (_NODES, _ROUNDING, _RULE_WEIGHTS,
                                  panel_integral)

    def poly(t):
        return t ** 19 + 3.0 * t ** 4 + 1.0

    kronrod, gauss = (poly(0.5 + 0.5 * _NODES) @ _RULE_WEIGHTS) * 0.5
    floor = _ROUNDING * 1.65
    assert abs(kronrod - gauss) < floor
    sums = panel_integral(lambda t, rows: (poly(t), np.zeros((len(t), 10))),
                          np.array([0.0]), np.array([1.0]), np.zeros(1, int),
                          1e-12, 1e-10, 200)
    assert abs(sums.value[0] - 1.65) <= 1e-15
    assert math.isclose(sums.error[0], floor, rel_tol=1e-12)


def test_tensor_gl_grid_exactness():
    """The composite rule integrates a smooth polynomial exactly."""
    pts, wts = tensor_gl_grid([(-1.0, 2.0), (0.0, 1.0)], panels=3, nodes=5)
    vals = pts[:, 0] ** 4 * pts[:, 1] ** 2
    exact = ((2.0 ** 5 - (-1.0) ** 5) / 5.0) * (1.0 / 3.0)
    assert float(np.sum(vals * wts)) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("bump, panels, nodes", [
    (BumpSpec((0.5, -1.0), flat_radius=0.75, support_radius=1.5), 3, 5),
    (BumpSpec((0.0, 0.0)), 4, 6),
    (BumpSpec((0.25, 0.0, -0.5)), 2, 4),
    (BumpSpec((0.0, 0.0, 0.0), flat_radius=0.5, support_radius=1.25), 3, 3),
])
def test_annulus_rule_is_the_masked_grid(bump, panels, nodes):
    """The annulus rule keeps the nodes and weights of the full tensor grid
    that lie in the open annulus, and no others."""
    from rockland.fundsol import _annulus_rule
    pts, wts = tensor_gl_grid(bump.box(), panels, nodes)
    r2 = np.sum((pts - np.asarray(bump.center)) ** 2, axis=1)
    inside = (r2 > bump.flat_radius ** 2) & (r2 < bump.support_radius ** 2)
    assert 0 < inside.sum() < len(inside)
    got_pts, got_wts = _annulus_rule(bump, panels, nodes)
    want = np.column_stack([pts[inside], wts[inside]])
    got = np.column_stack([got_pts, got_wts])
    want, got = (a[np.lexsort(a[:, ::-1].T)] for a in (want, got))
    assert got.shape == want.shape
    np.testing.assert_array_equal(got[:, :-1], want[:, :-1])
    np.testing.assert_allclose(got[:, -1], want[:, -1], rtol=0, atol=1e-15)
