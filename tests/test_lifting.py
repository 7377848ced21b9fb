"""Group construction, lifting, slice maps and the saturability condition."""

import glob
import os
import random
from fractions import Fraction

import pytest

from liealg_reference import _invert_rational_matrix
from poly_reference import running_sum_bch_product
from rockland.fields import DilationFamily, PolyVectorField, certify_homogeneity
from rockland.liealg import generate_lie_algebra, hormander_rank, nilpotency_step
from rockland.lifting import (
    GroupLaw,
    HomNorm,
    _verify_group,
    bch_product,
    build_group,
    exp_flow,
    invert_graded_map,
    lift_identity_check,
    poly_det,
    saturable_check,
    slice_diffeos,
)
from rockland.model import load_model
from rockland.poly import Poly, poly_eval, substitute, substitute_many

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def rational_point(rng, n, lo=-3, hi=3):
    return [Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(n)]


# -- BCH ------------------------------------------------------------------------

def test_bch_abelian():
    from rockland.liealg import StructureConstants
    sc = StructureConstants(2, ())
    a = [Fraction(1), Fraction(2)]
    b = [Fraction(-3), Fraction(5)]
    assert bch_product(sc, 1, a, b) == [Fraction(-2), Fraction(7)]


def test_bch_heisenberg(grushin):
    sc = grushin["sc"]
    a = [Fraction(1), Fraction(0), Fraction(0)]
    b = [Fraction(0), Fraction(1), Fraction(0)]
    assert bch_product(sc, 2, a, b) == [Fraction(1), Fraction(1), Fraction(1, 2)]


def test_bch_inverse(three_var_step5):
    sc = three_var_step5["sc"]
    rng = random.Random(3)
    for _ in range(5):
        a = rational_point(rng, sc.N)
        na = [-v for v in a]
        assert all(v == 0 for v in bch_product(sc, 5, a, na))


def test_bch_product_keeps_running_sum_order():
    """On every bundled model's algebra the symbolic group law stores the
    running sum's terms in its order, and the numeric product is the running
    sum's at seeded rational points."""
    rng = random.Random(31)
    for path in sorted(glob.glob(os.path.join(MODELS, "*.model"))):
        m = load_model(path)
        basis, sc = generate_lie_algebra(list(m.fields), m.delta)
        step = nilpotency_step(sc, basis.degrees)
        two = Poly.variables(2 * sc.N)
        a, b = list(two[:sc.N]), list(two[sc.N:])
        got = bch_product(sc, step, a, b)
        want = running_sum_bch_product(sc, step, a, b)
        assert [list(p.terms.items()) for p in got] == \
            [list(p.terms.items()) for p in want], path
        a, b = rational_point(rng, sc.N), rational_point(rng, sc.N)
        assert bch_product(sc, step, a, b) == running_sum_bch_product(sc, step, a, b)


def test_bch_step_cap(grushin):
    with pytest.raises(ValueError, match="step"):
        bch_product(grushin["sc"], 7, [0] * 3, [0] * 3)


# -- flows ------------------------------------------------------------------------

def test_exp_flow_examples():
    X = PolyVectorField(2, (Poly.const(2, 1), Poly.zero(2)))
    assert exp_flow(X, [Fraction(0), Fraction(0)], 1) == [1, 0]
    Y = PolyVectorField(2, (Poly.const(2, 1), Poly.var(2, 0)))
    assert exp_flow(Y, [Fraction(0), Fraction(0)], 1) == [1, Fraction(1, 2)]


def test_exp_flow_reversible(three_var_step5):
    X1, X2 = three_var_step5["fields"]
    V = X1.add(X2.scale(Fraction(2, 3)))
    rng = random.Random(5)
    for _ in range(5):
        start = rational_point(rng, 3)
        t = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        there = exp_flow(V, start, t)
        back = exp_flow(V, there, -t)
        assert back == start


def test_bch_flow_compatibility(grushin):
    """F(bch(a, b)) equals flowing W_a then W_b from the origin."""
    basis, sc = grushin["basis"], grushin["sc"]
    rng = random.Random(8)
    for _ in range(5):
        a = rational_point(rng, 3)
        b = rational_point(rng, 3)

        def combo(coords):
            V = PolyVectorField.zero(2)
            for c, W in zip(coords, basis.W):
                V = V.add(W.scale(c))
            return V

        mid = exp_flow(combo(a), [Fraction(0)] * 2, 1)
        end = exp_flow(combo(b), mid, 1)
        ab = bch_product(sc, 2, a, b)
        assert exp_flow(combo(ab), [Fraction(0)] * 2, 1) == end


# -- group axioms -----------------------------------------------------------------

def test_group_heisenberg_law(grushin):
    g = grushin["lifted"].group_w
    rng = random.Random(13)
    for _ in range(5):
        a = rational_point(rng, 3)
        b = rational_point(rng, 3)
        expected = [a[0] + b[0], a[1] + b[1],
                    a[2] + b[2] + Fraction(1, 2) * (a[0] * b[1] - a[1] * b[0])]
        assert g.mult_eval(a, b) == expected


def test_left_invariant_fields_at_identity(chain_r5):
    basis, sc = chain_r5["basis"], chain_r5["sc"]
    g = build_group(basis, sc)
    for k in range(g.N):
        vals = g.left_fields[k].eval_at([Fraction(0)] * g.N)
        assert vals == [Fraction(int(i == k)) for i in range(g.N)]


def test_left_fields_reproduce_structure_constants(three_var_step5):
    """[L_i, L_j] = sum_k c_ij^k L_k for the left-invariant fields."""
    from rockland.fields import commutator
    basis, sc = three_var_step5["basis"], three_var_step5["sc"]
    g = build_group(basis, sc)
    emap = sc.entry_map()
    for i in range(g.N):
        for j in range(i + 1, g.N):
            B = commutator(g.left_fields[i], g.left_fields[j])
            expected = PolyVectorField.zero(g.N)
            for k, c in emap.get((i, j), {}).items():
                expected = expected.add(g.left_fields[k].scale(c))
            assert B.sub(expected).is_zero()


# -- lifted systems ----------------------------------------------------------------

def lifted_models(*models):
    return [m["lifted"] for m in models]


def test_grushin_lifting_dimensions(grushin):
    lifted = grushin["lifted"]
    assert (lifted.n, lifted.p, lifted.N) == (2, 1, 3)
    assert (lifted.q, lifted.E, lifted.Q) == (3, 1, 4)
    assert lifted.tau == (1,)


def test_lifted_fields_homogeneous(grushin, three_var_step5):
    for lifted in lifted_models(grushin, three_var_step5):
        D = DilationFamily(lifted.D_exponents)
        for X, base in zip(lifted.lifted_fields, lifted.base_fields):
            assert certify_homogeneity(X, D, triangular=False) == base.declared_degree


def test_residuals_xi_only_and_nonzero(grushin, three_var_step5):
    for lifted in lifted_models(grushin, three_var_step5):
        for R in lifted.residuals():
            assert not R.is_zero()
            for j in range(lifted.n):
                assert R.coeffs[j].is_zero()


def test_lifted_fields_span(grushin, three_var_step5):
    """Lie(Xtilde) has dimension N and full rank at sampled points."""
    rng = random.Random(21)
    for lifted in lifted_models(grushin, three_var_step5):
        D = DilationFamily(lifted.D_exponents)
        basis_t, _ = generate_lie_algebra(lifted.lifted_fields, D)
        assert basis_t.N == lifted.N
        for _ in range(5):
            pt = rational_point(rng, lifted.N)
            assert hormander_rank(basis_t, pt) == lifted.N


def test_lift_identity_random(grushin, three_var_step5):
    rng = random.Random(34)
    for model in (grushin, three_var_step5):
        lifted, L = model["lifted"], model["L"]
        n = lifted.n
        sigma = model["delta"].sigma
        bound = 3 * max(sigma)
        for _ in range(20):
            terms = {}
            for _ in range(4):
                mono = tuple(rng.randint(0, 2) for _ in range(n))
                if sum(e * s for e, s in zip(mono, sigma)) <= bound:
                    terms[mono] = Fraction(rng.randint(-5, 5))
            u = Poly(n, terms)
            assert lift_identity_check(L, lifted, u)


def test_lift_identity_fails_a_base_direction_perturbation(
        grushin, grushin_bent_lifting):
    """A lifted field that moves a base coordinate breaks the identity."""
    L = grushin["L"]
    assert not lift_identity_check(L, grushin_bent_lifting, Poly.var(2, 1))
    assert lift_identity_check(L, grushin["lifted"], Poly.var(2, 1))


def test_lift_identity_insensitive_to_residual(grushin):
    """Dropping R_2 leaves the identity true: it cannot discriminate."""
    lifted, L = grushin["lifted"], grushin["L"]
    corrupted = list(lifted.lifted_fields)
    corrupted[1] = lifted.base_fields[1].embed_in(lifted.N)
    Lc = L.with_fields([lifted.lifted_fields[0], corrupted[1]])
    u = Poly.var(2, 1) ** 2
    from rockland.poly import embed
    assert Lc.apply(embed(u, 3)) == embed(L.apply(u), 3)


def test_slice_diffeos(grushin, three_var_step5):
    for lifted in lifted_models(grushin, three_var_step5):
        sm = slice_diffeos(lifted)  # raises if any exact check fails
        assert abs(sm.det_psi) == 1
        assert abs(sm.det_phi) == 1
        # Psi at x = y = 0 is linear with unit Jacobian; check bijectivity
        rng = random.Random(55)
        n, p = lifted.n, lifted.p
        zero = [Fraction(0)] * n
        xi = rational_point(rng, p)
        out = [poly_eval(m, zero + zero + xi) for m in sm.psi]
        assert out == xi  # (0,0)^{-1} * (0, xi) = (0, xi)


def test_phi_at_matches_group_law(grushin, three_var_step5):
    """Phi_{x,y}(zeta) = pi_p((y,0) * (y,zeta)^-1 * (x,0)), exactly, at
    rational points through the evaluated group law."""
    rng = random.Random(56)
    for lifted in lifted_models(grushin, three_var_step5):
        sm = slice_diffeos(lifted)
        n, p = lifted.n, lifted.p
        for _ in range(5):
            x, y, zeta = rational_point(rng, n), rational_point(rng, n), rational_point(rng, p)
            zero = [Fraction(0)] * p
            a = lifted.mult_eval(y + zero, lifted.inverse_eval(y + zeta))
            want = lifted.mult_eval(a, x + zero)[n:]
            assert [poly_eval(m, x + y + zeta) for m in sm.phi] == want


def test_saturable_check(grushin, three_var_step5, grushin_quartic):
    rep = saturable_check(grushin["L"], grushin["lifted"])
    assert rep.ok and rep.rows
    rep5 = saturable_check(three_var_step5["L"], three_var_step5["lifted"])
    assert rep5.ok
    repq = saturable_check(grushin_quartic, grushin["lifted"])
    assert repq.ok
    for row in repq.rows:
        assert any(b > 0 for b in row.beta)
        assert row.xi_weight_max <= row.xi_weight_bound


def test_saturable_adjoint_oracle(grushin):
    """R* computed by word reversal equals the Leibniz-expansion adjoint route."""
    from rockland.fields import operator_transpose
    from rockland.poly import embed
    L, lifted = grushin["L"], grushin["lifted"]
    Lt = L.with_fields(lifted.lifted_fields)
    route_words = operator_transpose(Lt).expand()
    route_leibniz = Lt.expand().adjoint()
    assert route_words == route_leibniz


def test_hom_norm():
    norm = HomNorm((1, 2))
    assert norm([3, 4]) == pytest.approx(5.0)
    assert norm([0, 0]) == 0.0
    rng = random.Random(77)
    for _ in range(10):
        v = [rng.uniform(-4, 4), rng.uniform(-4, 4)]
        lam = 2.0
        scaled = [lam * v[0], lam ** 2 * v[1]]
        assert norm(scaled) == pytest.approx(lam * norm(v), rel=1e-12)


def test_lifted_serialization(grushin):
    import json
    doc = json.loads(grushin["lifted"].to_json())
    assert doc["dimensions"] == {"n": 2, "p": 1, "N": 3, "q": 3, "E": 1, "Q": 4}
    assert doc["D_exponents"] == [1, 2, 1]


def test_poly_det():
    x = Poly.var(2, 0)
    y = Poly.var(2, 1)
    one = Poly.const(2, 1)
    zero = Poly.zero(2)
    mat = [[one, x], [zero, one]]
    assert poly_det(mat) == one
    mat2 = [[x, y], [y, x]]
    assert poly_det(mat2) == x * x - y * y


# -- group verification and graded inversion -----------------------------------------

def test_group_law_with_wrong_weight_term_rejected(grushin):
    """Conjugating the Grushin group by phi(a) = (a1, a2, a3 + a1^3) gives
    a group law with the same identity, inverse and unit-triangular
    Jacobian, but its third coordinate gains terms of weight 3 in a slot of
    weight 2, so the dilations are no longer automorphisms."""
    g = grushin["lifted"].group_w
    N = g.N

    def phi(v, sign):
        return v[:2] + [v[2] + sign * v[0] ** 3]

    two = Poly.variables(2 * N)
    a, b = list(two[:N]), list(two[N:])
    mult = tuple(phi(substitute_many(g.mult, phi(a, 1) + phi(b, 1)), -1))
    assert mult != g.mult
    bad = GroupLaw(N, g.degrees, g.step, mult, g.inverse, g.left_fields)
    with pytest.raises(ValueError, match="dilations are not group automorphisms"):
        _verify_group(bad)
    _verify_group(g)


def _invert_every_round(maps, in_degrees, out_degrees):
    """invert_graded_map run for all its rounds with the dense A^-1."""
    N = len(maps)
    zero = Poly.zero(N)
    A = [[Fraction(0)] * N for _ in range(N)]
    h = []
    for i, p in enumerate(maps):
        rest = zero
        for mono, c in p.terms.items():
            if sum(mono) == 1:
                k = mono.index(1)
                if in_degrees[k] == out_degrees[i]:
                    A[i][k] = c
                    continue
            rest = rest + Poly(N, {mono: c})
        h.append(rest)
    Ainv = _invert_rational_matrix(A)
    zvars = Poly.variables(N)

    def apply_ainv(vec):
        return [sum((Ainv[i][k] * vec[k] for k in range(N)), start=zero)
                for i in range(N)]

    cur = apply_ainv(zvars)
    for _ in range(max(out_degrees) + 2):
        hx = [substitute(hi, cur) if not hi.is_zero() else zero for hi in h]
        cur = apply_ainv([zvars[i] - hx[i] for i in range(N)])
    return cur


def test_invert_graded_map_matches_every_round(grushin, three_var_step5):
    """Stopping at the fixed point returns the polynomials of the full round
    count, terms in the same order (float evaluation sums in that order);
    also for a graded map whose linear part is not the identity."""
    x1, x2, x3 = Poly.variables(3)
    cases = [(L.theta, L.basis.degrees, L.D_exponents)
             for L in (grushin["lifted"], three_var_step5["lifted"])]
    cases.append(([x1 * 2 + x2, x1 - x2, x3 * 3 + x1 * x2 + x1 ** 2 * 5],
                  (1, 1, 2), (1, 1, 2)))
    for maps, din, dout in cases:
        got = invert_graded_map(maps, din, dout)
        want = _invert_every_round(maps, din, dout)
        assert [list(p.terms.items()) for p in got] == \
            [list(p.terms.items()) for p in want]
        assert substitute_many(list(maps), got) == list(Poly.variables(len(maps)))


def test_invert_graded_map_rejects_non_unipotent():
    """x + x^2 in weight 1 has an invertible linear part but no polynomial
    inverse: no round reaches a fixed point and verification fails."""
    (x,) = Poly.variables(1)
    with pytest.raises(ValueError, match="failed to verify"):
        invert_graded_map([x + x ** 2], (1,), (1,))
    with pytest.raises(ValueError, match="singular linear part"):
        invert_graded_map([x ** 2], (1,), (2,))
