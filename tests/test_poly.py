"""Exact polynomial arithmetic and graded-degree bookkeeping."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poly_reference import SMALL_COEFF, assert_canonical, small_polys
from rockland.fields import OperatorSpec, PolyVectorField, field_apply
from rockland.poly import (
    CompiledPolys,
    Poly,
    embed,
    graded_components,
    is_graded_homogeneous,
    poly_diff,
    poly_eval,
    poly_sum,
    substitute,
    substitute_many,
    to_string,
)


def x(i, n=2):
    return Poly.var(n, i)


def random_poly(rng, nvars, max_deg=5, terms=4):
    t = {}
    for _ in range(terms):
        mono = tuple(rng.randint(0, max_deg // max(1, nvars - 1) + 1) for _ in range(nvars))
        t[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(nvars, t)


def test_mul_basic():
    assert x(0) * x(0) == x(0) ** 2
    assert (x(0) + x(1)) * (x(0) - x(1)) == x(0) ** 2 - x(1) ** 2


def test_mul_rational_coeffs():
    a = x(0) * Fraction(1, 2)
    b = x(1) * Fraction(1, 3)
    assert a * b == x(0) * x(1) * Fraction(1, 6)


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        Poly.var(2, 0) * Poly.var(3, 0)


def test_scalar_minus_poly():
    """scalar - p dispatches to Poly.__rsub__ and equals const - p."""
    p = x(0) * 2 + x(1) ** 2 - 5
    for c in (3, Fraction(-1, 2), 0):
        assert c - p == Poly.const(2, c) - p == -(p - c)
    assert (5 - p).terms == {(1, 0): Fraction(-2), (0, 2): Fraction(-1), (0, 0): Fraction(10)}


def test_diff_basic():
    k = 5
    assert poly_diff(x(0) ** k * x(1), 0) == x(0) ** (k - 1) * x(1) * k
    assert poly_diff(x(0), 1) == Poly.zero(2)
    assert poly_diff(x(0) ** 2 + x(0) * x(1) * 3, 0) == x(0) * 2 + x(1) * 3


def test_diff_index_range():
    with pytest.raises(ValueError):
        poly_diff(x(0), 2)


def test_eval():
    assert poly_eval(x(0) ** 2 + x(1), [2, 3]) == 7
    c = Poly.const(2, Fraction(9, 4)) + x(0) ** 3
    assert poly_eval(c, [0, 0]) == Fraction(9, 4)
    assert poly_eval(x(0) * x(1) * Fraction(1, 2), [Fraction(1, 3), 3]) == Fraction(1, 2)


def test_graded_components():
    sigma = (1, 2)
    comps = graded_components(x(0) ** 2 + x(1), sigma)
    assert set(comps) == {2}
    assert comps[2] == x(0) ** 2 + x(1)
    comps = graded_components(x(0) + x(1), sigma)
    assert comps == {1: x(0), 2: x(1)}
    assert graded_components(Poly.zero(2), sigma) == {}


def test_is_graded_homogeneous():
    assert is_graded_homogeneous(x(0) ** 2, (1, 2), 2)
    assert not is_graded_homogeneous(x(0) + x(1), (1, 2), 1)
    for d in (0, 1, 7):
        assert is_graded_homogeneous(Poly.zero(2), (1, 2), d)


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(25):
        a, b, c = (random_poly(rng, 3) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_derivation_rule_random():
    rng = random.Random(202)
    for _ in range(25):
        a, b = random_poly(rng, 3), random_poly(rng, 3)
        for i in range(3):
            assert poly_diff(a * b, i) == poly_diff(a, i) * b + a * poly_diff(b, i)


def test_graded_parts_resum():
    rng = random.Random(303)
    sigma = (1, 2, 3)
    for _ in range(20):
        a = random_poly(rng, 3)
        total = Poly.zero(3)
        for part in graded_components(a, sigma).values():
            total = total + part
        assert total == a


def test_homogeneous_scaling_exact():
    rng = random.Random(404)
    sigma = (1, 2)
    a = x(0) ** 2 * x(1) + x(1) ** 2  # graded degree 4
    for _ in range(10):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        pt = [Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))]
        scaled = [lam ** s * v for s, v in zip(sigma, pt)]
        assert poly_eval(a, scaled) == lam ** 4 * poly_eval(a, pt)


def random_rational(rng):
    return Fraction(rng.randint(-7, 7), rng.randint(1, 5))


def random_images(rng, count, nvars):
    return [random_poly(rng, nvars, max_deg=3, terms=3) for _ in range(count)]


def test_substitute_composes():
    """p(images) at a rational point is p at the images' values, exactly:
    one fixed case, then 2-4 variables on both sides with fresh images every
    round."""
    a = x(0) ** 2 + x(1)
    g = [x(0) + x(1), x(0) * x(1)]
    cases = [(a, g)]
    rng = random.Random(505)
    for _ in range(30):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        cases.append((random_poly(rng, n, max_deg=4, terms=5),
                      random_images(rng, n, m)))
    for p, images in cases:
        composed = substitute(p, images)
        assert composed.nvars == images[0].nvars
        for _ in range(3):
            pt = [random_rational(rng) for _ in range(composed.nvars)]
            inner = [poly_eval(gi, pt) for gi in images]
            assert poly_eval(composed, pt) == poly_eval(p, inner)


def test_compose_map_equals_substitute_each():
    """substitute_many composes a whole map, sharing the images' powers,
    and still equals substituting component by component, term order
    included."""
    rng = random.Random(707)
    for _ in range(20):
        n, m = rng.randint(2, 4), rng.randint(2, 4)
        f = [random_poly(rng, n, max_deg=4, terms=5) for _ in range(3)]
        images = random_images(rng, n, m)
        got = substitute_many(f, images)
        want = [substitute(fi, images) for fi in f]
        assert got == want
        assert [list(g.terms.items()) for g in got] == \
            [list(w.terms.items()) for w in want]


def running_sum_substitute(p, images):
    """substitute by its definition: a running sum of products of powers."""
    result = Poly.zero(images[0].nvars)
    for mono, coeff in p.terms.items():
        term = Poly.const(images[0].nvars, coeff)
        for i, e in enumerate(mono):
            if e:
                term = term * images[i] ** e
        result = result + term
    return result


def test_substitute_keeps_running_sum_term_order():
    """Float evaluation sums terms in stored order, so substitute stores them
    where a running sum would: a monomial that cancels and comes back moves
    to the end."""
    y0, y1 = x(0), x(1)
    p = Poly.var(3, 0) + Poly.var(3, 1) + Poly.var(3, 2)
    got = substitute(p, [y0 + y1, -y0, y0])
    assert list(got.terms) == [(0, 1), (1, 0)]
    rng = random.Random(808)
    for _ in range(30):
        n, m = rng.randint(2, 4), rng.randint(2, 3)
        p = random_poly(rng, n, max_deg=3, terms=6)
        images = [random_poly(rng, m, max_deg=2, terms=2) for _ in range(n)]
        want = running_sum_substitute(p, images)
        assert list(substitute(p, images).terms.items()) == \
            list(want.terms.items())


def test_cancellation_stores_no_zero():
    """Sums, differences, products and substitutions that cancel store no
    zero coefficient, and every stored coefficient is canonical."""
    a, b = x(0), x(1)
    assert (a + b) - (a + b) == Poly.zero(2)
    assert ((a + b) * (a - b) + b ** 2 - a ** 2).terms == {}
    partial = (a + b) * (a - b) + b ** 2
    assert partial.terms == {(2, 0): Fraction(1)}
    assert_canonical(partial)
    assert substitute(Poly.var(2, 0) - Poly.var(2, 1), [a * b, b * a]).terms == {}
    assert (a * 0).terms == {} and (0 * a).terms == {}
    rng = random.Random(909)
    for _ in range(30):
        n = rng.randint(2, 4)
        p, q = random_poly(rng, n), random_poly(rng, n)
        for r in (p - p, p + q - q, p * q - q * p, (p + q) * (p - q)
                  - p * p + q * q, p * 2, p * Fraction(1, 3), -p, p ** 3,
                  substitute(p, [Poly.var(n, i) for i in range(n)]) - p):
            assert_canonical(r)
        assert (p - p).terms == {}
        assert (p + q - q) == p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 3))
def test_every_stored_coefficient_is_canonical(data, n):
    """Every coefficient that the ring operations, poly_diff,
    substitute_many, embed, poly_sum, field_apply and OperatorSpec.apply
    store is a nonzero int, or a Fraction whose denominator is not 1."""
    p, q, r = (data.draw(small_polys(n)) for _ in range(3))
    c = data.draw(st.one_of(SMALL_COEFF, st.integers(-3, 3)))
    images = [data.draw(small_polys(2, max_terms=3)) for _ in range(n)]
    var_map = [data.draw(st.integers(0, 1)) for _ in range(n)]
    X = PolyVectorField(n, tuple(data.draw(small_polys(n, max_terms=2)) for _ in range(n)), 1)
    Y = PolyVectorField(n, tuple(data.draw(small_polys(n, max_terms=2)) for _ in range(n)), 1)
    words = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=2),
                               min_size=1, max_size=3))
    L = OperatorSpec((X, Y), tuple((Fraction(k + 1, 2), tuple(w))
                                   for k, w in enumerate(words)), 2)
    results = [p + q, p - q, -p, p * q, p * c, c - p, p + c, p ** 2,
               p * q - q * p + r, Poly.const(n, c), Poly.monomial(n, (1,) * n, c),
               p * 2.0, Poly(n, {(0,) * n: 1.5, (1,) * n: -4.0}),
               poly_sum(n, [p, q, -p, r]), embed(p, 2, var_map),
               *substitute_many([p, q], images), *(poly_diff(p, i) for i in range(n)),
               field_apply(X, p), L.apply(p)]
    for res in results:
        assert_canonical(res)


def test_serialization_deterministic():
    a = x(1) * Fraction(-1, 3) + x(0) ** 2 * x(1) * 2
    assert to_string(a) == "2*x1^2*x2 - 1/3*x2"
    assert to_string(Poly.zero(2)) == "0"


def test_compiled_polys_match_poly_eval():
    """Float evaluation of several polynomials at once, including the zero
    and a constant polynomial, across more points than one evaluation block."""
    rng = random.Random(23)
    polys = [random_poly(rng, 3) for _ in range(4)] + [Poly.zero(3),
                                                       Poly.const(3, 5)]
    pts = np.random.default_rng(23).uniform(-2, 2, (3, 8200))
    got = CompiledPolys(polys)(pts)
    assert got.shape == (len(polys), pts.shape[1])
    for j in (0, 1, 4097, 8191, 8192, 8199):
        want = [float(poly_eval(p, [Fraction(v) for v in pts[:, j]]))
                for p in polys]
        assert np.allclose(got[:, j], want, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="points"):
        CompiledPolys(polys)(pts.T)
