"""Vector fields, homogeneity certification, operators and transposes."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from poly_reference import running_sum_field_apply, running_sum_operator_apply, small_polys
from rockland.fields import (
    DilationFamily,
    OperatorSpec,
    PolyVectorField,
    certify_homogeneity,
    classify_positive_rockland_pattern,
    commutator,
    field_apply,
    heat_extend,
    make_standard_operator,
    multiindex_weight,
    operator_transpose,
)
from rockland.poly import Poly, poly_eval


def fld(n, coeffs, deg=None):
    return PolyVectorField(n, tuple(coeffs), deg)


def d1(n=2):
    coeffs = [Poly.zero(n) for _ in range(n)]
    coeffs[0] = Poly.const(n, 1)
    return fld(n, coeffs)


def test_field_apply():
    X = d1()
    assert field_apply(X, Poly.var(2, 0) ** 2) == Poly.var(2, 0) * 2
    Y = fld(2, [Poly.zero(2), Poly.var(2, 0)])
    assert field_apply(Y, Poly.var(2, 1)) == Poly.var(2, 0)
    Z = fld(3, [Poly.zero(3), Poly.var(3, 0), Poly.var(3, 1)])
    assert field_apply(Z, Poly.var(3, 2)) == Poly.var(3, 1)


def _same_terms(got, want):
    """Equal polynomials with their terms stored in the same order."""
    return got == want and list(got.terms.items()) == list(want.terms.items())


def test_field_apply_cancel_and_return_keeps_running_sum_order():
    """x1*x2*x3 appears, cancels and comes back: like the running sum, the
    in-place sum stores it last."""
    x1, x2, x3 = Poly.variables(3)
    X = fld(3, [x1 + x2, -x2, x3], 1)
    got = field_apply(X, x1 * x2 * x3)
    assert list(got.terms) == [(0, 2, 1), (1, 1, 1)]
    assert _same_terms(got, running_sum_field_apply(X, x1 * x2 * x3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 3))
def test_in_place_sums_keep_running_sum_order(data, n):
    """field_apply and OperatorSpec.apply store the running sums' terms in
    the running sums' order, on small inputs whose terms often cancel."""
    X, Y = (fld(n, [data.draw(small_polys(n, max_terms=3)) for _ in range(n)], 1)
            for _ in range(2))
    u = data.draw(small_polys(n, max_terms=5, max_exp=3))
    assert _same_terms(field_apply(X, u), running_sum_field_apply(X, u))
    words = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=2),
                               min_size=1, max_size=4))
    coeffs = data.draw(st.lists(st.fractions(-2, 2, max_denominator=2).filter(bool),
                                min_size=len(words), max_size=len(words)))
    L = OperatorSpec((X, Y), tuple((c, tuple(w)) for c, w in zip(coeffs, words)), 2)
    assert _same_terms(L.apply(u), running_sum_operator_apply(L, u))


def test_commutator_examples():
    X = d1()
    Y = fld(2, [Poly.zero(2), Poly.var(2, 0)])
    C = commutator(X, Y)
    assert C.coeffs == (Poly.zero(2), Poly.const(2, 1))
    assert commutator(Y, Y).is_zero()
    k = 4
    Yk = fld(2, [Poly.zero(2), Poly.var(2, 0) ** k])
    Ck = commutator(X, Yk)
    assert Ck.coeffs == (Poly.zero(2), Poly.var(2, 0) ** (k - 1) * k)


def test_certify_homogeneity():
    k, h = 3, 2
    delta = DilationFamily((1, k + h))
    X = fld(2, [Poly.zero(2), Poly.var(2, 0) ** k])
    assert certify_homogeneity(X, delta) == h
    assert certify_homogeneity(d1(), DilationFamily((1, 2))) == 1
    mixed = fld(2, [Poly.const(2, 1), Poly.const(2, 1)])
    assert certify_homogeneity(mixed, DilationFamily((1, 2))) is None


def test_jacobi_identity(grushin):
    X1, X2 = grushin["fields"]
    W3 = commutator(X1, X2)
    for a, b, c in [(X1, X2, W3), (X2, W3, X1)]:
        total = commutator(commutator(a, b), c) \
            .add(commutator(commutator(b, c), a)) \
            .add(commutator(commutator(c, a), b))
        assert total.is_zero()


def test_degree_additivity(grushin, three_var_step5):
    for model in (grushin, three_var_step5):
        delta = model["delta"]
        X1, X2 = model["fields"]
        n1 = certify_homogeneity(X1, delta)
        n2 = certify_homogeneity(X2, delta)
        C = commutator(X1, X2)
        if not C.is_zero():
            assert certify_homogeneity(C, delta) == n1 + n2


def test_multiindex_weight():
    assert multiindex_weight((0, 0, 0, 0), (1, 1)) == 4
    assert multiindex_weight((1, 1), (1, 2)) == 4
    assert multiindex_weight((0, 1, 1), (1, 2)) == 5
    with pytest.raises(ValueError):
        multiindex_weight((3,), (1, 2))


def test_transpose_involution_and_palindrome(grushin):
    L = grushin["L"]
    Lss = operator_transpose(operator_transpose(L))
    assert Lss.terms == L.terms
    # a palindrome word of even length is fixed by transposition
    X1 = grushin["gens"][0]
    sq = OperatorSpec((X1,), ((Fraction(1), (0, 0)),), 2)
    assert operator_transpose(sq).terms == sq.terms


def test_transpose_hormander_power():
    # drift system: d1 of degree 1 and d2 of degree 2 under (1,2)
    z = Poly.zero(2)
    X1 = fld(2, [Poly.const(2, 1), z], 1)
    X0 = fld(2, [z, Poly.const(2, 1)], 2)
    L = make_standard_operator("hormander_power", [X1, X0], drift=1, k=2)
    Lt = operator_transpose(L)
    # (X1^2 + X0)^2 transposes to (X1^2 - X0)^2
    flipped = {}
    for c, I in L.terms:
        sign = (-1) ** sum(1 for i in I if i == 1)
        flipped[I] = c * sign
    assert {I: c for c, I in Lt.terms} == {I: c for I, c in flipped.items()}


def test_transpose_rockland_self_adjoint():
    z = Poly.zero(2)
    X1 = fld(2, [Poly.const(2, 1), z], 1)
    X0 = fld(2, [z, Poly.const(2, 1)], 2)
    L = make_standard_operator("rockland_power", [X1, X0], nu0=2, k=1)
    Lt = operator_transpose(L)
    assert sorted(Lt.terms) == sorted(L.terms)


def test_transpose_rejects_nonzero_divergence():
    X = fld(2, [Poly.var(2, 0), Poly.zero(2)], 1)  # div = 1
    L = OperatorSpec((X,), ((Fraction(1), (0,)),), 1)
    with pytest.raises(ValueError, match="divergence"):
        operator_transpose(L)


def test_adjoint_oracle_exact(grushin, grushin_quartic):
    """Word-reversal transpose agrees with the Leibniz-expansion adjoint."""
    for L in (grushin["L"], grushin_quartic):
        assert operator_transpose(L).expand() == L.expand().adjoint()


def test_transpose_quadrature_oracle():
    """Numeric check of the defining identity of the formal transpose."""
    z = Poly.zero(2)
    X1 = fld(2, [Poly.const(2, 1), z], 1)
    X0 = fld(2, [z, Poly.const(2, 1)], 2)
    L = make_standard_operator("hormander_power", [X1, X0], drift=1, k=1)
    Lt = operator_transpose(L)
    x, y = sp.symbols("x y", real=True)
    r2 = x ** 2 + y ** 2
    bump = sp.exp(-1 / (1 - r2))
    u, v = x * bump, (y + 2 * x) * bump

    def apply_op(op, f):
        out = 0
        for gamma, a in op.expand().terms.items():
            g = f
            for var, k in zip((x, y), gamma):
                g = sp.diff(g, var, k)
            a_expr = sum(float(c) * x ** m[0] * y ** m[1] for m, c in a.terms.items())
            out += a_expr * g
        return out

    lhs = sp.lambdify((x, y), apply_op(L, u) * v, "numpy")
    rhs = sp.lambdify((x, y), u * apply_op(Lt, v), "numpy")

    def clip(f):
        def g(yv, xv):
            return f(xv, yv) if xv * xv + yv * yv < 1 - 1e-12 else 0.0
        return g

    a_int, _ = integrate.dblquad(clip(lhs), -1, 1, -1, 1, epsabs=1e-10)
    b_int, _ = integrate.dblquad(clip(rhs), -1, 1, -1, 1, epsabs=1e-10)
    scale = max(abs(a_int), abs(b_int), 1e-8)
    assert abs(a_int - b_int) / scale < 1e-6


def test_make_standard_operator_examples():
    z = Poly.zero(2)
    X1 = fld(2, [Poly.const(2, 1), z], 1)
    X2g = fld(2, [z, Poly.var(2, 0)], 1)
    quartic = make_standard_operator("sum_of_even_powers", [X1, X2g], nu0=2)
    assert quartic.nu == 4
    assert sorted(quartic.terms) == [(Fraction(1), (0,) * 4), (Fraction(1), (1,) * 4)]
    subl = make_standard_operator("sublaplacian_power", [X1, X2g], k=1)
    assert subl.nu == 2
    assert sorted(subl.terms) == [(Fraction(1), (0, 0)), (Fraction(1), (1, 1))]
    # mixed degrees (1,2) with nu0=2: exponents (4,2), signs (+1,-1)
    X0 = fld(2, [z, Poly.const(2, 1)], 2)
    rock = make_standard_operator("rockland_power", [X1, X0], nu0=2, k=1)
    assert rock.nu == 4
    assert sorted(rock.terms) == [(Fraction(-1), (1, 1)), (Fraction(1), (0,) * 4)]
    with pytest.raises(ValueError):
        make_standard_operator("rockland_power", [X1, X0], nu0=3)
    with pytest.raises(ValueError):
        make_standard_operator("hormander_power", [X1, X2g], drift=1, k=1)


def test_classify_positive_rockland_pattern(grushin, grushin_quartic):
    assert classify_positive_rockland_pattern(grushin_quartic)
    assert classify_positive_rockland_pattern(grushin["L"])
    z = Poly.zero(2)
    X1 = fld(2, [Poly.const(2, 1), z], 1)
    X0 = fld(2, [z, Poly.const(2, 1)], 2)
    horm = make_standard_operator("hormander_power", [X1, X0], drift=1, k=1)
    assert not classify_positive_rockland_pattern(horm)
    rock = make_standard_operator("rockland_power", [X1, X0], nu0=2, k=1)
    assert classify_positive_rockland_pattern(rock)


def test_heat_extend(grushin, grushin_quartic):
    delta = grushin["delta"]
    H, dprime = heat_extend(grushin["L"], delta, 1)
    assert dprime.sigma == (1, 2, 2)
    assert dprime.q == 5
    assert H.nu == 2
    Hq, dq = heat_extend(grushin_quartic, delta, -1)
    assert dq.sigma == (1, 2, 4)
    assert dq.q == delta.q + 4
    # the t-field certifies degree nu under the extended dilations
    t_field = Hq.fields[-1]
    assert certify_homogeneity(t_field, dq, triangular=False) == 4
    # every spatial field still certifies its original degree
    for X, orig in zip(Hq.fields[:-1], grushin_quartic.fields):
        assert certify_homogeneity(X, dq, triangular=False) == orig.declared_degree


def test_heat_operator_applies(grushin):
    H, dprime = heat_extend(grushin["L"], grushin["delta"], -1)
    u = Poly.var(3, 2)  # the new time variable
    assert H.apply(u) == Poly.const(3, -1)
