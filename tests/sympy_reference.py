"""Independent sympy references for the exact jets of the runtime.

The package never imports sympy; these helpers rebuild the same objects
symbolically so tests can check the jets and smoothsteps against sympy's
own differentiation.
"""

from typing import Sequence

import sympy as sp

from rockland.fields import OperatorSpec, PolyVectorField
from rockland.fundsol import smoothstep_coeffs
from rockland.poly import Poly


def poly_to_sympy(p: Poly, syms: Sequence[sp.Symbol]) -> sp.Expr:
    """Exact conversion of a rational-coefficient polynomial."""
    out = sp.Integer(0)
    for mono, c in p.terms.items():
        term = sp.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, mono):
            if e:
                term *= s ** e
        out += term
    return out


def apply_field_sympy(X: PolyVectorField, syms: Sequence[sp.Symbol],
                      expr: sp.Expr) -> sp.Expr:
    """Apply the vector field as a derivation on a sympy expression."""
    out = sp.Integer(0)
    for j, c in enumerate(X.coeffs):
        if not c.is_zero():
            out += poly_to_sympy(c, syms) * sp.diff(expr, syms[j])
    return out


def apply_word_sympy(fields: Sequence[PolyVectorField], word: Sequence[int],
                     syms: Sequence[sp.Symbol], expr: sp.Expr) -> sp.Expr:
    """X_{i1} ... X_{is} expr, the first index acting last (outermost)."""
    for i in reversed(tuple(word)):
        expr = apply_field_sympy(fields[i], syms, expr)
    return expr


def apply_operator_sympy(op: OperatorSpec, syms: Sequence[sp.Symbol],
                         expr: sp.Expr) -> sp.Expr:
    out = sp.Integer(0)
    for c, word in op.terms:
        out += sp.Rational(c.numerator, c.denominator) \
            * apply_word_sympy(op.fields, word, syms, expr)
    return out


def smoothstep_expr(t: sp.Expr, order: int) -> sp.Expr:
    """The runtime's smoothstep polynomial as a sympy expression in t."""
    return sum(sp.Rational(c.numerator, c.denominator) * t ** k
               for k, c in enumerate(smoothstep_coeffs(order)))
