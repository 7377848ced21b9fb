"""Reference versions of rockland's in-place exact sums, and the canonical
coefficient test.

`field_apply`, `OperatorSpec.apply` and `bch_product` accumulate their terms
into one dict; the functions here are the running sums they replace, which
copy the whole total once per summand.  Float evaluation sums a polynomial's
terms in stored order, so the tests require equal terms in equal order.
`small_polys` draws the hypothesis inputs of those tests.
"""

from fractions import Fraction

from hypothesis import strategies as st

from rockland.lifting import _dynkin_table
from rockland.poly import Poly, poly_diff


def is_canonical(c) -> bool:
    """A stored Poly coefficient: a nonzero int, or a Fraction whose
    denominator is not 1; never a float or a bool."""
    return (type(c) is int and c != 0) or (type(c) is Fraction and c.denominator != 1)


def assert_canonical(p: Poly) -> None:
    bad = {m: c for m, c in p.terms.items() if not is_canonical(c)}
    assert not bad, f"non-canonical coefficients {bad!r}"


SMALL_COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def small_polys(draw, nvars, max_terms=4, max_exp=2):
    """Polynomials of a few low-degree terms with small rational
    coefficients, so that their sums and products often cancel."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(nvars))
        terms[mono] = draw(SMALL_COEFF)
    return Poly(nvars, terms)


def running_sum_field_apply(X, u: Poly) -> Poly:
    """Sum_i p_i * du/dx_i as a running sum of whole polynomials."""
    out = Poly.zero(X.nvars)
    for i, p in enumerate(X.coeffs):
        if not p.is_zero():
            out = out + p * poly_diff(u, i)
    return out


def running_sum_operator_apply(L, u: Poly) -> Poly:
    """Sum c_I X_I u as a running sum, each field applied by the reference."""
    out = Poly.zero(L.nvars)
    for c, I in L.terms:
        v = u
        for i in reversed(I):
            v = running_sum_field_apply(L.fields[i], v)
        out = out + v * c
    return out


def running_sum_bch_product(sc, step: int, a, b) -> list:
    """The truncated BCH product with each coordinate a running sum over the
    Dynkin words."""
    vecs = (list(a), list(b))
    nested = {}

    def bracket_word(word):
        if word not in nested:
            nested[word] = (vecs[word[0]] if len(word) == 1 else
                            sc.bracket(vecs[word[0]], bracket_word(word[1:])))
        return nested[word]

    result = None
    for word, coeff in _dynkin_table(step).items():
        if len(word) >= 2 and word[-1] == word[-2]:
            continue
        contrib = [coeff * e for e in bracket_word(word)]
        result = contrib if result is None else [x + y for x, y in zip(result, contrib)]
    return result
