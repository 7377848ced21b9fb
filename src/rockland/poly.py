"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from monomial exponent tuples to rational
coefficients, together with the ambient number of variables.  The ambient
dimension is carried explicitly so that values living on different spaces
cannot be mixed silently.  Every stored coefficient is canonical: an int when
its denominator is 1, a Fraction otherwise, never zero and never a float.
Zero coefficients are never stored, which makes equality testing exact and
canonical; an int compares and hashes equal to the equal Fraction, and most
coefficients are integers, whose arithmetic is far cheaper.

Beyond ring arithmetic the module provides the dilation-graded degree
bookkeeping used throughout the package: a monomial x^alpha has graded degree
sum(alpha_i * sigma_i) for a vector of positive integer weights sigma, and a
polynomial is graded-homogeneous when all its monomials share one graded
degree.

Serialization uses graded-lexicographic term order with rationals printed as
"p/q", so rendered polynomials are deterministic and usable as golden values.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

Exponent = Tuple[int, ...]
Scalar = Union[int, Fraction]


def _canon(c: Scalar) -> Scalar:
    """c as a stored coefficient: an int when its denominator is 1."""
    return c.numerator if c.denominator == 1 else c


def _accumulate(out: Dict[Exponent, Scalar],
                terms: Iterable[Tuple[Exponent, Scalar]]) -> None:
    """Add distinct monomials' canonical terms into out in place.

    A coefficient that cancels is deleted at once, so out keeps the order in
    which a running sum of whole polynomials would hold its monomials (a
    monomial that cancels and comes back moves to the end); float
    evaluation sums in that order.
    """
    for mono, coeff in terms:
        if mono in out:
            c = out[mono] + coeff
            if c:
                out[mono] = _canon(c)
            else:
                del out[mono]
        else:
            out[mono] = coeff


class Poly:
    """Immutable sparse polynomial with canonical rational coefficients:
    int when the denominator is 1, Fraction otherwise."""

    # _float_terms, set on the first float evaluation, holds each term as
    # (float coefficient, ((variable, exponent), ...) of its nonzero exponents)
    __slots__ = ("nvars", "terms", "_hash", "_float_terms")

    nvars: int
    terms: Dict[Exponent, Scalar]

    def __init__(self, nvars: int, terms: Mapping[Exponent, Scalar]):
        if nvars < 0:
            raise ValueError(f"nvars must be non-negative, got {nvars}")
        clean: Dict[Exponent, Scalar] = {}
        for mono, coeff in terms.items():
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong length for nvars={nvars}")
            c = Fraction(coeff)
            if c != 0:
                clean[mono] = _canon(c)
        _set_nvars(self, nvars)
        _set_terms(self, clean)
        _set_hash(self, None)

    @classmethod
    def _of(cls, nvars: int, clean: Dict[Exponent, Scalar]) -> "Poly":
        """Wrap clean without copying or checking it: every key must be a
        monomial of length nvars and every value a nonzero int, or a
        Fraction whose denominator is not 1 (see _canon)."""
        self = object.__new__(cls)
        _set_nvars(self, nvars)
        _set_terms(self, clean)
        _set_hash(self, None)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars, {})

    @staticmethod
    def const(nvars: int, value: Scalar) -> "Poly":
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def var(nvars: int, idx: int) -> "Poly":
        """The coordinate polynomial x_idx (0-based index)."""
        if not 0 <= idx < nvars:
            raise ValueError(f"variable index {idx} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[idx] = 1
        return Poly._of(nvars, {tuple(exp): 1})

    @staticmethod
    def variables(nvars: int) -> Tuple["Poly", ...]:
        return tuple(Poly.var(nvars, i) for i in range(nvars))

    @staticmethod
    def monomial(nvars: int, exponents: Sequence[int], coeff: Scalar = 1) -> "Poly":
        exp = tuple(exponents)
        if len(exp) != nvars or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent tuple {exp} for nvars={nvars}")
        return Poly(nvars, {exp: coeff})

    # -- ring operations -----------------------------------------------------

    def _check_same_space(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"dimension mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        self._check_same_space(other)
        out = dict(self.terms)
        _accumulate(out, other.terms.items())
        return Poly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly.const(self.nvars, other) - self

    def __mul__(self, other: Union["Poly", Scalar]) -> "Poly":
        if not isinstance(other, Poly):
            c = _canon(Fraction(other))
            if not c:
                return Poly._of(self.nvars, {})
            return Poly._of(self.nvars,
                            {m: _canon(c * v) for m, v in self.terms.items()})
        self._check_same_space(other)
        out: Dict[Exponent, Scalar] = {}
        right = other.terms.items()
        get = out.get
        for ma, ca in self.terms.items():
            for mb, cb in right:
                mono = tuple(map(add, ma, mb))
                c = get(mono)
                out[mono] = ca * cb if c is None else c + ca * cb
        # a coefficient may pass through zero and come back, so zeros are
        # dropped only now, keeping each monomial where it first appeared
        return Poly._of(self.nvars, {m: _canon(c) for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return Poly.const(self.nvars, 1) if result is None else result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self == Poly.const(self.nvars, other)
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        h = object.__getattribute__(self, "_hash")
        if h is None:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Poly({self.nvars}, {to_string(self)!r})"


_set_nvars = Poly.nvars.__set__
_set_terms = Poly.terms.__set__
_set_hash = Poly._hash.__set__
_set_float_terms = Poly._float_terms.__set__


def poly_diff(a: Poly, i: int) -> Poly:
    """Exact partial derivative with respect to x_i (0-based index)."""
    if not 0 <= i < a.nvars:
        raise ValueError(f"variable index {i} out of range for nvars={a.nvars}")
    # lowering x_i in the monomials that hold it is one-to-one
    out: Dict[Exponent, Scalar] = {}
    for mono, coeff in a.terms.items():
        e = mono[i]
        if e:
            out[mono[:i] + (e - 1,) + mono[i + 1:]] = _canon(coeff * e)
    return Poly._of(a.nvars, out)


def poly_eval(a: Poly, point: Sequence) -> object:
    """Evaluate at a point; exact Fraction output for rational input.

    Accepts Fractions/ints (exact) or floats (float output).  The point must
    have one entry per variable.
    """
    if len(point) != a.nvars:
        raise ValueError(f"point length {len(point)} != nvars {a.nvars}")
    if all(isinstance(v, (int, Fraction)) for v in point):
        total = Fraction(0)
        for mono, coeff in a.terms.items():
            term = coeff
            for e, v in zip(mono, point):
                if e:
                    term = term * v ** e
            total = total + term
        return total
    try:
        terms = a._float_terms
    except AttributeError:
        terms = tuple((float(coeff), tuple((i, e) for i, e in enumerate(mono) if e))
                      for mono, coeff in a.terms.items())
        _set_float_terms(a, terms)
    total = 0.0
    for coeff, factors in terms:
        term = coeff
        for i, e in factors:
            term = term * point[i] ** e
        total = total + term
    return total


_EVAL_BLOCK = 8192


class CompiledPolys:
    """Float evaluation of several polynomials at arrays of points.

    The union of the monomials becomes one exponent table and the
    coefficients one matrix (K, P); evaluating M points takes one table of
    coordinate powers, one gather of each monomial's factors, their
    products and one matmul.
    """

    def __init__(self, polys: Sequence[Poly]) -> None:
        nvars = polys[0].nvars
        index: Dict[Exponent, int] = {}
        for p in polys:
            if p.nvars != nvars:
                raise ValueError("polynomials live in different spaces")
            for mono in p.terms:
                index.setdefault(mono, len(index))
        self.nvars = nvars
        exponents = np.array(list(index), dtype=int).reshape(-1, nvars)
        self.coeffs = np.zeros((len(index), len(polys)))
        for col, p in enumerate(polys):
            for mono, c in p.terms.items():
                self.coeffs[index[mono], col] = float(c)
        # each monomial as its factors x_var^exp, padded with x_0^0 to the
        # largest number of variables in one monomial; a factor is the row
        # exp * nvars + var of the flattened table of coordinate powers
        width = max([1] + [int(np.count_nonzero(e)) for e in exponents])
        self._factor_rows = np.zeros((len(index), width), dtype=int)
        for k, e in enumerate(exponents):
            used = np.flatnonzero(e)
            self._factor_rows[k, :len(used)] = e[used] * nvars + used
        self._degree = int(exponents.max(initial=0))

    def __call__(self, x) -> np.ndarray:
        """Values (P, M) at M points given as the columns of x (nvars, M)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or len(x) != self.nvars:
            raise ValueError(f"points must be an array ({self.nvars}, M), "
                             f"got shape {x.shape}")
        if x.shape[1] <= _EVAL_BLOCK:
            return self._block(x)
        # blocks of points bound the (K, block) tables of factors
        return np.concatenate([self._block(x[:, lo:lo + _EVAL_BLOCK])
                               for lo in range(0, x.shape[1], _EVAL_BLOCK)],
                              axis=1)

    def _block(self, x: np.ndarray) -> np.ndarray:
        powers = np.empty((self._degree + 1,) + x.shape)
        powers[0] = 1.0
        for k in range(1, self._degree + 1):
            np.multiply(powers[k - 1], x, out=powers[k])
        powers = powers.reshape(-1, x.shape[1])
        # each monomial's factors multiplied left to right
        rows = self._factor_rows
        mono = powers[rows[:, 0]]
        for w in range(1, rows.shape[1]):
            mono *= powers[rows[:, w]]
        return self.coeffs.T @ mono


def graded_degree_of_monomial(mono: Exponent, sigma: Sequence[int]) -> int:
    return sum(e * s for e, s in zip(mono, sigma))


def graded_components(a: Poly, sigma: Sequence[int]) -> Dict[int, Poly]:
    """Split a into graded-homogeneous parts keyed by graded degree."""
    if len(sigma) != a.nvars or any(s <= 0 for s in sigma):
        raise ValueError(f"bad weight vector {tuple(sigma)} for nvars={a.nvars}")
    buckets: Dict[int, Dict[Exponent, Scalar]] = {}
    for mono, coeff in a.terms.items():
        d = graded_degree_of_monomial(mono, sigma)
        buckets.setdefault(d, {})[mono] = coeff
    return {d: Poly._of(a.nvars, t) for d, t in sorted(buckets.items())}


def is_graded_homogeneous(a: Poly, sigma: Sequence[int], d: int) -> bool:
    """True iff every monomial of a has graded degree d (true for 0)."""
    comps = graded_components(a, sigma)
    return not comps or set(comps) == {d}


def substitute(a: Poly, images: Sequence[Poly]) -> Poly:
    """Compose: replace variable x_i of a by images[i].

    All images must live in one common ambient space; the result lives there.
    """
    return substitute_many([a], images)[0]


def substitute_many(polys: Sequence[Poly],
                    images: Sequence[Poly]) -> List[Poly]:
    """substitute(p, images) for each p of polys; the powers of the images
    are computed once for all of them."""
    for a in polys:
        if len(images) != a.nvars:
            raise ValueError(f"need {a.nvars} images, got {len(images)}")
    if not images:
        raise ValueError("cannot substitute into a polynomial with no variables")
    nv = images[0].nvars
    for g in images:
        if g.nvars != nv:
            raise ValueError("substitution images live in different spaces")
    powers: Dict[Tuple[int, int], Poly] = {}
    one = (0,) * nv
    out = []
    for a in polys:
        acc: Dict[Exponent, Scalar] = {}
        for mono, coeff in a.terms.items():
            # the product of the images' powers; a zero factor drops the term
            term = None
            for i, e in enumerate(mono):
                if e:
                    pw = powers.get((i, e))
                    if pw is None:
                        pw = powers[(i, e)] = images[i] ** e
                    term = pw if term is None else term * pw
                    if not term.terms:
                        break
            if term is None:
                _accumulate(acc, ((one, coeff),))
            elif term.terms:
                _accumulate(acc, ((m, _canon(coeff * c))
                                  for m, c in term.terms.items()))
        out.append(Poly._of(nv, acc))
    return out


def poly_sum(nvars: int, polys: Iterable[Poly]) -> Poly:
    """The sum of polys, accumulated into one dict.

    Equal, term order included, to the running sum zero + p1 + p2 + ...,
    without copying the running total once per summand.
    """
    out: Dict[Exponent, Scalar] = {}
    for p in polys:
        if p.nvars != nvars:
            raise ValueError(f"dimension mismatch: {p.nvars} vs {nvars}")
        _accumulate(out, p.terms.items())
    return Poly._of(nvars, out)


def embed(a: Poly, new_nvars: int, var_map: Sequence[int] | None = None) -> Poly:
    """Reinterpret a in a larger space; variable i of a becomes var_map[i].

    With var_map omitted, variable indices are kept (the new trailing
    variables simply do not occur).
    """
    if var_map is None:
        var_map = list(range(a.nvars))
    if len(var_map) != a.nvars or any(not 0 <= j < new_nvars for j in var_map):
        raise ValueError("bad variable map for embedding")
    out: Dict[Exponent, Scalar] = {}
    for mono, coeff in a.terms.items():
        new = [0] * new_nvars
        for i, e in enumerate(mono):
            new[var_map[i]] += e
        key = tuple(new)
        out[key] = out[key] + coeff if key in out else coeff
    return Poly._of(new_nvars, {m: _canon(c) for m, c in out.items() if c})


def depends_on(a: Poly, i: int) -> bool:
    """True iff variable x_i occurs in some monomial of a."""
    return any(mono[i] for mono in a.terms)


def _grlex_key(mono: Exponent) -> Tuple:
    # graded-lex: total degree first, then lexicographic on exponents
    return (sum(mono), mono)


def sorted_terms(a: Poly) -> Iterable[Tuple[Exponent, Scalar]]:
    """Terms in canonical (descending graded-lex) order."""
    return sorted(a.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)


def _format_coeff(c: Scalar) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def to_string(a: Poly, var_names: Sequence[str] | None = None) -> str:
    """Deterministic textual form, e.g. "2*x1^2*x2 - 1/3*x2"."""
    if var_names is None:
        var_names = [f"x{i + 1}" for i in range(a.nvars)]
    if not a.terms:
        return "0"
    pieces = []
    for mono, coeff in sorted_terms(a):
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(var_names[i])
            elif e > 1:
                factors.append(f"{var_names[i]}^{e}")
        mag = _format_coeff(abs(coeff))
        if factors and mag == "1":
            body = "*".join(factors)
        elif factors:
            body = mag + "*" + "*".join(factors)
        else:
            body = mag
        sign = "-" if coeff < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text

