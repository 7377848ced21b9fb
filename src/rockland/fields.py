"""Polynomial vector fields, dilation families and formal operators.

A vector field is stored as the vector of polynomial coefficients of
Sum_i p_i(x) d/dx_i.  A dilation family assigns positive integer exponents
sigma_i to the coordinates; a field is homogeneous of degree nu when each
coefficient p_i is graded-homogeneous of degree sigma_i - nu, so that the
field lowers graded degree by exactly nu.

Higher-order operators are kept in two forms:

* ``OperatorSpec``: a formal sum of words Sum c_I X_{i_1}...X_{i_k}; the form
  on which transposition and lifting act.
* ``ScalarOperator``: the expanded canonical form Sum a_gamma(x) D^gamma used
  for rendering, adjoint oracles and quadrature integrands.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import (
    Poly,
    depends_on,
    embed,
    graded_components,
    poly_diff,
    poly_eval,
    poly_sum,
    to_string,
)

MultiIndex = Tuple[int, ...]  # 0-based field indices


@dataclass(frozen=True)
class DilationFamily:
    """Anisotropic dilations delta_lambda(x) = (lambda^s1 x1, ..., lambda^sn xn)."""

    sigma: Tuple[int, ...]

    def __post_init__(self):
        if not self.sigma:
            raise ValueError("empty exponent vector")
        if any(not isinstance(s, int) or s < 1 for s in self.sigma):
            raise ValueError(f"dilation exponents must be positive integers: {self.sigma}")
        if self.sigma[0] != 1:
            raise ValueError(f"first dilation exponent must be 1, got {self.sigma}")

    @property
    def nvars(self) -> int:
        return len(self.sigma)

    @property
    def q(self) -> int:
        """Homogeneous dimension: the sum of the exponents."""
        return sum(self.sigma)

    def apply(self, point: Sequence, lam) -> list:
        if len(point) != self.nvars:
            raise ValueError("point dimension mismatch")
        return [lam ** s * v for s, v in zip(self.sigma, point)]


@dataclass(frozen=True)
class PolyVectorField:
    """First-order operator Sum_i coeffs[i] * d/dx_i."""

    nvars: int
    coeffs: Tuple[Poly, ...]
    declared_degree: Optional[int] = None

    def __post_init__(self):
        if len(self.coeffs) != self.nvars:
            raise ValueError("need one coefficient polynomial per variable")
        for c in self.coeffs:
            if c.nvars != self.nvars:
                raise ValueError("coefficient polynomial in wrong ambient space")

    @staticmethod
    def zero(nvars: int) -> "PolyVectorField":
        return PolyVectorField(nvars, tuple(Poly.zero(nvars) for _ in range(nvars)))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def apply(self, u: Poly) -> Poly:
        return field_apply(self, u)

    def eval_at(self, point: Sequence) -> list:
        return [poly_eval(c, point) for c in self.coeffs]

    def scale(self, c) -> "PolyVectorField":
        return PolyVectorField(self.nvars, tuple(p * Fraction(c) for p in self.coeffs),
                               self.declared_degree)

    def add(self, other: "PolyVectorField") -> "PolyVectorField":
        if other.nvars != self.nvars:
            raise ValueError("dimension mismatch")
        return PolyVectorField(self.nvars,
                               tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def sub(self, other: "PolyVectorField") -> "PolyVectorField":
        return self.add(other.scale(-1))

    def divergence(self) -> Poly:
        out = Poly.zero(self.nvars)
        for i, c in enumerate(self.coeffs):
            out = out + poly_diff(c, i)
        return out

    def embed_in(self, new_nvars: int, var_map: Sequence[int] | None = None) -> "PolyVectorField":
        """View the field in a larger space (zero velocity on new coordinates)."""
        if var_map is None:
            var_map = list(range(self.nvars))
        coeffs = [Poly.zero(new_nvars) for _ in range(new_nvars)]
        for i, c in enumerate(self.coeffs):
            coeffs[var_map[i]] = coeffs[var_map[i]] + embed(c, new_nvars, var_map)
        return PolyVectorField(new_nvars, tuple(coeffs), self.declared_degree)

    def describe(self, var_names: Sequence[str] | None = None) -> str:
        if var_names is None:
            var_names = [f"x{i + 1}" for i in range(self.nvars)]
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            parts.append(f"({to_string(c, var_names)})*d{i + 1}")
        return " + ".join(parts) if parts else "0"


def field_apply(X: PolyVectorField, u: Poly) -> Poly:
    """X applied to u: Sum_i p_i * du/dx_i, exact."""
    if u.nvars != X.nvars:
        raise ValueError("dimension mismatch")
    return poly_sum(X.nvars, (p * poly_diff(u, i)
                              for i, p in enumerate(X.coeffs) if p.terms))


def chain_jet(fields: Sequence[PolyVectorField],
              terms: Sequence[Tuple[Fraction, MultiIndex]],
              inner: Poly) -> Dict[int, Poly]:
    """Exact P_k with Sum_c,I c X_I f(inner) = Sum_k f^(k)(inner) * P_k.

    Holds for every smooth f, by X(f^(k)(s) P) = f^(k+1)(s) X(s) P
    + f^(k)(s) X(P) applied through each word, the first index acting last.
    Only the nonzero P_k are kept.
    """
    n = inner.nvars
    zero = Poly.zero(n)
    grads: Dict[int, Poly] = {}
    out: Dict[int, Poly] = {}
    for coeff, word in terms:
        jet = {0: Poly.const(n, coeff)}
        for i in reversed(word):
            X = fields[i]
            if i not in grads:
                grads[i] = field_apply(X, inner)
            nxt: Dict[int, Poly] = {}
            for k, pk in jet.items():
                nxt[k + 1] = nxt.get(k + 1, zero) + grads[i] * pk
                nxt[k] = nxt.get(k, zero) + field_apply(X, pk)
            jet = nxt
        for k, pk in jet.items():
            out[k] = out.get(k, zero) + pk
    return {k: pk for k, pk in out.items() if pk}


def commutator(X: PolyVectorField, Y: PolyVectorField) -> PolyVectorField:
    """[X, Y] = XY - YX as a first-order field."""
    if X.nvars != Y.nvars:
        raise ValueError("dimension mismatch")
    coeffs = tuple(field_apply(X, Y.coeffs[i]) - field_apply(Y, X.coeffs[i])
                   for i in range(X.nvars))
    return PolyVectorField(X.nvars, coeffs)


def certify_homogeneity(X: PolyVectorField, delta: DilationFamily,
                        triangular: bool = True) -> Optional[int]:
    """Degree nu >= 1 such that X lowers graded degree by nu, or None.

    Each coefficient p_i must be graded-homogeneous of degree sigma_i - nu
    for one common nu.  With triangular=True (base systems), p_i must also
    not involve x_i, ..., x_n; lifted fields are checked without that shape
    constraint.
    """
    nu, _ = certify_homogeneity_report(X, delta, triangular)
    return nu


def certify_homogeneity_report(X: PolyVectorField, delta: DilationFamily,
                               triangular: bool = True) -> Tuple[Optional[int], List[str]]:
    """As certify_homogeneity, plus a report of offending components."""
    if X.nvars != delta.nvars:
        raise ValueError("dimension mismatch")
    problems: List[str] = []
    nu: Optional[int] = None
    for i, p in enumerate(X.coeffs):
        if p.is_zero():
            continue
        comps = graded_components(p, delta.sigma)
        if len(comps) != 1:
            degs = sorted(comps)
            problems.append(f"coefficient of d{i + 1} mixes graded degrees {degs}")
            continue
        (d,) = comps
        cand = delta.sigma[i] - d
        if nu is None:
            nu = cand
        elif cand != nu:
            problems.append(
                f"coefficient of d{i + 1} implies degree {cand}, conflicting with {nu}")
    if nu is None:
        problems.append("zero field has no positive degree")
    elif nu < 1:
        problems.append(f"implied degree {nu} is not positive")
    if not problems and triangular:
        for i, p in enumerate(X.coeffs):
            for j in range(i, X.nvars):
                if depends_on(p, j):
                    problems.append(
                        f"coefficient of d{i + 1} depends on x{j + 1} (triangular shape broken)")
    if problems:
        return None, problems
    return nu, []


def declared_degrees(fields: Sequence[PolyVectorField]) -> Tuple[int, ...]:
    """Each field's declared homogeneity degree; every field must carry one."""
    if any(X.declared_degree is None for X in fields):
        raise ValueError("every field must carry a declared homogeneity degree")
    return tuple(X.declared_degree for X in fields)


def multiindex_weight(I: MultiIndex, degrees: Sequence[int]) -> int:
    """Sum of the homogeneity degrees along the word."""
    for i in I:
        if not 0 <= i < len(degrees):
            raise ValueError(f"field index {i} out of range")
    return sum(degrees[i] for i in I)


@dataclass(frozen=True)
class OperatorSpec:
    """Formal operator Sum c_I X_{i_1}...X_{i_k} with all words of one weight."""

    fields: Tuple[PolyVectorField, ...]
    terms: Tuple[Tuple[Fraction, MultiIndex], ...]
    nu: int

    def __post_init__(self):
        if not any(c != 0 for c, _ in self.terms):
            raise ValueError("operator has no nonzero term")
        degrees = self.degrees
        for c, I in self.terms:
            if len(I) < 1:
                raise ValueError("empty word in operator")
            w = multiindex_weight(I, degrees)
            if w != self.nu:
                raise ValueError(f"word {I} has weight {w}, expected {self.nu}")

    @property
    def degrees(self) -> Tuple[int, ...]:
        return declared_degrees(self.fields)

    @property
    def nvars(self) -> int:
        return self.fields[0].nvars

    def apply(self, u: Poly) -> Poly:
        words = []
        for c, I in self.terms:
            v = u
            for i in reversed(I):
                v = field_apply(self.fields[i], v)
            words.append(v * c)
        return poly_sum(self.nvars, words)

    def with_fields(self, new_fields: Sequence[PolyVectorField]) -> "OperatorSpec":
        """Same formal words over a replacement field list (used for lifting)."""
        return OperatorSpec(tuple(new_fields), self.terms, self.nu)

    def expand(self) -> "ScalarOperator":
        out = ScalarOperator.zero(self.nvars)
        for c, I in self.terms:
            out = out.add(expand_word(self.fields, I).scale(c))
        return out

    def describe(self) -> str:
        parts = []
        for c, I in self.terms:
            word = "".join(f"X{i + 1}" for i in I)
            parts.append(f"{c}*{word}")
        return " + ".join(parts)


def operator_transpose(L: OperatorSpec) -> OperatorSpec:
    """Formal transpose: each word c X_{i1}..X_{ik} becomes (-1)^k c X_{ik}..X_{i1}.

    Valid only when every field satisfies X* = -X, i.e. has identically zero
    divergence; fields failing that are rejected.
    """
    for j, X in enumerate(L.fields):
        div = X.divergence()
        if not div.is_zero():
            raise ValueError(
                f"field X{j + 1} has nonzero divergence {to_string(div)}; "
                "the word-reversal transpose formula requires divergence-free fields")
    terms = tuple((c * Fraction((-1) ** len(I)), tuple(reversed(I))) for c, I in L.terms)
    return OperatorSpec(L.fields, terms, L.nu)


class ScalarOperator:
    """Canonical expanded operator Sum_gamma a_gamma(x) D^gamma."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Tuple[int, ...], Poly]):
        self.nvars = nvars
        self.terms = {g: p for g, p in terms.items() if not p.is_zero()}

    @staticmethod
    def zero(nvars: int) -> "ScalarOperator":
        return ScalarOperator(nvars, {})

    @staticmethod
    def identity(nvars: int) -> "ScalarOperator":
        return ScalarOperator(nvars, {(0,) * nvars: Poly.const(nvars, 1)})

    def add(self, other: "ScalarOperator") -> "ScalarOperator":
        out = dict(self.terms)
        for g, p in other.terms.items():
            out[g] = out.get(g, Poly.zero(self.nvars)) + p
        return ScalarOperator(self.nvars, out)

    def sub(self, other: "ScalarOperator") -> "ScalarOperator":
        return self.add(other.scale(-1))

    def scale(self, c) -> "ScalarOperator":
        return ScalarOperator(self.nvars, {g: p * Fraction(c) for g, p in self.terms.items()})

    def apply(self, u: Poly) -> Poly:
        out = Poly.zero(self.nvars)
        for g, a in self.terms.items():
            v = u
            for j, k in enumerate(g):
                for _ in range(k):
                    v = poly_diff(v, j)
            out = out + a * v
        return out

    def adjoint(self) -> "ScalarOperator":
        """Formal adjoint Sum (-1)^{|gamma|} D^gamma (a_gamma * ), expanded by Leibniz."""
        result = ScalarOperator.zero(self.nvars)
        for g, a in self.terms.items():
            piece: Dict[Tuple[int, ...], Poly] = {(0,) * self.nvars: a}
            for j, k in enumerate(g):
                for _ in range(k):
                    nxt: Dict[Tuple[int, ...], Poly] = {}
                    for mu, c in piece.items():
                        up = list(mu)
                        up[j] += 1
                        key = tuple(up)
                        nxt[key] = nxt.get(key, Poly.zero(self.nvars)) + c
                        nxt[mu] = nxt.get(mu, Poly.zero(self.nvars)) + poly_diff(c, j)
                    piece = nxt
            sign = Fraction((-1) ** sum(g))
            result = result.add(ScalarOperator(self.nvars, piece).scale(sign))
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarOperator):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def describe(self, var_names: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        parts = []
        for g in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            ds = "*".join(f"D{j + 1}^{k}" if k > 1 else f"D{j + 1}"
                          for j, k in enumerate(g) if k)
            a = to_string(self.terms[g], var_names)
            parts.append(f"({a})*{ds}" if ds else f"({a})")
        return " + ".join(parts)


def compose_field_scalar(X: PolyVectorField, A: ScalarOperator) -> ScalarOperator:
    """The composition X o A as a ScalarOperator."""
    out: Dict[Tuple[int, ...], Poly] = {}
    zero = Poly.zero(X.nvars)
    for g, a in A.terms.items():
        for j, p in enumerate(X.coeffs):
            if p.is_zero():
                continue
            da = poly_diff(a, j)
            if not da.is_zero():
                out[g] = out.get(g, zero) + p * da
            up = list(g)
            up[j] += 1
            key = tuple(up)
            out[key] = out.get(key, zero) + p * a
    return ScalarOperator(X.nvars, out)


def expand_word(fields: Sequence[PolyVectorField], I: MultiIndex) -> ScalarOperator:
    """Expanded form of the word X_{i_1}...X_{i_k}."""
    nvars = fields[0].nvars
    A = ScalarOperator.identity(nvars)
    for i in reversed(I):
        A = compose_field_scalar(fields[i], A)
    return A


# -- standard operator constructors -----------------------------------------

_Word = Tuple[int, ...]
_WordSum = Dict[_Word, Fraction]


def _wordsum_mul(a: _WordSum, b: _WordSum) -> _WordSum:
    out: _WordSum = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            out[w] = out.get(w, Fraction(0)) + ca * cb
    return {w: c for w, c in out.items() if c != 0}


def _wordsum_pow(a: _WordSum, k: int) -> _WordSum:
    out: _WordSum = {(): Fraction(1)}
    for _ in range(k):
        out = _wordsum_mul(out, a)
    return out


def make_standard_operator(kind: str, fields: Sequence[PolyVectorField],
                           **params) -> OperatorSpec:
    """Build one of the standard homogeneous operator families.

    kind:
      rockland_power      params nu0, k: (Sum_j (-1)^{nu0/nu_j} X_j^{2nu0/nu_j})^k
      sublaplacian_power  params k:      (Sum_j X_j^2)^k, all degrees equal
      sum_of_even_powers  params nu0:    Sum_j X_j^{2nu0}, all degrees equal
      hormander_power     params drift, k: (Sum_{j != drift} X_j^2 + X_drift)^k
    """
    fields = tuple(fields)
    degs = declared_degrees(fields)
    m = len(fields)
    if kind == "rockland_power":
        nu0, k = int(params["nu0"]), int(params.get("k", 1))
        for j, d in enumerate(degs):
            if nu0 % d != 0:
                raise ValueError(f"nu0={nu0} is not a multiple of degree {d} of X{j + 1}")
        base: _WordSum = {}
        for j, d in enumerate(degs):
            word = (j,) * (2 * nu0 // d)
            base[word] = base.get(word, Fraction(0)) + Fraction((-1) ** (nu0 // d))
        ws = _wordsum_pow(base, k)
        nu = 2 * nu0 * k
    elif kind == "sublaplacian_power":
        k = int(params.get("k", 1))
        if len(set(degs)) != 1:
            raise ValueError("sublaplacian_power requires fields of one common degree")
        base = {(j, j): Fraction(1) for j in range(m)}
        ws = _wordsum_pow(base, k)
        nu = 2 * degs[0] * k
    elif kind == "sum_of_even_powers":
        nu0 = int(params["nu0"])
        if len(set(degs)) != 1:
            raise ValueError("sum_of_even_powers requires fields of one common degree")
        ws = {(j,) * (2 * nu0): Fraction(1) for j in range(m)}
        nu = 2 * nu0 * degs[0]
    elif kind == "hormander_power":
        drift, k = int(params["drift"]), int(params.get("k", 1))
        if not 0 <= drift < m or degs[drift] != 2:
            raise ValueError("hormander_power needs a designated drift field of degree 2")
        if any(d != 1 for j, d in enumerate(degs) if j != drift):
            raise ValueError("hormander_power needs degree-1 fields besides the drift")
        base = {(j, j): Fraction(1) for j in range(m) if j != drift}
        base[(drift,)] = Fraction(1)
        ws = _wordsum_pow(base, k)
        nu = 2 * k
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    terms = tuple(sorted(ws.items()))
    return OperatorSpec(fields, tuple((c, w) for w, c in terms), nu)


def classify_positive_rockland_pattern(L: OperatorSpec) -> bool:
    """True iff L (or -L) is Sum_j (-1)^{nu0/nu_j} X_j^{2nu0/nu_j} for some nu0.

    This is the structural sufficient condition for positivity: for such an
    operator, integration by parts with X* = -X turns each summand of
    (Lf, f) into |X_j^{nu0/nu_j} f|^2.  The overall sign is not checked since
    either sign convention gives a (semi)definite operator.
    """
    degs = L.degrees
    if L.nu % 2 != 0:
        return False
    nu0 = L.nu // 2
    seen: Dict[int, Tuple[Fraction, int]] = {}
    for c, I in L.terms:
        if c == 0:
            continue
        if len(set(I)) != 1:
            return False
        j = I[0]
        if j in seen:
            return False
        seen[j] = (c, len(I))
    if set(seen) != set(range(len(L.fields))):
        return False
    for eps in (1, -1):
        ok = True
        for j, (c, length) in seen.items():
            d = degs[j]
            if nu0 % d != 0 or length != 2 * nu0 // d:
                ok = False
                break
            if c != Fraction(eps * (-1) ** (nu0 // d)):
                ok = False
                break
        if ok:
            return True
    return False


def heat_extend(L: OperatorSpec, delta: DilationFamily,
                sign: int = 1) -> Tuple[OperatorSpec, DilationFamily]:
    """Extend L to H = L + sign*d/dt on R^{n+1} with t-exponent nu.

    The extended dilations scale t by lambda^nu, so H is nu-homogeneous and
    the homogeneous dimension grows to q + nu.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = L.nvars
    new_fields = [X.embed_in(n + 1) for X in L.fields]
    t_coeffs = [Poly.zero(n + 1) for _ in range(n + 1)]
    t_coeffs[n] = Poly.const(n + 1, 1)
    t_field = PolyVectorField(n + 1, tuple(t_coeffs), L.nu)
    new_fields.append(t_field)
    terms = tuple(L.terms) + ((Fraction(sign), (len(new_fields) - 1,)),)
    H = OperatorSpec(tuple(new_fields), terms, L.nu)
    sigma_prime = DilationFamily(tuple(delta.sigma) + (L.nu,))
    return H, sigma_prime
