"""Bracket-generated nilpotent Lie algebras of homogeneous vector fields.

Starting from certified homogeneous fields, breadth-first bracketing produces
a finite graded basis (termination is guaranteed because a bracket of total
degree above the top dilation exponent must vanish).  A polynomial vector
field is flattened to its vector of monomial coefficients, one slot per
(coordinate, monomial) pair, and one exact span over the rationals
(`_RationalSpan`, elimination on Fractions) holds the fields bracketed so
far.  That span decides whether a bracket is new, and it returns the exact
coordinates of every bracket of basis fields, which are the structure
constants.  The same elimination gives `hormander_rank` and
`nilpotency_step`, and the inverse of a graded map's linear part in
`rockland.lifting`.

The basis ordering is part of the public contract: non-decreasing degree,
with the original generators first within their degree, then insertion order.
Structure constants are computed against that ordering and carry exact
antisymmetry, grading and Jacobi guarantees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .fields import DilationFamily, PolyVectorField, certify_homogeneity, commutator
from .poly import Poly

Key = Tuple[int, Tuple[int, ...]]  # (coordinate index, monomial)


def _flatten(X: PolyVectorField) -> Dict[Key, Fraction]:
    vec: Dict[Key, Fraction] = {}
    for i, p in enumerate(X.coeffs):
        for mono, c in p.terms.items():
            vec[(i, mono)] = c
    return vec


def _axpy(acc: Dict[Any, Fraction], a: Fraction, vec: Dict[Any, Fraction]) -> None:
    """acc += a * vec in place, dropping entries that cancel."""
    for k, v in vec.items():
        nv = acc.get(k, Fraction(0)) + a * v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)


class _RationalSpan:
    """Incremental row-reduced span of exact coefficient vectors.

    The one exact elimination of the package.  A vector maps keys to nonzero
    rationals (int or Fraction); the keys of one span must be mutually
    comparable (the least key of a row is its pivot).  Each reduced row also
    keeps its combination of the inserted vectors, so the span answers three
    questions: whether a vector is new (`insert`), the dimension (`rank`) and
    the exact coordinates of a vector in the inserted vectors (`coords`).
    """

    def __init__(self) -> None:
        self.rows: List[Dict[Any, Fraction]] = []
        self.pivots: List[Any] = []
        # combs[r][m]: coefficient of the m-th inserted vector in rows[r]
        self.combs: List[Dict[int, Fraction]] = []

    def reduce(self, vec: Dict[Any, Fraction]
               ) -> Tuple[Dict[Any, Fraction], Dict[int, Fraction]]:
        """(remainder of vec, combination of the inserted vectors taken off)."""
        out: Dict[Any, Fraction] = dict(vec)
        comb: Dict[int, Fraction] = {}
        for row, piv, row_comb in zip(self.rows, self.pivots, self.combs):
            c = out.get(piv)
            if c:
                _axpy(out, -c, row)
                _axpy(comb, c, row_comb)
        return out, comb

    def insert(self, vec: Dict[Any, Fraction]) -> bool:
        """Add vec to the span; False if it was already in the span."""
        red, comb = self.reduce(vec)
        if not red:
            return False
        piv = min(red)
        inv = Fraction(1) / red[piv]
        new_comb = {m: -v * inv for m, v in comb.items()}
        new_comb[self.rank] = inv
        self.rows.append({k: v * inv for k, v in red.items()})
        self.pivots.append(piv)
        self.combs.append(new_comb)
        return True

    def coords(self, vec: Dict[Any, Fraction]) -> Optional[List[Fraction]]:
        """Exact coordinates of vec in the inserted vectors, in insertion
        order, or None when vec lies outside the span."""
        red, comb = self.reduce(vec)
        return None if red else [comb.get(m, Fraction(0)) for m in range(self.rank)]

    @property
    def rank(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LieBasis:
    """Graded basis W_1, ..., W_N of the bracket-generated algebra."""

    W: Tuple[PolyVectorField, ...]
    degrees: Tuple[int, ...]
    generator_indices: Tuple[int, ...]

    @property
    def N(self) -> int:
        return len(self.W)

    @property
    def nvars(self) -> int:
        return self.W[0].nvars


@dataclass(frozen=True)
class StructureConstants:
    """Table c with [W_i, W_j] = Sum_k c[i][j][k] W_k, stored for i < j."""

    N: int
    table: Tuple[Tuple[int, int, int, Fraction], ...]  # entries (i, j, k, c), i < j

    def entry_map(self) -> Dict[Tuple[int, int], Dict[int, Fraction]]:
        out: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for i, j, k, c in self.table:
            out.setdefault((i, j), {})[k] = c
        return out

    def bracket(self, u: Sequence, v: Sequence) -> list:
        """Coordinates of [u, v]; entries may be Fractions or Polys."""
        out: list = [None] * self.N
        for i, j, k, c in self.table:
            contrib = c * (u[i] * v[j] - u[j] * v[i])
            out[k] = contrib if out[k] is None else out[k] + contrib
        zero = Fraction(0)
        if any(isinstance(e, Poly) for e in list(u) + list(v)):
            nv = next(e.nvars for e in list(u) + list(v) if isinstance(e, Poly))
            zero = Poly.zero(nv)
        return [zero if e is None else e for e in out]

    def to_json(self) -> str:
        rows = [{"i": i + 1, "j": j + 1, "k": k + 1, "c": str(c)}
                for i, j, k, c in self.table]
        return json.dumps(rows, sort_keys=True)


def generate_lie_algebra(fields: Sequence[PolyVectorField],
                         delta: DilationFamily) -> Tuple[LieBasis, StructureConstants]:
    """Bracket closure of the given fields with exact structure constants."""
    gens = []
    for j, X in enumerate(fields):
        nu = X.declared_degree
        if nu is None:
            nu = certify_homogeneity(X, delta)
        if nu is None:
            raise ValueError(f"generator X{j + 1} is not dilation-homogeneous")
        gens.append(PolyVectorField(X.nvars, X.coeffs, nu))

    span = _RationalSpan()
    elements: List[PolyVectorField] = []
    is_gen: List[bool] = []
    for j, X in enumerate(gens):
        if not span.insert(_flatten(X)):
            raise ValueError(f"generator X{j + 1} is linearly dependent on earlier generators")
        elements.append(X)
        is_gen.append(True)

    max_degree = max(delta.sigma)
    # [X_a, X_b] flattened, for each a < b whose bracket is nonzero.  An
    # element older than the frontier has a smaller index than every member,
    # so b > a brackets each pair once (the reversed pair inside the frontier
    # adds nothing to the span); a pair whose degrees add up past max_degree
    # brackets to zero
    brackets: Dict[Tuple[int, int], Dict[Key, Fraction]] = {}
    frontier = list(range(len(elements)))
    while frontier:
        new_frontier: List[int] = []
        for a in range(len(elements)):
            for b in frontier:
                if b <= a:
                    continue
                Xa, Xb = elements[a], elements[b]
                deg = Xa.declared_degree + Xb.declared_degree
                if deg > max_degree:
                    continue
                Z = commutator(Xa, Xb)
                if Z.is_zero():
                    continue
                nu = certify_homogeneity(Z, delta)
                if nu is None or nu != deg:
                    raise ValueError("bracket of homogeneous fields failed certification; "
                                     "internal inconsistency")
                vec = brackets[(a, b)] = _flatten(Z)
                if span.insert(vec):
                    elements.append(PolyVectorField(Z.nvars, Z.coeffs, nu))
                    is_gen.append(False)
                    new_frontier.append(len(elements) - 1)
        frontier = new_frontier

    order = sorted(range(len(elements)),
                   key=lambda idx: (elements[idx].declared_degree, not is_gen[idx], idx))
    W = tuple(elements[idx] for idx in order)
    degrees = tuple(X.declared_degree for X in W)
    generator_indices = tuple(order.index(idx) for idx in range(len(gens)))
    basis = LieBasis(W, degrees, generator_indices)

    table: List[Tuple[int, int, int, Fraction]] = []
    N = len(W)
    for i in range(N):
        for j in range(i + 1, N):
            a, b = order[i], order[j]
            vec = brackets.get((min(a, b), max(a, b)))
            if vec is None:
                continue
            coords = span.coords(vec)
            if coords is None:
                raise ValueError("bracket escapes the computed span; closure bug")
            if a > b:  # [W_i, W_j] = -[X_b, X_a]
                coords = [-c for c in coords]
            for k in range(N):
                c = coords[order[k]]
                if c != 0:
                    if degrees[k] != degrees[i] + degrees[j]:
                        raise ValueError("structure constants violate the grading")
                    table.append((i, j, k, c))
    sc = StructureConstants(N, tuple(table))
    _check_jacobi(sc)
    return basis, sc


def _adjoint(sc: StructureConstants) -> List[Dict[int, Dict[int, Fraction]]]:
    """ad[a][b]: the nonzero coordinates of [W_a, W_b], for every a != b."""
    ad: List[Dict[int, Dict[int, Fraction]]] = [{} for _ in range(sc.N)]
    for (i, j), col in sc.entry_map().items():
        ad[i][j] = col
        ad[j][i] = {k: -c for k, c in col.items()}
    return ad


def _ad_apply(ad_a: Dict[int, Dict[int, Fraction]],
              v: Dict[int, Fraction]) -> Dict[int, Fraction]:
    """Coordinates of [W_a, v] for v given by its nonzero coordinates."""
    out: Dict[int, Fraction] = {}
    for b, vb in v.items():
        _axpy(out, vb, ad_a.get(b, {}))
    return out


def _check_jacobi(sc: StructureConstants) -> None:
    ad = _adjoint(sc)
    N = sc.N
    for a in range(N):
        for b in range(a + 1, N):
            for c in range(b + 1, N):
                total: Dict[int, Fraction] = {}
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    for k, v in _ad_apply(ad[x], ad[y].get(z, {})).items():
                        total[k] = total.get(k, 0) + v
                if any(total.values()):
                    raise ValueError("Jacobi identity fails; structure constants corrupt")


def hormander_rank(basis: LieBasis, point: Sequence) -> int:
    """Rank over the rationals of the basis fields evaluated at the point."""
    point = [Fraction(v) for v in point]
    span = _RationalSpan()
    for X in basis.W:
        vals = X.eval_at(point)
        span.insert({i: Fraction(v) for i, v in enumerate(vals) if v != 0})
    return span.rank


def nilpotency_step(sc: StructureConstants, degrees: Sequence[int]) -> int:
    """Length of the lower central series; asserted <= max degree."""
    ad = _adjoint(sc)
    current: List[Dict[int, Fraction]] = [{k: Fraction(1)} for k in range(sc.N)]
    step = 1
    while True:
        span = _RationalSpan()
        nxt = []
        for ad_a in ad:
            for v in current:
                w = _ad_apply(ad_a, v)
                if w and span.insert(w):
                    nxt.append(w)
        if not nxt:
            break
        current = nxt
        step += 1
    if degrees and step > max(degrees):
        raise AssertionError("nilpotency step exceeds the top homogeneity degree")
    return step
