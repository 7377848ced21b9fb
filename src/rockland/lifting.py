"""Homogeneous group construction and lifting of homogeneous vector fields.

Given the graded basis W_1, ..., W_N of the bracket-generated algebra, the
group G = (R^N, *) is realized in exponential coordinates of the first kind
through the Dynkin form of the Baker-Campbell-Hausdorff series (exact
rational coefficients, precomputed up to nilpotency step 6).  The evaluation
map F(w) = (flow of Sum w_k W_k for unit time from the origin of R^n) and a
choice of p = N - n complementary coordinates give a polynomial diffeomorphism
Theta(w) = (F(w), w_complementary) with constant Jacobian determinant, through
which the group's left-invariant generator fields push forward to the lifted
fields

    Xtilde_i = X_i + R_i,   R_i differentiating only in the new coordinates.

When the plain complementary choice leaves some residual R_i identically zero
(the lifted field already equals the base field), Theta is composed with a
canonical graded shear xi_j -> xi_j + s_j(x); this preserves every structural
property (group law, dilations, Jacobians, homogeneity) and makes all
residuals nonzero.

Every property the construction promises is verified exactly on polynomials:
group axioms, dilation automorphisms, unit left-translation Jacobian,
homogeneity degrees of the lifted fields, x-free nonzero residuals, the slice
diffeomorphism Jacobians, and the saturability condition S1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from .fields import (
    DilationFamily,
    OperatorSpec,
    PolyVectorField,
    ScalarOperator,
    certify_homogeneity_report,
    field_apply,
    operator_transpose,
)
from .liealg import (LieBasis, StructureConstants, _RationalSpan, hormander_rank,
                     nilpotency_step)
from .poly import (Poly, Scalar, embed, is_graded_homogeneous, poly_diff,
                   poly_eval, poly_sum, substitute, substitute_many, to_string)

MAX_BCH_STEP = 6


# -- Dynkin coefficients ------------------------------------------------------

_dynkin_cache: Dict[int, Dict[Tuple[int, ...], Fraction]] = {}


def _dynkin_table(step: int) -> Dict[Tuple[int, ...], Fraction]:
    """Coefficient of each letter word (0=first argument, 1=second) of length
    <= step in the BCH series, with right-nested bracketing of the word."""
    if step in _dynkin_cache:
        return _dynkin_cache[step]
    table: Dict[Tuple[int, ...], Fraction] = {}

    def rec(blocks: List[Tuple[int, int]], length: int) -> None:
        if blocks:
            k = len(blocks)
            word: Tuple[int, ...] = ()
            denom = length
            for r, s in blocks:
                word += (0,) * r + (1,) * s
                denom *= math.factorial(r) * math.factorial(s)
            coeff = Fraction((-1) ** (k - 1), k) / denom
            table[word] = table.get(word, Fraction(0)) + coeff
        for r in range(0, step - length + 1):
            for s in range(0, step - length - r + 1):
                if r + s == 0:
                    continue
                rec(blocks + [(r, s)], length + r + s)

    rec([], 0)
    _dynkin_cache[step] = {w: c for w, c in table.items() if c != 0}
    return _dynkin_cache[step]


def bch_product(sc: StructureConstants, step: int, a: Sequence, b: Sequence) -> list:
    """Truncated BCH product in exponential coordinates.

    The entries of a and b are all rationals (numeric product) or all Polys
    of one space (symbolic group law).  Exact in either case.
    """
    if step > MAX_BCH_STEP:
        raise ValueError(
            f"nilpotency step {step} exceeds the precomputed Dynkin table "
            f"(max {MAX_BCH_STEP}); extend the table to handle deeper algebras")
    if len(a) != sc.N or len(b) != sc.N:
        raise ValueError("coordinate vectors must have the algebra dimension")
    vecs = (list(a), list(b))
    table = _dynkin_table(step)
    nested: Dict[Tuple[int, ...], list] = {}

    def bracket_word(word: Tuple[int, ...]) -> list:
        if word in nested:
            return nested[word]
        if len(word) == 1:
            out = vecs[word[0]]
        else:
            out = sc.bracket(vecs[word[0]], bracket_word(word[1:]))
        nested[word] = out
        return out

    # each coordinate's terms over the Dynkin words, summed in word order
    cols: List[list] = [[] for _ in range(sc.N)]
    for word, coeff in table.items():
        if len(word) >= 2 and word[-1] == word[-2]:
            continue  # innermost bracket vanishes
        for col, e in zip(cols, bracket_word(word)):
            col.append(coeff * e)
    if isinstance(vecs[0][0], Poly):
        return [poly_sum(vecs[0][0].nvars, col) for col in cols]
    return [sum(col[1:], col[0]) for col in cols]


# -- exact flows --------------------------------------------------------------

def flow_map(field: PolyVectorField, coord_indices: Sequence[int],
             max_iters: int) -> List[Poly]:
    """Time-1 flow of a graded field as polynomials in the start point.

    Returns, for each requested coordinate, the terminating Lie series
    Sum_k W^k(x_j) / k! as an exact polynomial.
    """
    out = []
    for j in coord_indices:
        u = Poly.var(field.nvars, j)
        total = u
        cur = u
        k = 0
        while True:
            cur = field_apply(field, cur)
            k += 1
            if cur.is_zero():
                break
            if k > max_iters:
                raise ValueError("Lie series did not terminate; field is not graded")
            total = total + cur * Fraction(1, math.factorial(k))
        out.append(total)
    return out


FLOW_ITERATION_CAP = 60


def exp_flow(field: PolyVectorField, start: Sequence, time) -> list:
    """Exact endpoint of the flow of the field from start for the given time."""
    t = Fraction(time)
    scaled = PolyVectorField(field.nvars, tuple(c * t for c in field.coeffs))
    polys = flow_map(scaled, range(field.nvars), FLOW_ITERATION_CAP)
    return [poly_eval(p, list(start)) for p in polys]


# -- polynomial map utilities -------------------------------------------------

def poly_det(mat: List[List[Poly]]) -> Poly:
    """Exact determinant of a square polynomial matrix (Laplace, memoized)."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    nv = mat[0][0].nvars
    memo: Dict[Tuple[int, ...], Poly] = {}

    def minor(rows: Tuple[int, ...]) -> Poly:
        if not rows:
            return Poly.const(nv, 1)
        if rows in memo:
            return memo[rows]
        col = n - len(rows)
        total = Poly.zero(nv)
        for pos, r in enumerate(rows):
            entry = mat[r][col]
            if entry.is_zero():
                continue
            rest = rows[:pos] + rows[pos + 1:]
            term = entry * minor(rest)
            total = total + (term if pos % 2 == 0 else -term)
        memo[rows] = total
        return total

    return minor(tuple(range(n)))


def constant_value(p: Poly) -> Optional[Scalar]:
    """The value of p if p is a constant polynomial, else None."""
    if not p.terms:
        return Fraction(0)
    if len(p.terms) == 1:
        ((mono, c),) = p.terms.items()
        if all(e == 0 for e in mono):
            return c
    return None


def invert_graded_map(maps: Sequence[Poly], in_degrees: Sequence[int],
                      out_degrees: Sequence[int]) -> List[Poly]:
    """Exact inverse of a graded polynomial automorphism of R^N.

    maps[i] must be graded-homogeneous of degree out_degrees[i] in variables
    weighted by in_degrees.  The linear part (single-variable terms of equal
    degree) must be invertible; the inverse is the unipotent fixed-point
    iteration, verified by exact composition both ways.
    """
    N = len(maps)
    span = _RationalSpan()  # the rows of the linear part A
    h = []
    for i, p in enumerate(maps):
        row: Dict[int, Scalar] = {}
        rest: Dict[Tuple[int, ...], Scalar] = {}
        for mono, c in p.terms.items():
            if sum(mono) == 1:
                k = next(idx for idx, e in enumerate(mono) if e == 1)
                if in_degrees[k] == out_degrees[i]:
                    row[k] = c
                    continue
            rest[mono] = c
        h.append(Poly._of(N, rest))
        if not span.insert(row):
            raise ValueError("graded map has singular linear part; not invertible")
    # row k of A^-1 holds the coordinates of e_k in the rows of A
    Ainv = [span.coords({k: Fraction(1)}) for k in range(N)]
    zvars = Poly.variables(N)

    def apply_ainv(vec: Sequence[Poly]) -> List[Poly]:
        return [poly_sum(N, (a * vec[k] for k, a in enumerate(row) if a))
                for row in Ainv]

    cur = apply_ainv(zvars)
    for _ in range(max(out_degrees) + 2):
        nxt = apply_ainv([z - hz for z, hz in zip(zvars, substitute_many(h, cur))])
        # an iterate equal to the last, terms in the same order, repeats
        # for every remaining round
        if all(list(p.terms.items()) == list(q.terms.items())
               for p, q in zip(nxt, cur)):
            break
        cur = nxt
    if (substitute_many(list(maps), cur) != list(zvars)
            or substitute_many(cur, list(maps)) != list(zvars)):
        raise ValueError("graded map inversion failed to verify; map is not unipotent-graded")
    return cur


# -- the group ---------------------------------------------------------------

@dataclass(frozen=True)
class GroupLaw:
    """Nilpotent group law on R^N in exponential coordinates."""

    N: int
    degrees: Tuple[int, ...]
    step: int
    mult: Tuple[Poly, ...]      # N polynomials in 2N variables (a, b)
    inverse: Tuple[Poly, ...]   # N polynomials in N variables
    left_fields: Tuple[PolyVectorField, ...]  # one per basis slot

    def mult_eval(self, a: Sequence, b: Sequence) -> list:
        point = list(a) + list(b)
        return [poly_eval(p, point) for p in self.mult]

    def inverse_eval(self, a: Sequence) -> list:
        return [poly_eval(p, list(a)) for p in self.inverse]


def build_group(basis: LieBasis, sc: StructureConstants,
                step: Optional[int] = None) -> GroupLaw:
    """BCH group law, left-invariant fields and verified dilations.

    ``step`` is the algebra's nilpotency step when the caller has it.
    """
    N = sc.N
    degrees = basis.degrees
    if step is None:
        step = nilpotency_step(sc, degrees)
    two = Poly.variables(2 * N)
    a_vars, b_vars = list(two[:N]), list(two[N:])
    mult = tuple(bch_product(sc, step, a_vars, b_vars))
    inverse = tuple(-Poly.var(N, i) for i in range(N))

    # left-invariant field of basis slot k: b-derivative of mult at b = 0
    restrict = [Poly.var(N, i) for i in range(N)] + [Poly.zero(N)] * N
    left_fields = []
    for k in range(N):
        coeffs = tuple(substitute(poly_diff(mult[j], N + k), restrict) for j in range(N))
        left_fields.append(PolyVectorField(N, coeffs, degrees[k]))
    group = GroupLaw(N, degrees, step, mult, inverse, tuple(left_fields))
    _verify_group(group)
    return group


def _verify_group(g: GroupLaw) -> None:
    N = g.N
    # identity laws
    idvars = Poly.variables(N)
    zeros = [Poly.zero(N)] * N
    if substitute_many(g.mult, list(idvars) + zeros) != list(idvars):
        raise ValueError("group law fails mult(a, 0) = a")
    if substitute_many(g.mult, zeros + list(idvars)) != list(idvars):
        raise ValueError("group law fails mult(0, b) = b")
    # inverse law
    if any(not p.is_zero() for p in
           substitute_many(g.mult, list(idvars) + [substitute(q, list(idvars))
                                                   for q in g.inverse])):
        raise ValueError("group law fails mult(a, inverse(a)) = 0")
    # associativity in 3N variables
    three = Poly.variables(3 * N)
    a3, b3, c3 = list(three[:N]), list(three[N:2 * N]), list(three[2 * N:])
    ab = substitute_many(g.mult, a3 + b3)
    bc = substitute_many(g.mult, b3 + c3)
    if substitute_many(g.mult, ab + c3) != substitute_many(g.mult, a3 + bc):
        raise ValueError("group law fails associativity")
    # dilation automorphism: mult(delta a, delta b) = delta mult(a, b) holds
    # exactly when every monomial of mult_i has weighted degree d_i in (a, b)
    if not all(is_graded_homogeneous(p, g.degrees * 2, d)
               for p, d in zip(g.mult, g.degrees)):
        raise ValueError("dilations are not group automorphisms; grading bug")
    # left-translation Jacobian: graded-triangular with unit diagonal, so its
    # determinant is identically 1 (Lebesgue measure is Haar)
    for i in range(N):
        for j in range(N):
            J = poly_diff(g.mult[i], N + j)
            if i == j:
                if J != Poly.const(2 * N, 1):
                    raise ValueError("left translation Jacobian diagonal is not 1")
            elif g.degrees[j] >= g.degrees[i] and not J.is_zero():
                raise ValueError("left translation Jacobian is not graded-triangular")


# -- the lifting ---------------------------------------------------------------

@dataclass(frozen=True)
class LiftedSystem:
    """Lifted homogeneous system on R^N = R^n_x x R^p_xi."""

    base_delta: DilationFamily
    base_fields: Tuple[PolyVectorField, ...]
    basis: LieBasis
    sc: StructureConstants
    group_w: GroupLaw
    theta: Tuple[Poly, ...]
    theta_inv: Tuple[Poly, ...]
    mult: Tuple[Poly, ...]        # group law in lifted coordinates, 2N vars
    inverse: Tuple[Poly, ...]     # inverse in lifted coordinates, N vars
    lifted_fields: Tuple[PolyVectorField, ...]
    D_exponents: Tuple[int, ...]
    complementary: Tuple[int, ...]
    tau: Tuple[int, ...]
    shear: Tuple[Poly, ...]
    n: int
    p: int
    N: int
    q: int
    E: int
    Q: int

    def residuals(self) -> Tuple[PolyVectorField, ...]:
        out = []
        for X, Xt in zip(self.base_fields, self.lifted_fields):
            out.append(Xt.sub(X.embed_in(self.N)))
        return tuple(out)

    # the group law's, read off this system's own mult and inverse
    mult_eval = GroupLaw.mult_eval
    inverse_eval = GroupLaw.inverse_eval

    def to_json(self) -> str:
        doc = {
            "dimensions": {"n": self.n, "p": self.p, "N": self.N,
                           "q": self.q, "E": self.E, "Q": self.Q},
            "D_exponents": list(self.D_exponents),
            "tau": list(self.tau),
            "complementary_basis_slots": [i + 1 for i in self.complementary],
            "group_law": [to_string(m) for m in self.mult],
            "theta": [to_string(t) for t in self.theta],
            "theta_inverse": [to_string(t) for t in self.theta_inv],
            "lifted_fields": [X.describe() for X in self.lifted_fields],
            "shear": [to_string(s) for s in self.shear],
        }
        return json.dumps(doc, sort_keys=True, indent=2)


def evaluation_map(basis: LieBasis, delta: DilationFamily) -> List[Poly]:
    """F(w) = time-1 flow of Sum w_k W_k from the origin, as N-variable polys."""
    n, N = basis.nvars, basis.N
    nv = n + N
    coeffs = [Poly.zero(nv) for _ in range(nv)]
    for k, W in enumerate(basis.W):
        wk = Poly.var(nv, n + k)
        for j in range(n):
            coeffs[j] = coeffs[j] + wk * embed(W.coeffs[j], nv)
    V = PolyVectorField(nv, tuple(coeffs))
    cap = sum(delta.sigma) + 2
    series = flow_map(V, range(n), cap)
    images = [Poly.zero(N)] * n + [Poly.var(N, k) for k in range(N)]
    return [substitute(s, images) for s in series]


def _theta_for(F: List[Poly], comp: Sequence[int], shear: Sequence[Poly],
               n: int, N: int) -> List[Poly]:
    """Theta(w) = (F(w), w_comp + shear(F(w)))."""
    theta = list(F)
    for j, slot in enumerate(comp):
        extra = Poly.var(N, slot)
        if not shear[j].is_zero():
            extra = extra + substitute(shear[j], F)
        theta.append(extra)
    return theta


def _push_fields(group: GroupLaw, gen_slots: Sequence[int], theta: Sequence[Poly],
                 theta_inv: Sequence[Poly], degrees: Sequence[int]) -> List[PolyVectorField]:
    out = []
    for k in gen_slots:
        Lk = group.left_fields[k]
        coeffs = tuple(substitute(field_apply(Lk, tj), list(theta_inv)) for tj in theta)
        out.append(PolyVectorField(group.N, coeffs, Lk.declared_degree))
    return out


def _shear_candidates(delta: DilationFamily, tau_j: int) -> List[Poly]:
    """All monic x-monomials of graded degree tau_j, in canonical order."""
    n = delta.nvars
    found: List[Tuple[int, ...]] = []

    def rec(idx: int, remaining: int, expo: List[int]) -> None:
        if idx == n:
            if remaining == 0:
                found.append(tuple(expo))
            return
        s = delta.sigma[idx]
        for e in range(remaining // s + 1):
            expo.append(e)
            rec(idx + 1, remaining - e * s, expo)
            expo.pop()
    rec(0, tau_j, [])
    found.sort()
    return [Poly.monomial(n, f) for f in found if any(f)]


def build_lifting(basis: LieBasis, sc: StructureConstants,
                  delta: DilationFamily,
                  step: Optional[int] = None) -> LiftedSystem:
    """Construct and verify the lifted homogeneous system; ``step`` as for
    build_group."""
    n, N = basis.nvars, basis.N
    p = N - n
    if p < 1:
        raise ValueError("lifting requires p = N - n >= 1 (the algebra adds no "
                         "new directions; nothing to lift)")
    origin = [Fraction(0)] * n
    if hormander_rank(basis, origin) != n:
        raise ValueError("bracket-generating condition fails at the origin")

    group = build_group(basis, sc, step)
    F = evaluation_map(basis, delta)
    gen_slots = list(basis.generator_indices)

    # complementary coordinate search: first subset giving constant Jacobian
    chosen = None
    for comp in combinations(range(N), p):
        tau = tuple(basis.degrees[i] for i in comp)
        theta0 = _theta_for(F, comp, [Poly.zero(n)] * p, n, N)
        J = [[poly_diff(t, j) for j in range(N)] for t in theta0]
        det = constant_value(poly_det(J))
        if det is not None and det != 0:
            chosen = (comp, tau, theta0, det)
            break
    if chosen is None:
        raise ValueError("no complementary coordinate subset yields a constant "
                         "Jacobian; search exhausted")
    comp, tau, theta0, det0 = chosen
    z_degrees = tuple(delta.sigma) + tau

    theta_inv0 = invert_graded_map(theta0, basis.degrees, z_degrees)
    lifted0 = _push_fields(group, gen_slots, theta0, theta_inv0, z_degrees)

    base_fields = tuple(basis.W[k] for k in gen_slots)
    shear = _select_shear(base_fields, lifted0, delta, tau, n, N)

    if all(s.is_zero() for s in shear):
        theta, theta_inv, lifted = theta0, theta_inv0, lifted0
    else:
        theta = _theta_for(F, comp, shear, n, N)
        theta_inv = invert_graded_map(theta, basis.degrees, z_degrees)
        lifted = _push_fields(group, gen_slots, theta, theta_inv, z_degrees)

    # transported group law and inverse in lifted coordinates
    two = Poly.variables(2 * N)
    inv_images_a = substitute_many(theta_inv, list(two[:N]))
    inv_images_b = substitute_many(theta_inv, list(two[N:]))
    mult_w_ab = substitute_many(group.mult, inv_images_a + inv_images_b)
    mult_z = tuple(substitute_many(theta, mult_w_ab))
    inv_w = substitute_many(group.inverse, theta_inv)
    inverse_z = tuple(substitute_many(theta, inv_w))

    lifted_system = LiftedSystem(
        base_delta=delta, base_fields=base_fields, basis=basis, sc=sc,
        group_w=group, theta=tuple(theta), theta_inv=tuple(theta_inv),
        mult=mult_z, inverse=inverse_z, lifted_fields=tuple(lifted),
        D_exponents=z_degrees, complementary=tuple(comp), tau=tau,
        shear=tuple(shear), n=n, p=p, N=N,
        q=delta.q, E=sum(tau), Q=delta.q + sum(tau))
    _verify_lifting(lifted_system)
    return lifted_system


def _select_shear(base_fields: Sequence[PolyVectorField],
                  lifted0: Sequence[PolyVectorField],
                  delta: DilationFamily, tau: Tuple[int, ...],
                  n: int, N: int) -> List[Poly]:
    """Smallest canonical shear making every residual nonzero."""
    p = N - n

    def residual_ok(shear: List[Poly]) -> bool:
        # xi_j-coefficient after the shear: R_ij(x, xi - s(x)) + X_i(s_j)(x)
        images = [Poly.var(N, k) for k in range(n)]
        for j in range(p):
            images.append(Poly.var(N, n + j) - embed(shear[j], N))
        for X, Xt in zip(base_fields, lifted0):
            nonzero = False
            for j in range(p):
                rij = Xt.coeffs[n + j]
                new_coeff = substitute(rij, images) + embed(field_apply(X, shear[j]), N)
                if not new_coeff.is_zero():
                    nonzero = True
                    break
            if not nonzero:
                return False
        return True

    zero_shear = [Poly.zero(n)] * p
    if residual_ok(zero_shear):
        return zero_shear
    candidates = []
    for j in range(p):
        for mono in _shear_candidates(delta, tau[j]):
            candidates.append((j, mono))
    for j, mono in candidates:
        trial = list(zero_shear)
        trial[j] = mono
        if residual_ok(trial):
            return trial
    for (j1, m1), (j2, m2) in combinations(candidates, 2):
        trial = list(zero_shear)
        trial[j1] = trial[j1] + m1
        trial[j2] = trial[j2] + m2
        if residual_ok(trial):
            return trial
    raise ValueError("no canonical shear makes every lift residual nonzero")


def _verify_lifting(L: LiftedSystem) -> None:
    n, N, p = L.n, L.N, L.p
    # residuals: x-free and nonzero
    for i, R in enumerate(L.residuals()):
        for j in range(n):
            if not R.coeffs[j].is_zero():
                raise ValueError(f"lift residual R{i + 1} acts on base coordinate "
                                 f"x{j + 1}; construction bug")
        if R.is_zero():
            raise ValueError(f"lift residual R{i + 1} is identically zero")
    # homogeneity of the lifted fields under the lifted dilations
    Ddelta = DilationFamily(L.D_exponents)
    for i, Xt in enumerate(L.lifted_fields):
        nu, _ = certify_homogeneity_report(Xt, Ddelta, triangular=False)
        if nu != L.base_fields[i].declared_degree:
            raise ValueError(f"lifted field {i + 1} is not homogeneous of the "
                             "original degree")


def lift_identity_check(L: OperatorSpec, lifted: LiftedSystem, u: Poly) -> bool:
    """True iff Ltilde(u o pi_n) equals (L u) o pi_n as exact polynomials."""
    if u.nvars != lifted.n:
        raise ValueError("test polynomial must live on the base space")
    Lt = L.with_fields(lifted.lifted_fields)
    lhs = Lt.apply(embed(u, lifted.N))
    rhs = embed(L.apply(u), lifted.N)
    return lhs == rhs


# -- slice diffeomorphisms -----------------------------------------------------

@dataclass(frozen=True)
class SliceMaps:
    """Psi and Phi slice maps in symbolic variables (x, y, xi)."""

    psi: Tuple[Poly, ...]   # p polynomials in (x, y, xi)
    phi: Tuple[Poly, ...]
    det_psi: Scalar
    det_phi: Scalar


def slice_diffeos(lifted: LiftedSystem) -> SliceMaps:
    """The xi-slice changes of variable and their (constant) Jacobians.

    Psi_{x,y}(xi) = pi_p((y,0)^{-1} * (x,xi)) and
    Phi_{x,y}(zeta) = pi_p((y,0) * (y,zeta)^{-1} * (x,0)); both must have
    constant Jacobian determinant +-1 in xi, and Phi satisfies
    (y,0)^{-1} * (x, Phi(zeta)) = (y,zeta)^{-1} * (x,0) exactly.
    """
    n, p, N = lifted.n, lifted.p, lifted.N
    nv = 2 * n + p
    allv = Poly.variables(nv)
    x = list(allv[:n])
    y = list(allv[n:2 * n])
    xi = list(allv[2 * n:])
    zero_xi = [Poly.zero(nv)] * p

    inv_y0 = substitute_many(lifted.inverse, y + zero_xi)
    psi_full = substitute_many(lifted.mult, inv_y0 + x + xi)
    psi = tuple(psi_full[n:])

    inv_yxi = substitute_many(lifted.inverse, y + xi)
    a = substitute_many(lifted.mult, y + zero_xi + inv_yxi)
    b = substitute_many(lifted.mult, a + x + zero_xi)
    phi = tuple(b[n:])

    def xi_jacobian_det(maps: Tuple[Poly, ...]) -> Scalar:
        J = [[poly_diff(m, 2 * n + j) for j in range(p)] for m in maps]
        det = constant_value(poly_det(J))
        if det is None or abs(det) != 1:
            raise ValueError("slice map Jacobian determinant is not the constant +-1")
        return det

    det_psi = xi_jacobian_det(psi)
    det_phi = xi_jacobian_det(phi)

    # exact identity: (y,0)^{-1} * (x, Phi(zeta)) == (y,zeta)^{-1} * (x,0)
    lhs = substitute_many(lifted.mult, inv_y0 + x + list(phi))
    rhs = substitute_many(lifted.mult, inv_yxi + x + zero_xi)
    if lhs != rhs:
        raise ValueError("slice change-of-variable identity fails; lifting bug")
    return SliceMaps(psi, phi, det_psi, det_phi)


# -- saturability (S1) ----------------------------------------------------------

@dataclass(frozen=True)
class S1Row:
    alpha: Tuple[int, ...]
    beta: Tuple[int, ...]
    coeff: str
    xi_weight_max: int
    xi_weight_bound: int
    ok: bool


@dataclass(frozen=True)
class S1Report:
    rows: Tuple[S1Row, ...]
    all_differentiate_in_xi: bool
    degree_bounds_hold: bool

    @property
    def ok(self) -> bool:
        return self.all_differentiate_in_xi and self.degree_bounds_hold


def saturable_check(L: OperatorSpec, lifted: LiftedSystem) -> S1Report:
    """Expand R* = (Ltilde)* - L* and check the saturability structure.

    Every summand must differentiate at least once in xi, and the coefficient
    of D_x^alpha D_xi^beta may contain xi-monomials of E-weighted degree at
    most H_E(beta) - 1.
    """
    n, N, p = lifted.n, lifted.N, lifted.p
    Lt = L.with_fields(lifted.lifted_fields)
    Lt_star = operator_transpose(Lt).expand()
    L_star_base = operator_transpose(L).expand()
    L_star = ScalarOperator(N, {g + (0,) * p: embed(a, N)
                                for g, a in L_star_base.terms.items()})
    R_star = Lt_star.sub(L_star)

    rows: List[S1Row] = []
    all_xi = True
    bounds = True
    for gamma in sorted(R_star.terms, key=lambda t: (sum(t), t), reverse=True):
        alpha, beta = gamma[:n], gamma[n:]
        coeff = R_star.terms[gamma]
        if all(b == 0 for b in beta):
            all_xi = False
            rows.append(S1Row(alpha, beta, to_string(coeff), -1, -1, False))
            continue
        h_beta = sum(b * t for b, t in zip(beta, lifted.tau))
        bound = h_beta - 1
        xi_max = 0
        for mono in coeff.terms:
            w = sum(e * t for e, t in zip(mono[n:], lifted.tau))
            xi_max = max(xi_max, w)
        ok = xi_max <= bound
        bounds = bounds and ok
        rows.append(S1Row(alpha, beta, to_string(coeff), xi_max, bound, ok))
    return S1Report(tuple(rows), all_xi, bounds)


# -- homogeneous norms -----------------------------------------------------------

@dataclass(frozen=True)
class HomNorm:
    """The canonical gauge rho(v) = Sum |v_i|^{1/e_i}."""

    exponents: Tuple[int, ...]

    def __call__(self, v: Sequence) -> float:
        if len(v) != len(self.exponents):
            raise ValueError("dimension mismatch")
        return float(sum(abs(float(vi)) ** (1.0 / e)
                         for vi, e in zip(v, self.exponents)))
