"""Global fundamental solutions by the saturation integral over the lift.

Gamma(x, y) integrates the lifted kernel over the complementary variables,
after the unimodular slice change of variable that places the fiber gauge
directly on the integration variable.  The kernel and its derivatives are
exact jets (see kernels.py), evaluated along each fiber as polynomials in
the fiber variable.  The core and both whole tails, the tails in the
reciprocal of the fiber variable out to infinity, are integrated by one
vectorised Gauss-Kronrod panel rule.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from .fields import (
    OperatorSpec,
    chain_jet,
    multiindex_weight,
    operator_transpose,
)
from .kernels import KernelSpec
from .lifting import (
    LiftedSystem,
    exp_flow,
    invert_graded_map,
)
from .poly import _EVAL_BLOCK, CompiledPolys, Poly, poly_diff, substitute_many


class ExistenceError(ValueError):
    """Raised when no dilation-homogeneous global fundamental solution exists."""


def require_existence(nu: int, q: int) -> None:
    """Raise ExistenceError unless nu < q, the existence hypothesis for a
    dilation-homogeneous global fundamental solution of an operator of
    order nu on a space of homogeneous dimension q."""
    if nu >= q:
        raise ExistenceError(
            f"operator order nu={nu} is not below the homogeneous "
            f"dimension q={q}; the existence hypothesis nu < q for "
            "a homogeneous global fundamental solution fails")


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class GammaRecord:
    value: float
    error_bound: float
    tail_bound: float    # the tail panels' share of error_bound
    method: str          # "exact" sensitivities or "fd" fallback
    route: str           # "plain" kernel or "star" (transposed) kernel
    word: Tuple[int, ...]


# -- smooth flat-top bumps ------------------------------------------------------

@lru_cache(maxsize=None)
def smoothstep_coeffs(order: int) -> Tuple[Fraction, ...]:
    """Exact coefficients, lowest power of t first, of the polynomial
    smoothstep: 0 at t=0, 1 at t=1, C^order at both joins.

    s(t) = t^(m+1) Sum_k C(m+k, k) C(2m+1, m-k) (-t)^k with m = order.
    """
    m = order
    return (Fraction(0),) * (m + 1) + tuple(
        Fraction((-1) ** k * math.comb(m + k, k) * math.comb(2 * m + 1, m - k))
        for k in range(m + 1))


@lru_cache(maxsize=None)
def _profile_in_u(order: int, ks: Tuple[int, ...]) -> CompiledPolys:
    """The derivatives d^k/du^k, k in ks, of the profile 1 - smoothstep
    written in u = 2t - 1, compiled together.

    On the centred variable the coefficients stay small (|c| < 25 at order
    9, against 8e6 in powers of t), so values and derivatives evaluate to
    double precision without cancellation.
    """
    # t^j = (u + 1)^j / 2^j, expanded exactly over the common denominator
    c = smoothstep_coeffs(order)
    top = len(c) - 1
    g = Poly.const(1, 1) - Poly(1, {(i,): Fraction(sum(
        int(c[j]) * math.comb(j, i) << (top - j) for j in range(i, top + 1)),
        1 << top) for i in range(top + 1)})
    derivatives = []
    for k in ks:
        d = g
        for _ in range(k):
            d = poly_diff(d, 0)
        derivatives.append(d)
    return CompiledPolys(derivatives)


@dataclass(frozen=True)
class BumpSpec:
    """Flat-top bump: 1 inside the flat radius, 0 outside the support radius.

    The bump is h(s) of s = |z - center|^2, with h a polynomial on the
    annulus flat_radius^2 < s < support_radius^2.  Polynomial joins make the
    function vanish identically, not merely approximately, outside the
    support, and all derivatives vanish on the flat top.
    """

    center: Tuple[float, ...]
    flat_radius: float = 1.0
    support_radius: float = 2.0
    order: int = 9

    def __post_init__(self) -> None:
        if not 0 < self.flat_radius < self.support_radius:
            raise ValueError("need 0 < flat_radius < support_radius")

    def profile_derivatives(self, ks: Tuple[int, ...],
                            s: np.ndarray) -> np.ndarray:
        """h^(k)(s) for k in ks, rows (len(ks), M), on the annulus."""
        a2, b2 = self.flat_radius ** 2, self.support_radius ** 2
        half = 0.5 * (b2 - a2)
        u = (s - 0.5 * (a2 + b2)) / half
        return _profile_in_u(self.order, ks)(u[None]) \
            / half ** np.array(ks, dtype=float)[:, None]

    def __call__(self, point: Sequence[float]) -> float:
        r2 = sum((v - c) ** 2 for v, c in zip(point, self.center))
        if r2 <= self.flat_radius ** 2:
            return 1.0
        if r2 >= self.support_radius ** 2:
            return 0.0
        return float(self.profile_derivatives((0,), np.array([r2]))[0, 0])

    def box(self) -> List[Tuple[float, float]]:
        b = self.support_radius
        return [(c - b, c + b) for c in self.center]


def bump_jet(op: OperatorSpec, center: Sequence[float]) -> Dict[int, Poly]:
    """Exact P_k with op(h(s)) = Sum_k h^(k)(s) * P_k(z), s = |z - center|^2,
    for every smooth profile h (see chain_jet)."""
    n = op.nvars
    s = sum((z - Fraction(c)) ** 2 for z, c in zip(Poly.variables(n), center))
    return chain_jet(op.fields, op.terms, s)


# -- composite Gauss-Legendre rules ----------------------------------------------

def _gl_rules(bounds: Sequence[Tuple[float, float]], panels: int,
              nodes: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per axis [lo, hi], the nodes and weights of the composite GL rule."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    rules = []
    for lo, hi in bounds:
        edges = np.linspace(lo, hi, panels + 1)
        c = 0.5 * (edges[:-1] + edges[1:])[:, None]
        h = 0.5 * (edges[1:] - edges[:-1])[:, None]
        rules.append(((c + h * x).ravel(), (h * w).ravel()))
    return rules


def tensor_gl_grid(bounds: Sequence[Tuple[float, float]], panels: int,
                   nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened points (M, dim) and weights (M,) of a composite GL rule."""
    axes, wts = zip(*_gl_rules(bounds, panels, nodes))
    grids = np.meshgrid(*axes, indexing="ij")
    weight = np.ones(())
    for w in wts:
        weight = np.multiply.outer(weight, w)
    return np.stack([g.ravel() for g in grids], axis=-1), weight.ravel()


def _annulus_rule(bump: BumpSpec, panels: int,
                  nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """The points (M, dim) and weights (M,) of tensor_gl_grid on the bump's
    box that lie in the open annulus, where op* bump can be nonzero.

    The grid of the leading axes is built once and sorted by its squared
    radius; each slab of the last axis keeps one run of it, found by
    bisection, so the full grid is never built.  Radii, weights and the
    annulus test round exactly as on the full grid.
    """
    rules = _gl_rules(bump.box(), panels, nodes)
    squares = [(x - c) ** 2 for (x, _), c in zip(rules, bump.center)]
    # the leading grid has a first axis of length 1, so that it has one
    # point even in one dimension
    lead_r2, lead_w = np.zeros(1), np.ones(1)
    for q, (_, w) in zip(squares[:-1], rules[:-1]):
        lead_r2 = np.add.outer(lead_r2, q)
        lead_w = np.multiply.outer(lead_w, w)
    order = np.argsort(lead_r2, axis=None)
    lead = np.array([x[i] for (x, _), i in zip(
        rules, np.unravel_index(order, lead_r2.shape)[1:])]
    ).reshape(-1, len(order))
    lead_r2, lead_w = lead_r2.ravel()[order], lead_w.ravel()[order]
    a2, b2 = bump.flat_radius ** 2, bump.support_radius ** 2
    runs = []
    for q in squares[-1]:
        r2 = lead_r2 + q
        runs.append((np.searchsorted(r2, a2, "right"),
                     np.searchsorted(r2, b2, "left")))
    pts = np.empty((len(rules), sum(hi - lo for lo, hi in runs)))
    weight = np.empty(pts.shape[1])
    end = 0
    for (lo, hi), x, w in zip(runs, *rules[-1]):
        start, end = end, end + hi - lo
        pts[:-1, start:end] = lead[:, lo:hi]
        pts[-1, start:end] = x
        np.multiply(lead_w[lo:hi], w, out=weight[start:end])
    return pts.T, weight


# -- kernel calibration ----------------------------------------------------------

def jet_values(jet: Dict[int, Poly], bump: BumpSpec,
               pts: np.ndarray) -> np.ndarray:
    """Sum_k h^(k)(s) P_k(z) at points (M, dim) inside the bump's annulus,
    evaluated in blocks of _EVAL_BLOCK points."""
    polys = CompiledPolys(list(jet.values()))
    center = np.asarray(bump.center)[:, None]
    out = np.empty(len(pts))
    for lo in range(0, len(pts), _EVAL_BLOCK):
        z = pts[lo:lo + _EVAL_BLOCK].T
        s = ((z - center) ** 2).sum(axis=0)
        out[lo:lo + _EVAL_BLOCK] = (bump.profile_derivatives(tuple(jet), s)
                                    * polys(z)).sum(axis=0)
    return out


def _star_bump_quadrature(jet: Dict[int, Poly], bump: BumpSpec, panels: int,
                          nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Grid points where (op* bump) can be nonzero, with weights w * (op* bump).

    ``jet`` is bump_jet of op*; op* bump vanishes off the open annulus, where
    the bump is constant.
    """
    pts, wts = _annulus_rule(bump, panels, nodes)
    wts *= jet_values(jet, bump, pts)
    return pts, wts


def _weighted_sum(fn: Callable[[np.ndarray], np.ndarray], pts: np.ndarray,
                  weights: np.ndarray) -> float:
    """Sum of fn * weights over points (M, dim), fn taking (dim, block)
    columns, in blocks of _EVAL_BLOCK points."""
    return sum(float(fn(pts[lo:lo + _EVAL_BLOCK].T)
                     @ weights[lo:lo + _EVAL_BLOCK])
               for lo in range(0, len(pts), _EVAL_BLOCK))


def calibration_residuals(kernel: KernelSpec, op_lifted: OperatorSpec,
                          poles: Optional[Sequence[Sequence[float]]] = None,
                          bump: Optional[BumpSpec] = None,
                          panels: int = 6, nodes: int = 10) -> List[float]:
    """|integral of kernel((pole)^{-1} z) (op* bump)(z) dz + bump(pole)|.

    The integral identity that defines a fundamental solution, tested at
    several poles inside the flat top of the bump.
    """
    lifted = kernel.lifted
    if bump is None:
        bump = BumpSpec((0.0,) * lifted.N)
    if poles is None:
        poles = _default_poles(lifted, bump)
    jet = bump_jet(operator_transpose(op_lifted), bump.center)
    pts, gw = _star_bump_quadrature(jet, bump, panels, nodes)
    mult, shape = CompiledPolys(lifted.mult), kernel.shape_fn()
    out = []
    for pole in poles:
        # shape(pole^{-1} * z), via the exact group operations
        inv_pole = np.array([float(v) for v in lifted.inverse_eval(
            [Fraction(v) for v in pole])])[:, None]
        val = kernel.calibration_constant * _weighted_sum(
            lambda z: shape(mult(np.vstack(
                [np.broadcast_to(inv_pole, z.shape), z]))), pts, gw)
        out.append(abs(val + bump(pole)))
    return out


def _default_poles(lifted: LiftedSystem, bump: BumpSpec) -> List[List[float]]:
    r = 0.4 * bump.flat_radius
    zero = [float(c) for c in bump.center]
    p1 = list(zero)
    p1[0] += r
    p2 = list(zero)
    p2[-1] -= r
    return [zero, p1, p2]


def kernel_calibrate(shape: KernelSpec, lifted: LiftedSystem,
                     op_lifted: OperatorSpec,
                     bump: Optional[BumpSpec] = None,
                     panels: int = 6, nodes: int = 10,
                     check_tol: float = 1e-4) -> KernelSpec:
    """Fix the kernel constant by the left-inverse identity at the origin.

    Enforces integral(kernel * (op* bump)) = -bump(0) numerically, with a
    refined-grid consistency check as the oracle for quadrature quality.
    """
    if shape.lifted is not lifted:
        raise ValueError("kernel shape was built for a different lifting")
    if bump is None:
        bump = BumpSpec((0.0,) * lifted.N)
    jet = bump_jet(operator_transpose(op_lifted), bump.center)
    fn = shape.shape_fn()
    integral, integral2 = (
        _weighted_sum(fn, *_star_bump_quadrature(jet, bump, p, n))
        for p, n in ((panels, nodes), (panels + 2, nodes + 2)))
    gap = abs(integral - integral2) / abs(integral2) if integral2 else math.inf
    if abs(integral) < 1e-12 or not gap <= check_tol:
        raise ValueError(
            f"calibration identity failed to converge: the {panels}x{nodes} "
            f"rule gives {integral:.12g} and the {panels + 2}x{nodes + 2} "
            f"rule {integral2:.12g}, a relative gap of {gap:.3g} against "
            f"check_tol {check_tol:.3g}; the kernel shape does not "
            "left-invert this operator")
    c = -bump((0.0,) * lifted.N) / integral2
    return shape.with_constant(c)


# -- the vectorised panel rule ----------------------------------------------------

# the 21-point Gauss-Kronrod rule on [-1, 1] with its embedded 10-point Gauss
# rule (the QUADPACK qk21 constants): nonnegative nodes, outermost first
_KRONROD_HALF = (
    (0.995657163025808080735527280689003, 0.011694638867371874278064396062192),
    (0.973906528517171720077964012084452, 0.032558162307964727478818972459390),
    (0.930157491355708226001207180059508, 0.054755896574351996031381300244580),
    (0.865063366688984510732096688423493, 0.075039674810919952767043140916190),
    (0.780817726586416897063717578345042, 0.093125454583697605535065465083366),
    (0.679409568299024406234327365114874, 0.109387158802297641899210590325805),
    (0.562757134668604683339000099272694, 0.123491976262065851077600525452578),
    (0.433395394129247190799265943165784, 0.134709217311473325928054001771707),
    (0.294392862701460198131126603103866, 0.142775938577060080797094273138717),
    (0.148874338981631210884826001129720, 0.147739104901338491374841515972068),
    (0.0, 0.149445554002916905664936468389821))
_GAUSS_HALF = (0.066671344308688137593568809893332,
               0.149451349150580593145776339657697,
               0.219086362515982043995534934228163,
               0.269266719309996355091226921569469,
               0.295524224714752870173892994651338)
_NODES = np.array([-x for x, _ in _KRONROD_HALF[:-1]]
                  + [x for x, _ in reversed(_KRONROD_HALF)])
# columns: the Kronrod weights, and the Gauss weights on every other node
_RULE_WEIGHTS = np.zeros((21, 2))
_RULE_WEIGHTS[:, 0] = [w for _, w in _KRONROD_HALF[:-1]] \
    + [w for _, w in reversed(_KRONROD_HALF)]
_GAUSS_NODES = slice(1, 20, 2)
_RULE_WEIGHTS[_GAUSS_NODES, 1] = _GAUSS_HALF + _GAUSS_HALF[::-1]
# panels per call of the integrand: bounds its temporaries to stay in cache
_CHUNK = 512
_EPS = np.finfo(float).eps
# QUADPACK's floor on a panel's error estimate, relative to the integral of |f|
_ROUNDING = 50.0 * _EPS
# the saturation integral's tolerances (a call may ask for another relative
# one) and its cap on bisections per integral
_REL_TOL = 1e-8
_ABS_TOL = 1e-12
_MAX_BISECTIONS = 200
# the core's half-width r0 in units of g0
_CORE_RADIUS_FACTOR = 8.0
# starting layouts (core, tails): the core's panel edges on each side of
# zeta = 0 inside _CORE_RADIUS_FACTOR, in units of g0, where the integrand's
# features lie, and the tails' edges in u = 1/zeta from u = 0, in units of
# 1/r0.  A single pair costs per pass of the rule, so it starts on fine
# panels that seldom need a second pass (1.05 passes per integral on pairs
# drawn like the bench's, 1.31 with edges at 0.5, 1, 2, 4 only); a batch
# costs per node, so it starts on coarse ones.  _SPLIT_TAILS cuts each
# tail's panel in two at |u| = 1/(8 r0), for tail_doubling_check
_CORE_LAYOUT = ((0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0), (0.0, 1.0))
_BATCH_LAYOUT = ((2.0,), (0.0, 1.0))
_SPLIT_TAILS = (_CORE_LAYOUT[0], (0.0, 0.125, 1.0))


class PanelSums(NamedTuple):
    """Per starting panel of panel_integral: the integral over it and its
    error estimate."""

    value: np.ndarray
    error: np.ndarray


def panel_integral(f: Callable[[np.ndarray, np.ndarray],
                              Tuple[np.ndarray, np.ndarray]],
                   lo: np.ndarray, hi: np.ndarray, owner: np.ndarray,
                   eps_abs: float, eps_rel: float, limit: int) -> PanelSums:
    """Adaptive integrals over the panels [lo_k, hi_k], one per owner.

    Every panel carries the 21-point Gauss-Kronrod value and its embedded
    10-point Gauss value.  Its error estimate is their difference, but no
    less than the rounding in the Kronrod sum of |f|, plus the Gauss sum of
    the error in evaluating f.
    While an owner's summed error exceeds max(eps_abs, eps_rel * |its
    value|), its panels whose quadrature error passes their share of that
    tolerance (in proportion to width) are bisected.  owner must be sorted.
    f(t, rows) maps nodes (K, 21) of K panels, descended from the starting
    panels rows, to values (K, 21) and a bound (K, 10) on their evaluation
    error at the Gauss nodes; one pass calls it for the open panels of
    every owner together.  Warns with
    an IntegrationWarning when an owner does not reach its tolerance within
    `limit` bisections, its evaluation error alone passes the tolerance
    (bisection cannot help), or a value is not finite.
    """
    count = len(lo)
    owners = int(owner[-1]) + 1
    rows = np.arange(count)
    value = error = noise_done = spent = width = given_up = None
    while True:
        half = 0.5 * (hi - lo)
        t = (lo + half)[:, None] + half[:, None] * _NODES
        if len(t) > _CHUNK:
            parts = [f(t[k:k + _CHUNK], rows[k:k + _CHUNK])
                     for k in range(0, len(t), _CHUNK)]
            samples = np.concatenate([v for v, _ in parts])
            slips = np.concatenate([e for _, e in parts])
        else:
            samples, slips = f(t, rows)
        rules = samples @ _RULE_WEIGHTS
        rules *= half[:, None]
        fine = rules[:, 0]
        # no estimate below the rounding in the sum of |f|: the floor that
        # makes an integral cancelling far beyond its tolerance report so
        mass = (np.abs(samples) @ _RULE_WEIGHTS[:, 0]) * half
        quad = np.maximum(np.abs(fine - rules[:, 1]), _ROUNDING * mass)
        noise = (slips @ _RULE_WEIGHTS[_GAUSS_NODES, 1]) * half
        err = quad + noise
        if given_up is None:                            # the first pass
            value_now, error_now = fine, err
        else:
            value_now = value + np.bincount(rows, fine, count)
            error_now = error + np.bincount(rows, err, count)
        total_err = np.bincount(owner, error_now, owners)
        tol = np.maximum(eps_abs, eps_rel * np.abs(
            np.bincount(owner, value_now, owners)))
        unmet = total_err > tol
        finite = np.isfinite(total_err)
        if given_up is None:
            if not unmet.any() and finite.all():
                return PanelSums(value_now, error_now)
            value, error = np.zeros(count), np.zeros(count)
            noise_done = np.zeros(owners)       # of the accepted panels
            spent = np.zeros(owners, dtype=int)             # bisections
            width = np.bincount(owner, hi - lo, owners)
            given_up = np.zeros(owners, dtype=bool)
        own = owner[rows]
        bad = (unmet & ~given_up)[own] \
            & (quad > tol[own] * (hi - lo) / width[own])
        # an unmet owner with every panel inside its share bisects its worst
        stuck = unmet & ~given_up & (np.bincount(own[bad], minlength=owners)
                                     == 0)
        if stuck.any():
            worst = np.zeros(owners)
            np.maximum.at(worst, own, quad)
            bad |= stuck[own] & (quad == worst[own])
        more = np.bincount(own[bad], minlength=owners)
        # bisection cannot help an owner whose quadrature is resolved and
        # whose evaluation error alone passes the tolerance
        noise_total = noise_done + np.bincount(own, noise, owners)
        noisy = unmet & (noise_total >= tol) & (total_err - noise_total <= tol)
        quit = (spent + more > limit) | ~finite | noisy
        if (quit & ~given_up).any():
            # scipy's class, which callers filter on; imported only here
            # because scipy.integrate costs most of a cold start
            from scipy.integrate import IntegrationWarning
            k = int(np.argmax(quit & ~given_up))
            warnings.warn(
                f"panel rule: {int(np.sum(quit & ~given_up))} of {owners} "
                f"integrals missed the tolerance within {limit} bisections, "
                f"by their evaluation error, or are not finite (error "
                f"estimate {total_err[k]:.3g}, tolerance {tol[k]:.3g})",
                IntegrationWarning, stacklevel=4)
            given_up |= quit
            bad &= ~quit[own]
        good = ~bad
        value += np.bincount(rows[good], fine[good], count)
        error += np.bincount(rows[good], err[good], count)
        noise_done += np.bincount(own[good], noise[good], owners)
        if not bad.any():
            return PanelSums(value, error)
        spent += np.where(quit, 0, more)
        mid = lo[bad] + half[bad]
        lo = np.stack([lo[bad], mid], 1).ravel()
        hi = np.stack([mid, hi[bad]], 1).ravel()
        rows = np.repeat(rows[bad], 2)


# -- the saturation evaluator ------------------------------------------------------

def _start_panels(layout: Tuple[Tuple[float, ...], Tuple[float, ...]],
                  factor: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pair's starting panels (lo, hi, is_tail) of a layout (splits,
    tails): the core's edges at +-splits and +-factor in units of g0, then
    the tails' at -tails and tails in units of 1/r0."""
    splits, tails = layout
    right = [v for v in splits if v < factor] + [factor]
    edges = [-v for v in reversed(right)] + [0.0] + right
    left = [-v for v in reversed(tails)]
    lo = edges[:-1] + left[:-1] + list(tails[:-1])
    return (np.array(lo), np.array(edges[1:] + left[1:] + list(tails[1:])),
            np.arange(len(lo)) >= len(edges) - 1)


def _int_power(x: np.ndarray, k: int) -> np.ndarray:
    """x^k for an integer k >= 1, by squaring: cheaper than a float power
    on large arrays."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if k:
            x = x * x
    return out


def _horner(coeffs: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Sum_j coeffs[:, j] * zeta^j, coefficients broadcast against zeta."""
    z = coeffs[:, -1] * zeta
    for j in range(coeffs.shape[1] - 2, -1, -1):
        z += coeffs[:, j]
        if j:
            z *= zeta
    return z


class SaturationEvaluator:
    """Evaluate Gamma and its derivatives by integrating the lifted kernel.

    Requires the operator order nu to be strictly below the homogeneous
    dimension q of the base space: that is the existence hypothesis for a
    dilation-homogeneous global fundamental solution, and construction is
    refused otherwise.
    """

    def __init__(self, lifted: LiftedSystem, operator: OperatorSpec,
                 kernel: KernelSpec) -> None:
        require_existence(operator.nu, lifted.q)
        if kernel.homogeneity_degree != operator.nu - lifted.Q:
            raise ValueError("kernel homogeneity degree does not match nu - Q")
        if lifted.p != 1:
            raise ValueError("the saturation integral runs over one lifted "
                             f"variable; this lifting has p={lifted.p}")
        self.lifted = lifted
        self.operator = operator
        self.kernel = kernel
        self._build_integrand_maps()
        self._layouts = {layout: _start_panels(layout, _CORE_RADIUS_FACTOR)
                         for layout in (_CORE_LAYOUT, _BATCH_LAYOUT, _SPLIT_TAILS)}
        self._roundings: Dict[Tuple[str, Tuple[int, ...]],
                              Tuple[float, np.ndarray]] = {}
        self._integrands: Dict[Tuple[str, Tuple[int, ...]], Callable] = {}

    # -- symbolic assembly ---------------------------------------------------

    def _build_integrand_maps(self) -> None:
        """G(x, y, zeta) = (y,0)^{-1} * (x, psi^{-1}(zeta)), exact polynomials.

        In the zeta coordinate the fiber coordinates of the group element
        are zeta itself (checked below); the change of variable is unimodular
        so values are unchanged.
        """
        lifted = self.lifted
        n, p = lifted.n, lifted.p
        nv = 2 * n + p
        allv = Poly.variables(nv)
        x = list(allv[:n])
        y = list(allv[n:2 * n])
        xi = list(allv[2 * n:])
        zero = [Poly.zero(nv)] * p
        inv_y0 = substitute_many(lifted.inverse, y + zero)
        g_xi = substitute_many(lifted.mult, inv_y0 + x + xi)
        sigma = lifted.base_delta.sigma
        degs = tuple(sigma) + tuple(sigma) + tuple(lifted.tau)
        psi_inv = invert_graded_map(x + y + list(g_xi[n:]), degs, degs)[2 * n:]
        self._g_maps = substitute_many(g_xi, x + y + psi_inv)
        for j in range(p):
            if self._g_maps[n + j] != allv[2 * n + j]:
                raise AssertionError("slice normalization failed; lifting bug")
        # G_i = Sum_j C_ij(x, y) zeta^j with exact C_ij; for one (x, y) the
        # fiber is then a short polynomial curve in zeta, evaluated by Horner
        nxy = 2 * n
        top = max(m[nxy] for g in self._g_maps for m in g.terms)
        parts = [[{} for _ in range(top + 1)] for _ in self._g_maps]
        for row, g in zip(parts, self._g_maps):
            for mono, c in g.terms.items():
                row[mono[nxy]][mono[:nxy]] = c
        self._fiber_coeffs = CompiledPolys(
            [Poly(nxy, t) for row in parts for t in row])
        self._fiber_shape = (len(parts), top + 1)
        self._gauge_powers = 1.0 / np.array(lifted.D_exponents, dtype=float)

    def _fiber(self, xs: np.ndarray, ys: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Coefficients C (N, top + 1, M) of the fibers over M pairs, given
        as arrays (n, M), and the gauge g0 (M,) of each at zeta = 0."""
        coeffs = self._fiber_coeffs(np.vstack([xs, ys])).reshape(
            self._fiber_shape + (xs.shape[1],))
        g0 = (np.abs(coeffs[:, 0]) ** self._gauge_powers[:, None]).sum(0)
        if (g0 <= 0.0).any():
            raise ValueError("pole: the two points coincide (x == y)")
        return coeffs, g0

    def _on_fiber(self, route: str, word: Tuple[int, ...]
                  ) -> Callable[[np.ndarray, np.ndarray],
                                Tuple[np.ndarray, np.ndarray]]:
        """(coeffs, zeta[, at]) -> the calibrated kernel derivative f at
        G(x, y, zeta), and a bound on the error of evaluating it at the
        nodes zeta[..., at] (all by default), with fiber coefficients
        (N, top + 1, ...) that broadcast against zeta.  Built once per route
        and word."""
        key = (route, word)
        if key not in self._integrands:
            self._integrands[key] = self._build_on_fiber(route, word)
        return self._integrands[key]

    def _build_on_fiber(self, route: str, word: Tuple[int, ...]
                        ) -> Callable[[np.ndarray, np.ndarray],
                                      Tuple[np.ndarray, np.ndarray]]:
        fn = self.kernel.jet_fn(word, star=(route == "star"))
        c = self.kernel.calibration_constant
        h = self.kernel.homogeneity_degree - self._word_weight(word)
        s, d = self._rounding_bound(route, word)
        root = -1.0 / float(self.kernel.base_degree)
        # row k - 1 holds D_i for the coordinates of degree k, so that
        # Sum_i D_i size_i / r^d_i is a polynomial in 1/r
        degrees = self.lifted.D_exponents
        by_degree = np.zeros((max(degrees), len(degrees)))
        by_degree[np.array(degrees) - 1, np.arange(len(degrees))] = d

        def values(coeffs: np.ndarray, zeta: np.ndarray, at=slice(None)
                   ) -> Tuple[np.ndarray, np.ndarray]:
            z = _horner(coeffs, zeta)
            f, p = fn(z.reshape(len(z), -1))
            # coordinate i of G is off by up to eps times the size of its
            # Horner sum; with the jet's own rounding that moves f by about
            # eps r^h (S + Sum_i D_i size_i / r^d_i), r = |P|^(1/deg P)
            # (see KernelSpec.rounding_on_gauge_sphere).  Only at zeta[at]
            size = _horner(np.abs(coeffs), np.abs(zeta[..., at]))
            inv = np.abs(p.reshape(z.shape[1:])[..., at]).ravel() ** root
            terms = by_degree @ size.reshape(len(size), -1)
            spread = terms[-1]
            for row in terms[-2::-1]:
                spread = spread * inv + row
            err = _int_power(inv, -h) * (s + spread * inv)
            return c * f.reshape(z.shape[1:]), err.reshape(size.shape[1:])

        return values

    def _rounding_bound(self, route: str, word: Tuple[int, ...]
                        ) -> Tuple[float, np.ndarray]:
        """The route's rounding constants (S, D), times eps and |c|."""
        key = (route, word)
        if key not in self._roundings:
            s, d = self.kernel.rounding_on_gauge_sphere(
                word, route == "star",
                self.kernel.homogeneity_degree - self._word_weight(word))
            scale = _EPS * abs(self.kernel.calibration_constant)
            self._roundings[key] = (scale * s, scale * d)
        return self._roundings[key]

    def _word_weight(self, word: Sequence[int]) -> int:
        return multiindex_weight(word, self.operator.degrees)

    # -- core integration ------------------------------------------------------

    def _saturate(self, route: str, word: Tuple[int, ...], xs: np.ndarray,
                  ys: np.ndarray, rel_tol: Optional[float],
                  layout=_CORE_LAYOUT) -> Tuple[np.ndarray, ...]:
        """Value, error bound and the tail panels' share of that bound (each
        (M,)) of the fiber integrals over M pairs, given as arrays (n, M),
        to rel_tol (_REL_TOL when None).

        One panel_integral covers, per pair, the core [-r0, r0] in zeta
        (edges at multiples of g0, where the integrand's features lie) and
        both whole tails in u = 1/zeta, [-1/r0, 0] and [0, 1/r0], where the
        integrand is smooth up to u = 0.  So one pass evaluates core and
        tails together, out to infinity.
        """
        rel = _REL_TOL if rel_tol is None else rel_tol
        _require_positive("rel_tol", rel)
        coeffs, g0 = self._fiber(xs, ys)
        on_fiber = self._on_fiber(route, word)
        start_lo, start_hi, start_tail = self._layouts[layout]
        pairs, per = len(g0), len(start_tail)
        inv_r0 = 1.0 / (_CORE_RADIUS_FACTOR * g0)
        scale = np.where(start_tail, inv_r0[:, None], g0[:, None])
        owner = np.repeat(np.arange(pairs), per)
        is_tail = np.broadcast_to(start_tail, (pairs, per)).ravel()

        def f(t: np.ndarray, rows: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray]:
            tail = is_tail[rows][:, None]
            zeta = np.where(tail, 1.0 / t, t)
            at = owner[rows] if pairs > 1 else slice(None)
            v, e = on_fiber(coeffs[:, :, at, None], zeta, _GAUSS_NODES)
            jacobian = np.where(tail, zeta * zeta, 1.0)
            return v * jacobian, e * jacobian[:, _GAUSS_NODES]

        sums = panel_integral(f, (scale * start_lo).ravel(),
                              (scale * start_hi).ravel(), owner,
                              _ABS_TOL, rel, _MAX_BISECTIONS)
        error = sums.error.reshape(pairs, per)
        return (sums.value.reshape(pairs, per).sum(axis=1), error.sum(axis=1),
                error[:, start_tail].sum(axis=1))

    def _integral(self, route: str, word: Tuple[int, ...],
                  x: Sequence[float], y: Sequence[float],
                  rel_tol: Optional[float] = None) -> GammaRecord:
        value, error, tail = (float(v[0]) for v in self._saturate(
            route, tuple(word), np.array(x, dtype=float)[:, None],
            np.array(y, dtype=float)[:, None], rel_tol))
        return GammaRecord(value, error, tail, "exact", route, tuple(word))

    # -- public evaluation -----------------------------------------------------

    def gamma_record(self, x: Sequence[float], y: Sequence[float],
                     **kw) -> GammaRecord:
        return self._integral("plain", (), x, y, **kw)

    def gamma_batch(self, xs, ys, rel_tol: Optional[float] = None
                    ) -> GammaRecord:
        """Gamma at M points xs against one y, or at M pairs, in one run of
        the panel rule: the pointwise route's integrals with their own
        tolerances, evaluated together.  The record's numeric fields are
        arrays."""
        xs = np.asarray(xs, dtype=float)
        ys = np.broadcast_to(np.asarray(ys, dtype=float), xs.shape)
        value, error, tail = self._saturate("plain", (), xs.T, ys.T, rel_tol,
                                            _BATCH_LAYOUT)
        return GammaRecord(value, error, tail, "exact", "plain", ())

    def gamma_eval(self, x: Sequence[float], y: Sequence[float]) -> float:
        return self.gamma_record(x, y).value

    def gamma_star_eval(self, x: Sequence[float], y: Sequence[float]) -> float:
        """Fundamental solution of the transposed operator."""
        return self._integral("star", (), x, y).value

    def gamma_x_derivative(self, word: Sequence[int], x: Sequence[float],
                           y: Sequence[float], **kw) -> float:
        return self._integral("plain", tuple(word), x, y, **kw).value

    def gamma_y_derivative(self, word: Sequence[int], x: Sequence[float],
                           y: Sequence[float], **kw) -> float:
        """Derivatives in the second argument, via the transposed kernel."""
        return self._integral("star", tuple(word), y, x, **kw).value

    def gamma_x_derivative_fd(self, word: Sequence[int], x: Sequence[float],
                              y: Sequence[float],
                              step: float = 1e-3) -> GammaRecord:
        """Central-difference fallback along the fields' integral curves.

        Lower accuracy than the exact sensitivities; the record is flagged.
        """
        word = tuple(word)

        def rec(w: Tuple[int, ...], pt: Sequence[float]) -> float:
            if not w:
                return self.gamma_eval(pt, y)
            X = self.lifted.base_fields[w[0]]
            fwd = exp_flow(X, pt, step)
            bwd = exp_flow(X, pt, -step)
            return (rec(w[1:], fwd) - rec(w[1:], bwd)) / (2.0 * step)

        val = rec(word, [float(v) for v in x])
        return GammaRecord(val, abs(val) * step ** 2 + step ** 2, 0.0, "fd",
                           "plain", word)

    # -- verification harnesses --------------------------------------------------

    def verify_homogeneity(self, pairs: Sequence[Tuple[Sequence, Sequence]],
                           lambdas: Sequence[float]) -> float:
        """Max relative deviation from joint scaling of degree nu - q."""
        sigma = self.lifted.base_delta.sigma
        deg = self.operator.nu - self.lifted.q
        worst = 0.0
        for x, y in pairs:
            base = self.gamma_eval(x, y)
            for lam in lambdas:
                xs = [lam ** s * v for s, v in zip(sigma, x)]
                ys = [lam ** s * v for s, v in zip(sigma, y)]
                dev = abs(self.gamma_eval(xs, ys) - lam ** deg * base)
                worst = max(worst, dev / abs(base))
        return worst

    def verify_symmetry(self, pairs: Sequence[Tuple[Sequence, Sequence]],
                        star: bool = False) -> float:
        """Max relative |Gamma(x,y) - Gamma(y,x)| (or against the star route)."""
        worst = 0.0
        for x, y in pairs:
            a = self.gamma_eval(x, y)
            b = self.gamma_star_eval(y, x) if star else self.gamma_eval(y, x)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
        return worst

    def tail_doubling_check(
            self, pairs: Sequence[Tuple[Sequence, Sequence]]
    ) -> List[Tuple[float, float, bool]]:
        """(delta, bound, ok) per pair: doubling each tail's starting panel,
        split in two at |u| = 1/(8 r0), moves Gamma by delta, which must lie
        within the bound, the two values' summed error bounds.  A tail not
        integrated out to u = 0, or wrongly near it, shows as a difference
        between the two layouts."""
        xs, ys = (np.array(v, dtype=float).T for v in zip(*pairs))
        one, one_error, _ = self._saturate("plain", (), xs, ys, None)
        two, two_error, _ = self._saturate("plain", (), xs, ys, None,
                                           _SPLIT_TAILS)
        return [(float(d), float(b), bool(d <= b)) for d, b in
                zip(np.abs(one - two), one_error + two_error)]

    def verify_left_inverse(self, bump: BumpSpec, y: Sequence[float],
                            panels: int = 8, nodes: int = 10,
                            gamma_rel_tol: float = 1e-6) -> float:
        """|integral of Gamma(x, y) (op* bump)(x) dx + bump(y)|."""
        n = self.lifted.n
        if len(bump.center) != n:
            raise ValueError("bump dimension does not match the base space")
        jet = bump_jet(operator_transpose(self.operator), bump.center)
        pts, gws = _star_bump_quadrature(jet, bump, panels, nodes)
        gammas = self.gamma_batch(pts, y, rel_tol=gamma_rel_tol).value
        return abs(float(np.sum(gws * gammas)) + bump([float(v) for v in y]))
