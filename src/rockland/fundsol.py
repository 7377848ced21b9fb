"""Global fundamental solutions by the saturation integral over the lift.

Gamma(x, y) integrates the lifted kernel over the complementary variables,
after the unimodular slice change of variable that places the fiber gauge
directly on the integration variable.  The compact core is integrated
numerically; the improper tail is bounded in closed form by a dyadic-shell
geometric series and never integrated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import sympy as sp
from numpy.polynomial import polynomial as P
from scipy import integrate
from scipy.special import gamma as gamma_fn

from .fields import (
    OperatorSpec,
    certify_homogeneity,
    field_apply,
    operator_transpose,
)
from .kernels import KernelSpec, poly_to_sympy
from .lifting import (
    HomNorm,
    LiftedSystem,
    compose_map,
    exp_flow,
    hom_norm_eval,
    invert_graded_map,
)
from .poly import CompiledPolys, Poly, poly_eval


class ExistenceError(ValueError):
    """Raised when no dilation-homogeneous global fundamental solution exists."""


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    core_radius_factor: float = 8.0
    min_radius_factor: float = 64.0
    sup_samples: int = 2000
    sup_safety: float = 2.0
    seed: int = 10007

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions too small")


@dataclass(frozen=True)
class GammaRecord:
    value: float
    error_bound: float
    tail_bound: float
    radius: float
    method: str          # "exact" sensitivities or "fd" fallback
    route: str           # "plain" kernel or "star" (transposed) kernel
    word: Tuple[int, ...]


# -- smooth flat-top bumps ------------------------------------------------------

def smoothstep_expr(t: sp.Expr, order: int) -> sp.Expr:
    """Polynomial smoothstep: 0 at t<=0, 1 at t>=1, C^order at the joins."""
    m = order
    s = sum(sp.binomial(m + k, k) * sp.binomial(2 * m + 1, m - k) * (-t) ** k
            for k in range(m + 1))
    return t ** (m + 1) * s


@lru_cache(maxsize=None)
def _smoothstep_coeffs(order: int) -> np.ndarray:
    """Smoothstep coefficients in u = 2t - 1, lowest power first.

    On the centred variable the coefficients stay small (|c| < 25 at order
    9, against 8e6 in powers of t), so values and derivatives evaluate to
    double precision without cancellation.
    """
    u = sp.Symbol("u")
    poly = sp.Poly(smoothstep_expr((u + 1) / 2, order), u)
    return np.array([float(c) for c in reversed(poly.all_coeffs())])


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

    def profile_derivative(self, k: int, s: np.ndarray) -> np.ndarray:
        """h^(k)(s), the k-th derivative of the profile, on the annulus."""
        a2, b2 = self.flat_radius ** 2, self.support_radius ** 2
        half = 0.5 * (b2 - a2)
        u = (s - 0.5 * (a2 + b2)) / half
        step = P.polyval(u, P.polyder(_smoothstep_coeffs(self.order), k))
        return 1.0 - step if k == 0 else -step / half ** k

    def __call__(self, point: Sequence[float]) -> float:
        r2 = sum((v - c) ** 2 for v, c in zip(point, self.center))
        if r2 <= self.flat_radius ** 2:
            return 1.0
        if r2 >= self.support_radius ** 2:
            return 0.0
        return float(self.profile_derivative(0, r2))

    def box(self) -> List[Tuple[float, float]]:
        b = self.support_radius
        return [(c - b, c + b) for c in self.center]


def bump_jet(op: OperatorSpec, center: Sequence[float]) -> Dict[int, Poly]:
    """Exact P_k with op(h(s)) = Sum_k h^(k)(s) * P_k(z), s = |z - center|^2.

    Holds for every smooth profile h, by X(h^(k)(s) P) = h^(k+1)(s) X(s) P
    + h^(k)(s) X(P) applied through each word of the operator.
    """
    n = op.nvars
    s = sum((z - Fraction(c)) ** 2 for z, c in zip(Poly.variables(n), center))
    zero = Poly.zero(n)
    out: Dict[int, Poly] = {}
    for coeff, word in op.terms:
        jet = {0: Poly.const(n, coeff)}
        for i in reversed(word):
            X = op.fields[i]
            xs = field_apply(X, s)
            nxt: Dict[int, Poly] = {}
            for k, pk in jet.items():
                nxt[k + 1] = nxt.get(k + 1, zero) + xs * pk
                nxt[k] = nxt.get(k, zero) + field_apply(X, pk)
            jet = nxt
        for k, pk in jet.items():
            out[k] = out.get(k, zero) + pk
    return {k: pk for k, pk in out.items() if pk}


# -- composite Gauss-Legendre tensor grids ---------------------------------------

def tensor_gl_grid(bounds: Sequence[Tuple[float, float]], panels: int,
                   nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened points (M, dim) and weights (M,) of a composite GL rule."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    axes, wts = [], []
    for lo, hi in bounds:
        edges = np.linspace(lo, hi, panels + 1)
        pts_i, wts_i = [], []
        for i in range(panels):
            c, h = 0.5 * (edges[i] + edges[i + 1]), 0.5 * (edges[i + 1] - edges[i])
            pts_i.append(c + h * x)
            wts_i.append(h * w)
        axes.append(np.concatenate(pts_i))
        wts.append(np.concatenate(wts_i))
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    weight = np.ones(pts.shape[0])
    dim = len(bounds)
    for d in range(dim):
        shape = [1] * dim
        shape[d] = -1
        weight = weight * np.broadcast_to(
            wts[d].reshape(shape), [len(a) for a in axes]).ravel()
    return pts, weight


# -- kernel calibration ----------------------------------------------------------

def jet_values(jet: Dict[int, Poly], bump: BumpSpec,
               pts: np.ndarray) -> np.ndarray:
    """Sum_k h^(k)(s) P_k(z) at points (M, dim) inside the bump's annulus."""
    s = np.sum((pts - np.asarray(bump.center)) ** 2, axis=1)
    values = CompiledPolys(list(jet.values()))(pts.T)
    out = np.zeros_like(s)
    for k, pk in zip(jet, values):
        out += bump.profile_derivative(k, s) * pk
    return out


def _star_bump_quadrature(jet: Dict[int, Poly], bump: BumpSpec, panels: int,
                          nodes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Grid points where (op* bump) can be nonzero, with weights w * (op* bump).

    ``jet`` is bump_jet of op*; op* bump vanishes off the open annulus, where
    the bump is constant.
    """
    pts, wts = tensor_gl_grid(bump.box(), panels, nodes)
    s = np.sum((pts - np.asarray(bump.center)) ** 2, axis=1)
    inside = (s > bump.flat_radius ** 2) & (s < bump.support_radius ** 2)
    pts = pts[inside]
    return pts, wts[inside] * jet_values(jet, bump, pts)


def _translated_kernel_values(kernel: KernelSpec, pole: Sequence,
                              pts: np.ndarray) -> np.ndarray:
    """shape(pole^{-1} * z) on the grid, via the exact group operations."""
    lifted = kernel.lifted
    inv_pole = [float(v) for v in lifted.inverse_eval(
        [Fraction(v) for v in pole])]
    coords = np.empty((2 * len(inv_pole), len(pts)))
    coords[:len(inv_pole)] = np.asarray(inv_pole)[:, None]
    coords[len(inv_pole):] = pts.T
    args = CompiledPolys(lifted.mult)(coords)
    fn = sp.lambdify(kernel.syms, kernel.shape, modules="numpy")
    return fn(*args)


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
    out = []
    for pole in poles:
        kv = _translated_kernel_values(kernel, pole, pts)
        val = kernel.calibration_constant * float(np.sum(kv * gw))
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
    pts, gw = _star_bump_quadrature(jet, bump, panels, nodes)
    fn = sp.lambdify(shape.syms, shape.shape, modules="numpy")
    integral = float(np.sum(fn(*pts.T) * gw))
    pts2, gw2 = _star_bump_quadrature(jet, bump, panels + 2, nodes + 2)
    integral2 = float(np.sum(fn(*pts2.T) * gw2))
    if abs(integral) < 1e-12 or \
            abs(integral - integral2) > check_tol * abs(integral2):
        raise ValueError(
            "calibration identity failed to converge; the kernel shape does "
            "not left-invert this operator")
    c = -bump((0.0,) * lifted.N) / integral2
    return shape.with_constant(c)


# -- the saturation evaluator ------------------------------------------------------

def _quad_vec(f: Callable, a: float, b: float, limit: int,
              **kw) -> Tuple[np.ndarray, float]:
    """quad_vec in the max norm, warning as quad does when it fails.

    quad_vec reports non-convergence only in its status, never by a warning.
    """
    val, err, info = integrate.quad_vec(f, a, b, norm="max", limit=limit,
                                        full_output=True, **kw)
    if info.status != 0:
        warnings.warn(f"quad_vec: {info.message} (status {info.status}, "
                      f"error estimate {err:.3g})",
                      integrate.IntegrationWarning, stacklevel=3)
    return val, err


class SaturationEvaluator:
    """Evaluate Gamma and its derivatives by integrating the lifted kernel.

    Requires the operator order nu to be strictly below the homogeneous
    dimension q of the base space: that is the existence hypothesis for a
    dilation-homogeneous global fundamental solution, and construction is
    refused otherwise.
    """

    def __init__(self, lifted: LiftedSystem, operator: OperatorSpec,
                 kernel: KernelSpec,
                 config: Optional[QuadratureConfig] = None) -> None:
        if operator.nu >= lifted.q:
            raise ExistenceError(
                f"operator order nu={operator.nu} is not below the homogeneous "
                f"dimension q={lifted.q}; the existence hypothesis nu < q for "
                "a homogeneous global fundamental solution fails")
        if kernel.homogeneity_degree != operator.nu - lifted.Q:
            raise ValueError("kernel homogeneity degree does not match nu - Q")
        if lifted.p != 1:
            raise ValueError("the saturation integral runs over one lifted "
                             f"variable; this lifting has p={lifted.p}")
        self.lifted = lifted
        self.operator = operator
        self.kernel = kernel
        self.config = config or QuadratureConfig()
        self.field_degrees = tuple(
            certify_homogeneity(X, lifted.base_delta, triangular=False)
            or X.declared_degree
            for X in lifted.base_fields)
        self._gauge_D = HomNorm(lifted.D_exponents)
        self._build_integrand_maps()
        self._fns: Dict[Tuple[str, Tuple[int, ...]], Callable] = {}
        self._sups: Dict[Tuple[str, Tuple[int, ...]], float] = {}
        E = lifted.E
        self._v1 = (2.0 ** lifted.p
                    * math.prod(gamma_fn(t + 1.0) for t in lifted.tau)
                    / gamma_fn(E + 1.0))

    # -- symbolic assembly ---------------------------------------------------

    def _build_integrand_maps(self) -> None:
        """G(x, y, zeta) = (y,0)^{-1} * (x, psi^{-1}(zeta)), exact polynomials.

        In the zeta coordinate the fiber gauge of the group element equals
        the gauge of zeta itself, which makes the closed-form tail bound
        exact; the change of variable is unimodular so values are unchanged.
        """
        lifted = self.lifted
        n, p = lifted.n, lifted.p
        nv = 2 * n + p
        allv = Poly.variables(nv)
        x = list(allv[:n])
        y = list(allv[n:2 * n])
        xi = list(allv[2 * n:])
        zero = [Poly.zero(nv)] * p
        inv_y0 = compose_map(lifted.inverse, y + zero)
        g_xi = compose_map(lifted.mult, inv_y0 + x + xi)
        sigma = lifted.base_delta.sigma
        degs = tuple(sigma) + tuple(sigma) + tuple(lifted.tau)
        psi_inv = invert_graded_map(x + y + list(g_xi[n:]), degs, degs)[2 * n:]
        self._g_maps = compose_map(g_xi, x + y + psi_inv)
        for j in range(p):
            if self._g_maps[n + j] != allv[2 * n + j]:
                raise AssertionError("slice normalization failed; lifting bug")
        xs = sp.symbols(f"x1:{n + 1}", real=True)
        ys = sp.symbols(f"y1:{n + 1}", real=True)
        cs = sp.symbols(f"c1:{p + 1}", real=True)
        self._arg_syms = tuple(xs) + tuple(ys) + tuple(cs)
        self._g_sym = [poly_to_sympy(m, self._arg_syms) for m in self._g_maps]

    def _integrand_fn(self, route: str, word: Tuple[int, ...]) -> Callable:
        key = (route, word)
        if key not in self._fns:
            expr = self.kernel.word_expr(word, star=(route == "star"))
            expr = expr.subs(dict(zip(self.kernel.syms, self._g_sym)),
                             simultaneous=True)
            fn = sp.lambdify(self._arg_syms, expr, modules="numpy")
            c = self.kernel.calibration_constant
            self._fns[key] = lambda *a: c * fn(*a)
        return self._fns[key]

    def _sup_bound(self, route: str, word: Tuple[int, ...]) -> float:
        key = (route, word)
        if key not in self._sups:
            cfg = self.config
            self._sups[key] = abs(self.kernel.calibration_constant) * \
                self.kernel.sup_on_gauge_sphere(
                    word, star=(route == "star"), n_samples=cfg.sup_samples,
                    seed=cfg.seed, safety=cfg.sup_safety)
        return self._sups[key]

    def _word_weight(self, word: Sequence[int]) -> int:
        return sum(self.field_degrees[i] for i in word)

    # -- core integration ------------------------------------------------------

    def _tail_constants(self, route: str,
                        word: Tuple[int, ...]) -> Tuple[int, float]:
        """Exponent s_e and constant C of the closed-form tail bound C * R^s_e
        of the fiber integral beyond radius R."""
        lifted = self.lifted
        s_e = self.operator.nu - self._word_weight(word) - lifted.q
        t_const = self._sup_bound(route, word) * self._v1 \
            * 2.0 ** lifted.E / (1.0 - 2.0 ** s_e)
        return s_e, t_const

    def _tail_cut(self, core, g0, s_e: int, t_const: float, rel: float,
                  radius_boost: float):
        """Target accuracy, truncation radius and tail bound from the core
        value, on floats or elementwise on arrays of points."""
        cfg = self.config
        target = np.maximum(cfg.abs_tol, rel * np.abs(core))
        radius = np.maximum((target / t_const) ** (1.0 / s_e),
                            cfg.min_radius_factor * g0) * radius_boost
        return target, radius, t_const * radius ** s_e

    def _integral(self, route: str, word: Tuple[int, ...],
                  x: Sequence[float], y: Sequence[float],
                  rel_tol: Optional[float] = None,
                  radius_boost: float = 1.0) -> GammaRecord:
        cfg = self.config
        rel = rel_tol if rel_tol is not None else cfg.rel_tol
        args = [float(v) for v in x] + [float(v) for v in y]
        g_at0 = [poly_eval(m, args + [0.0]) for m in self._g_maps]
        g0 = hom_norm_eval(self._gauge_D, g_at0)
        if g0 <= 0.0:
            raise ValueError("pole: the two points coincide (x == y)")
        s_e, t_const = self._tail_constants(route, word)
        fn = self._integrand_fn(route, word)

        def fz(z):
            return fn(*args, z)

        r0 = cfg.core_radius_factor * g0
        core, e1 = integrate.quad(
            fz, -r0, r0, points=[-g0, 0.0, g0], limit=cfg.max_subdivisions,
            epsrel=rel / 4.0, epsabs=cfg.abs_tol)
        target, radius, tail = self._tail_cut(core, g0, s_e, t_const, rel,
                                              radius_boost)

        def fu(u):
            return fz(1.0 / u) / (u * u)

        pos, e2 = integrate.quad(fu, 1.0 / radius, 1.0 / r0,
                                 limit=cfg.max_subdivisions,
                                 epsrel=rel / 4.0, epsabs=target / 8.0)
        neg, e3 = integrate.quad(fu, -1.0 / r0, -1.0 / radius,
                                 limit=cfg.max_subdivisions,
                                 epsrel=rel / 4.0, epsabs=target / 8.0)
        return GammaRecord(core + pos + neg, e1 + e2 + e3 + tail, tail,
                           radius, "exact", route, tuple(word))

    # -- public evaluation -----------------------------------------------------

    def gamma_record(self, x: Sequence[float], y: Sequence[float],
                     **kw) -> GammaRecord:
        return self._integral("plain", (), x, y, **kw)

    def gamma_batch(self, xs, ys, rel_tol: Optional[float] = None
                    ) -> GammaRecord:
        """Gamma at M points xs against one y, or at M pairs, by quad_vec.

        The same core/tail split as the pointwise route: z = g0 * t puts
        every core on [-core_radius_factor, core_radius_factor] with
        breakpoints {-1, 0, 1}, and an affine map puts every tail interval
        [1/radius, 1/r0] in u = 1/|z| on [0, 1], both signs at once.
        quad_vec's error is in the max norm over the points, so a point's
        error bound is the sum of the two passes' errors and its own
        closed-form tail bound.  The record's numeric fields are arrays.
        Each pass evaluates the integrand at 21 nodes per subinterval for
        all points together, which costs more than per-point quad below
        about 40 points.
        """
        cfg = self.config
        rel = rel_tol if rel_tol is not None else cfg.rel_tol
        xs = np.asarray(xs, dtype=float)
        ys = np.broadcast_to(np.asarray(ys, dtype=float), xs.shape)
        args = list(xs.T) + list(ys.T)
        g_at0 = CompiledPolys(self._g_maps)(
            np.vstack(args + [np.zeros(len(xs))]))
        g0 = sum(np.abs(g) ** (1.0 / e)
                 for g, e in zip(g_at0, self._gauge_D.exponents))
        if np.any(g0 <= 0.0):
            raise ValueError("pole: the two points coincide (x == y)")
        s_e, t_const = self._tail_constants("plain", ())
        fn = self._integrand_fn("plain", ())
        c = cfg.core_radius_factor
        core, e1 = _quad_vec(lambda t: g0 * fn(*args, g0 * t), -c, c,
                             cfg.max_subdivisions, points=[-1.0, 0.0, 1.0],
                             epsrel=rel / 4.0, epsabs=cfg.abs_tol)
        target, radius, tail = self._tail_cut(core, g0, s_e, t_const, rel,
                                              1.0)
        lo = 1.0 / radius
        width = 1.0 / (c * g0) - lo

        def tails(s):
            u = lo + width * s
            return width * (fn(*args, 1.0 / u) + fn(*args, -1.0 / u)) / (u * u)

        far, e2 = _quad_vec(tails, 0.0, 1.0, cfg.max_subdivisions,
                            epsrel=rel / 4.0, epsabs=np.min(target) / 8.0)
        return GammaRecord(core + far, e1 + e2 + tail, tail, radius, "exact",
                           "plain", ())

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
        return GammaRecord(val, abs(val) * step ** 2 + step ** 2, 0.0, 0.0,
                           "fd", "plain", word)

    def xi_profile(self, x: Sequence[float], y: Sequence[float],
                   word: Sequence[int] = ()) -> Tuple[Callable, float, int]:
        """One-fiber integrand profile with its tail constant and exponent.

        Constructive integrability witness: |profile(z)| <= C * |z|^{s/tau}
        for large z and the tail beyond R is below C' * R^{s + E}.
        """
        word = tuple(word)
        fn = self._integrand_fn("plain", word)
        args = [float(v) for v in x] + [float(v) for v in y]
        s_e, t_const = self._tail_constants("plain", word)
        return (lambda z: fn(*args, z)), t_const, s_e

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
        """Doubling the truncation radius moves values less than the bound."""
        out = []
        for x, y in pairs:
            r1 = self.gamma_record(x, y)
            r2 = self.gamma_record(x, y, radius_boost=2.0)
            delta = abs(r1.value - r2.value)
            bound = r1.error_bound + r2.error_bound
            out.append((delta, bound, delta <= bound))
        return out

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
