"""Analytic kernels on lifted groups: evaluation, word derivatives, bounds.

A kernel is a smooth function on R^N minus the origin, homogeneous of the
negative degree nu - Q under the group dilations.  The shipped family covers
second-order sublaplacian lifts whose group is the three-dimensional
Heisenberg group; arbitrary kernels can be supplied through the same
interface as sympy expressions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

import numpy as np
import sympy as sp

from .fields import OperatorSpec, PolyVectorField
from .lifting import HomNorm, LiftedSystem, hom_norm_eval
from .poly import Poly


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


@dataclass
class KernelSpec:
    """A homogeneous kernel on the lifted group, with word derivatives.

    ``shape`` is the kernel up to the multiplicative calibration constant;
    ``calibration_constant`` scales it to the actual fundamental solution
    of the lifted operator.  ``nu`` is the operator's homogeneity, so the
    kernel itself is homogeneous of degree nu - Q.
    """

    lifted: LiftedSystem
    nu: int
    shape: sp.Expr
    syms: Tuple[sp.Symbol, ...]
    calibration_constant: float = 1.0
    label: str = "kernel"
    _cache: Dict[Tuple[str, Tuple[int, ...]], sp.Expr] = field(
        default_factory=dict, repr=False)
    _fns: Dict[Tuple[str, Tuple[int, ...]], Callable] = field(
        default_factory=dict, repr=False)

    @property
    def homogeneity_degree(self) -> int:
        return self.nu - self.lifted.Q

    @property
    def expr(self) -> sp.Expr:
        return self.calibration_constant * self.shape

    def with_constant(self, c: float) -> "KernelSpec":
        return KernelSpec(self.lifted, self.nu, self.shape, self.syms,
                          float(c), self.label)

    def star_shape(self) -> sp.Expr:
        """The kernel of the transposed operator: z -> shape(z^{-1})."""
        subs = {s: poly_to_sympy(p, self.syms)
                for s, p in zip(self.syms, self.lifted.inverse)}
        return self.shape.subs(subs, simultaneous=True)

    def word_expr(self, word: Sequence[int] = (), star: bool = False) -> sp.Expr:
        """Iterated lifted-field derivative of the (star) kernel shape."""
        key = ("star" if star else "plain", tuple(word))
        if key not in self._cache:
            base = self.star_shape() if star else self.shape
            self._cache[key] = apply_word_sympy(
                self.lifted.lifted_fields, word, self.syms, base)
        return self._cache[key]

    def word_evaluator(self, word: Sequence[int] = (),
                       star: bool = False) -> Callable:
        """Vectorized numpy evaluator of calibration_constant * derivative."""
        key = ("star" if star else "plain", tuple(word))
        if key not in self._fns:
            self._fns[key] = sp.lambdify(self.syms, self.word_expr(word, star),
                                         modules="numpy")
        fn = self._fns[key]
        c = self.calibration_constant
        return lambda *z: c * fn(*z)

    def evaluator(self, z: Sequence[float]) -> float:
        return float(self.word_evaluator()(*z))

    # -- sampled bounds and invariants -------------------------------------

    def _gauge_sphere_samples(self, n_samples: int, seed: int) -> np.ndarray:
        rng = random.Random(seed)
        norm = HomNorm(self.lifted.D_exponents)
        pts = []
        while len(pts) < n_samples:
            u = [rng.gauss(0.0, 1.0) for _ in range(self.lifted.N)]
            lam = hom_norm_eval(norm, u)
            if lam < 1e-8:
                continue
            pts.append([ui / lam ** e
                        for ui, e in zip(u, self.lifted.D_exponents)])
        return np.array(pts)

    def sup_on_gauge_sphere(self, word: Sequence[int] = (), star: bool = False,
                            n_samples: int = 2000, seed: int = 10007,
                            safety: float = 2.0) -> float:
        """Sampled bound for |derivative| on the unit gauge sphere."""
        pts = self._gauge_sphere_samples(n_samples, seed)
        fn = self.word_evaluator(word, star)
        vals = np.abs(fn(*pts.T))
        m = float(np.max(vals))
        if not math.isfinite(m) or m == 0.0:
            raise ValueError("kernel bound sampling failed; kernel degenerate")
        return safety * m

    def check_homogeneity(self, n_samples: int = 200, seed: int = 4242) -> float:
        """Max relative deviation from the scaling law on random samples."""
        rng = random.Random(seed)
        fn = self.word_evaluator()
        deg = self.homogeneity_degree
        worst = 0.0
        for z in self._gauge_sphere_samples(n_samples, seed):
            lam = rng.uniform(0.2, 5.0)
            zs = [v * lam ** e for v, e in zip(z, self.lifted.D_exponents)]
            a, b = float(fn(*zs)), lam ** deg * float(fn(*z))
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
        return worst

    def annihilation_residual(self, op: OperatorSpec) -> sp.Expr:
        """Symbolic residual op(kernel) away from the pole; 0 when exact."""
        out = apply_operator_sympy(op.with_fields(self.lifted.lifted_fields),
                                   self.syms, self.shape)
        return sp.simplify(sp.together(out))


def group_gauge(lifted: LiftedSystem) -> HomNorm:
    return HomNorm(lifted.D_exponents)


def heisenberg_gauge_kernel(lifted: LiftedSystem,
                            nu: int = 2) -> KernelSpec:
    """Fourth-root gauge kernel for step-2 sublaplacian lifts with N = 3.

    Valid when the lifted group is the Heisenberg group generated by two
    degree-1 fields; the kernel is the (nu - Q)-power of the gauge adapted
    to the group, expressed in the lifted coordinates.  Returned
    uncalibrated (constant 1); calibrate against the left-inverse identity.
    """
    basis = lifted.basis
    if lifted.N != 3 or basis.degrees != (1, 1, 2):
        raise ValueError("gauge kernel requires a three-dimensional step-2 "
                         "group with degrees (1, 1, 2)")
    if nu != 2:
        raise ValueError("gauge kernel covers second-order operators only")
    table = lifted.sc.table
    if len(table) != 1 or table[0][:3] != (0, 1, 2):
        raise ValueError("gauge kernel requires the single bracket [W1,W2]=c*W3")
    cbr = table[0][3]
    syms = sp.symbols(f"z1:{lifted.N + 1}", real=True)
    w = [poly_to_sympy(p, syms) for p in lifted.theta_inv]
    # normalize the bracket so the law carries the canonical 1/2 twist
    s3 = w[2] / sp.Rational(cbr.numerator, cbr.denominator)
    rho4 = (w[0] ** 2 + w[1] ** 2) ** 2 + 16 * s3 ** 2
    shape = rho4 ** sp.Rational(nu - lifted.Q, 4)
    return KernelSpec(lifted, nu, shape, tuple(syms), 1.0, "heisenberg-gauge")
