"""Analytic kernels on lifted groups: evaluation, word derivatives, bounds.

A kernel is c * P^a, with P an exact polynomial in the lifted coordinates,
positive away from the origin, and a a rational power; it is homogeneous of
the negative degree nu - Q under the group dilations.  Every word derivative
of P^a is an exact jet Sum_k P^(a-k) * Q_k: applying a field X to one term
gives X(P^(a-k) Q) = (a-k) P^(a-k-1) X(P) Q + P^(a-k) X(Q), so the Q_k are
exact polynomials, and float values come from one ``CompiledPolys`` pass.
The shipped family covers second-order sublaplacian lifts whose group is the
three-dimensional Heisenberg group; any other kernel of the form c * P^a
is supplied through the same interface.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .fields import OperatorSpec, PolyVectorField, chain_jet
from .lifting import HomNorm, LiftedSystem
from .poly import CompiledPolys, Poly, poly_diff, substitute

Route = Tuple[str, Tuple[int, ...]]


@dataclass(frozen=True)
class KernelJet:
    """Sum_k P^(a-k) * Q_k, the value of a word derivative of P^a."""

    base: Poly                  # P
    power: Fraction             # a
    coeffs: Tuple[Poly, ...]    # Q_0, ..., Q_K

    @staticmethod
    def of(fields: Sequence[PolyVectorField],
           terms: Sequence[Tuple[Fraction, Tuple[int, ...]]],
           base: Poly, power: Fraction) -> "KernelJet":
        """The jet of Sum c X_I (base^power), by the chain rule with
        f(t) = t^a, f^(k)(t) = a (a-1) ... (a-k+1) t^(a-k)."""
        jet = chain_jet(fields, terms, base)
        coeffs, falling = [], Fraction(1)
        for k in range(max(jet, default=0) + 1):
            coeffs.append(jet.get(k, Poly.zero(base.nvars)) * falling)
            falling *= power - k
        return KernelJet(base, power, tuple(coeffs))

    def residual(self) -> Poly:
        """Sum_k P^(K-k) Q_k = P^(K-a) * jet: zero as a polynomial iff the
        jet vanishes identically away from the zero set of P."""
        acc = self.coeffs[0]
        for q in self.coeffs[1:]:
            acc = acc * self.base + q
        return acc

    def partial(self, i: int) -> "KernelJet":
        """The jet of the derivative in the lifted coordinate z_i:
        d_i (P^(a-k) Q_k) = P^(a-k) d_i Q_k + (a-k) P^(a-k-1) d_i P Q_k."""
        dp = poly_diff(self.base, i)
        zero = Poly.zero(self.base.nvars)
        coeffs = [poly_diff(q, i) for q in self.coeffs] + [zero]
        for k, q in enumerate(self.coeffs):
            coeffs[k + 1] = coeffs[k + 1] + dp * q * (self.power - k)
        return KernelJet(self.base, self.power, tuple(coeffs))

    def magnitude(self, z: np.ndarray) -> np.ndarray:
        """Sum_k |P|^(a-k) (Q'_k + |a-k| |Q_k| P' / |P|) at the columns of
        z (N, M), where P' and Q'_k are P and Q_k with their coefficients
        and the coordinates in absolute value: the sizes of the sums whose
        rounding the jet's float value carries."""
        polys = (self.base,) + self.coeffs
        signed = CompiledPolys(polys)(z)
        absolute = CompiledPolys([Poly._of(p.nvars, {m: abs(c) for m, c
                                                     in p.terms.items()})
                                  for p in polys])(np.abs(z))
        p = np.abs(signed[0])
        a = float(self.power)
        return sum(p ** (a - k) * (absolute[k + 1] + abs(a - k)
                                   * np.abs(signed[k + 1]) * absolute[0] / p)
                   for k in range(len(self.coeffs)))

    def compile(self) -> Callable[[np.ndarray],
                                  Tuple[np.ndarray, np.ndarray]]:
        """Float values, and those of P, at the columns of an array (N, M)."""
        polys = CompiledPolys((self.base,) + self.coeffs)
        top = float(self.power) - (len(self.coeffs) - 1)

        def values(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            v = polys(z)
            p, acc = v[0], v[1]
            for q in v[2:]:
                acc = acc * p + q
            return acc * p ** top, p

        return values


@lru_cache(maxsize=None)
def gauge_sphere_samples(N: int, D_exponents: Tuple[int, ...], n_samples: int,
                         seed: int) -> np.ndarray:
    """n_samples seeded points (n_samples, N) on the unit sphere of the gauge
    Sum |z_i|^(1/e_i): Gaussian draws dilated onto it.  Drawn once per
    argument tuple and shared, so the array is read-only."""
    rng = random.Random(seed)
    norm = HomNorm(D_exponents)
    pts = []
    while len(pts) < n_samples:
        u = [rng.gauss(0.0, 1.0) for _ in range(N)]
        lam = norm(u)
        if lam < 1e-8:
            continue
        pts.append([ui / lam ** e for ui, e in zip(u, D_exponents)])
    pts = np.array(pts)
    pts.flags.writeable = False
    return pts


@dataclass
class KernelSpec:
    """A homogeneous kernel c * P^a on the lifted group, with word derivatives.

    ``base`` P and ``power`` a give the kernel up to the multiplicative
    calibration constant; ``calibration_constant`` c scales it to the actual
    fundamental solution of the lifted operator.  ``nu`` is the operator's
    homogeneity, so the kernel itself is homogeneous of degree nu - Q.
    """

    lifted: LiftedSystem
    nu: int
    base: Poly
    power: Fraction
    calibration_constant: float = 1.0
    label: str = "kernel"
    _jets: Dict[Route, KernelJet] = field(default_factory=dict, repr=False)
    _fns: Dict[Route, Callable] = field(default_factory=dict, repr=False)

    @property
    def homogeneity_degree(self) -> int:
        return self.nu - self.lifted.Q

    @property
    def base_degree(self) -> Fraction:
        """The homogeneity degree of P: (nu - Q) / a."""
        return Fraction(self.homogeneity_degree) / self.power

    def with_constant(self, c: float) -> "KernelSpec":
        return KernelSpec(self.lifted, self.nu, self.base, self.power,
                          float(c), self.label)

    def word_expr(self, word: Sequence[int] = (),
                  star: bool = False) -> KernelJet:
        """Iterated lifted-field derivative of the (star) kernel shape.

        The star kernel z -> shape(z^{-1}) is the shape of the transposed
        operator; its base is P composed with the group inverse.
        """
        key = ("star" if star else "plain", tuple(word))
        if key not in self._jets:
            base = substitute(self.base, self.lifted.inverse) if star \
                else self.base
            self._jets[key] = KernelJet.of(self.lifted.lifted_fields,
                                           ((Fraction(1), tuple(word)),),
                                           base, self.power)
        return self._jets[key]

    def jet_fn(self, word: Sequence[int] = (), star: bool = False
               ) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """Values of the uncalibrated derivative, and of its base P, at the
        columns of (N, M)."""
        key = ("star" if star else "plain", tuple(word))
        if key not in self._fns:
            self._fns[key] = self.word_expr(word, star).compile()
        return self._fns[key]

    def shape_fn(self, word: Sequence[int] = (),
                 star: bool = False) -> Callable[[np.ndarray], np.ndarray]:
        """Values of the uncalibrated derivative at the columns of (N, M)."""
        fn = self.jet_fn(word, star)
        return lambda z: fn(z)[0]

    def word_evaluator(self, word: Sequence[int] = (),
                       star: bool = False) -> Callable:
        """Vectorized evaluator of calibration_constant * derivative, called
        with one scalar or array per lifted coordinate."""
        fn = self.shape_fn(word, star)
        c = self.calibration_constant

        def values(*z):
            zs = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in z))
            flat = np.stack([v.ravel() for v in zs])
            return c * fn(flat).reshape(zs[0].shape)

        return values

    # -- sampled bounds ------------------------------------------------------

    def _gauge_sphere_samples(self, n_samples: int, seed: int) -> np.ndarray:
        return gauge_sphere_samples(self.lifted.N, self.lifted.D_exponents,
                                    n_samples, seed)

    def sup_on_gauge_sphere(self, word: Sequence[int] = (), star: bool = False,
                            n_samples: int = 2000, seed: int = 10007,
                            safety: float = 2.0) -> float:
        """Sampled bound for |derivative| on the unit gauge sphere: the
        largest of n_samples seeded values times the safety factor."""
        pts = self._gauge_sphere_samples(n_samples, seed)
        vals = np.abs(self.word_evaluator(word, star)(*pts.T))
        m = float(np.max(vals))
        if not math.isfinite(m) or m == 0.0:
            raise ValueError("kernel bound sampling failed; kernel degenerate")
        return safety * m

    def rounding_on_gauge_sphere(self, word: Sequence[int], star: bool,
                                 degree: int, n_samples: int = 2000,
                                 seed: int = 10007, safety: float = 2.0
                                 ) -> Tuple[float, np.ndarray]:
        """Sampled constants (S, D) for the error of evaluating the
        derivative f, homogeneous of the given degree h, in floats.

        With the scale r = |P|^(1/deg P), homogeneous of degree 1, S bounds
        the jet's magnitude (see KernelJet.magnitude) over r^h and D_i
        bounds |d_i f| over r^(h - d_i), each the largest of n_samples
        seeded values on the unit gauge sphere times the safety factor;
        both ratios are dilation invariant.  f at z, with its coordinates
        off by e_i, is then off by about
        eps r^h S + Sum_i D_i r^(h - d_i) e_i.
        """
        jet = self.word_expr(word, star)
        pts = self._gauge_sphere_samples(n_samples, seed).T
        r = np.abs(CompiledPolys([jet.base])(pts)[0]) ** (
            1.0 / float(self.base_degree))
        s = float(np.max(jet.magnitude(pts) / r ** degree))
        d = np.array([np.max(np.abs(jet.partial(i).compile()(pts)[0])
                             / r ** (degree - e))
                      for i, e in enumerate(self.lifted.D_exponents)])
        if not math.isfinite(s) or not np.all(np.isfinite(d)):
            raise ValueError("kernel bound sampling failed; kernel degenerate")
        return safety * s, safety * d

    def annihilation_residual(self, op: OperatorSpec) -> Poly:
        """Exact residual of op(P^a) away from the pole; zero when op
        annihilates the kernel there (see KernelJet.residual)."""
        lifted_op = op.with_fields(self.lifted.lifted_fields)
        return KernelJet.of(lifted_op.fields, lifted_op.terms, self.base,
                            self.power).residual()


def heisenberg_gauge_kernel(lifted: LiftedSystem,
                            nu: int = 2) -> KernelSpec:
    """Fourth-root gauge kernel for step-2 sublaplacian lifts with N = 3.

    Valid when the lifted group is the Heisenberg group generated by two
    degree-1 fields; the kernel is the (nu - Q)-power of the gauge adapted
    to the group, rho^4 = (w1^2 + w2^2)^2 + 16 w3^2 in the group coordinates
    w = theta^{-1}(z), so P = rho^4 and a = (nu - Q) / 4.  Returned
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
    w = lifted.theta_inv
    # normalize the bracket so the law carries the canonical 1/2 twist
    s3 = w[2] * (1 / table[0][3])
    rho4 = (w[0] ** 2 + w[1] ** 2) ** 2 + s3 ** 2 * 16
    return KernelSpec(lifted, nu, rho4, Fraction(nu - lifted.Q, 4), 1.0,
                      "heisenberg-gauge")
