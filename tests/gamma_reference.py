"""High-precision references for tests/data/gamma_values.json.

A row's reference is the whole fiber integral, over the real line, of
sympy's word derivative of the calibrated kernel c * P^a along the fiber
G(x, y, zeta), evaluated by mpmath at 30 digits from the exact binary
values of x and y.  Near the pole the integrand peaks sharply where the
fiber passes closest to the group origin, so the fiber is split at 0, at
g0 * 2^k and geometrically about every real zero of a fiber coordinate.

Rewrite the `reference` fields of the rows at the point set's four fixed
offsets (two near the pole, two far) from the repository root with

    PYTHONPATH=src:tests python tests/gamma_reference.py [workers]
"""

import json
import os
import sys
from fractions import Fraction
from multiprocessing import Pool

import mpmath as mp
import numpy as np
import sympy as sp

from rockland.fields import DilationFamily, PolyVectorField, make_standard_operator
from rockland.fundsol import SaturationEvaluator, kernel_calibrate
from rockland.kernels import heisenberg_gauge_kernel
from rockland.liealg import generate_lie_algebra
from rockland.lifting import build_lifting
from rockland.poly import Poly, poly_eval
from sympy_reference import apply_word_sympy, poly_to_sympy

PATH = os.path.join(os.path.dirname(__file__), "data", "gamma_values.json")
FIXED_OFFSETS = ([1e-3, 0.0], [0.0, 1e-4], [30.0, 30.0], [-50.0, 400.0])


def grushin_evaluator() -> SaturationEvaluator:
    """The Grushin X1^2 + X2^2 evaluator of the grushin_gamma fixture."""
    delta = DilationFamily((1, 2))
    z = Poly.zero(2)
    fields = [PolyVectorField(2, (Poly.const(2, 1), z)),
              PolyVectorField(2, (z, Poly.var(2, 0)))]
    basis, sc = generate_lie_algebra(fields, delta)
    lifted = build_lifting(basis, sc, delta)
    gens = [basis.W[i] for i in basis.generator_indices]
    L = make_standard_operator("sublaplacian_power", gens, k=1)
    Lt = L.with_fields(lifted.lifted_fields)
    kernel = kernel_calibrate(heisenberg_gauge_kernel(lifted), lifted, Lt)
    return SaturationEvaluator(lifted, L, kernel)


def fiber_integral(ev: SaturationEvaluator, route: str, word, a, b,
                   dps: int = 30):
    """(value, mpmath's error estimate) of the integral over zeta of the
    route's word derivative at G(a, b, zeta)."""
    mp.mp.dps = dps
    K, lifted = ev.kernel, ev.lifted
    syms = sp.symbols(f"z1:{lifted.N + 1}", real=True)
    base = poly_to_sympy(K.base, syms)
    if route == "star":
        base = base.subs({s: poly_to_sympy(p, syms)
                          for s, p in zip(syms, lifted.inverse)},
                         simultaneous=True)
    expr = apply_word_sympy(lifted.lifted_fields, word, syms, base ** sp.Rational(
        K.power.numerator, K.power.denominator))
    zeta = sp.Symbol("zeta", real=True)
    point = [Fraction(float(v)) for v in list(a) + list(b)]
    fiber = []            # exact coefficients of each coordinate in zeta
    for g in ev._g_maps:
        coeffs = {}
        for mono, c in g.terms.items():
            rest = Poly(len(point), {mono[:-1]: c})
            coeffs[mono[-1]] = coeffs.get(mono[-1], 0) + poly_eval(rest, point)
        fiber.append(coeffs)
    images = {s: sum(sp.Rational(c.numerator, c.denominator) * zeta ** j
                     for j, c in row.items())
              for s, row in zip(syms, fiber)}
    f = sp.lambdify(zeta, expr.subs(images, simultaneous=True),
                    modules="mpmath")
    c = mp.mpf(K.calibration_constant)
    g0 = sum(abs(mp.mpf(row.get(0, 0).numerator) / row.get(0, 0).denominator)
             ** (mp.mpf(1) / e) for row, e in zip(fiber, lifted.D_exponents))
    cuts = {mp.mpf(0)}
    for k in range(-8, 24):
        cuts |= {g0 * mp.mpf(2) ** k, -g0 * mp.mpf(2) ** k}
    for row in fiber:
        top = max(row)
        if top == 0:
            continue
        for r in np.roots([float(row.get(j, 0)) for j in range(top, -1, -1)]):
            if abs(r.imag) > 1e-12 * max(1.0, abs(r)) or r.real == 0.0:
                continue
            z0 = mp.mpf(r.real)
            cuts |= {z0} | {z0 + s * abs(z0) * mp.mpf(2) ** k
                             for k in range(-24, 0) for s in (-1, 1)}
    cuts = sorted(cuts)
    core, e1 = mp.quad(f, cuts, method="gauss-legendre",
                       maxdegree=8, error=True)
    right, e2 = mp.quad(f, [cuts[-1], mp.inf], error=True)
    left, e3 = mp.quad(f, [mp.ninf, cuts[0]], error=True)
    return c * (core + right + left), abs(c) * (e1 + e2 + e3)


_EV = []


def _reference(job):
    if not _EV:
        _EV.append(grushin_evaluator())
    route, word, x, y = job
    a, b = (x, y) if route == "plain" else (y, x)
    value, err = fiber_integral(_EV[0], route, tuple(word), a, b)
    return float(value), float(err)


def main(workers: int = 1) -> None:
    with open(PATH) as fh:
        data = json.load(fh)
    y = data["y"]
    rows = [row for row in data["values"]
            if [round(u - v, 12) for u, v in zip(row["x"], y)]
            in [[round(v, 12) for v in o] for o in FIXED_OFFSETS]]
    with Pool(workers) as pool:
        out = pool.map(_reference, [(r["route"], r["word"], r["x"], y)
                                    for r in rows])
    worst = 0.0
    for row, (value, err) in zip(rows, out):
        row["reference"] = value
        worst = max(worst, err / max(abs(value), 1e-12))
    with open(PATH, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"{len(rows)} references; largest error estimate {worst:.3g} "
          "relative to max(|reference|, 1e-12)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
