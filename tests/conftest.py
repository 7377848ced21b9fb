"""Shared model systems used across the test suite."""

import dataclasses
from fractions import Fraction

import pytest

from rockland.fields import DilationFamily, PolyVectorField, make_standard_operator
from rockland.liealg import generate_lie_algebra
from rockland.lifting import build_lifting
from rockland.poly import Poly


def _field(n, coeffs):
    return PolyVectorField(n, tuple(coeffs))


@pytest.fixture(scope="session")
def grushin():
    """The plane system d1, x1*d2 with exponents (1,2)."""
    delta = DilationFamily((1, 2))
    z = Poly.zero(2)
    X1 = _field(2, [Poly.const(2, 1), z])
    X2 = _field(2, [z, Poly.var(2, 0)])
    basis, sc = generate_lie_algebra([X1, X2], delta)
    lifted = build_lifting(basis, sc, delta)
    gens = [basis.W[i] for i in basis.generator_indices]
    L = make_standard_operator("sublaplacian_power", gens, k=1)
    return {"delta": delta, "fields": [X1, X2], "basis": basis, "sc": sc,
            "lifted": lifted, "gens": gens, "L": L}


@pytest.fixture(scope="session")
def grushin_bent_lifting(grushin):
    """The Grushin lifting with one base-direction coefficient of its first
    lifted field perturbed: d1 + d3 becomes d1 + x1*d2 + d3, which is still
    homogeneous of degree 1 under the lifted dilations."""
    lifted = grushin["lifted"]
    first = lifted.lifted_fields[0]
    coeffs = list(first.coeffs)
    coeffs[1] = coeffs[1] + Poly.var(lifted.N, 0)
    bent = dataclasses.replace(first, coeffs=tuple(coeffs))
    return dataclasses.replace(
        lifted, lifted_fields=(bent,) + lifted.lifted_fields[1:])


@pytest.fixture(scope="session")
def grushin_quartic(grushin):
    """X1^4 + X2^4 over the Grushin fields."""
    return make_standard_operator("sum_of_even_powers", grushin["gens"], nu0=2)


@pytest.fixture(scope="session")
def three_var_step5():
    """d1 and x1*d2 + x2^2*d3 with exponents (1,2,5); step-5 algebra."""
    delta = DilationFamily((1, 2, 5))
    z = Poly.zero(3)
    X1 = _field(3, [Poly.const(3, 1), z, z])
    X2 = _field(3, [z, Poly.var(3, 0), Poly.var(3, 1) ** 2])
    basis, sc = generate_lie_algebra([X1, X2], delta)
    lifted = build_lifting(basis, sc, delta)
    gens = [basis.W[i] for i in basis.generator_indices]
    L = make_standard_operator("sublaplacian_power", gens, k=1)
    return {"delta": delta, "fields": [X1, X2], "basis": basis, "sc": sc,
            "lifted": lifted, "gens": gens, "L": L}


@pytest.fixture(scope="session")
def grushin_gamma(grushin):
    """Calibrated kernel and saturation evaluator for the Grushin system."""
    from rockland.fundsol import SaturationEvaluator, kernel_calibrate
    from rockland.kernels import heisenberg_gauge_kernel
    lifted, L = grushin["lifted"], grushin["L"]
    Lt = L.with_fields(lifted.lifted_fields)
    kernel = kernel_calibrate(heisenberg_gauge_kernel(lifted), lifted, Lt)
    ev = SaturationEvaluator(lifted, L, kernel)
    return {"kernel": kernel, "ev": ev, "Lt": Lt}


@pytest.fixture(scope="session")
def grushin_metric(grushin):
    """Compiled control-metric space for the Grushin generators."""
    from rockland.metric import MetricSpace
    return MetricSpace(grushin["gens"], grushin["delta"])


@pytest.fixture(scope="session")
def chain_r5():
    """The chain system d1, x1*d2 + x2*d3 + x3*d4 + x4*d5 on R^5."""
    n = 5
    delta = DilationFamily((1, 2, 3, 4, 5))
    z = Poly.zero(n)
    X1 = _field(n, [Poly.const(n, 1), z, z, z, z])
    X2 = _field(n, [z, Poly.var(n, 0), Poly.var(n, 1), Poly.var(n, 2), Poly.var(n, 3)])
    basis, sc = generate_lie_algebra([X1, X2], delta)
    gens = [basis.W[i] for i in basis.generator_indices]
    return {"delta": delta, "fields": [X1, X2], "basis": basis, "sc": sc, "gens": gens}
