"""Build the global fundamental solution of the Grushin sublaplacian.

The closed-form kernel on the lifted (Heisenberg) group is calibrated
against the defining integral identity, then integrated over the extra
variable, over the whole fiber out to infinity, to produce Gamma(x, y)
downstairs with the quadrature's error bound.
"""

from rockland import (
    BumpSpec,
    DilationFamily,
    Poly,
    PolyVectorField,
    SaturationEvaluator,
    build_lifting,
    calibration_residuals,
    generate_lie_algebra,
    heisenberg_gauge_kernel,
    kernel_calibrate,
    make_standard_operator,
)

delta = DilationFamily((1, 2))
z = Poly.zero(2)
X1 = PolyVectorField(2, (Poly.const(2, 1), z))
X2 = PolyVectorField(2, (z, Poly.var(2, 0)))
basis, sc = generate_lie_algebra([X1, X2], delta)
lifted = build_lifting(basis, sc, delta)
gens = [basis.W[i] for i in basis.generator_indices]
L = make_standard_operator("sublaplacian_power", gens, k=1)

print("== kernel calibration")
Lt = L.with_fields(lifted.lifted_fields)
kernel = kernel_calibrate(heisenberg_gauge_kernel(lifted), lifted, Lt)
print(f"calibrated constant: {kernel.calibration_constant:.10f}"
      f"  (compare 1/(2*pi) = {1 / (2 * 3.141592653589793):.10f})")
print("pole residuals:", [f"{r:.2e}" for r in calibration_residuals(kernel, Lt)])

ev = SaturationEvaluator(lifted, L, kernel)

print("\n== point evaluations")
for x, y in [([1.0, 0.0], [0.0, 0.0]),
             ([0.5, 0.25], [-0.5, 0.25]),
             ([2.0, 0.0], [0.0, 0.0])]:
    rec = ev.gamma_record(x, y)
    print(f"Gamma({x}, {y}) = {rec.value:.10f}"
          f"  (error bound {rec.error_bound:.1e}, "
          f"{rec.tail_bound:.1e} of it from the tails)")

print("\n== homogeneity: Gamma(d_2 x, d_2 y) should be Gamma(x, y) / 2")
a = ev.gamma_eval([1.0, 0.0], [0.0, 0.0])
b = ev.gamma_eval([2.0, 0.0], [0.0, 0.0])
print(f"ratio = {a / b:.12f}")

print("\n== derivatives along the fields")
d1 = ev.gamma_x_derivative((0,), [1.0, 0.3], [0.0, 0.0])
fd = ev.gamma_x_derivative_fd((0,), [1.0, 0.3], [0.0, 0.0]).value
print(f"X1 Gamma = {d1:.10f}, finite-difference check {fd:.10f}")

print("\n== left-inverse identity against a smooth bump")
res = ev.verify_left_inverse(BumpSpec(center=(0.0, 0.0)), [0.0, 0.0])
print(f"|<Gamma, L* phi> + phi(0)| = {res:.2e}")
