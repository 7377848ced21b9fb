"""Weighted control distance, ball volumes, and the kernel estimate scan.

Distances come from trajectory optimization with piecewise-constant
controls; ball volumes from seeded Monte Carlo over a certified bounding
box.  The final scan checks that |Gamma| * |B(x, d)| / d^{nu - r} stays
bounded and scale-stable for derivative order r = 1.
"""

from rockland import (
    DilationFamily,
    MetricSpace,
    Poly,
    PolyVectorField,
    SaturationEvaluator,
    build_lifting,
    estimate_scan,
    generate_lie_algebra,
    heisenberg_gauge_kernel,
    kernel_calibrate,
    make_standard_operator,
    volume_slope,
)

delta = DilationFamily((1, 2))
z = Poly.zero(2)
X1 = PolyVectorField(2, (Poly.const(2, 1), z))
X2 = PolyVectorField(2, (z, Poly.var(2, 0)))
basis, sc = generate_lie_algebra([X1, X2], delta)
gens = [basis.W[i] for i in basis.generator_indices]

space = MetricSpace(gens, delta)

print("== distances")
for x, y in [([0.0, 0.0], [1.0, 0.0]),
             ([0.0, 0.0], [0.0, 1.0]),
             ([0.0, 0.0], [0.7, 0.4])]:
    res = space.distance(x, y)
    print(f"d({x}, {y}) in [{res.lower:.4f}, {res.upper:.4f}]")

print("\n== ball volumes at the origin (slope should be q = 3)")
radii = [2.0 ** k for k in range(-3, 3)]
vols = []
for i, r in enumerate(radii):
    v = space.ball_volume([0.0, 0.0], r, n_samples=300, seed=100 + i)
    vols.append(v.estimate)
    print(f"r = {r:6.3f}  |B| = {v.estimate:10.5f}  "
          f"CI [{v.confidence_interval[0]:.5f}, {v.confidence_interval[1]:.5f}]")
print(f"log-log slope: {volume_slope(radii, vols):.3f}")

print("\n== doubling ratios |B(2r)| / |B(r)|")
for c in space.doubling_check([0.0, 0.0], [0.5, 1.0, 2.0], 300, seed=3):
    print(f"r = {c['radius']:4.1f}  ratio = {c['ratio']:.2f}"
          f"  CI [{c['ratio_lo']:.2f}, {c['ratio_hi']:.2f}]")

print("\n== estimate scan at derivative order 1 (needs the kernel)")
lifted = build_lifting(basis, sc, delta)
L = make_standard_operator("sublaplacian_power", gens, k=1)
Lt = L.with_fields(lifted.lifted_fields)
kernel = kernel_calibrate(heisenberg_gauge_kernel(lifted), lifted, Lt)
ev = SaturationEvaluator(lifted, L, kernel)
pairs = [([1.0, 0.0], [0.0, 0.0]), ([0.5, 0.5], [-0.5, 0.2])]
rep = estimate_scan(ev, space, 1, pairs, n_samples=250, seed=1)
print(f"critical: {rep.critical}; sup ratio = {rep.sup_ratio:.4f}")
for row in rep.rows:
    print(f"  d = {row.dist:.4f}  ratio = {row.ratio:.4f}")
