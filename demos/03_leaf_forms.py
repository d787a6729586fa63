"""Recovering the symplectic form on the leaves
================================================

At a rank-2 point the leaf tangent plane is the image of the bracket matrix
B.  Solving the anchor equation B(alpha) = u and pairing omega(u, v) =
<alpha, v> = -<beta, u> recovers the leaf symplectic form numerically.

Two normalizations are reported: against the Euclidean area form of the
leaf (orthonormal frame) and against a coordinate chart plane.  The chart
normalization is the one the closed-form catalogue coefficients use.
"""

import numpy as np

from poisson4 import (
    Point4,
    flaschka_ratiu,
    leaf_form_coefficient,
    model,
)

# Frames: orthonormal, tangent (annihilated by both dC), oriented; the
# leaf-form result carries the frame it was computed on.
cusp = model("cusp")
b = flaschka_ratiu(cusp.casimirs)
p = Point4(0, 1, 1, 1)
r = leaf_form_coefficient(b, p)
frame = r.frame
print("cusp frame at", p.coords())
print("  u =", np.round(frame.u.as_array(), 6))
print("  v =", np.round(frame.v.as_array(), 6))
print("  alpha =", np.round(frame.alpha.as_array(), 6))

print("\ncusp leaf form at", p.coords())
print("  chart plane:        ", r.chart)
print("  chart coefficient:  ", r.coefficient, " (closed form 1/(3(x^2-t)) = -1/3)")
print("  area coefficient:   ", r.area_coefficient, " (= 1/sqrt(17) here)")
print("  antisymmetry defect:", r.antisymmetry_defect)

# The recovered chart coefficient reproduces the catalogue closed forms at
# every regular sample point, for the cusp, birth, merging and flipping
# charts alike.
rng = np.random.default_rng(12)
for name, s in (("cusp", None), ("birth", 1), ("merge", -1), ("flip", 0)):
    spec = model(name, s)
    biv = flaschka_ratiu(spec.casimirs)
    worst = 0.0
    accepted = 0
    while accepted < 50:
        q = Point4(*rng.uniform(-2, 2, size=4))
        if abs(spec.leaf_coefficient.denominator.evaluate(q)) < 0.3:
            continue
        got = leaf_form_coefficient(biv, q).coefficient
        want = spec.leaf_coefficient.evaluate(q)
        worst = max(worst, abs(got - want) / abs(want))
        accepted += 1
    print(f"{name:6s} s={s}: worst relative error vs closed form over 50 points: {worst:.2e}")

# The wrinkling chart carries a known factor -2: its quoted coefficient
# -1/(2(ty+xz)) belongs to the matrix rescaled by -1/2, while the k = 1
# matrix stored in the catalogue recovers +1/(4(ty+xz)).
spec = model("wrinkle", 0)
biv = flaschka_ratiu(spec.casimirs)
q = Point4(0, 1, 0, 1)
r = leaf_form_coefficient(biv, q)
print("\nwrinkle at", q.coords())
print("  recovered chart coefficient:", r.coefficient)
print("  chart-normalized closed form:", spec.leaf_coefficient_chart.evaluate(q))
print("  quoted closed form:          ", spec.leaf_coefficient.evaluate(q))
print("  quoted / recovered =         ", spec.leaf_coefficient.evaluate(q) / r.coefficient)
