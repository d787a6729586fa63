"""Building Poisson bivectors from Casimir pairs
================================================

Every local model ships as a pair of Casimir functions (C1, C2): the two
components of a chart map R^4 -> R^2.  The bracket matrix is the exact
polynomial determinant pi^{ij} = det(e_i, e_j, dC1, dC2), so both Casimirs
are annihilated identically and the construction can be replayed for any
pair you type in.
"""

import json

from poisson4 import (
    CasimirPair,
    bivector_to_json_dict,
    casimir_check,
    flaschka_ratiu,
    gradient,
    model,
    parse,
)

# The cusp chart (x, y, z, t) |-> (t, x^3 - 3xt + y^2 - z^2).
cusp = model("cusp")
print("cusp Casimirs:")
print("  C1 =", cusp.casimirs.c1)
print("  C2 =", cusp.casimirs.c2)
print("  dC2 =", tuple(str(e) for e in gradient(cusp.casimirs.c2)))

b = flaschka_ratiu(cusp.casimirs)
print("\ncusp bracket matrix (k = 1):")
for row in b.components:
    print("  [" + ", ".join(f"{str(e):>12s}" for e in row) + "]")

# Both Casimirs are annihilated exactly, as polynomials, not numerically.
print("\nC1 annihilated:", casimir_check(b, cusp.casimirs.c1))
print("C2 annihilated:", casimir_check(b, cusp.casimirs.c2))
print("x  annihilated:", casimir_check(b, parse("x")), "(x is not a Casimir)")

# The moves keep their deformation parameter symbolic until you bind it.
birth = model("birth")
print("\nbirth move, s symbolic:")
print("  {y,z} =", flaschka_ratiu(birth.casimirs).components[1][2])
birth0 = model("birth", 0)
print("birth move at s = 0:")
print("  {y,z} =", flaschka_ratiu(birth0.casimirs).components[1][2])

# A user-supplied pair works the same way: projections onto (x, y) leave the
# (z, t) plane symplectic with the constant bracket dz ^ dt.
plain = flaschka_ratiu(CasimirPair(parse("x"), parse("y")))
print("\npair (x, y) gives {z,t} =", plain.components[2][3])

# Bivectors serialize deterministically for golden files and the CLI.
print("\nfold bivector as JSON:")
print(json.dumps(bivector_to_json_dict(flaschka_ratiu(model("fold").casimirs)), indent=2))
