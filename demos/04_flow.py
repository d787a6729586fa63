"""Hamiltonian flow and conservation diagnostics
=================================================

Trajectories of X_h = B(dh) stay inside a single leaf, so both Casimirs and
h itself are conserved.  The fixed-step RK4 integrator tracks all three per
step and reports the maximum drift; trajectories export as CSV.
"""

from poisson4 import NonFiniteError, Point4, flaschka_ratiu, flow, model, parse

cusp = model("cusp")
b = flaschka_ratiu(cusp.casimirs)

traj = flow(b, parse("x"), Point4(0, 1, 1, 1), dt=1e-3, steps=1000)
print("cusp flow of h = x, 1000 steps at dt = 1e-3:")
for key, value in traj.drift.items():
    print(f"  max |{key} - {key}(0)| = {value:.3e}")
print("  final point:", tuple(round(c, 6) for c in traj.points[-1].coords()))

# A Casimir generates no motion at all.
still = flow(b, cusp.casimirs.c2, Point4(0, 1, 1, 1), dt=1e-2, steps=10)
print("\nflow of h = C2 is stationary:",
      all(p == still.points[0] for p in still.points))

# CSV export: step,x,y,z,t,C1,C2,H with 17 significant digits.
short = flow(b, parse("x + y*z"), Point4(0.1, 0.5, 0.5, 0.5), dt=1e-3, steps=5)
print("\nCSV head:")
for line in short.to_csv().splitlines()[:4]:
    print(" ", line)

# Polynomial Hamiltonian fields need not be complete: on the wrinkling chart
# the flow of h = x escapes to infinity in finite time (t ~ 0.806 from this
# start), conserving both Casimirs to machine precision until it does.
wrinkle = model("wrinkle", 0)
bw = flaschka_ratiu(wrinkle.casimirs)
p0 = Point4(0.1, 0.5, 0.5, 0.5)
pre = flow(bw, parse("x"), p0, dt=1e-3, steps=500)
print("\nwrinkle flow of h = x, first 500 steps: max drift =",
      f"{max(pre.drift.values()):.3e}")
try:
    flow(bw, parse("x"), p0, dt=1e-3, steps=1000)
except NonFiniteError as err:
    print("continuing to 1000 steps:", err)
    last = tuple(f"{c:.3g}" for c in err.last_point.coords())
    print(f"  last finite point, after step {err.step - 1}:", last)
