"""Independent reference computations for the output checks.

Everything here is computed with sympy and scipy from the benchmark's own
statement of the inputs (charts.py and the generated terms), never from
poisson4's intermediate results.  Each ``check_*`` function returns a list of
error strings; an empty list means the outputs agree with the reference.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from charts import CHARTS, FLOW_DT, FLOW_STEPS

# Exact polynomials over the rationals in x, y, z, t and the parameter s.
R, X, Y, Z, T, S = ring("x,y,z,t,s", QQ)
DOMAIN = R.to_domain()
COORDS = (X, Y, Z, T)
_LOCALS = {str(g): sp.Symbol(str(g)) for g in R.gens}
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# Relative agreement demanded of the leaf coefficients.  The chart
# coefficient -1/(k*pi^{ij}) loses accuracy as its pivot gets small next to
# the largest entry: on 4800 leaf-sweep points its relative error stayed
# below 1.6e-15 times max|k*pi| / |k*pi^{ij}| (which reached 6.5e5), so the
# coefficient is held to LEAF_RTOL times that ratio (at least 1), and
# |area_coefficient|, which has no such pivot, to LEAF_RTOL.
LEAF_RTOL = 1e-13
CHART_RTOL = 1e-9
# Final point of a 1000-step RK4 flow against DOP853 at rtol = atol = 1e-12:
# RK4 truncation error reaches about 2e-9 from the start points used.
FLOW_ATOL = 1e-7
DRIFT_LIMIT = 1e-6


def sym(text: str):
    """Parse Python or poisson4 syntax (``^`` is read as a power)."""
    return R.from_expr(sp.sympify(text.replace("^", "**"), locals=_LOCALS))


def from_terms(terms):
    """Polynomial from (exponents, coefficient) pairs in x, y, z, t, s."""
    return R({tuple(m): QQ(Fraction(c).numerator, Fraction(c).denominator) for m, c in terms})


def chart(name: str, s=None):
    c1, c2, _ = CHARTS[name]
    c1, c2 = sym(c1), sym(c2)
    if s is not None:
        c1, c2 = c1.subs(S, QQ(s)), c2.subs(S, QQ(s))
    return c1, c2


def grad(f) -> list:
    return [f.diff(v) for v in COORDS]


def _unit(i: int) -> list:
    return [R.one if r == i else R.zero for r in range(4)]


def det_columns(*cols):
    rows = [[cols[c][r] for c in range(4)] for r in range(4)]
    return DomainMatrix(rows, (4, 4), DOMAIN).det()


def bivector_entries(c1, c2) -> dict:
    """pi^{ij} = det(e_i, e_j, dC1, dC2) for i < j."""
    g1, g2 = grad(c1), grad(c2)
    return {(i, j): det_columns(_unit(i), _unit(j), g1, g2) for i, j in PAIRS}


def hamiltonian_field(c1, c2, h) -> list:
    """X_h^i = det(e_i, grad h, dC1, dC2)."""
    gh, g1, g2 = grad(h), grad(c1), grad(c2)
    return [det_columns(_unit(i), gh, g1, g2) for i in range(4)]


def _matrix(upper: dict) -> list:
    m = [[R.zero] * 4 for _ in range(4)]
    for (i, j), e in upper.items():
        m[i][j], m[j][i] = e, -e
    return m


def jacobiator(upper: dict) -> dict:
    """J^{ijk} of an antisymmetric matrix given by its upper entries."""
    m = _matrix(upper)
    return {
        (i, j, k): sum(
            (
                m[i][l] * m[j][k].diff(COORDS[l])
                + m[j][l] * m[k][i].diff(COORDS[l])
                + m[k][l] * m[i][j].diff(COORDS[l])
                for l in range(4)
            ),
            R.zero,
        )
        for i, j, k in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    }


def annihilates(upper: dict, f) -> bool:
    """True iff the matrix times grad f is identically zero."""
    m, g = _matrix(upper), grad(f)
    return all(sum((m[i][j] * g[j] for j in range(4)), R.zero) == 0 for i in range(4))


def numeric(poly, s_value: float = 0.0):
    """f((n, 4) points) -> (n,) values of a polynomial in x, y, z, t (and s)."""
    terms = [(np.array(m), float(c)) for m, c in poly.terms()]

    def evaluate(points: np.ndarray) -> np.ndarray:
        p = np.asarray(points, dtype=float)
        out = np.zeros(p.shape[0])
        for m, c in terms:
            out += c * np.prod(p ** m[:4], axis=1) * s_value ** m[4]
        return out

    return evaluate


# -- checks ----------------------------------------------------------------


def check_bivector(label, upper_out: dict, k_out, c1, c2, k) -> list[str]:
    """Each built entry must equal det(e_i, e_j, dC1, dC2); k must be kept."""
    errors = []
    expected = bivector_entries(c1, c2)
    for ij, e in expected.items():
        if upper_out[ij] != e:
            errors.append(f"{label}: pi^{ij} = {upper_out[ij]}, expected {e}")
    if (k_out is None) != (k is None) or (
        k is not None and k_out != k
    ):
        errors.append(f"{label}: conformal factor {k_out}, expected {k}")
    return errors


def leaf_reference(upper_k: dict, points: np.ndarray, s_value: float):
    """Reference chart index, chart coefficient, |area coefficient|, pivot ratio.

    ``upper_k`` holds the k-scaled entries k*pi^{ij}.  The chart is the
    lexicographically last pair with |k*pi^{ij}| above CHART_RTOL times the
    largest entry; its coefficient is -1/(k*pi^{ij}), and the area
    coefficient has magnitude 1/sqrt(sum (k*pi^{ij})^2).  The pivot ratio is
    max|k*pi| / |k*pi^{ij}| for the chart entry.
    """
    vals = np.stack([numeric(upper_k[ij], s_value)(points) for ij in PAIRS], axis=1)
    scale = np.max(np.abs(vals), axis=1)
    admissible = np.abs(vals) > CHART_RTOL * scale[:, None]
    chart_idx = 5 - np.argmax(admissible[:, ::-1], axis=1)
    pivot = vals[np.arange(len(points)), chart_idx]
    area = 1.0 / np.sqrt(np.sum(vals**2, axis=1))
    return chart_idx, -1.0 / pivot, area, scale / np.abs(pivot)


def check_leaf(label, upper_k, points, s_value, coef, chart_idx, area) -> list[str]:
    ref_chart, ref_coef, ref_area, ratio = leaf_reference(upper_k, points, s_value)
    errors = []
    for n in range(len(points)):
        where = f"{label} at {tuple(points[n].tolist())}"
        if chart_idx[n] != ref_chart[n]:
            errors.append(f"{where}: chart {PAIRS[chart_idx[n]]}, expected {PAIRS[ref_chart[n]]}")
            continue
        if not math.isclose(coef[n], ref_coef[n], rel_tol=LEAF_RTOL * max(1.0, ratio[n])):
            errors.append(f"{where}: coefficient {coef[n]!r}, expected {ref_coef[n]!r}")
        if not math.isclose(abs(area[n]), ref_area[n], rel_tol=LEAF_RTOL):
            errors.append(f"{where}: |area| {abs(area[n])!r}, expected {ref_area[n]!r}")
    return errors


def flow_reference(field: list, p0, s_value: float) -> np.ndarray:
    fns = [numeric(e, s_value) for e in field]

    def rhs(_t, y):
        p = y.reshape(1, 4)
        return np.array([f(p)[0] for f in fns])

    sol = solve_ivp(
        rhs, (0.0, FLOW_DT * FLOW_STEPS), np.asarray(p0, dtype=float),
        method="DOP853", rtol=1e-12, atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"reference flow failed: {sol.message}")
    return sol.y[:, -1]


def check_flow_csv(label, csv_text: str, c1, c2, h, p0, s_value) -> list[str]:
    """Final point against DOP853; C1, C2 and H drift from the CSV rows."""
    lines = csv_text.splitlines()
    if lines[0] != "step,x,y,z,t,C1,C2,H" or len(lines) != FLOW_STEPS + 2:
        return [f"{label}: CSV header or row count wrong ({len(lines)} lines)"]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    errors = []
    if not np.array_equal(rows[:, 0], np.arange(FLOW_STEPS + 1)):
        errors.append(f"{label}: step column is not 0..{FLOW_STEPS}")
    pts = rows[:, 1:5]
    if not np.allclose(pts[0], p0, rtol=0, atol=0):
        errors.append(f"{label}: first row {pts[0]} is not the start point {p0}")
    ref = flow_reference(hamiltonian_field(c1, c2, h), p0, s_value)
    err = float(np.max(np.abs(pts[-1] - ref)))
    if not err <= FLOW_ATOL:
        errors.append(f"{label}: final point off DOP853 by {err:.3e}")
    for col, f in ((5, c1), (6, c2), (7, h)):
        values = numeric(f, s_value)(pts)
        drift = float(np.max(np.abs(values - values[0])))
        if not drift < DRIFT_LIMIT:
            errors.append(f"{label}: drift of column {col} is {drift:.3e}")
        mismatch = float(np.max(np.abs(values - rows[:, col]) / (1.0 + np.abs(values))))
        if not mismatch <= 1e-12:
            errors.append(f"{label}: column {col} disagrees with the points by {mismatch:.3e}")
    return errors
