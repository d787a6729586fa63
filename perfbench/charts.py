"""The benchmark's own copy of the model charts and of the shared inputs.

The chart maps are transcribed from the project README ("Models" table), not
read from poisson4, so the output checks compare poisson4 against an
independent statement of what it was asked to compute.  Strings use Python
operator syntax; the workloads translate them to poisson4's syntax.
"""

# name -> (C1, C2, takes the parameter s)
CHARTS = {
    "lefschetz": ("x**2 - y**2 + z**2 - t**2", "2*x*y + 2*z*t", False),
    "fold": ("t", "-x**2 + y**2 + z**2", False),
    "cusp": ("t", "x**3 - 3*x*t + y**2 - z**2", False),
    "birth": ("t", "x**3 - 3*x*(t**2 - s) + y**2 - z**2", True),
    "merge": ("t", "x**3 - 3*x*(s - t**2) + y**2 - z**2", True),
    "flip": ("t", "x**4 - x**2*s + x*t + y**2 - z**2", True),
    "wrinkle": ("t**2 - x**2 + y**2 - z**2 + s*t", "2*t*x + 2*y*z", True),
}

NAMES = tuple(CHARTS)

S_VALUES = (-1, 0, 1)

# The conformal factor of the "with k" bivectors: positive on all of R^4.
K_TEXT = "1 + x**2 + y**2 + z**2 + t**2"

HAMILTONIANS = ("x", "x + y*z")

FLOW_ORIGIN = (0.1, 0.5, 0.5, 0.5)
FLOW_DT = 1e-3
FLOW_STEPS = 1000

# (model, s, h) whose flow from FLOW_ORIGIN exists up to t = 1.  The other
# 13 of the 30 combinations leave double precision before t = 1 (the
# Lefschetz and wrinkling charts for both h, and h = x + y*z on birth s = +-1,
# merge s = +-1 and flip s = -1).
FLOW_COMBOS = (
    ("fold", None, "x"),
    ("fold", None, "x + y*z"),
    ("cusp", None, "x"),
    ("cusp", None, "x + y*z"),
    ("birth", -1, "x"),
    ("birth", 0, "x"),
    ("birth", 0, "x + y*z"),
    ("birth", 1, "x"),
    ("merge", -1, "x"),
    ("merge", 0, "x"),
    ("merge", 0, "x + y*z"),
    ("merge", 1, "x"),
    ("flip", -1, "x"),
    ("flip", 0, "x"),
    ("flip", 0, "x + y*z"),
    ("flip", 1, "x"),
    ("flip", 1, "x + y*z"),
)


def model_s_pairs():
    """Every (model, s) the numeric workloads use: s in S_VALUES where taken."""
    return [
        (name, s)
        for name in NAMES
        for s in (S_VALUES if CHARTS[name][2] else (None,))
    ]


def to_poisson4(text: str) -> str:
    """Python operator syntax -> poisson4 expression syntax."""
    return text.replace("**", "^")
