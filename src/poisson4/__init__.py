"""Poisson bivectors on R^4 with prescribed Casimir pairs.

Construct the antisymmetric bracket matrix pi^{ij} = det(e_i, e_j, dC1, dC2)
for a pair of Casimir functions, verify the Poisson axioms by exact
polynomial identities, and recover the symplectic form on the leaves
numerically (frames, anchor solves, coefficients, Hamiltonian flow).

The names of the leaf module (``poisson4.leaves``) are loaded on first use,
so that a command that needs no leaf geometry starts without compiling it.
"""

from .expr import (
    Expr,
    ParseError,
    Point4,
    Var,
    parse,
)
from .models import (
    MODEL_NAMES,
    ModelSpec,
    RationalForm,
    catalogue_json,
    expected_bivector,
    model,
)
from .poisson import (
    Bivector,
    CasimirPair,
    ConformalFactorWarning,
    Covector4,
    DroppedConstantWarning,
    PoissonVerdict,
    StructureConstants,
    Vector4,
    bivector_to_json_dict,
    casimir_check,
    flaschka_ratiu,
    gradient,
    hamiltonian_field,
    is_poisson,
    jacobiator,
    linear_part,
    rank_at,
)

__version__ = "0.1.0"
SCHEMA_VERSION = 1

_LEAF_NAMES = (
    "LeafFrame",
    "LeafFormResult",
    "Trajectory",
    "SingularPointError",
    "NotInImageError",
    "NonFiniteError",
    "leaf_tangent_frame",
    "solve_anchor",
    "leaf_form_coefficient",
    "flow",
)

__all__ = [
    "Expr",
    "ParseError",
    "Point4",
    "Var",
    "parse",
    "Bivector",
    "CasimirPair",
    "Covector4",
    "Vector4",
    "PoissonVerdict",
    "StructureConstants",
    "ConformalFactorWarning",
    "DroppedConstantWarning",
    "gradient",
    "flaschka_ratiu",
    "jacobiator",
    "is_poisson",
    "casimir_check",
    "rank_at",
    "hamiltonian_field",
    "linear_part",
    "bivector_to_json_dict",
    "MODEL_NAMES",
    "ModelSpec",
    "RationalForm",
    "model",
    "expected_bivector",
    "catalogue_json",
    *_LEAF_NAMES,
    "__version__",
    "SCHEMA_VERSION",
]


def __getattr__(name: str):
    if name in _LEAF_NAMES:
        from . import leaves

        return getattr(leaves, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
