"""The package's immutable value types: construction, repr, equality, copies.

Every record class is checked against literal expected values, the ones the
frozen dataclasses it replaced gave.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from poisson4 import (
    Bivector,
    CasimirPair,
    Covector4,
    LeafFormResult,
    LeafFrame,
    ModelSpec,
    Point4,
    PoissonVerdict,
    RationalForm,
    StructureConstants,
    Trajectory,
    Vector4,
    parse,
)

P = Point4(0.0, 1.0, -1.0, 2.5)
U = Vector4((1.0, 0.0, 0.0, 0.0))
V = Vector4((0.0, 1.0, 0.0, 0.0))
ALPHA = Covector4((0.5, 0.0, 0.0, 0.0))
BETA = Covector4((0.0, -0.5, 0.0, 0.0))
FRAME = LeafFrame(P, U, V, ALPHA, BETA)
PAIR = CasimirPair(parse("t"), parse("x^2 - y"))

# class, a value for every field in order, the field names, the repr
RECORDS = [
    (Point4, (1.5, -2.0, 0.0, 1e200, 0.25), ("x", "y", "z", "t", "s"),
     "Point4(x=1.5, y=-2.0, z=0.0, t=1e+200, s=0.25)"),
    (Covector4, ((1.0, 2.0, 3.0, 4.0),), ("entries",),
     "Covector4(entries=(1.0, 2.0, 3.0, 4.0))"),
    (Vector4, ((parse("x"), parse("0"), 1.0, -1.0),), ("entries",),
     "Vector4(entries=(Expr(x), Expr(0), 1.0, -1.0))"),
    (CasimirPair, (parse("t"), parse("x^2 - 3*t")), ("c1", "c2"),
     "CasimirPair(c1=Expr(t), c2=Expr(x^2 - 3*t))"),
    (PoissonVerdict, (False, ("x", "y", "z"), parse("2*x")),
     ("holds", "witness_triple", "witness"),
     "PoissonVerdict(holds=False, witness_triple=('x', 'y', 'z'), witness=Expr(2*x))"),
    (StructureConstants, ({(0, 1): parse("z")}, {(2, 3): parse("1")}),
     ("linear", "dropped"),
     "StructureConstants(linear={(0, 1): Expr(z)}, dropped={(2, 3): Expr(1)})"),
    (LeafFrame, (P, U, V, ALPHA, BETA), ("base", "u", "v", "alpha", "beta"),
     "LeafFrame(base=Point4(x=0.0, y=1.0, z=-1.0, t=2.5, s=0.0), "
     "u=Vector4(entries=(1.0, 0.0, 0.0, 0.0)), v=Vector4(entries=(0.0, 1.0, 0.0, 0.0)), "
     "alpha=Covector4(entries=(0.5, 0.0, 0.0, 0.0)), "
     "beta=Covector4(entries=(0.0, -0.5, 0.0, 0.0)))"),
    (LeafFormResult, (-2.0, ("y", "z"), 0.5, 0.5, -0.5, FRAME),
     ("coefficient", "chart", "area_coefficient", "pairing_alpha_v", "pairing_beta_u",
      "frame"),
     "LeafFormResult(coefficient=-2.0, chart=('y', 'z'), area_coefficient=0.5, "
     "pairing_alpha_v=0.5, pairing_beta_u=-0.5, frame=" + repr(FRAME) + ")"),
    (Trajectory, (((0.0, 0.5), (1.0, 1.0), (1.0, 0.75), (1.0, 1.0)), 0.0, 0.5,
                  {"H": (0.0, 0.5)}, {"H": 0.5}), ("columns", "s", "dt", "conserved", "drift"),
     "Trajectory(columns=((0.0, 0.5), (1.0, 1.0), (1.0, 0.75), (1.0, 1.0)), "
     "s=0.0, dt=0.5, conserved={'H': (0.0, 0.5)}, drift={'H': 0.5})"),
    (RationalForm, (parse("1"), parse("3*x^2 - 3*t")), ("numerator", "denominator"),
     "RationalForm(numerator=Expr(1), denominator=Expr(3*x^2 - 3*t))"),
    (ModelSpec, ("m", True, Fraction(1, 2), PAIR, "t", None, None, None, (parse("y"),)),
     ("name", "uses_s", "s_value", "casimirs", "coordinate_casimir", "expected_bivector",
      "leaf_coefficient", "leaf_coefficient_chart", "critical_locus"),
     "ModelSpec(name='m', uses_s=True, s_value=Fraction(1, 2), "
     "casimirs=CasimirPair(c1=Expr(t), c2=Expr(x^2 - y)), coordinate_casimir='t', "
     "expected_bivector=None, leaf_coefficient=None, leaf_coefficient_chart=None, "
     "critical_locus=(Expr(y),))"),
]
# Records holding a dict cannot be hashed, as with any value holding one.
UNHASHABLE = (StructureConstants, Trajectory)

params = pytest.mark.parametrize(
    "cls,args,fields,text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)


def _copy_of(value):
    """An equal value that is a different object (tuples rebuilt, dicts copied)."""
    if isinstance(value, tuple):
        return tuple(_copy_of(v) for v in value)
    if isinstance(value, dict):
        return {k: _copy_of(v) for k, v in value.items()}
    return value


@params
def test_repr(cls, args, fields, text):
    assert repr(cls(*args)) == text


@params
def test_fields_by_keyword_or_position(cls, args, fields, text):
    record = cls(*args)
    assert cls(**dict(zip(fields, args))) == record
    assert cls(*args[:1], **dict(zip(fields[1:], args[1:]))) == record
    assert all(getattr(record, f) is v for f, v in zip(fields, args))


@params
def test_equality_and_hash_follow_every_field(cls, args, fields, text):
    a, b = cls(*args), cls(*_copy_of(args))
    assert a == b and not a != b
    for i in range(len(args)):
        changed = args[:i] + (object(),) + args[i + 1:]
        assert a != cls(*changed)
    assert a != args and a != object()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(args)


def test_classes_with_equal_fields_differ():
    entries = (1.0, 2.0, 3.0, 4.0)
    assert Covector4(entries) != Vector4(entries)
    assert Vector4(entries) != Covector4(entries)
    c1, c2 = parse("t"), parse("x")
    assert CasimirPair(c1, c2) != RationalForm(c1, c2)


def test_defaults():
    assert Point4(1, 2, 3, 4) == Point4(1, 2, 3, 4, 0.0)
    assert Point4(1, 2, 3, 4).s == 0.0
    verdict = PoissonVerdict(True)
    assert (verdict.witness_triple, verdict.witness) == (None, None)
    assert repr(verdict) == "PoissonVerdict(holds=True, witness_triple=None, witness=None)"
    assert Point4(1, 2, 3, s=5.0, t=4) == Point4(1, 2, 3, 4, 5.0)
    with pytest.raises(TypeError):
        Point4(1, 2, 3, s=5.0)  # t has no default


@params
def test_bad_arguments_are_type_errors(cls, args, fields, text):
    with pytest.raises(TypeError):
        cls()  # every record has a field without a default
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{fields[0]: args[0]})


@params
def test_fields_cannot_be_assigned_or_deleted(cls, args, fields, text):
    record = cls(*args)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], args[0])
    with pytest.raises(AttributeError):
        setattr(record, "other", 1)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert repr(record) == text


@params
def test_pickle_and_deepcopy_round_trips(cls, args, fields, text):
    record = cls(*args)
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is cls and twin is not record
        assert twin == record and repr(twin) == text
    assert copy.copy(record) == record


def test_text_and_indexing_beside_the_repr():
    # A closed-form coefficient prints as a quotient, a bivector as its
    # nonzero entries above the diagonal and k, and covectors and vectors
    # index their entries.
    assert str(RationalForm(parse("1"), parse("3*x^2 - 3*t"))) == "(1) / (3*x^2 - 3*t)"
    b = Bivector.from_upper({(0, 1): parse("z"), (2, 3): parse("1 - 2*x*y")}, parse("1 + t^2"))
    assert repr(b) == "Bivector({'xy': 'z', 'zt': '-2*x*y + 1'}, k=t^2 + 1)"
    assert repr(Bivector.from_upper({})) == "Bivector({}, k=None)"
    assert (FRAME.alpha[0], FRAME.beta[1], FRAME.u[-1]) == (0.5, -0.5, 0.0)


def test_trajectory_points_are_built_once():
    cls, args = RECORDS[8][:2]
    traj = cls(*args)
    points = traj.points
    assert points == (Point4(0.0, 1.0, 1.0, 1.0), Point4(0.5, 1.0, 0.75, 1.0))
    assert traj.points is points
    assert pickle.loads(pickle.dumps(traj)).points == points


def test_casimir_pair_keeps_one_gradient_closure():
    pair = CasimirPair(parse("t"), parse("x^3 - 3*x*t + y^2 - z^2"))
    closure = pair._gradient_closure
    assert pair._gradient_closure is closure
    assert closure(1.0, 2.0, 3.0, 4.0, 0.0) == (0, 0, 0, 1, -9.0, 4.0, -6.0, -3.0)
    # The cached closure stays out of equality, hashing, pickles and copies.
    twin = CasimirPair(pair.c1, pair.c2)
    assert twin == pair and hash(twin) == hash(pair)
    for copied in (pickle.loads(pickle.dumps(pair)), copy.deepcopy(pair)):
        assert copied == pair
        assert copied._gradient_closure(1.0, 2.0, 3.0, 4.0, 0.0) == closure(1.0, 2.0, 3.0, 4.0, 0.0)
