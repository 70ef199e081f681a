"""Value semantics of the package's immutable types: equality by type and
fields, equal hashes for equal values, and no assignment or deletion."""

import math
from random import Random

import pytest

from ellink.cli import RunConfig
from ellink.efun import (
    DeltaLeaf,
    EFun,
    PointAssignment,
    Product,
    Sum,
    ThetaLeaf,
    XPermuted,
    _Tape,
    delta_leaf,
    evaluate,
    joint_tape,
    random_point,
)
from ellink.identities import IdentityReport
from ellink.linkpattern import LinkPattern, Presentation, minimal_presentation, parse_pattern
from ellink.theta import ModularParams
from ellink.typecalc import LinearForm, QForm, TypeDecomposition, VarSpace, decompose_type

SPACE = VarSpace(3, 1)
X1 = SPACE.x(1)
H = SPACE.h()


def _class() -> EFun:
    return delta_leaf(X1 - SPACE.x(2), H)


# each builds a fresh value equal to, but not the same object as, the last
MAKE = {
    ModularParams: lambda: ModularParams(tau=2j),
    VarSpace: lambda: VarSpace(3, 1),
    LinearForm: lambda: SPACE.x(1) + SPACE.mu(1),
    QForm: lambda: _class().qtype,
    TypeDecomposition: lambda: decompose_type(_class().qtype),
    LinkPattern: lambda: parse_pattern("4,2:3>1,4>2"),
    Presentation: lambda: minimal_presentation(parse_pattern("4,2:1>3,4>2")),
    DeltaLeaf: lambda: DeltaLeaf(X1, H),
    ThetaLeaf: lambda: ThetaLeaf(X1, -1),
    Product: lambda: Product((ThetaLeaf(X1, 1), ThetaLeaf(H, -1))),
    Sum: lambda: Sum((ThetaLeaf(X1, 1), ThetaLeaf(H, 1))),
    XPermuted: lambda: XPermuted((2, 1, 3), ThetaLeaf(X1, 1)),
    EFun: _class,
    PointAssignment: lambda: random_point(SPACE, Random(5), ModularParams()),
    IdentityReport: lambda: IdentityReport.make("theta", 8, 1e-12, 1e-8),
    RunConfig: lambda: RunConfig(samples=3, seed=7),
}


@pytest.mark.parametrize("kind", MAKE, ids=lambda k: k.__name__)
def test_equal_values_hash_equal(kind):
    a, b = MAKE[kind](), MAKE[kind]()
    assert type(a) is kind
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).startswith(kind.__name__ + "(")


@pytest.mark.parametrize("kind", [*MAKE, _Tape], ids=lambda k: k.__name__)
def test_values_refuse_assignment_and_deletion(kind):
    v = joint_tape([_class()]) if kind is _Tape else MAKE[kind]()
    name = v._fields[0]
    before = getattr(v, name)
    with pytest.raises(AttributeError):
        setattr(v, name, None)
    with pytest.raises(AttributeError):
        delattr(v, name)
    with pytest.raises(AttributeError):
        v.extra = 1
    assert getattr(v, name) is before
    assert not hasattr(v, "extra")


def test_equality_is_type_strict():
    kids = (ThetaLeaf(X1, 1), ThetaLeaf(H, 1))
    assert Product(kids) != Sum(kids)
    assert ThetaLeaf(X1, 1) != ThetaLeaf(X1, -1)
    assert DeltaLeaf(X1, H) != DeltaLeaf(H, X1)
    assert ModularParams() != (1j, 1e-6)


def test_efun_equality_ignores_its_tape():
    f, g = _class(), _class()
    pt = random_point(SPACE, Random(1), ModularParams())
    evaluate(f, pt)
    assert f._tape is not None and g._tape is None
    assert f == g and hash(f) == hash(g)
    assert "_tape" not in repr(f)


def test_tapes_compare_by_identity():
    f = _class()
    t, u = joint_tape([f]), joint_tape([f])
    assert (t.forms, t.ops, t.roots) == (u.forms, u.ops, u.roots)
    assert t == t and t != u
    assert len({t, u}) == 2


def test_keyword_construction_and_defaults():
    assert ModularParams() == ModularParams(1j, 1e-6)
    assert ModularParams(tau=2j).pole_guard == 1e-6
    assert ModularParams(pole_guard=0.05, tau=2j) == ModularParams(2j, 0.05)
    assert RunConfig() == RunConfig(1j, 1e-8, 64, 0)
    assert RunConfig(seed=7, samples=3) == RunConfig(samples=3, seed=7, tol=1e-8)
    assert IdentityReport("x", 4, 0.5, 1.0, True).resamples == 0
    assert IdentityReport.make("x", 4, 0.5, 1.0) == IdentityReport("x", 4, 0.5, 1.0, True, 0)
    assert IdentityReport.make("x", 4, 2.0, 1.0, resamples=3).passed is False
    assert LinkPattern(m=4, r=1, arcs=((3, 1),)) == parse_pattern("4,1:3>1")


def test_identity_report_json_keeps_field_order():
    doc = IdentityReport.make("flip", 16, 1e-14, 1e-8, resamples=2).to_json()
    assert list(doc) == [
        "name", "samples", "max_relative_residual", "tolerance", "passed", "resamples"
    ]
    assert doc == {
        "name": "flip", "samples": 16, "max_relative_residual": 1e-14,
        "tolerance": 1e-8, "passed": True, "resamples": 2,
    }
    for residual in (math.inf, math.nan):
        doc = IdentityReport.make("flip", 16, residual, 1e-8).to_json()
        assert list(doc)[2] == "max_relative_residual"
        assert doc["max_relative_residual"] is None and doc["passed"] is False


def test_linear_form_hash_is_kept():
    lf = MAKE[LinearForm]()
    assert hash(lf) == hash((lf.space, lf.coeffs))
    assert hash(lf) == hash(lf)
    assert {lf: 1}[MAKE[LinearForm]()] == 1
