"""Records without generated methods: construction, equality, hashing,
immutability and repr, checked against fixed expected values."""

from array import array
import copy
import pickle
import re

import numpy as np
import pytest

from obsv_lab.cli import Result
from obsv_lab.expr import CATALOG, Add, Const, Func, Mul, Neg, Pow, Sub, Var, parse
from obsv_lab.lie import ObservableWord
from obsv_lab.model import CascadeSystem, preset
from obsv_lab.obsv import PeriodicityVerdict, SeparationCertificate
from obsv_lab.sim import FeedbackLaw, InputSignal, Trajectory

a, b = Var("x"), Const(2.0)


def test_expr_equality_is_class_exact_and_field_wise():
    assert Add(a, b) == Add(Var("x"), Const(2.0))
    assert Add(a, b) != Sub(a, b)
    assert Mul(a, b) != Mul(b, a)
    assert Neg(a) != a
    assert Add(a, b) != (a, b)
    assert Pow(a, 2) != Pow(a, 3)


def test_signed_zeros_are_equal_and_hash_alike():
    assert Const(0.0) == Const(-0.0)
    assert hash(Const(0.0)) == hash(Const(-0.0))
    assert len({Const(0.0), Const(-0.0), Const(1.0)}) == 2


def test_equal_trees_hash_alike():
    e1, e2 = parse("sin(x)^2 + x/3", {"x"}), parse("sin(x)^2 + x/3", {"x"})
    assert e1 is not e2 and e1 == e2 and hash(e1) == hash(e2)
    assert {e1: 1}[e2] == 1


@pytest.mark.parametrize("obj, field", [
    (Add(a, b), "left"),
    (Const(1.0), "value"),
    (Func("sin", a), "name"),
    (CATALOG["sin"], "period"),
    (ObservableWord(1, (0, 1)), "mu"),
    (InputSignal.constant(1.0), "params"),
    (preset("fish-1d-gauss"), "b"),
    (FeedbackLaw.static("-y1"), "output"),
])
def test_frozen_records_refuse_assignment(obj, field):
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, field) is before


def test_repr_names_every_field():
    assert repr(Add(a, b)) == "Add(left=Var(name='x'), right=Const(value=2.0))"
    assert repr(Pow(a, -2)) == "Pow(base=Var(name='x'), exponent=-2)"
    assert repr(ObservableWord(2, [0, 1])) == "ObservableWord(j=2, mu=(0, 1))"
    assert repr(InputSignal.zero()) == "InputSignal(kind='zero', params=())"
    assert repr(PeriodicityVerdict("aperiodic", None, {"rule": "limit"})) == (
        "PeriodicityVerdict(classification='aperiodic', period=None, evidence={'rule': 'limit'})"
    )


def test_keywords_and_defaults():
    assert InputSignal("zero") == InputSignal(kind="zero", params=())
    sys_ = CascadeSystem(n=1, gamma=(a,), F=(Neg(Var("z1")),), b=(1.0,))
    assert sys_ == CascadeSystem(1, (a,), (Neg(Var("z1")),), (1.0,))
    assert Result(0, {}, []).csv is None

    def render():
        return "t,x1\n"

    assert Result(0, {}, [], csv=render).csv is render
    cert = SeparationCertificate("separated", None, 1.0, 2.0)
    assert cert.bounds == {}
    assert SeparationCertificate("separated", None, 1.0, 2.0).bounds is not cert.bounds


@pytest.mark.parametrize("call, message", [
    (lambda: Add(a), "missing argument 'right'"),
    (lambda: Add(a, b, b), "takes 2 arguments, got 3"),
    (lambda: Const(value=1.0, name="x"), "unexpected arguments ['name']"),
    (lambda: InputSignal("zero", (), 1), "takes 2 arguments, got 3"),
], ids=["missing", "too-many", "unknown-keyword", "too-many-with-a-default"])
def test_bad_calls_raise_type_error(call, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        call()


def test_equal_reports_compare_equal_and_stay_mutable():
    v1 = PeriodicityVerdict("periodic", 6.25, {"rule": "periodic"})
    v2 = PeriodicityVerdict("periodic", 6.25, {"rule": "periodic"})
    assert v1 == v2
    assert v1 != PeriodicityVerdict("periodic", 6.5, {"rule": "periodic"})
    c1 = SeparationCertificate("separated", ObservableWord(1, (0,)), 1.0, 2.0, {"k_max": 12})
    c2 = SeparationCertificate("separated", ObservableWord(1, (0,)), 1.0, 2.0, {"k_max": 12})
    assert c1 == c2
    c2.value1 = 3.0
    assert c2.value1 == 3.0 and c1 != c2
    with pytest.raises(TypeError):
        hash(c1)
    with pytest.raises(AttributeError):
        c1.extra = 1


def test_records_with_equal_fields_are_equal():
    t1 = Trajectory(0.0, 0.1, array("d", [0.0] * 6), 3, 0, 2, ("x1", "z1"), ("y1",))
    t2 = Trajectory(0.0, 0.1, array("d", [0.0] * 6), 3, 0, 2, ("x1", "z1"), ("y1",))
    # two buffers: a trajectory compares its samples bit for bit, so -0.0
    # is not 0.0
    assert t1 == t2
    t2.rows[5] = -0.0
    assert t1 != t2
    assert Result(0, {}, []) == Result(0, {}, [])
    assert Result(0, {}, []) != Result(1, {}, [])


def test_word_normalizes_and_checks_its_fields():
    assert ObservableWord(1, [np.int64(1), 0.0]).mu == (1, 0)
    assert len(ObservableWord(1, (0, 1, 0))) == 3
    with pytest.raises(ValueError, match="output index"):
        ObservableWord(0, ())
    with pytest.raises(ValueError, match="field indices"):
        ObservableWord(1, (-1,))


@pytest.mark.parametrize("obj", [
    parse("sin(x)^2 + 1/(x - 3)", {"x"}),
    ObservableWord(1, (0, 1)),
    InputSignal.sinusoid(1.0, 2.0),
    preset("periodic-sin"),
    PeriodicityVerdict("periodic", 6.25, {"rule": "periodic"}),
], ids=lambda obj: type(obj).__name__)
def test_records_survive_pickle_and_copy(obj):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(twin) is type(obj) and twin == obj
    assert copy.deepcopy(obj) is not obj
