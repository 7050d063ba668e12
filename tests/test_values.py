"""The value types QuadInt, Mat2, PslElement and ResidueMatrix: immutable,
equal only to an instance of their own type, hashed and shown by their
fields, copied and pickled by value, unordered, without the concatenation or
repetition of a tuple, and multiplied only by their own type; a QuadInt and
a ResidueMatrix also have no per-instance `__dict__`, and a ResidueMatrix is
not a tuple."""

import copy
import pickle

import pytest

from bianchicert.congruence import ResidueMatrix, residue_identity, residue_matrix
from bianchicert.psl2 import Mat2, PslElement
from bianchicert.quadint import QuadInt

BIG = 2**70 + 1  # past the small-int cache, so equal copies are distinct objects


def one():
    return QuadInt(3, 1, 0)


def quadint():
    return QuadInt(3, BIG, -5)


def mat2():
    return Mat2(one(), quadint(), QuadInt(3, 0, 0), one())


def psl():
    return PslElement(mat2())


def residue():
    return residue_matrix(mat2(), 4)


# (build a fresh value, its fields in order, its repr)
VALUES = {
    "QuadInt": (quadint, ("d", "x", "y"), f"QuadInt(d=3, x={BIG}, y=-5)"),
    "Mat2": (mat2, ("a11", "a12", "a21", "a22"),
             f"Mat2(a11=QuadInt(d=3, x=1, y=0), a12=QuadInt(d=3, x={BIG}, y=-5), "
             f"a21=QuadInt(d=3, x=0, y=0), a22=QuadInt(d=3, x=1, y=0))"),
    "PslElement": (psl, ("rep",),
                   f"PslElement(rep=Mat2(a11=QuadInt(d=3, x=1, y=0), "
                   f"a12=QuadInt(d=3, x={BIG}, y=-5), a21=QuadInt(d=3, x=0, y=0), "
                   f"a22=QuadInt(d=3, x=1, y=0)))"),
    "ResidueMatrix": (residue, ("d", "n", "xy"),
                      "ResidueMatrix(d=3, n=4, xy=(1, 0, 1, 3, 0, 0, 1, 0))"),
}
TYPES = list(VALUES)


@pytest.mark.parametrize("name", TYPES)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, fields, _ = VALUES[name]
    value = build()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == build()


@pytest.mark.parametrize("name", TYPES)
def test_equal_only_to_its_own_type(name):
    build, fields, _ = VALUES[name]
    value = build()
    assert value != tuple(getattr(value, f) for f in fields)
    assert value != [getattr(value, f) for f in fields]
    assert value != 1 and value != None  # noqa: E711
    assert QuadInt(3, 1, 0) != (3, 1, 0) and QuadInt(3, 1, 0) != 1


@pytest.mark.parametrize("name", TYPES)
def test_equal_values_hash_equal(name):
    build, fields, _ = VALUES[name]
    a, b = build(), build()
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in fields))
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", TYPES)
def test_copies_and_pickles_are_equal(name):
    value = VALUES[name][0]()
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(again) is type(value) and again == value


@pytest.mark.parametrize("name", TYPES)
def test_repr(name):
    build, _, text = VALUES[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", TYPES)
def test_unordered(name):
    a, b = VALUES[name][0](), VALUES[name][0]()
    for compare in (lambda: a < b, lambda: a <= b, lambda: a > b, lambda: a >= b):
        with pytest.raises(TypeError):
            compare()


@pytest.mark.parametrize("name", ["Mat2", "PslElement", "ResidueMatrix"])
def test_no_tuple_concatenation_or_repetition(name):
    m = VALUES[name][0]()
    for op in (lambda: m + m, lambda: 3 * m, lambda: (1, 2) + m):
        with pytest.raises(TypeError):
            op()


def test_quadint_has_no_dict():
    # Mat2 and PslElement are slotted too; tests/test_psl2.py checks them
    assert not hasattr(quadint(), "__dict__")


def test_residue_matrix_is_a_slotted_non_tuple():
    r = residue()
    assert not hasattr(r, "__dict__") and not isinstance(r, tuple)


def test_residue_matrix_constructor_normalizes():
    minus_one = ResidueMatrix(3, 4, (-1, 0, 0, 0, 0, 0, -1, 0))
    assert minus_one == ResidueMatrix(3, 4, (3, 0, 0, 0, 0, 0, 3, 0)) == residue_identity(3, 4)
    assert minus_one.xy == (1, 0, 0, 0, 0, 0, 1, 0) and minus_one.is_identity()
    with pytest.raises(ValueError, match=r"^determinant 3 is not 1 in R_4$"):
        ResidueMatrix(3, 4, (3, 0, 0, 0, 0, 0, 1, 0))


def test_product_with_another_type_raises_type_error():
    m, p, r = Mat2.identity(3), psl(), residue()
    for op in (lambda: m * 3, lambda: p * p.rep, lambda: p.rep * p, lambda: r * 2,
               lambda: p * r, lambda: r * p, lambda: m * one()):
        with pytest.raises(TypeError):
            op()
