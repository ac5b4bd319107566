from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from sl2sym.polyring import Poly
from sl2sym.sl2_actions import act_rho1, act_rho2, rho2_constants
from sl2sym.symfunc import SchurVector
from sl2sym.vector import SparseVector, box_operator
from sl2sym.young import DiagramVector, KerovParams, hat_apply, kerov_apply, tilde_apply

ALGEBRA = ("__init__", "__add__", "__sub__", "__neg__", "__eq__", "__hash__", "__bool__", "__pow__")


def test_one_class_holds_the_algebra():
    for cls in (Poly, SchurVector, DiagramVector):
        assert issubclass(cls, SparseVector)
        assert not [name for name in ALGEBRA if name in vars(cls)]


def test_ambient_attributes():
    assert Poly(2).n == 2 and SchurVector(3).n == 3
    assert DiagramVector(4).row_bound == 4 and DiagramVector(None).row_bound is None
    assert not hasattr(DiagramVector(4), "n")
    assert not hasattr(SchurVector(3), "row_bound")


def assert_canonical(v) -> None:
    """Every coefficient of `v`, a vector or a {key: coefficient} dict, is a
    nonzero int, or a Fraction with denominator > 1 coprime to its numerator."""
    for key, c in getattr(v, "terms", v).items():
        if type(c) is int:
            assert c, (key, c)
        else:
            assert type(c) is Fraction, (key, c)
            assert c.denominator > 1 and gcd(c.numerator, c.denominator) == 1, (key, c.numerator, c.denominator)


def test_closed_results_drop_zeros_and_stay_canonical():
    v = SchurVector(3, {(2, 1): Fraction(1, 2), (1,): 3})
    assert (v - v).terms == {} and not v * 0 and not -v + v
    for w in (v + v, -v, 2 * v, v * Fraction(2, 3), v ** 2, act_rho1("raise", v)):
        assert w
        assert_canonical(w)
    assert (v + v).terms == {(2, 1): 1, (1,): 6} and type((v + v).terms[(2, 1)]) is int
    assert v ** 0 == SchurVector.unit(3) and type((v ** 0).terms[()]) is int
    assert Poly.variable(2, 1) ** 0 == Poly.constant(2, 1)


def test_canonical_coefficient_boundaries():
    two = SchurVector(2, {(1,): Fraction(4, 2)})
    assert two.terms == {(1,): 2} and type(two.terms[(1,)]) is int
    assert SchurVector(2, {(1,): Fraction(0, 3), (): True}).terms == {(): 1}
    assert type(SchurVector(2, {(): True}).terms[()]) is int
    s = SchurVector(3, {(2, 1): 1, (1,): 3})
    halves = s * Fraction(1, 2) + s * Fraction(1, 2)
    assert halves == s and all(type(c) is int for c in halves.terms.values())
    assert_canonical(s * Fraction(1, 2))
    assert (s * Fraction(1, 2)).terms[(2, 1)] == Fraction(1, 2)
    # U adds a box with weight z + content: 2*y[1] -> 3*y[2] - y[1,1] and
    # y[2] -> 5/2*y[3] - 1/2*y[2,1]
    image = kerov_apply("U", DiagramVector(None, {(1,): 2, (2,): 1}), KerovParams(Fraction(1, 2), 0))
    assert image.terms == {(2,): 3, (1, 1): -1, (3,): Fraction(5, 2), (2, 1): Fraction(-1, 2)}
    assert type(image.terms[(2,)]) is int and type(image.terms[(1, 1)]) is int
    assert_canonical(image)


def test_float_coefficients_raise():
    # 0.1 is not 1/10 in binary, so a float is refused by name, not stored
    for make in (lambda: SchurVector(3, {(2,): 1, (1,): 0.1}),
                 lambda: DiagramVector(None, {(1,): 0.5}),
                 lambda: Poly(2, {(1, 0): -2.0})):
        with pytest.raises(TypeError, match=r"^coefficient of \((1|1, 0),?\): float"):
            make()
    v = SchurVector(3, {(1,): 1})
    for product in (lambda: v * 0.5, lambda: 0.5 * v):
        with pytest.raises(TypeError):
            product()
    exact = SchurVector(3, {(1,): Decimal("0.1"), (2,): True, (3,): Fraction(6, 4), (): 2})
    assert exact.terms == {(1,): Fraction(1, 10), (2,): 1, (3,): Fraction(3, 2), (): 2}
    assert type(exact.terms[(2,)]) is int
    assert_canonical(exact)


def test_checked_constructor():
    with pytest.raises(ValueError):
        SchurVector(-1)
    with pytest.raises(ValueError):
        DiagramVector(-1)
    for cls in (SchurVector, DiagramVector):
        with pytest.raises(ValueError):
            cls(0, {(1,): 1})
        assert cls(0, {(): 2}).terms == {(): 2}
    with pytest.raises(ValueError):
        Poly(2, {(1, 0, 0): 1})


def test_non_int_ambients_raise():
    # a float or Fraction variable count, row bound or column bound is a
    # TypeError, not a vector or operator in 2.5 variables
    for make in (lambda: SchurVector(2.0), lambda: SchurVector.basis(Fraction(2), (1,)),
                 lambda: DiagramVector(2.5), lambda: DiagramVector.unit(Fraction(3)),
                 lambda: rho2_constants(2.0, 2), lambda: rho2_constants(2, Fraction(2)),
                 lambda: act_rho2("raise", SchurVector.basis(2, (1,)), 2.0)):
        with pytest.raises(TypeError, match="integer"):
            make()
    assert DiagramVector(None).row_bound is None


def test_mixing_vector_types_raises():
    with pytest.raises(TypeError):
        SchurVector.unit(2) + DiagramVector.unit(2)
    with pytest.raises(ValueError):
        SchurVector.unit(2) - SchurVector.unit(3)
    assert SchurVector.unit(2) != DiagramVector.unit(2)


def test_repr():
    assert repr(SchurVector(3, {(2, 1): -1, (): Fraction(1, 2)})) == "SchurVector(3, 1/2*s[] - 1*s[2, 1])"
    assert repr(DiagramVector.zero()) == "DiagramVector(None, 0)"
    assert repr(Poly.monomial(2, (1, 0), 3)) == "Poly(2, 3*x^[1, 0])"


def test_box_image_parts():
    def image(v, constants, row_bound):
        return list(box_operator(v, constants, row_bound).terms.items())

    lam = {(2, 1): 1}
    assert image(SchurVector(3, lam), ("remove", 0, 1), 3) == [((1, 1), 1), ((2,), -1)]
    assert image(DiagramVector(None, lam), ("add", 5, 1), None) == [
        ((3, 1), 7), ((2, 2), 5), ((2, 1, 1), 3)
    ]
    assert image(SchurVector(2, lam), ("add", 5, 1), 2) == [((3, 1), 7), ((2, 2), 5)]
    assert image(SchurVector(3, lam), ("diagonal", 1, 2), 3) == [((2, 1), 7)]
    # (3, 2) is first reached from (3, 1) with weight 0 and keeps that place
    two = DiagramVector(None, {(3, 1): 1, (2, 2): 1})
    assert image(two, ("add", 0, 1), None) == [
        ((4, 1), 3), ((3, 2), 2), ((3, 1, 1), -2), ((2, 2, 1), -2)
    ]


def test_box_operator_unbounded_result():
    v = DiagramVector.basis((1,), 1)
    out = box_operator(v, ("add", 1, 0), None)
    assert out == DiagramVector(None, {(2,): 1, (1, 1): 1})


def test_raise_on_one_box():
    # rho1 raising in two rows: s_1 -> s_2 - s_11 (the added cells have contents 1 and -1)
    assert act_rho1("raise", SchurVector.basis(2, (1,))) == SchurVector(2, {(2,): 1, (1, 1): -1})
    # rho2 raising never reaches column d + 1
    assert act_rho2("raise", SchurVector.basis(2, (1,)), 1) == SchurVector(2, {(1, 1): 2})


PARAMS = KerovParams(Fraction(1, 2), Fraction(-3))
UNKNOWN_OPERATOR = [
    ("rho1", lambda: act_rho1("bogus", SchurVector.zero(3))),
    ("rho2", lambda: act_rho2("bogus", SchurVector.zero(3), 2)),
    ("hat", lambda: hat_apply("bogus", DiagramVector.zero(3), 3)),
    ("tilde", lambda: tilde_apply("bogus", DiagramVector.zero(3), 3, 2)),
    ("kerov", lambda: kerov_apply("bogus", DiagramVector.zero(), PARAMS)),
]


@pytest.mark.parametrize("rep, call", UNKNOWN_OPERATOR, ids=[rep for rep, _ in UNKNOWN_OPERATOR])
def test_unknown_operator_raises_on_every_input(rep, call):
    with pytest.raises(ValueError, match="unknown operator"):
        call()


def test_negative_column_bound_rejected():
    with pytest.raises(ValueError):
        act_rho2("raise", SchurVector.unit(2), -1)
    with pytest.raises(ValueError):
        tilde_apply("cartan", DiagramVector.unit(2), 2, -1)
