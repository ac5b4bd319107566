import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from sl2sym.polyring import Poly
from sl2sym.sl2_actions import act_rho1, act_rho2, rho2_constants
from sl2sym.symfunc import SchurVector
from sl2sym.vector import SparseVector, box_operator
from sl2sym.young import DiagramVector, KerovParams, hat_apply, kerov_apply, tilde_apply

ALGEBRA = ("__init__", "__add__", "__sub__", "__neg__", "__eq__", "__hash__", "__bool__", "__pow__",
           "zero", "unit")


def test_one_class_holds_the_algebra():
    for cls in (SchurVector, DiagramVector):
        assert issubclass(cls, SparseVector)
        assert not [name for name in ALGEBRA if name in vars(cls)]
    # the monomial oracle has its own storage and arithmetic
    assert not issubclass(Poly, SparseVector)
    # one partition-key check, for both partition bases
    assert "_check_key" not in vars(SchurVector) and "_check_key" not in vars(DiagramVector)


def test_base_constructors():
    # zero and unit come from SparseVector; only the unit's key differs
    assert SchurVector.zero(3) == SchurVector(3) and SchurVector.unit(0) == SchurVector(0, {(): 1})
    assert SchurVector.unit(3) == SchurVector(3, {(): 1})
    assert DiagramVector.zero(2) == DiagramVector(2) and DiagramVector.unit(2) == DiagramVector(2, {(): 1})
    assert DiagramVector.zero() == DiagramVector(None) and DiagramVector.unit() == DiagramVector(None, {(): 1})
    assert DiagramVector.zero().row_bound is None and DiagramVector.unit().row_bound is None
    assert Poly.zero(3) == Poly(3) and Poly.unit(3) == Poly(3, {(0, 0, 0): 1}) == Poly.constant(3, 1)
    for v in (SchurVector.unit(3), DiagramVector.unit(), Poly.unit(2)):
        assert [type(c) for c in v.terms.values()] == [int]


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


def assert_normal_form(den, nums) -> None:
    """(den, nums) is the normal form of a vector: den a positive int and
    the values of `nums` nonzero ints, with no common factor among them all."""
    assert type(den) is int and den > 0, den
    assert all(type(x) is int and x for x in nums.values()), nums
    assert gcd(den, *nums.values()) == 1, (den, nums)


def test_closed_results_drop_zeros_and_stay_canonical():
    v = SchurVector(3, {(2, 1): Fraction(1, 2), (1,): 3})
    assert (v - v).terms == {} and not v * 0 and not -v + v
    for w in (v + v, -v, 2 * v, v * Fraction(2, 3), v ** 2, act_rho1("raise", v)):
        assert w
        assert_canonical(w)
    assert (v + v).terms == {(2, 1): 1, (1,): 6} and type((v + v).terms[(2, 1)]) is int
    assert v ** 0 == SchurVector.unit(3) and type((v ** 0).terms[()]) is int
    assert Poly.variable(2, 1) ** 0 == Poly.constant(2, 1)


def typed_items(v) -> list:
    return [(key, type(c), c) for key, c in v.terms.items()]


@pytest.mark.parametrize("v", [
    SchurVector(3, {(2, 1): Fraction(1, 2), (1,): -3, (): Fraction(4, 3)}),
    SchurVector(4, {(1, 1): 2, (2,): -1}),
    SchurVector.basis(2, (1,)),
    SchurVector.zero(2),
    SchurVector.unit(0),
    Poly(2, {(1, 0): Fraction(1, 2), (0, 1): -3, (0, 0): Fraction(4, 3)}),
    Poly(3, {(0, 2, 1): 5, (1, 0, 0): Fraction(-2, 7)}),
    Poly.zero(1),
])
def test_power_is_the_product_from_the_unit(v):
    # v ** k starts from v itself, but equals the k-fold product from the
    # unit in values, term order and coefficient types
    folded = type(v).unit(v.ambient)
    for k in range(5):
        got = v ** k
        assert type(got) is type(v) and got.ambient == v.ambient
        assert typed_items(got) == typed_items(folded), k
        folded = folded * v


@pytest.mark.parametrize("v", [SchurVector.basis(2, (1,)), Poly.variable(2, 1)])
@pytest.mark.parametrize("k", [0.5, 1.0, 1.5, 0.0, Fraction(1), Fraction(1, 2)])
def test_power_refuses_exponents_that_are_not_integers(v, k):
    with pytest.raises(TypeError, match="integer"):
        v ** k


@pytest.mark.parametrize("row_bound", [None, 0, 3])
def test_diagram_vectors_have_only_the_zeroth_power(row_bound):
    y = DiagramVector(row_bound, {(): Fraction(1, 2)} if row_bound == 0 else {(2,): Fraction(1, 2), (1, 1): 1})
    assert y ** 0 == DiagramVector.unit(row_bound) and typed_items(y ** 0) == [((), int, 1)]
    for k in (1, 2, 3):
        with pytest.raises(TypeError, match="unsupported operand type"):
            y ** k
    with pytest.raises(ValueError, match="natural"):
        y ** -1


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
    for v in (SchurVector(3, {(1,): 1}), DiagramVector(None, {(1,): 1}), Poly(2, {(1, 0): 1})):
        for c in (0.5, Decimal("0.5")):
            for product in (lambda: v * c, lambda: c * v):
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
                 lambda: act_rho2("raise", SchurVector.basis(2, (1,)), 2.0),
                 lambda: Poly(2.0), lambda: Poly.zero(Fraction(2)), lambda: Poly.unit(2.0),
                 lambda: Poly.unit(Fraction(2)), lambda: SchurVector.unit(2.0),
                 lambda: Poly.constant(2.0, 1), lambda: Poly.variable(2.0, 1)):
        with pytest.raises(TypeError, match="integer"):
            make()
    assert DiagramVector(None).row_bound is None


def test_mixing_vector_types_raises():
    with pytest.raises(TypeError):
        SchurVector.unit(2) + DiagramVector.unit(2)
    with pytest.raises(ValueError):
        SchurVector.unit(2) - SchurVector.unit(3)
    assert SchurVector.unit(2) != DiagramVector.unit(2)


def test_equality_reads_class_ambient_and_every_coefficient():
    # verify compares its vectors as plain data, so equality is pinned here
    v = SchurVector(2, {(2,): 3, (1, 1): Fraction(-1, 2)})
    assert v == SchurVector(2, {(1, 1): Fraction(-1, 2), (2,): 3}) and not v != SchurVector(2, v.terms)
    for other in (SchurVector(2, {(2,): 3, (1, 1): Fraction(1, 2)}), SchurVector(2, {(2,): 3}),
                  SchurVector(3, v.terms), DiagramVector(2, v.terms)):
        assert v != other and not v == other
    assert Poly.monomial(2, (1, 0), 2) != Poly.monomial(2, (1, 0))


def test_repr():
    # the terms as the CLI prints them
    assert repr(SchurVector(3, {(2, 1): -1, (): Fraction(1, 2)})) == "SchurVector(3, 1/2*s[] - s[2,1])"
    assert repr(DiagramVector.zero()) == "DiagramVector(None, 0)"
    assert repr(Poly.monomial(2, (1, 0), 3)) == "Poly(2, 3*x^[1,0])"


def test_repr_prints_coefficients_of_any_length():
    # past CPython's 4,300-digit limit on int-to-str (3.10.7 and later),
    # which is restored afterwards
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    big, text = 10 ** 5000, "1" + "0" * 5000
    v = SchurVector(1, {(): big, (1,): Fraction(-1, big)})
    assert repr(v) == f"SchurVector(1, {text}*s[] - 1/{text}*s[1])"
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def box_image(lam, constants, row_bound) -> list:
    """The specification of `box_operator` on the single partition `lam`,
    as (partition, weight) pairs, walking the rows of `lam` and one empty
    row below them, top to bottom.  `constants` is (part, a, b):
    - ("remove", a, b): every removable cell, weight a + b*content;
    - ("add", a, b): every cell addable within `row_bound` rows (None:
      unbounded), weight a + b*content;
    - ("diagonal", a, b): lam itself, weight a + b*|lam|.
    The cell in row i (from 1) and column j has content j - i."""
    part, a, b = constants
    if part == "diagonal":
        return [(lam, a + b * sum(lam))]
    rows = tuple(lam) + (0,)
    images = []
    for i, row in enumerate(rows, 1):
        above = rows[i - 2] if i > 1 else None
        below = rows[i] if i < len(rows) else 0
        if part == "remove" and row > below:
            j = row
        elif part == "add" and (above is None or above > row) and (
                row_bound is None or i <= row_bound):
            j = row + 1
        else:
            continue
        mu = rows[:i - 1] + (j if part == "add" else j - 1,) + rows[i:]
        images.append((tuple(p for p in mu if p), a + b * (j - i)))
    return images


def box_operator_reference(v, constants, row_bound):
    """The linear extension of box_image, summed Fraction by Fraction.  An
    "add" refuses a key with more rows than a `row_bound` that is not None,
    at the first such key in term order."""
    out = {}
    for lam, c in v.terms.items():
        if constants[0] == "add" and row_bound is not None and len(lam) > row_bound:
            raise ValueError(f"{lam!r} already has more than {row_bound} rows")
        for mu, w in box_image(lam, constants, row_bound):
            out[mu] = out.get(mu, 0) + c * w
    return {mu: c for mu, c in out.items() if c}


def test_box_image_parts():
    # the operator and the spec, each against the images worked by hand
    def image(v, constants, row_bound):
        out = list(box_operator(v, constants, row_bound).terms.items())
        assert out == list(box_operator_reference(v, constants, row_bound).items())
        return out

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
    # past the bound, "add" refuses the key in the spec as in the operator;
    # "remove" and "diagonal" take it
    tall = DiagramVector(None, {(2, 1, 1): 1})
    with pytest.raises(ValueError, match=r"^\(2, 1, 1\) already has more than 2 rows$"):
        box_operator_reference(tall, ("add", 0, 1), 2)
    assert image(tall, ("remove", 0, 1), 2) == [((1, 1, 1), 1), ((2, 1), -2)]
    assert image(tall, ("diagonal", 1, 2), 2) == [((2, 1, 1), 9)]


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
