from fractions import Fraction
from math import comb, factorial

import pytest

from sl2sym.combinatorics import partitions
from sl2sym.polyring import (
    Poly,
    alternant,
    poly_to_schur,
    power_sum_poly,
    schur_to_poly,
    staircase,
)
from sl2sym.symfunc import (
    SchurVector,
    multiply,
    power_sum_schur,
    z_generator_schur,
    z_monomial_schur,
)
from sl2sym.vector import box_operator
from sl2sym.verify import elementary_schur
from sl2sym.young import DiagramVector


def sv(n, terms):
    return SchurVector(n, terms)


def test_schur_vector_invariants():
    v = sv(3, {(2, 1): Fraction(1, 2), (1,): 0})
    assert v.terms == {(2, 1): Fraction(1, 2)}
    with pytest.raises(ValueError):
        sv(2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        sv(3, {(1, 2): 1})


def test_schur_to_poly_examples():
    assert schur_to_poly((1,), 3) == power_sum_poly(1, 3)
    expected = Poly(3, {
        (2, 1, 0): 1, (2, 0, 1): 1, (1, 2, 0): 1, (0, 2, 1): 1,
        (1, 0, 2): 1, (0, 1, 2): 1, (1, 1, 1): 2,
    })
    assert schur_to_poly((2, 1), 3) == expected
    assert schur_to_poly((), 3) == Poly.constant(3, 1)
    with pytest.raises(ValueError):
        schur_to_poly((1, 1), 1)


def test_bialternant_identity():
    # tableau expansion times the staircase alternant equals the shifted alternant
    for n in range(1, 5):
        delta = staircase(n)
        a_delta = alternant(delta, n)
        for size in range(7):
            for lam in partitions(size, n):
                padded = tuple(lam) + (0,) * (n - len(lam))
                shifted = tuple(p + d for p, d in zip(padded, delta))
                assert schur_to_poly(lam, n) * a_delta == alternant(shifted, n)


def test_poly_to_schur_examples():
    p2 = poly_to_schur(power_sum_poly(2, 3))
    assert p2 == sv(3, {(2,): 1, (1, 1): -1})
    from sl2sym.polyring import elementary_poly

    assert poly_to_schur(elementary_poly(2, 3)) == sv(3, {(1, 1): 1})
    with pytest.raises(ValueError):
        poly_to_schur(Poly.variable(2, 1))


def test_poly_to_schur_roundtrip():
    for n in range(1, 5):
        for size in range(8):
            for lam in partitions(size, n):
                assert poly_to_schur(schur_to_poly(lam, n)) == SchurVector.basis(n, lam)


def test_multiply_examples():
    u = multiply(SchurVector.basis(3, (1,)), SchurVector.basis(3, (2, 1)))
    assert u == sv(3, {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1})
    assert multiply(SchurVector.basis(1, (1,)), SchurVector.basis(1, (1,))) == sv(1, {(2,): 1})
    w = sv(2, {(2,): 3, (1, 1): Fraction(-1, 2)})
    assert multiply(w, SchurVector.unit(2)) == w
    with pytest.raises(ValueError):
        multiply(SchurVector.unit(2), SchurVector.unit(3))


def test_multiply_refuses_other_vectors():
    x, y = Poly.variable(2, 1), DiagramVector.basis((1,), 2)
    for v in (x, y):
        with pytest.raises(TypeError, match=f"^need a SchurVector, got {type(v).__name__}$"):
            multiply(v, v)
    with pytest.raises(TypeError, match="^cannot combine SchurVector with Poly$"):
        multiply(SchurVector.basis(2, (1,)), x)


def test_multiply_littlewood_richardson_examples():
    stable = {(4, 2): 1, (4, 1, 1): 1, (3, 3): 1, (3, 2, 1): 2, (3, 1, 1, 1): 1,
              (2, 2, 2): 1, (2, 2, 1, 1): 1}
    for n in (4, 5, 6):
        assert SchurVector.basis(n, (2, 1)) ** 2 == sv(n, stable)
    truncated = {lam: c for lam, c in stable.items() if len(lam) <= 3}
    assert SchurVector.basis(3, (2, 1)) ** 2 == sv(3, truncated)
    assert SchurVector.unit(0) ** 2 == SchurVector.unit(0)


def test_multiply_equals_monomial_oracle_at_six_rows():
    f = schur_to_poly((3, 2, 1), 6)
    square = SchurVector.basis(6, (3, 2, 1)) ** 2
    assert square == poly_to_schur(f * f)
    assert len(square.terms) == 34 and square.terms[(4, 3, 2, 2, 1)] == 4


def hook_length_count(lam) -> int:
    """f^lam, the number of standard Young tableaux of shape lam: |lam|!
    over the product of its hook lengths."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= (p - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(lam)) // hooks


def test_multiply_counts_standard_tableaux():
    # sum over nu of c^nu_(lam,mu) f^nu = C(|lam|+|mu|, |lam|) f^lam f^mu: both
    # count the standard tableaux of |lam|+|mu| cells whose smallest |lam|
    # entries form a tableau of shape lam; with n = |lam|+|mu| rows nothing
    # is truncated.  Checked for every pair with 1 <= |lam|, |mu| <= 6.
    shapes = [lam for size in range(1, 7) for lam in partitions(size)]
    assert [hook_length_count(lam) for lam in partitions(4)] == [1, 3, 2, 3, 1]
    for lam in shapes:
        for mu in shapes:
            n = sum(lam) + sum(mu)
            prod = multiply(SchurVector.basis(n, lam), SchurVector.basis(n, mu))
            assert sum(c * hook_length_count(nu) for nu, c in prod.terms.items()) == (
                comb(n, sum(lam)) * hook_length_count(lam) * hook_length_count(mu))


def test_multiply_structure_constants():
    for n in (2, 3):
        for lam in [(1,), (2,), (2, 1)]:
            for mu in [(1,), (1, 1)[:n], (2, 2)[:n]]:
                prod = multiply(SchurVector.basis(n, lam), SchurVector.basis(n, mu))
                for c in prod.terms.values():
                    assert c == int(c) and c > 0


def test_multiply_commutative_associative():
    a = SchurVector.basis(3, (2,))
    b = SchurVector.basis(3, (1, 1))
    c = SchurVector.basis(3, (2, 1))
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_pieri_e1():
    # multiplication by s_(1) is the box operator add (1, 0) within n rows
    def pieri_e1(v):
        return box_operator(v, ("add", 1, 0), v.n)

    assert pieri_e1(SchurVector.basis(3, (2, 1))) == sv(
        3, {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    )
    assert pieri_e1(SchurVector.unit(3)) == SchurVector.basis(3, (1,))
    assert pieri_e1(SchurVector.basis(1, (1,))) == SchurVector.basis(1, (2,))
    for n in (2, 3):
        for lam in [(2, 1), (3,)]:
            v = SchurVector.basis(n, lam)
            assert pieri_e1(v) == multiply(v, SchurVector.basis(n, (1,)))


def test_power_sum_schur():
    assert power_sum_schur(3, 3) == sv(3, {(3,): 1, (2, 1): -1, (1, 1, 1): 1})
    assert power_sum_schur(3, 2) == sv(2, {(3,): 1, (2, 1): -1})
    assert power_sum_schur(1, 4) == SchurVector.basis(4, (1,))
    for n in range(1, 5):
        for k in range(1, 9):
            assert power_sum_schur(k, n) == poly_to_schur(power_sum_poly(k, n))


def test_named_schur_families():
    assert elementary_schur(2, 4) == sv(4, {(1, 1): 1})
    assert elementary_schur(0, 2) == SchurVector.unit(2)
    with pytest.raises(ValueError):
        elementary_schur(3, 2)


def test_cached_families_refuse_non_ints_whatever_ran_before():
    # the caches are typed, so (2, 3.0) is not answered from a cached (2, 3)
    calls = {
        z_generator_schur: ((2, 3), ((2, 3.0), (2.0, 3), (2, Fraction(3)), (Fraction(2), 3))),
        schur_to_poly: (((1,), 2), (((1,), 2.0), ((1,), Fraction(2)))),
    }
    for f, (good, bad_args) in calls.items():
        expected = f(*good)
        for ints_first in (True, False):
            f.cache_clear()
            if ints_first:
                assert f(*good) == expected
            for bad in bad_args:
                with pytest.raises(TypeError):
                    f(*bad)
            assert f(*good) == expected


def test_z_generator_schur():
    from sl2sym.polyring import z_generator_poly

    for n in (2, 3, 4):
        for i in range(2, n + 1):
            assert z_generator_schur(i, n) == poly_to_schur(z_generator_poly(i, n))
    assert z_generator_schur(3, 2) == SchurVector.zero(2)
    assert z_monomial_schur((0, 0), 3) == SchurVector.unit(3)
    assert z_monomial_schur((1, 0), 3) == z_generator_schur(2, 3)
    with pytest.raises(ValueError):
        z_monomial_schur((1,), 3)


def test_z_monomial_matches_poly_route():
    from sl2sym.polyring import z_generator_poly

    for alpha in [(2, 0), (1, 1), (0, 2)]:
        direct = z_monomial_schur(alpha, 3)
        f = Poly.constant(3, 1)
        for idx, a in enumerate(alpha):
            f = f * z_generator_poly(idx + 2, 3) ** a
        assert direct == poly_to_schur(f)


def test_box_dimension_count():
    for n in range(1, 7):
        for d in range(7):
            total = sum(len(list(partitions(m, n, d))) for m in range(n * d + 1))
            assert total == comb(n + d, n)


def test_sorted_terms_order():
    v = sv(3, {(1, 1): -4, (2,): -2, (3,): 1, (): 5})
    assert [lam for lam, _ in v.sorted_terms()] == [(), (2,), (1, 1), (3,)]


def test_staircase():
    assert staircase(4) == (3, 2, 1, 0)
    assert staircase(1) == (0,)


def test_alternant():
    # repeated exponents give a vanishing determinant
    assert alternant((2, 2, 0), 3) == Poly.zero(3)
    assert alternant((1, 0), 2) == Poly(2, {(1, 0): 1, (0, 1): -1})
    with pytest.raises(ValueError):
        alternant((1, 0), 3)
