from fractions import Fraction

import pytest

from sl2sym.combinatorics import partitions
from sl2sym.symfunc import SchurVector, z_monomial_schur
from sl2sym.verify import _transported
from sl2sym.vector import box_operator
from sl2sym.young import (
    DiagramVector,
    KerovParams,
    hat_apply,
    kerov_apply,
    phi,
    phi_inverse,
    tilde_apply,
)


def dv(terms, bound=None):
    return DiagramVector(bound, terms)


def test_diagram_vector_invariants():
    v = dv({(2, 1): 1, (1,): 0}, bound=3)
    assert v.terms == {(2, 1): 1}
    with pytest.raises(ValueError):
        dv({(1, 1, 1): 1}, bound=2)
    with pytest.raises(ValueError, match=r"diagram \(2, 2, 1\) has more than 2 rows"):
        DiagramVector.basis((2, 2, 1), 2)
    with pytest.raises(ValueError):
        dv({(2, 1): 1}, bound=2) + dv({(1,): 1}, bound=3)


def test_hat_apply_examples():
    low = hat_apply("lower", DiagramVector.basis((2, 1), 3), 3)
    assert low == dv({(1, 1): -4, (2,): -2}, bound=3)
    assert hat_apply("raise", DiagramVector.unit(3), 3) == DiagramVector.zero(3)
    assert hat_apply("cartan", DiagramVector.basis((2, 1), 3), 3) == dv(
        {(2, 1): 6}, bound=3
    )


def test_tilde_apply_examples():
    assert tilde_apply("cartan", DiagramVector.unit(3), 3, 6) == dv({(): -18}, bound=3)
    assert tilde_apply("raise", DiagramVector.basis((4,), 1), 1, 4) == DiagramVector.zero(1)
    assert tilde_apply("raise", DiagramVector.unit(2), 2, 2) == dv({(1,): 2}, bound=2)
    with pytest.raises(ValueError):
        tilde_apply("lower", DiagramVector.basis((3,), 2), 2, 2)


def test_hat_and_tilde_keep_their_input_checks():
    tall = dv({(2, 1): 1, (1, 1, 1): Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"partition \(1, 1, 1\) has more than 2 rows"):
        hat_apply("raise", tall, 2)
    with pytest.raises(ValueError, match=r"partition \(1, 1, 1\) has more than 2 rows"):
        tilde_apply("cartan", tall, 2, 3)
    with pytest.raises(ValueError, match=r"partition \(4,\) violates the column bound 3"):
        tilde_apply("raise", dv({(4,): 1}, bound=2), 2, 3)
    with pytest.raises(ValueError, match="need n >= 0"):
        hat_apply("cartan", dv({}), -1)
    fits = dv({(2, 1): 1, (1,): Fraction(-1, 3)})
    for op in ("lower", "cartan", "raise"):
        assert hat_apply(op, fits, 2) == hat_apply(op, dv(fits.terms, bound=2), 2)
        assert tilde_apply(op, fits, 2, 3) == tilde_apply(op, dv(fits.terms, bound=2), 2, 3)
    assert hat_apply("raise", fits, 2).row_bound == 2


def test_diagram_operators_refuse_other_vectors():
    # a Schur vector is not relabelled as diagrams, nor passed through Kerov
    schur = SchurVector.basis(2, (1,))
    for apply in (lambda: hat_apply("raise", schur, 2), lambda: tilde_apply("raise", schur, 2, 2),
                  lambda: kerov_apply("U", schur, KerovParams(1, 2))):
        with pytest.raises(TypeError, match="need a DiagramVector, got SchurVector"):
            apply()


def transported(op, v, n, d=None):
    """The transported first action (d None) or second action as the paper
    writes them, extended linearly from verify's box sums on one diagram."""
    out = DiagramVector.zero()
    for lam, c in v.terms.items():
        out = out + c * dv(_transported(op, lam, n, d))
    return out.terms


def test_transport_identities():
    for n in (1, 2, 3):
        for size in range(5):
            for lam in partitions(size, n):
                d_vec = DiagramVector.basis(lam, n)
                for op in ("lower", "cartan", "raise"):
                    assert hat_apply(op, d_vec, n).terms == transported(op, d_vec, n)
                    for d in (2, 4):
                        if lam and lam[0] > d:
                            continue
                        assert tilde_apply(op, d_vec, n, d).terms == transported(op, d_vec, n, d)


def test_kerov_examples():
    params = KerovParams(Fraction(3), Fraction(5))
    assert kerov_apply("U", DiagramVector.unit(), params) == dv({(1,): 3})
    assert kerov_apply("D", DiagramVector.basis((1,)), params) == dv({(): 5})
    assert kerov_apply("L", DiagramVector.basis((2, 1)), params) == dv({(2, 1): 21})


def test_non_integer_parameters_raise():
    v = DiagramVector.basis((1,))
    for params, name in ((KerovParams(0.1, 2), "z"), (KerovParams(Fraction(1, 2), -0.5), "zprime")):
        with pytest.raises(TypeError, match=f"^{name}: float"):
            kerov_apply("U", v, params)
    # ints and Fractions give the same exact result
    assert kerov_apply("U", v, KerovParams(3, 5)) == kerov_apply("U", v, KerovParams(Fraction(3), Fraction(5)))
    assert kerov_apply("L", v, KerovParams(Fraction(1, 2), -3)) == dv({(1,): Fraction(1, 2)})
    bounded = DiagramVector.basis((1,), 2)
    for apply in (lambda: hat_apply("raise", bounded, 2.5), lambda: tilde_apply("raise", bounded, 2.0, 3),
                  lambda: tilde_apply("raise", bounded, 2, 3.0), lambda: hat_apply("lower", bounded, Fraction(2))):
        with pytest.raises(TypeError, match="integer"):
            apply()


def test_kerov_brackets_sampled():
    params = KerovParams(Fraction(2, 3), Fraction(-1, 4))
    for size in range(6):
        for lam in partitions(size):
            v = DiagramVector.basis(lam)
            du = kerov_apply("D", kerov_apply("U", v, params), params)
            ud = kerov_apply("U", kerov_apply("D", v, params), params)
            assert du - ud == kerov_apply("L", v, params)
            lu = kerov_apply("L", kerov_apply("U", v, params), params)
            ul = kerov_apply("U", kerov_apply("L", v, params), params)
            assert lu - ul == 2 * kerov_apply("U", v, params)
            ld = kerov_apply("L", kerov_apply("D", v, params), params)
            dl = kerov_apply("D", kerov_apply("L", v, params), params)
            assert ld - dl == -2 * kerov_apply("D", v, params)


def test_kerov_escapes_row_bound():
    params = KerovParams(Fraction(1, 2), Fraction(-3, 7))
    for n in range(1, 5):
        image = kerov_apply("U", DiagramVector.basis((1,) * n), params)
        assert any(len(lam) == n + 1 for lam in image.terms)


def test_phi_round_trip():
    v = dv({(2, 1): 2, (3,): -1}, bound=3)
    assert phi(v) == SchurVector(3, {(2, 1): 2, (3,): -1})
    assert phi_inverse(phi(v)) == v
    with pytest.raises(ValueError):
        phi(DiagramVector.basis((1,)))


def test_relabelling_shares_terms_and_nothing_mutates_them():
    w = dv({(2, 1): Fraction(1, 2), (1,): 3, (): -1}, bound=3)
    u = SchurVector(3, {(2,): 2, (1, 1): Fraction(-1, 3)})
    assert phi(w).terms is w.terms and phi_inverse(u).terms is u.terms
    h = hat_apply("raise", w, 3)
    before = [(v, dict(v.terms)) for v in (w, u, h)]
    for v in (phi(w), phi_inverse(u), h):
        assert (v + v) - v == v and v * 3 == 3 * v and -(v * Fraction(1, 2)) * -2 == v
        assert box_operator(v, ("diagonal", 0, 1), v.ambient).terms.keys() == v.terms.keys() - {()}
        assert box_operator(v, ("add", Fraction(1, 2), 1), v.ambient)
    assert hat_apply("cartan", w, 3).terms.keys() == w.terms.keys() - {()}
    # lower s = -(n + content) s' on each removable cell: 2*(-4) - 1/3*(-2)
    assert hat_apply("lower", phi_inverse(u), 3) == dv({(1,): Fraction(-22, 3)}, bound=3)
    assert all(v.terms == terms for v, terms in before)


def test_transported_kernel_monomials_annihilated():
    for n in (2, 3):
        for alpha in [(0,) * (n - 1), (1,) + (0,) * (n - 2), (2,) + (0,) * (n - 2)]:
            vec = phi_inverse(z_monomial_schur(alpha, n))
            assert hat_apply("lower", vec, n) == DiagramVector.zero(n)
