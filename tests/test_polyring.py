from fractions import Fraction
from itertools import product

import pytest

from sl2sym.polyring import (
    Poly,
    elementary_poly,
    homogeneous_poly,
    power_sum_poly,
    rho1_apply,
    rho2_apply,
    sigma_slice,
    z_generator_poly,
)


def x(n, k):
    return Poly.variable(n, k)


def test_ring_operations():
    f = power_sum_poly(2, 3)
    assert f + Poly.zero(3) == f
    assert (x(2, 1) + x(2, 2)) * (x(2, 1) - x(2, 2)) == x(2, 1) ** 2 - x(2, 2) ** 2
    g = x(3, 1) * Fraction(2, 3)
    assert g * Fraction(3, 2) == x(3, 1)
    with pytest.raises(ValueError):
        x(2, 1) + x(3, 1)


def test_partial():
    f = x(2, 1) ** 2 * x(2, 2)
    assert f.partial(1) == 2 * x(2, 1) * x(2, 2)
    assert (x(2, 1) ** 3).partial(2) == Poly.zero(2)
    assert power_sum_poly(3, 2).partial(1) == 3 * x(2, 1) ** 2
    with pytest.raises(ValueError):
        f.partial(3)


def test_rho1_apply():
    assert rho1_apply("lower", power_sum_poly(2, 3)) == -2 * power_sum_poly(1, 3)
    mono = Poly.monomial(3, (2, 1, 1))
    assert rho1_apply("cartan", mono) == 8 * mono
    for n in (1, 2, 3, 4):
        assert rho1_apply("raise", power_sum_poly(1, n)) == power_sum_poly(2, n)


def test_rho2_apply():
    one = Poly.constant(2, 1)
    assert rho2_apply("cartan", one, 2) == -4 * one
    assert rho2_apply("raise", Poly.constant(1, 1), 5) == 5 * x(1, 1)
    assert rho2_apply("lower", one, 2) == Poly.zero(2)


def readme_operator(op, f, d=None):
    """The README's differential operator `op` of the first action (d None)
    or the second, written literally from Poly.partial and Poly.variable:
    lower = -sum d_k or +sum d_k, cartan = 2 sum x_k d_k (minus n*d for the
    second), raise = sum x_k^2 d_k or sum (-x_k^2 d_k + d*x_k)."""
    n = f.n
    out = Poly.zero(n)
    for k in range(1, n + 1):
        x_k, df = Poly.variable(n, k), f.partial(k)
        if op == "lower":
            out = out + (-df if d is None else df)
        elif op == "cartan":
            out = out + 2 * x_k * df
        elif d is None:
            out = out + x_k * x_k * df
        else:
            out = out - x_k * x_k * df + d * x_k * f
    if op == "cartan" and d is not None:
        out = out - n * d * f
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monomial_actions_equal_readme_formulas(n):
    # bracket relations hold for every Kerov parameter pair, so only the
    # formulas themselves pin the constants of rho1_apply and rho2_apply
    for exps in product(range(7), repeat=n):
        if sum(exps) > 6:
            continue
        f = Poly.monomial(n, exps, Fraction(3, 2))
        for op in ("lower", "cartan", "raise"):
            assert rho1_apply(op, f) == readme_operator(op, f), (op, exps)
            for d in range(4):
                assert rho2_apply(op, f, d) == readme_operator(op, f, d), (op, exps, d)


def test_is_symmetric():
    assert power_sum_poly(3, 3).is_symmetric()
    assert not x(2, 1).is_symmetric()
    vandermonde = (
        (x(3, 1) - x(3, 2)) * (x(3, 1) - x(3, 3)) * (x(3, 2) - x(3, 3))
    )
    assert not vandermonde.is_symmetric()


def test_named_families():
    assert elementary_poly(2, 3) == (
        x(3, 1) * x(3, 2) + x(3, 1) * x(3, 3) + x(3, 2) * x(3, 3)
    )
    assert homogeneous_poly(2, 2) == x(2, 1) ** 2 + x(2, 1) * x(2, 2) + x(2, 2) ** 2
    for n in (1, 2, 3):
        assert power_sum_poly(1, n) == elementary_poly(1, n) == homogeneous_poly(1, n)
    with pytest.raises(ValueError):
        elementary_poly(3, 2)


def test_sigma_slice():
    for n in range(2, 6):
        p1 = power_sum_poly(1, n)
        p2 = power_sum_poly(2, n)
        assert sigma_slice(p2) == p2 - p1 ** 2 * Fraction(1, n)
        assert sigma_slice(Poly.constant(n, Fraction(5, 7))) == Poly.constant(n, Fraction(5, 7))
        assert sigma_slice(p1) == Poly.zero(n)
    with pytest.raises(ValueError):
        sigma_slice(x(2, 1))


def test_sigma_lands_in_kernel_and_is_multiplicative():
    for n in (2, 3):
        samples = [
            power_sum_poly(2, n),
            power_sum_poly(3, n),
            elementary_poly(2, n),
            homogeneous_poly(3, n),
        ]
        for f in samples:
            assert rho1_apply("lower", sigma_slice(f)) == Poly.zero(n)
        for f in samples[:2]:
            for g in samples[2:]:
                assert sigma_slice(f * g) == sigma_slice(f) * sigma_slice(g)


def test_z_generators():
    p1 = power_sum_poly(1, 3)
    p2 = power_sum_poly(2, 3)
    p3 = power_sum_poly(3, 3)
    assert z_generator_poly(2, 3) == 3 * p2 - p1 ** 2
    assert z_generator_poly(3, 3) == 2 * p1 ** 3 - 9 * p1 * p2 + 9 * p3
    assert z_generator_poly(3, 2) == Poly.zero(2)
    # two-variable even case collapses to a power of the difference
    diff = x(2, 1) - x(2, 2)
    assert z_generator_poly(4, 2) == diff ** 4
    with pytest.raises(ValueError):
        z_generator_poly(1, 3)


def test_z_generators_in_kernel():
    for n in range(2, 7):
        for i in range(2, n + 1):
            z = z_generator_poly(i, n)
            assert rho1_apply("lower", z) == Poly.zero(n)
            assert rho1_apply("cartan", z) == 2 * i * z


def test_leading_coefficient_identity():
    for n in range(2, 9):
        for i in range(2, n + 1):
            z = z_generator_poly(i, n)
            lead = [0] * n
            lead[0] = i
            c = z.terms.get(tuple(lead), Fraction(0))
            assert n * c == (n - 1) ** i + (-1) ** i * (n - 1)


def _brackets_hold(apply_op, f):
    rl = apply_op("raise", apply_op("lower", f)) - apply_op("lower", apply_op("raise", f))
    cr = apply_op("cartan", apply_op("raise", f)) - apply_op("raise", apply_op("cartan", f))
    cl = apply_op("cartan", apply_op("lower", f)) - apply_op("lower", apply_op("cartan", f))
    return (
        rl == apply_op("cartan", f)
        and cr == 2 * apply_op("raise", f)
        and cl == -2 * apply_op("lower", f)
    )


def test_commutators_sampled():
    for n in (1, 2, 3):
        for exps in [(0,) * n, (2,) + (0,) * (n - 1), (1,) * n, (3, 1, 2)[:n]]:
            f = Poly.monomial(n, exps)
            assert _brackets_hold(lambda op, g: rho1_apply(op, g), f)
            for d in (0, 1, 3):
                assert _brackets_hold(lambda op, g: rho2_apply(op, g, d), f)
