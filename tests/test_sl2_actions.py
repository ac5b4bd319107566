import hashlib
from fractions import Fraction

import pytest

from sl2sym import sl2_actions, vector
from sl2sym.combinatorics import alpha_degree, alpha_tuples, gaussian_binomial, lw_counts, partitions
from sl2sym.polyring import Poly, poly_to_schur, rho1_apply, rho2_apply, schur_to_poly
from sl2sym.sl2_actions import (
    act_rho1,
    act_rho2,
    character_finite,
    decompose_finite,
    lowest_weight_basis_rho1,
    lowest_weight_space_rho2,
    rational_nullspace,
    rho2_constants,
)
from sl2sym.symfunc import (
    SchurVector,
    power_sum_schur,
    z_generator_schur,
    z_monomial_schur,
)
from sl2sym.vector import box_operator
from sl2sym.verify import act_rho1_named, elementary_schur, peel_character, vd_realization
from sl2sym.young import DiagramVector

from test_vector import assert_normal_form


def basis(n, lam):
    return SchurVector.basis(n, lam)


def test_act_rho1_examples():
    assert act_rho1("lower", basis(3, (2, 1))) == SchurVector(
        3, {(1, 1): -4, (2,): -2}
    )
    assert act_rho1("raise", SchurVector.unit(3)) == SchurVector.zero(3)
    assert act_rho1("cartan", basis(3, (2, 1))) == 6 * basis(3, (2, 1))


def test_act_rho1_matches_poly_route():
    for n in (1, 2, 3):
        for size in range(5):
            for lam in partitions(size, n):
                fp = schur_to_poly(lam, n)
                for op in ("lower", "cartan", "raise"):
                    assert act_rho1(op, basis(n, lam)) == poly_to_schur(
                        rho1_apply(op, fp)
                    )


def test_act_rho2_examples():
    assert act_rho2("cartan", SchurVector.unit(3), 6) == -18 * SchurVector.unit(3)
    assert act_rho2("raise", basis(1, (4,)), 4) == SchurVector.zero(1)
    assert act_rho2("raise", SchurVector.unit(2), 2) == 2 * basis(2, (1,))
    with pytest.raises(ValueError):
        act_rho2("lower", basis(2, (3,)), 2)


def test_schur_actions_refuse_other_vectors():
    # an exponent vector is no partition key, and a diagram vector has no n
    for v in (Poly.variable(2, 1), DiagramVector.basis((1,), 2), DiagramVector.basis((1,))):
        for apply in (lambda: act_rho1("lower", v), lambda: act_rho2("lower", v, 2)):
            with pytest.raises(TypeError, match=f"^need a SchurVector, got {type(v).__name__}$"):
                apply()


def test_act_rho2_matches_poly_route():
    for n in (1, 2, 3):
        for d in (1, 2, 4):
            for size in range(5):
                for lam in partitions(size, n, d):
                    fp = schur_to_poly(lam, n)
                    for op in ("lower", "cartan", "raise"):
                        assert act_rho2(op, basis(n, lam), d) == poly_to_schur(
                            rho2_apply(op, fp, d)
                        )


def test_act_rho1_named():
    assert act_rho1_named("lower", "e", 2, 3) == -2 * elementary_schur(1, 3)
    assert act_rho1_named("raise", "e", 3, 3) == SchurVector(3, {(2, 1, 1): 1})
    assert act_rho1_named("lower", "p", 2, 4) == -2 * power_sum_schur(1, 4)
    assert act_rho1_named("lower", "p", 1, 3) == -3 * SchurVector.unit(3)
    assert act_rho1_named("lower", "h", 3, 2) == -4 * SchurVector(2, {(2,): 1})
    with pytest.raises(ValueError):
        act_rho1_named("lower", "e", 4, 3)
    with pytest.raises(ValueError):
        act_rho1_named("lower", "q", 1, 3)


def test_act_rho1_named_matches_direct_action():
    for n in (1, 2, 3, 4):
        for i in range(1, n + 1):
            for op in ("lower", "cartan", "raise"):
                assert act_rho1_named(op, "e", i, n) == act_rho1(
                    op, elementary_schur(i, n)
                )
        for i in range(1, 6):
            for op in ("lower", "cartan", "raise"):
                assert act_rho1_named(op, "h", i, n) == act_rho1(op, basis(n, (i,)))
                assert act_rho1_named(op, "p", i, n) == act_rho1(
                    op, power_sum_schur(i, n)
                )


def test_weight_of_alpha():
    # cartan eigenvalue of z_3 in three variables
    z3 = z_generator_schur(3, 3)
    assert act_rho1("cartan", z3) == Fraction(2 * alpha_degree((0, 1))) * z3


def test_lowest_weight_basis_rho1():
    vectors = lowest_weight_basis_rho1(3, 6)
    assert len(vectors) == 7
    assert vectors[0].vector == SchurVector.unit(3)
    assert [v.weight for v in vectors] == [0, 4, 6, 8, 10, 12, 12]
    for vec, weight in vectors:
        assert act_rho1("lower", vec) == SchurVector.zero(3)
        assert act_rho1("cartan", vec) == Fraction(weight) * vec

    two_var = lowest_weight_basis_rho1(2, 4)
    assert [v.weight for v in two_var] == [0, 4, 8]
    assert two_var[1].vector == z_generator_schur(2, 2)

    assert len(lowest_weight_basis_rho1(4, 1)) == 1

    for n in (2, 3, 4):
        per_degree = {}
        for _, weight in lowest_weight_basis_rho1(n, 6):
            per_degree[weight // 2] = per_degree.get(weight // 2, 0) + 1
        for m, count in enumerate(lw_counts(n, 6)):
            assert per_degree.get(m, 0) == count


@pytest.mark.parametrize("n, max_degree", [(2, 16), (3, 14), (4, 12), (5, 11)])
def test_lowest_weight_basis_rho1_equals_the_monomials_one_by_one(n, max_degree):
    # built by prefix products, each z^alpha equals z_monomial_schur's in
    # values, term order and coefficient types
    alphas = alpha_tuples(n, max_degree)
    got = lowest_weight_basis_rho1(n, max_degree)
    assert [weight for _, weight in got] == [2 * alpha_degree(alpha) for alpha in alphas]
    for (vec, _), alpha in zip(got, alphas, strict=True):
        expected = z_monomial_schur(alpha, n)
        assert vec == expected
        assert [(lam, type(c)) for lam, c in vec.terms.items()] == \
            [(lam, type(c)) for lam, c in expected.terms.items()]


def test_decompose_lambda_n():
    # multiplicities c_i of the lowest-weight modules of weight 2i in the
    # graded decomposition of Lambda_n, read from lw_counts
    assert lw_counts(3, 10) == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2]
    assert lw_counts(2, 7) == [1, 0, 1, 0, 1, 0, 1, 0]
    for n in (2, 3, 4, 5):
        assert lw_counts(n, 0) == [1]


def box_character(n, d):
    """The box character by counting partitions in the n x d box, the
    slow oracle for the Gaussian-binomial character."""
    return {2 * m - n * d: sum(1 for _ in partitions(m, n, d)) for m in range(n * d + 1)}


def test_character_finite():
    assert character_finite(2, 2) == {-4: 1, -2: 1, 0: 2, 2: 1, 4: 1}
    assert character_finite(1, 1) == {-1: 1, 1: 1}
    assert character_finite(0, 3) == character_finite(3, 0) == {0: 1}
    for n in range(8):
        for d in range(8):
            char = character_finite(n, d)
            assert char == box_character(n, d)
            assert char == {-w: m for w, m in char.items()}


def test_decompose_finite():
    assert decompose_finite(3, 2) == {6: 1, 2: 1}
    assert decompose_finite(3, 6) == {2: 1, 6: 2, 8: 1, 10: 1, 12: 1, 14: 1, 18: 1}
    assert decompose_finite(2, 2) == {4: 1, 0: 1}
    assert decompose_finite(0, 3) == decompose_finite(3, 0) == {0: 1}
    for n in range(8):
        for d in range(8):
            decomp = decompose_finite(n, d)
            assert decomp == peel_character(box_character(n, d))
            assert list(decomp) == sorted(decomp, reverse=True)
    with pytest.raises(ValueError):
        decompose_finite(-1, 2)


def test_lowest_weight_space_rho2():
    lw = lowest_weight_space_rho2(3, 6)
    assert sorted(v.weight for v in lw) == [-18, -14, -12, -10, -8, -6, -6, -2]
    for vec, weight in lw:
        assert act_rho2("lower", vec, 6) == SchurVector.zero(3)
        assert act_rho2("cartan", vec, 6) == Fraction(weight) * vec

    for d in (1, 3, 5):
        lw1 = lowest_weight_space_rho2(1, d)
        assert len(lw1) == 1
        assert lw1[0].vector == SchurVector.unit(1)
        assert lw1[0].weight == -d

    assert sorted(v.weight for v in lowest_weight_space_rho2(2, 2)) == [-4, 0]
    assert [(w, list(v.terms.items())) for v, w in lowest_weight_space_rho2(2, 3)] == [
        (-6, [((), 1)]), (-2, [((2,), Fraction(-1, 3)), ((1, 1), 1)])
    ]


@pytest.mark.parametrize("n, d, count, digest", [
    (3, 4, 5, "983f198c458db0cb"),
    (4, 3, 5, "34722d3dd0c51e30"),
    (5, 4, 12, "acbcbd422745dd81"),
])
def test_lowest_weight_space_rho2_is_pinned(n, d, count, digest):
    # sha256 of the weights and the terms, in order and with their exact
    # coefficient types: a rewrite of the box operator or of the nullspace
    # must leave the kernel basis exactly as it is
    lw = lowest_weight_space_rho2(n, d)
    text = repr([(weight, list(vec.terms.items())) for vec, weight in lw])
    assert len(lw) == count
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_lowest_weight_space_rho2_terms_are_in_canonical_order():
    # the CLI prints rho2 kernel vectors in the order their terms are built
    for n in range(1, 7):
        for d in range(7):
            for vec, _ in lowest_weight_space_rho2(n, d):
                assert list(vec.terms.items()) == vec.sorted_terms()


def lowering_images(n, d, m):
    lower = rho2_constants(n, d)["lower"]
    domain = list(partitions(m, n, d))
    return domain, [box_operator(SchurVector.basis(n, lam), lower, n).terms for lam in domain]


@pytest.mark.parametrize("n, d", [(n, d) for n in range(6) for d in range(6)] + [(3, 8), (4, 6)])
def test_lowering_is_injective_on_positive_weights(n, d):
    # the box span is a finite-dimensional sl2-module, so no lowest-weight
    # vector has a positive weight 2m - nd: lowest_weight_space_rho2 skips
    # these weights, and this is the fact that lets it
    for m in range(n * d // 2 + 1, n * d + 1):
        assert rational_nullspace(lowering_images(n, d, m)[1]) == []


@pytest.mark.parametrize("n, d", [(n, d) for n in range(7) for d in range(7)])
def test_kernel_dimension_is_cayley_sylvester(n, d):
    # every weight 2m - nd <= 0 has c_m = #box(m) - #box(m-1) lowest-weight
    # vectors: lowest_weight_space_rho2 skips the weights with c_m = 0, and
    # this is the fact that lets it
    counts = gaussian_binomial(n + d, n)
    for m in range(n * d // 2 + 1):
        c_m = counts[m] - (counts[m - 1] if m else 0)
        assert len(rational_nullspace(lowering_images(n, d, m)[1])) == c_m


@pytest.mark.parametrize("n", range(8))
def test_lowest_weight_space_rho2_equals_all_weights_reference(n):
    # the kernel over partition keys, each image a one-partition
    # `box_operator` call and each vector built by the checked constructor:
    # the same vectors, weights, order and coefficient types.  Every weight
    # 0..nd for n, d <= 5, the weights 2m - nd <= 0 on the other boxes with
    # d <= 7 and nd <= 36
    for d in [d for d in range(8) if n * d <= 36]:
        reference = []
        for m in range(n * d + 1 if n <= 5 and d <= 5 else n * d // 2 + 1):
            domain, images = lowering_images(n, d, m)
            for den, nums in rational_nullspace(images):
                sv = SchurVector(n, {domain[j]: Fraction(nums[j], den) for j in sorted(nums)})
                reference.append((2 * m - n * d, list(sv.terms.items())))
        lw = lowest_weight_space_rho2(n, d)
        assert repr([(weight, list(vec.terms.items())) for vec, weight in lw]) == repr(reference), d


def test_lowest_weight_space_rho2_does_not_fill_the_partition_index(monkeypatch):
    # a kernel walks each partition of its box once, so it keeps none of
    # them in the box operator's index
    monkeypatch.setattr(vector, "_INDEX", {})
    monkeypatch.setattr(vector, "_PARTITIONS", [])
    monkeypatch.setattr(vector, "_NEIGHBOURS", {"remove": {}, "add": {}})
    assert len(lowest_weight_space_rho2(5, 6)) == 32
    sizes = len(vector._INDEX), len(vector._PARTITIONS), {part: len(t) for part, t in vector._NEIGHBOURS.items()}
    assert sizes == (0, 0, {"remove": 0, "add": 0})


@pytest.mark.parametrize("n", range(7))
def test_lowest_weight_space_rho2_does_not_depend_on_the_pivot_key(n, monkeypatch):
    # a new pivot that clears the first key left in its image, not the
    # smallest, gives the same vectors, weights, order and coefficient
    # types.  The key is `min(v)`; `max` is patched too, since the claim
    # holds for it as well, and the count shows that the patch reached the
    # key.  Boxes of fewer than two rows reduce no image to a pivot
    calls = 0

    def first_key(v):
        nonlocal calls
        calls += 1
        return next(iter(v))

    for d in range(7):
        smallest = repr(lowest_weight_space_rho2(n, d))
        with monkeypatch.context() as patch:
            for name in ("min", "max"):
                patch.setattr(sl2_actions, name, first_key, raising=False)
            assert repr(lowest_weight_space_rho2(n, d)) == smallest
    assert (calls > 0) == (n >= 2)


def test_lowest_weight_space_rho2_checks_its_kernel_counts(monkeypatch):
    # a level that loses a kernel vector fails its Cayley-Sylvester count
    exact = sl2_actions.rational_nullspace
    assert [weight for _, weight in lowest_weight_space_rho2(3, 3)] == [-9, -5, -3]
    monkeypatch.setattr(sl2_actions, "rational_nullspace", lambda images: exact(images)[1:])
    with pytest.raises(ArithmeticError, match=r"^weight -9 of the 3 x 3 box has 0 kernel vectors, not 1$"):
        lowest_weight_space_rho2(3, 3)


def test_vd_realization():
    w = vd_realization(2)
    assert w[0] == SchurVector.unit(2)
    assert w[1] == Fraction(1, 2) * elementary_schur(1, 2)
    assert w[2] == elementary_schur(2, 2)

    for d in range(1, 9):
        w = vd_realization(d)
        assert len(w) == d + 1
        assert act_rho2("raise", w[d], 1) == SchurVector.zero(d)
        for i in range(d + 1):
            assert act_rho2("cartan", w[i], 1) == Fraction(2 * i - d) * w[i]
            if i:
                assert act_rho2("lower", w[i], 1) == Fraction(i) * w[i - 1]
            if i < d:
                assert act_rho2("raise", w[i], 1) == Fraction(d - i) * w[i + 1]


def test_standard_module_relations():
    # raised kernel vectors behave like the abstract lowest-weight basis
    for n in (2, 3):
        for alpha in [(0,) * (n - 1), (1,) + (0,) * (n - 2)]:
            from sl2sym.symfunc import z_monomial_schur

            v0 = z_monomial_schur(alpha, n)
            w = 2 * alpha_degree(alpha)
            v = v0
            for k in range(1, 4):
                prev = v
                v = act_rho1("raise", prev)
                assert act_rho1("lower", v) == Fraction(-k * (w + k - 1)) * prev
                assert act_rho1("cartan", v) == Fraction(w + 2 * k) * v


def nullspace_terms(images) -> list[dict]:
    """The kernel vectors of `images`, each checked to be in the normal
    form, as {j: coefficient}."""
    out = []
    for den, nums in rational_nullspace(images):
        assert_normal_form(den, nums)
        out.append({j: Fraction(x, den) for j, x in nums.items()})
    return out


def test_rational_linear_algebra():
    # each kernel vector is (den, {j: numerator}) in the normal form; the
    # columns (1, 2) and (2, 4): the second is twice the first
    assert rational_nullspace([{"a": 1, "b": 2}, {"a": 2, "b": 4}]) == [(1, {1: 1, 0: -2})]
    assert rational_nullspace([{"a": Fraction(1, 2)}, {"a": 3}, {"b": 1}]) == [(1, {1: 1, 0: -6})]
    assert rational_nullspace([{"a": 2}, {"a": 3}]) == [(2, {1: 2, 0: -3})]
    # every image empty: the unit vectors
    assert rational_nullspace([{}, {}, {}]) == [(1, {0: 1}), (1, {1: 1}), (1, {2: 1})]
    assert rational_nullspace([]) == []
    # image 3 reduces through pivots 0, 1 and 2, and each of pivots 1 and 2
    # was itself reduced by the one before it: expanding its steps walks
    # that chain, adding into the coefficients of pivots 1 and 0
    chain = [{"a": 1, "b": 1}, {"a": 1, "c": 1}, {"c": 1, "d": 1}, {"a": 2, "b": 1, "c": 2, "d": 1}]
    assert nullspace_terms(chain) == [{3: 1, 2: -1, 1: -1, 0: -1}]
    # the same image twice: its steps cancel on the way down the chain
    assert nullspace_terms(chain[:3] + [chain[2]]) == [{3: 1, 2: -1}]
    # pivot 1 is 2*image_1 - 3*e_0, so its scale 2 enters the kernel vector
    assert nullspace_terms([{"a": 2, "b": 1}, {"a": 3, "c": 1}, {"b": 3, "c": -2}]) == [
        {2: 1, 1: 2, 0: -3}
    ]
    # image 2 records a step on pivot 0, then pivot 1 = 2*e_b rescales it
    # by 2: the recorded multiplier must be rescaled too; pivot 1's row
    # has content 2 but its scale is 1, so its relation is not divided
    assert nullspace_terms([{"a": 1}, {"b": 2}, {"a": 1, "b": 1}]) == [
        {2: 1, 1: Fraction(-1, 2), 0: -1}
    ]
    # Fraction images: each is scaled by the lcm of its denominators
    halves = [{"a": Fraction(1, 2), "b": Fraction(1, 3)},
              {"a": Fraction(3, 4), "b": Fraction(1, 2)}]
    assert nullspace_terms(halves) == [{1: 1, 0: Fraction(-3, 2)}]
