from fractions import Fraction
from itertools import zip_longest

import pytest

from sl2sym import combinatorics
from sl2sym.combinatorics import (
    alpha_degree,
    alpha_tuples,
    check_partition,
    gamma,
    gaussian_binomial,
    lw_counts,
    partitions,
    sylvester_cayley,
)
from sl2sym.sl2_actions import character_finite, decompose_finite, lowest_weight_space_rho2
from sl2sym.vector import box_operator
from sl2sym.verify import count_partitions_in_rectangle
from sl2sym.young import DiagramVector


def test_check_partition():
    assert check_partition([3, 2, 2]) == (3, 2, 2)
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def box(lam, part, a, b, row_bound=None):
    """The box operator's image of the one diagram `lam`, as ordered
    (diagram, weight) pairs.  With constants (1, 0) these are the corners
    top to bottom; with (0, 1) the weight is the content j - i of the cell
    (i, j), and a cell of content 0 leaves no term."""
    return list(box_operator(DiagramVector.basis(lam), (part, a, b), row_bound).terms.items())


def test_content():
    assert box((), "add", 1, 0) == [((1,), 1)]
    assert box((), "add", 0, 1) == []  # the cell (1, 1)
    assert box((2,), "add", 0, 1) == [((3,), 2), ((2, 1), -1)]  # the cells (1, 3), (2, 1)
    assert box((1, 1, 1), "remove", 0, 1) == [((1, 1), -2)]  # the cell (3, 1)


def test_addable_corners():
    # the paper's xi_plus (Pieri) is add (1, 0), nabla_plus is add (0, 1)
    assert box((2, 1), "add", 1, 0, 3) == [((3, 1), 1), ((2, 2), 1), ((2, 1, 1), 1)]
    assert box((2, 1), "add", 0, 1, 3) == [((3, 1), 2), ((2, 1, 1), -2)]
    assert box((), "add", 1, 0, 3) == [((1,), 1)]
    assert box((2, 1), "add", 1, 0, 2) == [((3, 1), 1), ((2, 2), 1)]
    with pytest.raises(ValueError, match="already has more than 2 rows"):
        box((2, 1, 1), "add", 1, 0, 2)


def test_removable_corners():
    # the paper's xi_minus is remove (1, 0), nabla_minus is remove (0, 1)
    assert box((2, 1), "remove", 1, 0) == [((1, 1), 1), ((2,), 1)]
    assert box((2, 1), "remove", 0, 1) == [((1, 1), 1), ((2,), -1)]
    assert box((), "remove", 1, 0) == []
    assert box((), "remove", 0, 1, 4) == []
    assert box((3, 3, 1), "remove", 1, 0) == [((3, 2, 1), 1), ((3, 3), 1)]
    assert box((3, 3, 1), "remove", 0, 1) == [((3, 2, 1), 1), ((3, 3), -2)]


def test_add_remove_roundtrip():
    """mu is lam plus a box within 4 rows exactly when lam is mu less a box."""
    for m in range(7):
        for lam in partitions(m, 4):
            added = dict(box(lam, "add", 1, 0, 4))
            assert set(added.values()) <= {1} and all(sum(mu) == m + 1 for mu in added)
            for mu in added:
                assert (lam, 1) in box(mu, "remove", 1, 0)
            for mu, _ in box(lam, "remove", 1, 0):
                assert (lam, 1) in box(mu, "add", 1, 0, 4)


def test_partitions_generator():
    assert list(partitions(4, 2)) == [(4,), (3, 1), (2, 2)]
    assert list(partitions(0)) == [()]
    assert list(partitions(2, 2, 2)) == [(2,), (1, 1)]
    # the bounds cut the unbounded enumeration, in the same order
    for size in range(-2, 11):
        for rows in (None, 0, 1, 2, 3, 5, 20):
            for part in (None, 0, 1, 2, 3, 5, 20):
                assert list(partitions(size, rows, part)) == [
                    lam for lam in partitions(size)
                    if (rows is None or len(lam) <= rows)
                    and (part is None or not lam or lam[0] <= part)
                ]


def recursive_partitions(size, max_rows=None, max_part=None):
    """The partitions generator as it was: nested recursive generators."""
    if max_rows is None:
        max_rows = size
    if max_part is None:
        max_part = size

    def rec(remaining, rows_left, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            if first * rows_left < remaining:
                return
            for rest in rec(remaining - first, rows_left - 1, first):
                yield (first,) + rest

    yield from rec(size, max_rows, max_part)


def test_partitions_walk_equals_recursive_generator():
    for size in range(15):
        for rows in (None, 0, 1, 2, 3, 5):
            for part in (None, 0, 1, 2, 4):
                assert list(partitions(size, rows, part)) == list(
                    recursive_partitions(size, rows, part))

def test_partitions_refuse_negative_bounds():
    with pytest.raises(ValueError, match=r"^max_rows must be >= 0, got -1$"):
        list(partitions(3, -1))
    with pytest.raises(ValueError, match=r"^max_part must be >= 0, got -1$"):
        list(partitions(3, 2, -1))


def test_gamma_examples():
    assert gamma(4, 2, 2) == 2
    assert gamma(4, 2, 0) == 1
    assert gamma(9, 3, 0) == 1
    assert gamma(4, 2, -1) == 0
    assert gamma(4, 2, 5) == 0
    with pytest.raises(ValueError):
        gamma(2, 3, 0)
    with pytest.raises(ValueError):
        gamma(3, 0, 0)
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert gaussian_binomial(5, 0) == gaussian_binomial(5, 5) == (1,)
    assert gaussian_binomial(20, 10)[50] == count_partitions_in_rectangle(10, 10, 50)
    for a, k in ((2, 3), (2, -1)):
        with pytest.raises(ValueError):
            gaussian_binomial(a, k)


def test_gamma_matches_rectangle_counts():
    for n in range(1, 7):
        for a in range(n, 13):
            for i in range(n * (a - n) + 1):
                assert gamma(a, n, i) == count_partitions_in_rectangle(n, a - n, i)


def test_gamma_palindromic():
    for n in range(1, 6):
        for a in range(n, 11):
            top = n * (a - n)
            for i in range(top + 1):
                assert gamma(a, n, i) == gamma(a, n, top - i)


def test_sylvester_cayley_examples():
    assert sylvester_cayley(3, 2, 2) == 1
    assert sylvester_cayley(3, 6, 6) == 2
    assert sylvester_cayley(2, 2, 3) == 0
    assert sylvester_cayley(2, 2, 4) == 1
    assert sylvester_cayley(2, 2, 2) == 0
    assert sylvester_cayley(2, 2, 0) == 1
    assert sylvester_cayley(0, 2, 0) == sylvester_cayley(2, 0, 0) == 1
    # no highest weight is negative
    assert sylvester_cayley(2, 2, -2) == sylvester_cayley(4, 4, -10) == 0
    assert all(sylvester_cayley(n, d, i) == 0
               for n in range(5) for d in range(5) for i in range(-n * d - 2, 0))
    for n, d, i in ((-1, 2, 0), (2, -1, 0), (2, -1, -4), (0, -1, 0)):
        with pytest.raises(ValueError, match=f"n={n}, d={d}"):
            sylvester_cayley(n, d, i)


def test_sylvester_cayley_dimension_identity():
    from math import comb

    for n in range(7):
        for d in range(7):
            total = sum(
                (i + 1) * sylvester_cayley(n, d, i) for i in range(n * d + 1)
            )
            assert total == comb(n + d, n)


def two_gamma_sylvester_cayley(n, d, i):
    """The Cayley-Sylvester multiplicity as it was computed before the box
    binomial was read once: two `gamma` lookups and their difference."""
    if n < 0 or d < 0:
        raise ValueError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
    t = d * n - i
    if i < 0 or t < 0 or t % 2:
        return 0
    if n == 0:
        return 1
    half = t // 2
    return gamma(d + n, n, half) - gamma(d + n, n, half - 1)


def test_one_cayley_sylvester_site_equals_two_gamma_difference():
    for n in range(10):
        for d in range(10):
            table = {i: two_gamma_sylvester_cayley(n, d, i) for i in range(-2, n * d + 3)}
            assert table == {i: sylvester_cayley(n, d, i) for i in table}
            decomp = decompose_finite(n, d)
            assert decomp == {i: c for i, c in sorted(table.items(), reverse=True) if c}
            assert list(decomp) == sorted(decomp, reverse=True)


def test_count_partitions_in_rectangle():
    # oracle by direct enumeration
    assert count_partitions_in_rectangle(2, 2, 2) == 2
    for max_parts in range(5):
        for max_part in range(5):
            for size in range(9):
                assert count_partitions_in_rectangle(max_parts, max_part, size) == len(
                    list(partitions(size, max_parts, max_part))
                )
    assert count_partitions_in_rectangle(4, 5, 0) == 1
    assert count_partitions_in_rectangle(3, 2, 7) == 0


def test_count_lw_solutions():
    assert lw_counts(3, 6)[6] == 2
    assert lw_counts(3, 1)[1] == 0
    for n in range(2, 7):
        assert lw_counts(n, 0) == [1]
    # brute-force oracle: enumerate exponent tuples directly
    for n in range(2, 6):
        for i in range(13):
            brute = sum(
                1 for alpha in alpha_tuples(n, i) if alpha_degree(alpha) == i
            )
            assert lw_counts(n, i)[i] == brute


def test_count_lw_recurrence():
    seq = lw_counts(3, 30)
    assert seq[:5] == [1, 0, 1, 1, 1]
    for i in range(5, 31):
        assert seq[i] == seq[i - 2] + seq[i - 3] - seq[i - 5]


def test_alpha_tuples():
    assert alpha_tuples(3, 6) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0),
    ]
    assert alpha_tuples(2, 4) == [(0,), (1,), (2,)]
    assert alpha_degree((1, 1)) == 5


def test_non_int_sizes_raise():
    # a float or Fraction size, bound or variable count is a TypeError, not
    # a list of partitions of 4.0 or a table in 3.0 variables
    for make in (lambda: list(partitions(4.0)), lambda: list(partitions(Fraction(4))),
                 lambda: list(partitions(4, 2.0)), lambda: list(partitions(4, None, Fraction(2))),
                 lambda: alpha_tuples(3.0, 2), lambda: alpha_tuples(Fraction(3), 2),
                 lambda: lw_counts(3, 4.0), lambda: lw_counts(3.0, 4), lambda: lw_counts(3, Fraction(4))):
        with pytest.raises(TypeError, match="integer"):
            make()
    assert list(partitions(4, True)) == [(4,)] and alpha_tuples(2, 2) == [(0,), (1,)]


def clear_table_caches():
    combinatorics._binomial.cache_clear()
    combinatorics._box_multiplicities.cache_clear()


def assert_refuses_non_ints_whatever_ran_before(tables):
    # 2.0 and Fraction(2) hash and compare equal to 2, so a cache read before
    # the arguments are checked would answer them from a cached int call:
    # each entry point refuses them with the caches cold and after that call
    for name, (table, cache) in tables.items():
        for bad in (2.0, Fraction(2)):
            clear_table_caches()
            with pytest.raises(TypeError, match="integer"):
                table(bad)
            expected = table(2)
            assert cache.cache_info().currsize, name
            with pytest.raises(TypeError, match="integer"):
                table(bad)
            assert table(2) == expected


def test_gaussian_binomial_refuses_non_ints_whatever_ran_before():
    binomials = combinatorics._binomial
    assert_refuses_non_ints_whatever_ran_before({
        "gaussian_binomial a": (lambda x: gaussian_binomial(2 * x, 2), binomials),
        "gaussian_binomial k": (lambda x: gaussian_binomial(4, x), binomials),
    })
    assert gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)


def test_sylvester_cayley_refuses_non_int_boxes_from_a_cached_table():
    boxes = combinatorics._box_multiplicities
    assert_refuses_non_ints_whatever_ran_before({
        "sylvester_cayley n": (lambda x: sylvester_cayley(x, 2, 2), boxes),
        "sylvester_cayley d": (lambda x: sylvester_cayley(2, x, 2), boxes),
        "decompose_finite n": (lambda x: decompose_finite(x, 2), boxes),
        "decompose_finite d": (lambda x: decompose_finite(2, x), boxes),
    })
    assert sylvester_cayley(2, 2, 4) == 1


def test_small_tables_refuse_non_ints_whatever_ran_before():
    binomials, boxes = combinatorics._binomial, combinatorics._box_multiplicities
    assert_refuses_non_ints_whatever_ran_before({
        "gamma a": (lambda x: gamma(2 * x, 2, 1), binomials),
        "gamma n": (lambda x: gamma(4, x, 1), binomials),
        "character_finite n": (lambda x: character_finite(x, 2), binomials),
        "character_finite d": (lambda x: character_finite(2, x), binomials),
        "lowest_weight_space_rho2 n": (lambda x: lowest_weight_space_rho2(x, 2), boxes),
        "lowest_weight_space_rho2 d": (lambda x: lowest_weight_space_rho2(2, x), boxes),
    })


def test_weight_index_must_be_an_int():
    # a non-integer weight index is a TypeError, not a multiplicity of 0,
    # in range or out of it
    for make in (lambda: gamma(4, 2, 10.5), lambda: gamma(4, 2, -1.5), lambda: gamma(4, 2, 1.5),
                 lambda: gamma(4, 2, 2.0), lambda: gamma(4, 2, Fraction(2)),
                 lambda: sylvester_cayley(2, 2, 1.5), lambda: sylvester_cayley(2, 2, -0.5),
                 lambda: sylvester_cayley(2, 2, 2.0), lambda: sylvester_cayley(2, 2, Fraction(40))):
        with pytest.raises(TypeError, match="integer"):
            make()
    assert gamma(4, 2, 2) == 2 and gamma(4, 2, 10) == gamma(4, 2, -1) == 0
    assert sylvester_cayley(2, 2, 4) == sylvester_cayley(2, 2, 0) == 1
    assert sylvester_cayley(2, 2, 2) == sylvester_cayley(2, 2, 1) == sylvester_cayley(2, 2, -2) == 0


def test_gamma_refuses_n_zero_from_a_cached_binomial():
    # [a choose 0] is cached by gaussian_binomial itself and by the 0 x d
    # box, and gamma still needs n >= 1
    for cache in (lambda: gaussian_binomial(5, 0), lambda: decompose_finite(0, 5)):
        clear_table_caches()
        assert cache() in ((1,), {0: 1})
        assert combinatorics._binomial.cache_info().currsize == 1  # [5 choose 0]
        with pytest.raises(ValueError, match="need n >= 1"):
            gamma(5, 0, 0)


def test_table_caches_stay_bounded_and_answer_correctly():
    from math import comb

    clear_table_caches()
    pairs = [(a, k) for a in range(46) for k in range(a + 1)]
    binomial_info, box_info = combinatorics._binomial.cache_info, combinatorics._box_multiplicities.cache_info
    assert len(pairs) > binomial_info().maxsize == box_info().maxsize == 1024
    first = {}
    for a, k in pairs:
        first[a, k] = gaussian_binomial(a, k)
        assert binomial_info().currsize <= 1024
    for a, k in pairs:
        assert gaussian_binomial(a, k) == first[a, k] and sum(first[a, k]) == comb(a, k)
        assert k == 0 or tuple(gamma(a, k, i) for i in range(len(first[a, k]))) == first[a, k]
    assert binomial_info().currsize <= 1024
    boxes = [(n, d) for n in (1, 2) for d in range(520)]
    assert len(boxes) > 1024
    for n, d in boxes:
        assert sum((i + 1) * sylvester_cayley(n, d, i) for i in range(n * d + 1)) == comb(n + d, n)
        assert box_info().currsize <= 1024
    assert [sylvester_cayley(4, 2, i) for i in range(9)] == [1, 0, 0, 0, 1, 0, 0, 0, 1]


def q_pascal(top: int) -> dict:
    """{(a, k): coefficients of [a choose k]} for 0 <= k <= a <= top, by
    [a choose k] = [a-1 choose k-1] + T^k [a-1 choose k]."""
    table = {(0, 0): [1]}
    for a in range(1, top + 1):
        for k in range(a + 1):
            left = table.get((a - 1, k - 1), [])
            right = [0] * k + table[a - 1, k] if k < a else []
            table[a, k] = [x + y for x, y in zip_longest(left, right, fillvalue=0)]
    return table


def test_gaussian_binomial_equals_q_pascal_on_both_sides_of_the_word_rule():
    # below C(a, k) = 2**32 the binomial is read from 32-bit words; from
    # a = 42 on, a coefficient needs more than 32 bits
    expected = q_pascal(44)
    assert max(max(c) for (a, _), c in expected.items() if a == 41) < 2**32
    assert max(max(c) for (a, _), c in expected.items() if a == 42) >= 2**32
    clear_table_caches()
    for (a, k), coeffs in expected.items():
        got = gaussian_binomial(a, k)
        assert got == tuple(coeffs), (a, k)
        assert all(type(c) is int for c in got)


def test_gaussian_binomial_takes_the_word_path_below_two_to_the_32(monkeypatch):
    from math import comb

    prefix_sums = []
    divide = combinatorics._divide_by_one_minus
    monkeypatch.setattr(combinatorics, "_divide_by_one_minus",
                        lambda coeffs, step: prefix_sums.append(step) or divide(coeffs, step))
    assert comb(34, 17) < 2**32 <= comb(35, 17)
    clear_table_caches()
    gaussian_binomial(34, 17)
    assert prefix_sums == []
    gaussian_binomial(35, 17)
    assert prefix_sums == list(range(1, 18))
