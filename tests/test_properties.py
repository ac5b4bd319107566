"""Property tests on random sparse vectors (n <= 5 rows, |lam| <= 8, random
rational coefficients): the bracket relations of every representation, the
transported actions against their explicit formulas, the
Littlewood-Richardson product against the monomial expansion, the
integer product against its Fraction-by-Fraction sum and numeric factors
against products by c*s_() (values, types and term order), the integer
box operator against its Fraction-by-Fraction sum over the one-partition
spec `box_image` of `test_vector` (values, types, term order and errors,
also after unrelated calls or other threads have filled the partition
index), the rho2 kernel levels and their images against that spec, the
canonical coefficients (int when integral, Fractions in lowest terms) of
every closed operation, scalar products against plain Fraction arithmetic
(the monomial oracle's without the engine's box operator), the normal
form (den, nums) of every closed operation against plain Fraction
arithmetic, and that form read by `_divided`, which fills the two slots
of Fraction, against the public constructor.  Also the
exact sparse kernel against sympy's on random sparse rational matrices,
the dimension identity of one large finite decomposition, the closed
forms of Kerov's U^m and D^m, and both actions as Kerov operators at
their parameter points, cut to n rows."""

import operator
import pickle
import sys
import threading
from fractions import Fraction
from math import comb, floor

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from sl2sym.combinatorics import partitions
from sl2sym.polyring import Poly, poly_to_schur, power_sum_poly, schur_to_poly, sigma_slice
from sl2sym.sl2_actions import (
    _rho2_levels,
    act_rho1,
    act_rho2,
    character_finite,
    decompose_finite,
    kerov_constants,
    lowest_weight_space_rho2,
    rational_nullspace,
    rho1_constants,
    rho2_constants,
)
from sl2sym.exprlang import evaluate
from sl2sym.symfunc import SchurVector, _basis_product, multiply
from sl2sym.verify import as_data, content_product, standard_tableaux
from sl2sym import vector
from sl2sym.vector import _divided, _reduced, box_operator, canonical_coefficient
from sl2sym.young import (
    DiagramVector,
    KerovParams,
    hat_apply,
    kerov_apply,
    phi,
    phi_inverse,
    tilde_apply,
)

from test_vector import assert_canonical, assert_normal_form, box_image, box_operator_reference
from test_young import transported

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def sparse_terms(draw):
    """(n, d, terms): partitions of size <= 8 in at most n rows and, where
    d is not None, at most d columns."""
    n = draw(st.integers(1, 5))
    d = draw(st.one_of(st.none(), st.integers(0, 6)))
    shapes = [lam for m in range(9) for lam in partitions(m, n, d)]
    keys = draw(st.lists(st.sampled_from(shapes), max_size=6, unique=True))
    return n, d, {lam: draw(rationals) for lam in keys}


# each action's (Kerov operator, sign) per sl2 operator
KEROV_POINTS = {
    "rho1": {"raise": ("U", 1), "lower": ("D", -1), "cartan": ("L", 1)},
    "rho2": {"raise": ("U", -1), "lower": ("D", 1), "cartan": ("L", 1)},
}


def representation(rep, n, d, params):
    """(vector, apply_op) with operators named raise, lower, cartan; the
    Kerov operators U, -D, L satisfy the same relations."""
    if rep == "rho1":
        return SchurVector, lambda op, v: act_rho1(op, v)
    if rep == "rho2":
        return SchurVector, lambda op, v: act_rho2(op, v, d)
    if rep == "hat":
        return DiagramVector, lambda op, v: hat_apply(op, v, n)
    if rep == "tilde":
        return DiagramVector, lambda op, v: tilde_apply(op, v, n, d)
    kerov = KEROV_POINTS["rho1"]
    return DiagramVector, lambda op, v: kerov[op][1] * kerov_apply(kerov[op][0], v, params)


@pytest.mark.parametrize("rep", ["rho1", "rho2", "hat", "tilde", "kerov"])
@given(data=sparse_terms(), z=rationals, zprime=rationals, fallback_d=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_bracket_relations(rep, data, z, zprime, fallback_d):
    n, d, terms = data
    if d is None and rep in ("rho2", "tilde"):
        d = fallback_d
        terms = {lam: c for lam, c in terms.items() if not lam or lam[0] <= d}
    cls, apply_op = representation(rep, n, d, KerovParams(z, zprime))
    v = cls(None if rep == "kerov" else n, terms)
    r, l, h = (lambda u, op=op: apply_op(op, u) for op in ("raise", "lower", "cartan"))
    assert r(l(v)) - l(r(v)) == h(v)
    assert h(r(v)) - r(h(v)) == 2 * r(v)
    assert h(l(v)) - l(h(v)) == -2 * l(v)


@given(z=rationals, zprime=rationals, m=st.integers(0, 8), data=st.data())
@settings(max_examples=60, deadline=None)
def test_kerov_powers_equal_closed_forms(z, zprime, m, data):
    """U^m(empty) is the sum of f^lam (z)_lam lam over |lam| = m, and
    D^m(lam) is f^lam (z')_lam empty."""
    params = KerovParams(z, zprime)
    shapes = list(partitions(m))
    lam = data.draw(st.sampled_from(shapes))
    up, down = DiagramVector.unit(), DiagramVector.basis(lam)
    for _ in range(m):
        up, down = kerov_apply("U", up, params), kerov_apply("D", down, params)
    assert as_data(up) == as_data(DiagramVector(None, {
        mu: standard_tableaux(mu) * content_product(z, mu) for mu in shapes
    }))
    assert as_data(down) == as_data(
        DiagramVector(None, {(): standard_tableaux(lam) * content_product(zprime, lam)}))


@given(data=sparse_terms(), tall=sparse_terms(), op=st.sampled_from(["lower", "cartan", "raise"]),
       fallback_d=st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_actions_are_truncated_kerov_operators(data, tall, op, fallback_d):
    """rho1 is Kerov's (U, -D, L) at (0, n) and rho2 is (-U, D, L) at
    (-d, n), with the diagrams of more than n rows dropped.  Those span a
    submodule (D's weight n + content is 0 on the cell (n+1, 1)), so adding
    such diagrams to the input changes nothing."""
    n, d, terms = data
    d = fallback_d if d is None else d
    boxed = {lam: c for lam, c in terms.items() if not lam or lam[0] <= d}
    tall = {lam: c for lam, c in tall[2].items() if len(lam) > n}

    def truncated(rep, params, terms):
        name, sign = KEROV_POINTS[rep][op]
        image = sign * kerov_apply(name, DiagramVector(None, {**terms, **tall}), params)
        return {mu: c for mu, c in image.terms.items() if len(mu) <= n}

    assert act_rho1(op, SchurVector(n, terms)).terms == truncated("rho1", KerovParams(0, n), terms)
    assert act_rho2(op, SchurVector(n, boxed), d).terms == truncated(
        "rho2", KerovParams(-d, n), boxed)


@given(data=sparse_terms(), op=st.sampled_from(["lower", "cartan", "raise"]))
@settings(max_examples=150, deadline=None)
def test_transported_actions_equal_explicit_formulas(data, op):
    n, d, terms = data
    v = DiagramVector(n, terms)
    assert hat_apply(op, v, n).terms == transported(op, v, n)
    if d is not None:
        assert tilde_apply(op, v, n, d).terms == transported(op, v, n, d)
    assert_canonical(hat_apply(op, v, n))
    if d is not None:
        assert_canonical(tilde_apply(op, v, n, d))


@st.composite
def basis_pairs(draw):
    """(n, lam, mu): partitions in at most n <= 5 rows, |lam| + |mu| <= 8."""
    n = draw(st.integers(1, 5))
    lam = draw(st.sampled_from([lam for m in range(9) for lam in partitions(m, n)]))
    mu = draw(st.sampled_from([mu for m in range(9 - sum(lam)) for mu in partitions(m, n)]))
    return n, lam, mu


def normal_terms(sums, den) -> dict:
    """The coefficients of the (key, integer sum) pairs `sums` over `den`:
    the normal form by `_reduced`, then read by `_divided`."""
    den, nums = _reduced(den, [key for key, _ in sums], [x for _, x in sums])
    return _divided(nums.items(), den)


big_ints = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30))


@given(x=big_ints, den=big_ints.filter(bool), multiple=st.booleans(), other=rationals)
@example(x=-1, den=-2, multiple=False, other=Fraction(1, 3))
@example(x=3, den=-6, multiple=False, other=Fraction(0))
@example(x=-2, den=-1, multiple=True, other=Fraction(-1, 2))
@example(x=0, den=-5, multiple=False, other=Fraction(2))
@example(x=3, den=4, multiple=True, other=Fraction(5, 7))
@example(x=0, den=7, multiple=False, other=Fraction(1))
@settings(max_examples=300, deadline=None)
def test_fraction_helper_equals_constructor(x, den, multiple, other):
    # one sum brought to the normal form by `_reduced`, then read by
    # `_divided`: den of both signs, x a multiple of den (an int) or not (a
    # Fraction whose slots it fills), x = 0 (dropped)
    if multiple:
        x *= den
    expected = Fraction(x, den)
    out = normal_terms([("key", x)], den)
    if not x:
        assert out == {}
        return
    got = out.pop("key")
    assert out == {}
    if expected.denominator == 1:
        assert type(got) is int and got == expected.numerator
    else:
        assert type(got) is Fraction and repr(got) == repr(expected)
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)
        assert type(got.numerator) is int and type(got.denominator) is int
    assert hash(got) == hash(expected) and str(got) == str(expected)
    back = pickle.loads(pickle.dumps(got))
    assert type(back) is type(got) and (back.numerator, back.denominator) == (got.numerator, got.denominator)
    assert got == expected and not got != expected and {got: 1} == {expected: 1}
    for op in (operator.add, operator.sub, operator.mul, operator.lt, operator.eq):
        for y in (other, 3):
            assert op(got, y) == op(expected, y) and op(y, got) == op(y, expected)
    if got:
        assert other / got == other / expected and 7 // got == 7 // expected
    assert -got == -expected and abs(got) == abs(expected) and got ** 2 == expected ** 2
    assert floor(got) == floor(expected) and round(got) == round(expected) and int(got) == int(expected)


@pytest.mark.parametrize("den", [6, -6, 1, -1])
def test_divided_keeps_order_drops_zeros_and_makes_ints(den):
    sums = [("a", 12), ("b", 0), ("c", -3), ("d", 4), ("e", -6), ("f", 5)]
    expected = {key: Fraction(x, den) for key, x in sums if x}
    expected = {key: int(c) if c.denominator == 1 else c for key, c in expected.items()}
    got = normal_terms(sums, den)
    assert [(key, type(c), c) for key, c in got.items()] == [(key, type(c), c) for key, c in expected.items()]
    assert [type(got[key]) for key in "acde"] == ([int, Fraction, Fraction, int] if abs(den) == 6 else [int] * 4)


def test_fraction_slots_are_the_public_properties():
    # the engine reads and fills Fraction's `_numerator` and `_denominator`
    # slots; a CPython that renamed them would fail here first
    for q in (Fraction(3, -6), Fraction(0), Fraction(-7), Fraction(10**30, 3), Fraction("1/3"), Fraction(2.5)):
        assert (q._numerator, q._denominator) == (q.numerator, q.denominator)
        assert type(q._numerator) is int and type(q._denominator) is int


constants_part = st.one_of(
    st.integers(-20, 20), st.fractions(min_value=-20, max_value=20, max_denominator=10**6)
)
coefficients = st.one_of(rationals, st.fractions(min_value=-5, max_value=5, max_denominator=10**6))


def same_as_spec(v, constants, bound):
    """box_operator on v is the spec's linear extension: the same ValueError
    text, or a canonical vector of v's class in ambient `bound` with the
    spec's values in the spec's term order."""
    try:
        expected = box_operator_reference(v, constants, bound)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            box_operator(v, constants, bound)
        assert str(info.value) == str(exc)
        return
    out = box_operator(v, constants, bound)
    assert type(out) is type(v) and out.ambient == bound
    assert list(out.terms.items()) == list(expected.items())
    assert_canonical(out)


@given(
    data=sparse_terms(),
    bound=st.one_of(st.none(), st.integers(0, 5), st.just("tallest"), st.just("n")),
    part=st.sampled_from(["remove", "add", "diagonal"]),
    a=constants_part,
    b=constants_part,
    coeffs=st.lists(st.one_of(st.integers(-9, 9), coefficients), min_size=6, max_size=6),
)
@example(data=(2, None, {(2,): 1, (1, 1): 1}), bound=1, part="add", a=1, b=1, coeffs=[1] * 6)
@example(data=(3, None, {(2, 1): 1}), bound="tallest", part="add", a=5, b=1, coeffs=[1] * 6)
@settings(max_examples=200, deadline=None)
def test_box_operator_equals_fraction_reference(data, bound, part, a, b, coeffs):
    # unbounded diagrams at bounds below, at and above the rows of their
    # keys ("tallest": the rows of the tallest key, where "add" has no new
    # row), and Schur vectors in n rows at the bound n; the examples put a
    # key one row past the bound and one at it
    n, _, terms = data
    terms = dict(zip(terms, coeffs))
    if bound == "n":
        v, bound = SchurVector(n, terms), n
    else:
        v = DiagramVector(None, terms)
        if bound == "tallest":
            bound = max(map(len, terms), default=0)
    same_as_spec(v, (part, a, b), bound)


def test_kernel_images_equal_box_image():
    # every level of the rho2 kernel pass: the partitions of m in the box,
    # lexicographically decreasing, each image keyed by the rank of its
    # target among the partitions one cell smaller, lexicographically
    # increasing; mapped back to partitions, the one-partition spec in its
    # order, with positive int weights
    for n in range(6):
        for d in range(6):
            lower = rho2_constants(n, d)["lower"]
            levels = list(_rho2_levels(n, d))
            assert [m for m, _, _ in levels] == list(range(n * d // 2 + 1))
            for m, domain, images in levels:
                assert domain == list(partitions(m, n, d))
                below = sorted(partitions(m - 1, n, d))
                for lam, image in zip(domain, images, strict=True):
                    assert [(below[i], w) for i, w in image.items()] == box_image(lam, lower, n)
                    assert all(type(w) is int and w > 0 for w in image.values())


@given(data=sparse_terms(), z=rationals, zprime=rationals)
@settings(max_examples=60, deadline=None)
def test_kerov_operators_equal_spec(data, z, zprime):
    _, _, terms = data
    v = DiagramVector(None, terms)
    params, table = KerovParams(z, zprime), kerov_constants(z, zprime)
    for op in "ULD":
        out = kerov_apply(op, v, params)
        assert list(out.terms.items()) == list(box_operator_reference(v, table[op], None).items())
        assert_canonical(out)


def test_box_operator_does_not_depend_on_the_index(monkeypatch):
    # the same calls in a fresh index, after unrelated calls have filled
    # it, and in the index the process already has
    calls = [(DiagramVector(None, {(3, 1): Fraction(1, 2), (2, 2): 3, (1,): -1}), constants, bound)
             for constants in (("add", Fraction(-2, 3), 1), ("remove", 4, Fraction(1, 5)),
                               ("diagonal", 1, 2), ("add", 0, 1))
             for bound in (None, 2, 3)]
    shared = [exact_terms(box_operator(*call)) for call in calls]
    monkeypatch.setattr(vector, "_INDEX", {})
    monkeypatch.setattr(vector, "_PARTITIONS", [])
    monkeypatch.setattr(vector, "_NEIGHBOURS", {"remove": {}, "add": {}})
    fresh = [exact_terms(box_operator(*call)) for call in calls]
    assert len(vector._PARTITIONS) < 20
    for m in range(9):
        for lam in partitions(m, 4):
            for part in ("add", "remove"):
                box_operator(DiagramVector(None, {lam: 1}), (part, 1, 1), None)
    filled = [exact_terms(box_operator(*call)) for call in calls]
    assert fresh == filled == shared
    for call in calls:
        same_as_spec(*call)


def test_box_operator_fills_the_index_safely_from_threads(monkeypatch):
    # more threads than cores fill a fresh index with the same partitions,
    # started together, at a short switch interval; a lost update would map
    # an index to the wrong partition
    shapes = [lam for m in range(1, 12) for lam in partitions(m, 6)]
    calls = [(DiagramVector(None, {lam: 1}), (part, 1, 1), None) for lam in shapes for part in ("add", "remove")]
    failures = []

    def work(start):
        start.wait(timeout=60)
        try:
            for call in calls:
                same_as_spec(*call)
        except Exception as exc:  # an error raised by a race fails the test, not just the thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(vector, "_INDEX", {})
            monkeypatch.setattr(vector, "_PARTITIONS", [])
            monkeypatch.setattr(vector, "_NEIGHBOURS", {"remove": {}, "add": {}})
            start = threading.Barrier(4)
            threads = [threading.Thread(target=work, args=(start,)) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not failures
            assert sorted(vector._INDEX.values()) == list(range(len(vector._PARTITIONS)))
            assert all(vector._PARTITIONS[i] == lam for lam, i in vector._INDEX.items())
    finally:
        sys.setswitchinterval(interval)


def test_box_operator_empty_and_cancelling():
    assert box_operator(SchurVector(3), ("add", 0, 1), 3) == SchurVector(3)
    assert box_operator(DiagramVector(None), ("remove", Fraction(1, 7), 2), None).terms == {}
    # weights 3/2 + 1/2 content: (2) -> (1) by 2, (1, 1) -> (1) by 1
    v = SchurVector(2, {(2,): Fraction(1, 4), (1, 1): Fraction(-1, 2)})
    out = box_operator(v, ("remove", Fraction(3, 2), Fraction(1, 2)), 2)
    assert out.terms == {} and out.ambient == 2 and not out


def test_box_operator_add_refuses_rows_past_the_bound():
    with pytest.raises(ValueError, match=r"^\(1, 1\) already has more than 1 rows$"):
        box_operator(DiagramVector(None, {(1, 1): 1}), ("add", 1, 0), 1)


@given(
    data=sparse_terms(),
    other=st.lists(rationals, min_size=6, max_size=6),
    z=rationals,
    zprime=rationals,
    k=st.integers(-9, 9),
    q=rationals,
    d=st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_closed_operations_keep_coefficients_canonical(data, other, z, zprime, k, q, d):
    n, _, terms = data
    u, w = SchurVector(n, terms), SchurVector(n, dict(zip(terms, other)))
    small = SchurVector(n, {lam: c for lam, c in terms.items() if sum(lam) <= 4})
    f = Poly(n, {lam + (0,) * (n - len(lam)): c for lam, c in terms.items()})
    g = Poly(n, {lam + (0,) * (n - len(lam)): c for lam, c in w.terms.items()})
    bounded = DiagramVector(n, terms)
    free = DiagramVector(None, terms)
    boxed = DiagramVector(n, {lam: c for lam, c in terms.items() if not lam or lam[0] <= d})
    kerov = kerov_constants(z, zprime)
    tables = [*rho1_constants(n).values(), *rho2_constants(n, d).values(), *kerov.values()]
    results = [u, w, f, bounded, u + w, u - w, -u, u * k, k * u, u * q, small ** 2, small ** 0,
               f * g, f ** 2, multiply(small, small), phi(bounded), phi_inverse(u),
               -free, free * q, q * bounded, f * q, q * f, -f]
    results += [box_operator(u, c, n) for c in tables] + [box_operator(free, c, None) for c in tables]
    for op in ("lower", "cartan", "raise"):
        results += [hat_apply(op, bounded, n), tilde_apply(op, boxed, n, d)]
    params = KerovParams(z, zprime)
    results += [kerov_apply(op, free, params) for op in "ULD"]
    for res in results:
        assert_canonical(res)


def fraction_sum(*scaled) -> dict:
    """The sum of (scalar, terms) pairs by plain Fraction arithmetic, each
    coefficient an int when integral, zeros dropped."""
    out = {}
    for q, terms in scaled:
        for key, c in terms.items():
            out[key] = out.get(key, 0) + Fraction(c) * q
    return {key: int(c) if c.denominator == 1 else c for key, c in out.items() if c}


@given(data=sparse_terms(), other=st.lists(rationals, min_size=6, max_size=6), q=rationals,
       k=st.integers(0, 3), z=rationals, zprime=rationals, d=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_closed_operations_keep_the_normal_form(data, other, q, k, z, zprime, d):
    # every result stores den > 0 and nonzero nums with no common factor,
    # and its terms, equality and hash agree with Fraction arithmetic on
    # the inputs' terms, the hash and equality through the checked
    # constructor
    n, _, terms = data
    u, w = SchurVector(n, terms), SchurVector(n, dict(zip(terms, other)))
    small = SchurVector(n, {lam: c for lam, c in terms.items() if sum(lam) <= 3})
    bounded, free = DiagramVector(n, terms), DiagramVector(None, terms)
    boxed = {lam: c for lam, c in terms.items() if not lam or lam[0] <= d}
    power = SchurVector.unit(n)
    for _ in range(k):
        power = multiply_reference(power, small)
    cases = [
        (u + w, fraction_sum((1, u.terms), (1, w.terms))),
        (u - w, fraction_sum((1, u.terms), (-1, w.terms))),
        (u * q, fraction_sum((q, u.terms))), (q * free, fraction_sum((q, terms))), (-u, fraction_sum((-1, terms))),
        (small ** k, power.terms), (multiply(small, w), multiply_reference(small, w).terms),
        (phi(bounded), fraction_sum((1, terms))), (phi_inverse(u), fraction_sum((1, terms))),
    ]
    params = KerovParams(z, zprime)
    for op in ("lower", "cartan", "raise"):
        rho1, rho2 = rho1_constants(n)[op], rho2_constants(n, d)[op]
        cases += [
            (act_rho1(op, u), box_operator_reference(u, rho1, n)),
            (act_rho2(op, SchurVector(n, boxed), d), box_operator_reference(SchurVector(n, boxed), rho2, n)),
            (hat_apply(op, bounded, n), box_operator_reference(bounded, rho1, n)),
            (tilde_apply(op, DiagramVector(n, boxed), n, d),
             box_operator_reference(DiagramVector(n, boxed), rho2, n)),
        ]
    cases += [(kerov_apply(op, free, params), box_operator_reference(free, kerov_constants(z, zprime)[op], None))
              for op in "ULD"]
    for out, reference in cases:
        assert_normal_form(out.den, out.nums)
        reference = fraction_sum((1, reference))
        assert {key: (type(c), c) for key, c in out.terms.items()} == {
            key: (type(c), c) for key, c in reference.items()}
        expected = type(out)(out.ambient, reference)
        assert out == expected and not out != expected and hash(out) == hash(expected)


def test_kernel_vectors_keep_the_normal_form():
    # wrapped from the nullspace's (den, nums), whose den is negative
    # before it is normalized on the 4 x 3 and 4 x 4 boxes
    for n, d in ((4, 3), (4, 4), (5, 5)):
        for vec, _ in lowest_weight_space_rho2(n, d):
            assert_normal_form(vec.den, vec.nums)
            assert vec == SchurVector(n, vec.terms)


def scaled_reference(v, q) -> list:
    """The terms of q*v in order, each coefficient c*q by plain Fraction
    arithmetic, an int when integral, zeros dropped."""
    out = [(key, Fraction(c) * q) for key, c in v.terms.items()]
    return [(key, int, int(c)) if c.denominator == 1 else (key, Fraction, c) for key, c in out if c]


@given(data=sparse_terms(), q=rationals)
@example(data=(2, None, {(2,): Fraction(1, 2), (1, 1): 3}), q=Fraction(2))
@example(data=(3, None, {(2, 1): Fraction(-3, 4)}), q=Fraction(0))
@settings(max_examples=100, deadline=None)
def test_scalar_products_equal_fraction_reference(data, q):
    n, _, terms = data
    vectors = [SchurVector(n, terms), DiagramVector(n, terms), DiagramVector(None, terms),
               Poly(n, {lam + (0,) * (n - len(lam)): c for lam, c in terms.items()})]
    for v in vectors:
        for c, out in ((q, v * q), (q, q * v), (-1, -v)):
            assert type(out) is type(v) and out.ambient == v.ambient
            assert exact_terms(out) == scaled_reference(v, c)
        for k in (int(q), -1, 0, 1):
            assert exact_terms(v * k) == exact_terms(k * v) == scaled_reference(v, k)


def test_oracle_scales_without_the_box_operator(monkeypatch):
    # the monomial oracle checks the box operator and its canonicalizer, so
    # it must not run them: Poly has its own scalar product
    def refuse(*args):
        raise AssertionError("the oracle ran the engine's scaling")

    for name in ("box_operator", "_reduced"):
        monkeypatch.setattr(vector, name, refuse)
    with pytest.raises(AssertionError, match="the oracle ran"):
        SchurVector(2, {(1,): 1}) * Fraction(2, 3)
    f = Poly(2, {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2), (1, 1): -3})
    assert (f * Fraction(2, 3)).terms == {(2, 0): Fraction(1, 3), (0, 2): Fraction(1, 3), (1, 1): -2}
    assert (Fraction(-4, 3) * f).terms == (-f * Fraction(4, 3)).terms == {
        (2, 0): Fraction(-2, 3), (0, 2): Fraction(-2, 3), (1, 1): 4}
    assert (f * 0).terms == {} and (2 * f).terms == {(2, 0): 1, (0, 2): 1, (1, 1): -6}
    assert as_data(sigma_slice(power_sum_poly(2, 3))) == as_data(
        power_sum_poly(2, 3) - power_sum_poly(1, 3) ** 2 * Fraction(1, 3))
    for lam in [(), (1,), (2, 1), (3, 1, 1)]:
        expected = SchurVector(3, {lam: Fraction(2, 3)})
        assert as_data(poly_to_schur(schur_to_poly(lam, 3) * Fraction(2, 3))) == as_data(expected)


@given(pair=basis_pairs())
@settings(max_examples=60, deadline=None)
def test_product_equals_monomial_oracle(pair):
    n, lam, mu = pair
    product = multiply(SchurVector.basis(n, lam), SchurVector.basis(n, mu))
    assert as_data(product) == as_data(poly_to_schur(schur_to_poly(lam, n) * schur_to_poly(mu, n)))


def exact_terms(v) -> list:
    """The terms of `v` in order, each with the type of its coefficient."""
    return [(key, type(c), c) for key, c in v.terms.items()]


def multiply_reference(u, v) -> SchurVector:
    """The Littlewood-Richardson product summed one Fraction at a time."""
    out = {}
    for lam, a in u.terms.items():
        for mu, b in v.terms.items():
            key = (lam, mu) if lam <= mu else (mu, lam)
            for nu, c in _basis_product(key[0], key[1], u.n).items():
                out[nu] = out.get(nu, 0) + a * b * c
    return SchurVector(u.n, out)


@st.composite
def schur_operands(draw):
    """(n, u, v): vectors in n <= 5 rows with |lam| <= 4 and coefficients
    whose denominators go up to 10^6.  Each is empty, the unit or up to 4
    random terms.  Half the time u also holds s_(1) and v holds c*s_lam -
    c*s_mu for two shapes of one size: their products with s_(1) cancel on
    every shape that contains both."""
    n = draw(st.integers(1, 5))
    shapes = [lam for m in range(5) for lam in partitions(m, n)]
    operands = []
    for _ in range(2):
        kind = draw(st.integers(0, 4))
        terms = {} if kind == 0 else {(): 1} if kind == 1 else draw(
            st.dictionaries(st.sampled_from(shapes), coefficients, min_size=1, max_size=4))
        operands.append(terms)
    u, v = operands
    if n > 1 and draw(st.booleans()):
        m = draw(st.integers(2, 3))
        lam, mu = draw(st.lists(st.sampled_from(list(partitions(m, n))), min_size=2,
                                max_size=2, unique=True))
        c = draw(coefficients.filter(bool))
        u[(1,)] = draw(coefficients.filter(bool))
        v.update({lam: c, mu: -c})
    return n, SchurVector(n, u), SchurVector(n, v)


@given(data=schur_operands())
@example(data=(2, SchurVector(2, {(1,): Fraction(1, 3)}),
               SchurVector(2, {(2,): Fraction(3, 7), (1, 1): Fraction(-3, 7)})))
@settings(max_examples=150, deadline=None)
def test_multiply_equals_fraction_reference(data):
    n, u, v = data
    out = multiply(u, v)
    assert type(out) is SchurVector and out.n == n
    assert exact_terms(out) == exact_terms(multiply_reference(u, v))
    assert_canonical(out)


@st.composite
def scaled_expressions(draw):
    """(n, c1, c2, tree): two numbers, each up to 5 with a denominator up to
    10^6, and a small Schur expression in n <= 4 rows."""
    n = draw(st.integers(1, 4))
    number = st.fractions(min_value=0, max_value=5, max_denominator=10**6)
    atoms = [("atom", "s", lam) for m in range(4) for lam in partitions(m, n)]
    atoms += [("atom", letter, (k,)) for letter in "ph" for k in (1, 2, 3)]
    atoms += [("atom", "e", (k,)) for k in range(1, n + 1)]
    atom = st.sampled_from(atoms)
    tree = st.one_of(atom, st.tuples(st.sampled_from(["add", "sub", "mul"]), atom, atom))
    return n, draw(number), draw(number), draw(tree)


def evaluate_through_unit(e, n) -> SchurVector:
    """`evaluate` with every product taken by `multiply`, a number c as c*s_()."""
    if e[0] == "mul":
        return multiply(evaluate_through_unit(e[1], n), evaluate_through_unit(e[2], n))
    return evaluate(e, n)


@given(data=scaled_expressions())
@settings(max_examples=100, deadline=None)
def test_numeric_factors_scale_like_products(data):
    n, c1, c2, x = data
    for tree in (("mul", ("num", c1), x), ("mul", x, ("num", c1)),
                 ("mul", ("mul", ("num", c1), ("num", c2)), x),
                 ("mul", ("neg", ("num", c1)), x),
                 ("mul", x, ("neg", ("mul", ("num", c1), ("neg", ("num", c2)))))):
        out, expected = evaluate(tree, n), evaluate_through_unit(tree, n)
        assert repr(out) == repr(expected)
        assert exact_terms(out) == exact_terms(expected)


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@st.composite
def sparse_columns(draw):
    """(nrows, columns): up to 10 columns of an up to 8-row rational matrix,
    each a {row: coefficient} dict with about a third of the rows present,
    the coefficients canonical as the box operator gives them."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    entry = st.one_of(st.just(0), st.just(0), rationals.map(canonical_coefficient))
    columns = [{r: draw(entry) for r in range(nrows)} for _ in range(ncols)]
    return nrows, [{r: c for r, c in column.items() if c} for column in columns]


@given(data=sparse_columns())
@settings(max_examples=150, deadline=None)
def test_nullspace_equals_sympy(sympy, data):
    nrows, columns = data
    copy = [dict(column) for column in columns]
    kernel = rational_nullspace(columns)
    assert columns == copy
    rows = [[column.get(r, 0) for column in columns] for r in range(nrows)]
    expected = [
        {j: Fraction(int(x.p), int(x.q)) for j, x in enumerate(vec) if x}
        for vec in sympy.Matrix(rows).nullspace()
    ]
    assert [{j: Fraction(x, den) for j, x in nums.items()} for den, nums in kernel] == expected
    for den, nums in kernel:
        assert_normal_form(den, nums)


def test_large_decomposition_dimension_identity():
    for n, d in ((12, 12), (120, 120)):
        decomp = decompose_finite(n, d)
        assert sum((i + 1) * c for i, c in decomp.items()) == comb(n + d, n)
    assert sum(character_finite(100, 100).values()) == comb(200, 100)
