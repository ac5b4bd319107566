"""Verification suites behind `sl2sym verify`: exhaustive exact checks of
the operator commutation relations, the Schur-basis actions against the
differential operators, the kernels and decompositions, the combinatorial
identities, the diagram transport, and the closed forms of the Kerov
operators and of both actions at their Kerov parameter points, all at desk
scale."""

import random
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from itertools import chain, combinations_with_replacement, product
from math import comb, factorial

from .combinatorics import alpha_degree, alpha_tuples, gamma, lw_counts, partitions, sylvester_cayley
from .polyring import (
    Poly,
    poly_to_schur,
    power_sum_poly,
    rho1_apply,
    rho2_apply,
    schur_to_poly,
    sigma_slice,
    z_generator_poly,
)
from .sl2_actions import (
    act_rho1,
    act_rho2,
    character_finite,
    decompose_finite,
    lowest_weight_basis_rho1,
    lowest_weight_space_rho2,
    rational_nullspace,
)
from .symfunc import (
    SchurVector,
    multiply,
    power_sum_schur,
    z_generator_schur,
    z_monomial_schur,
)
from .vector import box_operator
from .young import DiagramVector, KerovParams, hat_apply, kerov_apply, phi_inverse, tilde_apply

OPS = ("lower", "cartan", "raise")

# multiplicity tables for the three-variable box decompositions, d = 2..8
THREE_VAR_TABLES = {
    2: {2: 1, 6: 1},
    3: {3: 1, 5: 1, 9: 1},
    4: {0: 1, 4: 1, 6: 1, 8: 1, 12: 1},
    5: {3: 1, 5: 1, 7: 1, 9: 1, 11: 1, 15: 1},
    6: {2: 1, 6: 2, 8: 1, 10: 1, 12: 1, 14: 1, 18: 1},
    7: {3: 1, 5: 1, 7: 1, 9: 2, 11: 1, 13: 1, 15: 1, 17: 1, 21: 1},
    8: {0: 1, 4: 1, 6: 1, 8: 2, 10: 1, 12: 2, 14: 1, 16: 1, 18: 1, 20: 1, 24: 1},
}

THREE_VAR_MULTIPLICITIES = (1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2)


Check = namedtuple("Check", ("suite", "name", "ok", "detail", "note"), defaults=("", False))


def _monomials(n, max_deg):
    """The monomials of degree at most max_deg in n variables."""
    return (Poly.monomial(n, e) for e in product(range(max_deg + 1), repeat=n) if sum(e) <= max_deg)


def _partitions_up_to(max_size, max_rows, max_part=None):
    return [lam for m in range(max_size + 1) for lam in partitions(m, max_rows, max_part)]


@cache
def count_partitions_in_rectangle(max_parts: int, max_part: int, size: int) -> int:
    """Number of partitions of `size` with at most `max_parts` parts, each
    part at most `max_part` (counted by largest part, memoized): the
    oracle for the Gaussian binomial coefficients."""
    if size == 0:
        return 1
    if size < 0 or max_parts <= 0 or max_part <= 0:
        return 0
    return sum(
        count_partitions_in_rectangle(max_parts - 1, j, size - j)
        for j in range(1, min(max_part, size) + 1)
    )


def _tally(suite, name, unit, failures):
    """One counted check: `failures` yields the failure count of each case
    (a bool counts as 0 or 1)."""
    count = bad = 0
    for failed in failures:
        count += 1
        bad += failed
    return Check(suite, name, bad == 0, f"{count} {unit}, {bad} failures")


def as_data(v) -> tuple:
    """Vector `v` as plain data, (class, ambient, terms): every check
    compares its vectors so, without the `SparseVector.__eq__` it checks."""
    return type(v), v.ambient, v.terms


# ---------------------------------------------------------------- commutators


def _brackets_ok(apply_op, f):
    raised, lowered, weighted = (apply_op(op, f) for op in ("raise", "lower", "cartan"))
    return (as_data(apply_op("raise", lowered) - apply_op("lower", raised)) == as_data(weighted)
            and as_data(apply_op("cartan", raised) - apply_op("raise", weighted)) == as_data(2 * raised)
            and as_data(apply_op("cartan", lowered) - apply_op("lower", weighted)) == as_data(-2 * lowered))


def _power_sum_samples(n):
    """p_1..p_8 and the products p_a p_b of degree at most 8."""
    samples = [power_sum_poly(m, n) for m in range(1, 9)]
    return samples + [
        power_sum_poly(a, n) * power_sum_poly(b, n) for a in range(1, 8) for b in range(a, 9 - a)
    ]


def suite_commutators():
    return [
        _tally("commutators", "first action on monomials (deg<=8, n<=4)", "monomials", (
            not _brackets_ok(rho1_apply, f) for n in range(1, 5) for f in _monomials(n, 8)
        )),
        _tally("commutators", "second action on monomials (deg<=8, n<=4, d<=6)",
               "monomial/parameter pairs", (
                   not _brackets_ok(lambda op, g: rho2_apply(op, g, d), f)
                   for n in range(1, 5) for d in range(7) for f in _monomials(n, 8)
               )),
        _tally("commutators", "first action on Schur basis (|lam|<=6, n<=4)", "basis elements", (
            not _brackets_ok(act_rho1, SchurVector.basis(n, lam))
            for n in range(1, 5) for lam in _partitions_up_to(6, n)
        )),
        _tally("commutators", "second action on Schur basis (|lam|<=6, n<=4, d<=6)",
               "basis/parameter pairs", (
                   not _brackets_ok(lambda op, u: act_rho2(op, u, d), SchurVector.basis(n, lam))
                   for n in range(1, 5) for d in range(7) for lam in _partitions_up_to(6, n, d)
               )),
        _tally("commutators",
               "first action preserves symmetry (power-sum products, deg<=8, n<=4)",
               "images checked", (
                   not rho1_apply(op, f).is_symmetric()
                   for n in range(1, 5) for f in _power_sum_samples(n) for op in OPS
               )),
    ]


# --------------------------------------------------------------- schur-action


def elementary_schur(i: int, n: int) -> SchurVector:
    """e_i = s_(1^i)."""
    if i < 0 or i > n:
        raise ValueError(f"e_{i} undefined in {n} variables")
    return SchurVector(n, {(1,) * i: 1})


def act_rho1_named(op: str, family: str, i: int, n: int) -> SchurVector:
    """Closed-form image of p_i, e_i or h_i under the first action, returned
    in the Schur basis.  The power-sum images follow the differential
    operators: lower p_i = -i p_{i-1} (and -n for i = 1), raise p_i = i p_{i+1}."""
    if i < 1:
        raise ValueError("need index >= 1")
    if family == "e":
        if i > n:
            raise ValueError(f"e_{i} undefined in {n} variables")
        if op == "cartan":
            return 2 * i * elementary_schur(i, n)
        if op == "lower":
            return -(n - (i - 1)) * elementary_schur(i - 1, n)
        if op == "raise":
            e1ei = multiply(elementary_schur(1, n), elementary_schur(i, n))
            if i == n:
                return e1ei
            return e1ei - (i + 1) * elementary_schur(i + 1, n)
    elif family == "h":
        if op == "cartan":
            return 2 * i * SchurVector.basis(n, (i,))
        if op == "lower":
            prev = SchurVector.basis(n, (i - 1,)) if i > 1 else SchurVector.unit(n)
            return -(n + i - 1) * prev
        if op == "raise":
            h1hi = multiply(SchurVector.basis(n, (1,)), SchurVector.basis(n, (i,)))
            return (i + 1) * SchurVector.basis(n, (i + 1,)) - h1hi
    elif family == "p":
        if op == "cartan":
            return 2 * i * power_sum_schur(i, n)
        if op == "lower":
            if i == 1:
                return -n * SchurVector.unit(n)
            return -i * power_sum_schur(i - 1, n)
        if op == "raise":
            return i * power_sum_schur(i + 1, n)
    else:
        raise ValueError(f"unknown family {family!r}")
    raise ValueError(f"unknown operator {op!r}")


def _families(n):
    """(family, index, Schur vector) for e_1..e_n, h_1..h_6 and p_1..p_6."""
    yield from (("e", i, elementary_schur(i, n)) for i in range(1, n + 1))
    yield from (("h", i, SchurVector.basis(n, (i,))) for i in range(1, 7))
    yield from (("p", i, power_sum_schur(i, n)) for i in range(1, 7))


def suite_schur_action():
    return [
        _tally("schur-action", "first action matches differential operators (|lam|<=6, n<=4)",
               "comparisons", (
                   as_data(act_rho1(op, SchurVector.basis(n, lam)))
                   != as_data(poly_to_schur(rho1_apply(op, schur_to_poly(lam, n))))
                   for n in range(1, 5) for lam in _partitions_up_to(6, n) for op in OPS
               )),
        _tally("schur-action",
               "second action matches differential operators (|lam|<=6, n<=4, d<=6)",
               "comparisons", (
                   as_data(act_rho2(op, SchurVector.basis(n, lam), d))
                   != as_data(poly_to_schur(rho2_apply(op, schur_to_poly(lam, n), d)))
                   for n in range(1, 5) for d in range(7) for lam in _partitions_up_to(6, n, d)
                   for op in OPS
               )),
        _tally("schur-action", "closed-form family images match the Schur action", "comparisons", (
            as_data(act_rho1_named(op, family, i, n)) != as_data(act_rho1(op, vec))
            for n in range(1, 5) for family, i, vec in _families(n) for op in OPS
        )),
        Check("schur-action", "power-sum lowering sign", True,
              "computed: lowering sends p_i to -i*p_(i-1); paper: +i*p_(i-1)", note=True),
    ]


# --------------------------------------------------------------------- kernel


def _lowest_weight_failures(apply_op, v, weight):
    """Whether lowering misses annihilating v, plus whether v misses being
    a cartan eigenvector of `weight`."""
    return bool(apply_op("lower", v)) + (as_data(apply_op("cartan", v)) != as_data(weight * v))


def _raised_kernel_failures(alpha, n):
    """Per raising step k = 1..4 of the kernel monomial z^alpha, the
    failures of the standard-module lower and cartan relations."""
    w = 2 * alpha_degree(alpha)
    v = z_monomial_schur(alpha, n)
    for k in range(1, 5):
        v_prev, v = v, act_rho1("raise", v)
        yield ((as_data(act_rho1("lower", v)) != as_data(Fraction(-k * (w + k - 1)) * v_prev))
               + (as_data(act_rho1("cartan", v)) != as_data(Fraction(w + 2 * k) * v)))


def _raising_not_injective(n, m):
    return bool(rational_nullspace(
        [act_rho1("raise", SchurVector.basis(n, lam)).terms for lam in partitions(m, n)]
    ))


def suite_kernel():
    checks = [
        _tally("kernel", "generators are annihilated with cartan eigenvalue 2i (n<=6)",
               "generators", (
                   _lowest_weight_failures(rho1_apply, z_generator_poly(i, n), 2 * i)
                   for n in range(2, 7) for i in range(2, n + 1)
               )),
        _tally("kernel", "leading coefficient identity n*C_i = (n-1)^i + (-1)^i (n-1) (n<=8)",
               "coefficients", (
                   n * z_generator_poly(i, n).terms.get((i,) + (0,) * (n - 1), 0)
                   != (n - 1) ** i + (-1) ** i * (n - 1)
                   for n in range(2, 9) for i in range(2, n + 1)
               )),
        _tally("kernel",
               "slice homomorphism reproduces generators: sigma(p_i) = z_i/n^(i-1) (i<=n<=5)",
               "comparisons", (
                   as_data(sigma_slice(power_sum_poly(i, n)))
                   != as_data(z_generator_poly(i, n) * Fraction(1, n ** (i - 1)))
                   for n in range(2, 6) for i in range(2, n + 1)
               )),
        _tally("kernel",
               "graded dimensions: partial sums count partitions with <=n parts (m<=12, n<=5)",
               "grades", (
                   sum(lw_counts(n, m)) != count_partitions_in_rectangle(n, m, m)
                   for n in range(2, 6) for m in range(13)
               )),
    ]

    computed = tuple(lw_counts(3, 10))
    checks.append(Check(
        "kernel", "three-variable multiplicity sequence c_0..c_10",
        computed == THREE_VAR_MULTIPLICITIES, f"computed {computed}"))

    seq = lw_counts(3, 30)
    rec_ok = seq[:5] == [1, 0, 1, 1, 1] and all(
        seq[i] == seq[i - 2] + seq[i - 3] - seq[i - 5] for i in range(5, 31)
    )
    checks.append(Check(
        "kernel", "three-variable recurrence c_i = c_(i-2)+c_(i-3)-c_(i-5) (i<=30)",
        rec_ok, "initial values 1,0,1,1,1"))

    # The per-degree count mismatches belong to no single vector.
    count = bad = 0
    for n in range(2, 5):
        basis = lowest_weight_basis_rho1(n, 6)
        count += len(basis)
        bad += sum(_lowest_weight_failures(act_rho1, vec, weight) for vec, weight in basis)
        per_degree = Counter(weight // 2 for _, weight in basis)
        bad += sum(per_degree[m] != c for m, c in enumerate(lw_counts(n, 6)))
    checks.append(Check(
        "kernel", "kernel monomials annihilated, weights and counts agree (deg<=6, n<=4)",
        bad == 0, f"{count} vectors, {bad} failures"))

    lw = lowest_weight_space_rho2(3, 6)
    weights = sorted(v.weight for v in lw)
    checks.append(Check(
        "kernel", "three-variable box d=6: kernel has 8 vectors with the stated weights",
        weights == [-18, -14, -12, -10, -8, -6, -6, -2] and not any(
            _lowest_weight_failures(lambda op, u: act_rho2(op, u, 6), v.vector, v.weight)
            for v in lw
        ),
        f"weights {weights}"))

    checks.append(_tally(
        "kernel", "standard-module relations on raised kernel vectors (k<=4, deg<=5, n<=4)",
        "relations", (
            failures for n in range(2, 5) for alpha in alpha_tuples(n, 5)
            for failures in _raised_kernel_failures(alpha, n)
        )))
    checks.append(_tally(
        "kernel", "raising is injective off constants (1<=m<=6, n<=4)", "graded components", (
            _raising_not_injective(n, m) for n in range(1, 5) for m in range(1, 7)
        )))

    degrees = [v.weight // 2 for v in lowest_weight_basis_rho1(2, 12)]
    checks.append(Check(
        "kernel", "two-variable kernel degrees",
        True,
        "computed: kernel spanned by all powers z_2^i, degrees "
        f"{degrees} (weights 4i); paper: modules of weight 8i only",
        note=True))

    return checks


# ----------------------------------------------------------------- identities


def _odd_power_sum_fails(m):
    p1 = power_sum_poly(1, 2)
    lhs = Poly.zero(2)
    for k in range(2 * m):
        coef = Fraction(-1, 2) ** (k + 1) * comb(2 * m + 1, k)
        lhs = lhs + power_sum_poly(2 * m + 1 - k, 2) * (p1 ** k) * coef
    return as_data(lhs) != as_data((p1 ** (2 * m + 1)) * Fraction(m, 2 ** (2 * m)))


def _even_power_sum_fails(m):
    x = Poly.variable(2, 1)
    y = Poly.variable(2, 2)
    p1 = power_sum_poly(1, 2)
    lhs = Poly.zero(2)
    for k in range(2 * m - 1):
        coef = (-1) ** k * 2 ** (2 * m - k - 1) * comb(2 * m, k)
        lhs = lhs + power_sum_poly(2 * m - k, 2) * (p1 ** k) * coef
    return as_data(lhs) != as_data((p1 ** (2 * m)) * (2 * m - 1) + (x - y) ** (2 * m))


def suite_identities():
    return [
        _tally("identities", "odd power-sum identity (m=1..8)", "cases",
               map(_odd_power_sum_fails, range(1, 9))),
        _tally("identities", "even power-sum identity (m=1..8)", "cases",
               map(_even_power_sum_fails, range(1, 9))),
    ]


# --------------------------------------------------------------------- tables


def _symmetric_power_character(n, d):
    """Weights of the n-th symmetric power of the (d+1)-dimensional
    standard module, counted over its monomial basis."""
    char = {}
    for combo in combinations_with_replacement(range(d + 1), n):
        w = sum(2 * i - d for i in combo)
        char[w] = char.get(w, 0) + 1
    return char


def peel_character(char):
    """Irreducible multiplicities of a finite sl2 character by peeling it
    top-down: the largest remaining weight always belongs to a fresh
    irreducible, so subtract its full weight string and repeat until
    nothing is left."""
    remaining = dict(char)
    decomp = {}
    while remaining:
        top = max(remaining)
        mult = remaining[top]
        if top < 0:
            raise ArithmeticError("character peeling left only negative weights")
        decomp[top] = mult
        for w in range(-top, top + 1, 2):
            c = remaining.get(w, 0) - mult
            if c < 0:
                raise ArithmeticError("character peeling went negative")
            if c:
                remaining[w] = c
            else:
                remaining.pop(w, None)
    return decomp


def _peeling_mismatches(n, d):
    decomp = decompose_finite(n, d)
    peeled = peel_character(_symmetric_power_character(n, d))
    return sum(decomp.get(i, 0) != peeled.get(i, 0) for i in range(n * d + 1))


def vd_realization(d: int) -> list[SchurVector]:
    """Basis w_0, ..., w_d of the (d+1)-dimensional standard module inside
    the single-column box in d variables: w_i = e_i / C(d, i).  Under the
    second action with column bound 1: lower w_i = i w_{i-1},
    raise w_i = (d-i) w_{i+1}, cartan w_i = (2i-d) w_i."""
    if d < 1:
        raise ValueError("need d >= 1")
    return [Fraction(1, comb(d, i)) * elementary_schur(i, d) for i in range(d + 1)]


def _vd_realization_failures(d):
    w = vd_realization(d)
    return bool(act_rho2("raise", w[d], 1)) + sum(
        (as_data(act_rho2("cartan", w[i], 1)) != as_data(Fraction(2 * i - d) * w[i]))
        + (i > 0 and as_data(act_rho2("lower", w[i], 1)) != as_data(Fraction(i) * w[i - 1]))
        + (i < d and as_data(act_rho2("raise", w[i], 1)) != as_data(Fraction(d - i) * w[i + 1]))
        for i in range(d + 1)
    )


def suite_tables():
    computed = decompose_finite(2, 2)
    return [
        _tally("tables",
               "Gaussian binomial equals rectangle count and is palindromic (a<=12, n<=6)",
               "coefficients", (
                   (gamma(a, n, i) != count_partitions_in_rectangle(n, a - n, i))
                   + (gamma(a, n, i) != gamma(a, n, n * (a - n) - i))
                   for n in range(1, 7) for a in range(n, 13) for i in range(n * (a - n) + 1)
               )),
        _tally("tables", "box character equals symmetric-power character (n,d<=5)", "characters", (
            character_finite(n, d) != _symmetric_power_character(n, d)
            for n in range(6) for d in range(6)
        )),
        _tally("tables", "peeled decomposition equals the difference formula (n,d<=5)",
               "decompositions", (_peeling_mismatches(n, d) for n in range(6) for d in range(6))),
        _tally("tables", "dimension identity sum c*(i+1) = C(n+d,n) (n,d<=6)", "pairs", (
            sum((i + 1) * sylvester_cayley(n, d, i) for i in range(n * d + 1)) != comb(n + d, n)
            for n in range(1, 7) for d in range(7)
        )),
        _tally("tables", "three-variable decomposition tables d=2..8", "tables", (
            decompose_finite(3, d) != table for d, table in THREE_VAR_TABLES.items()
        )),
        _tally("tables", "kernel dimensions per weight equal multiplicities (n<=4, d<=5)",
               "boxes", (
                   Counter(-v.weight for v in lowest_weight_space_rho2(n, d))
                   != Counter({i: sylvester_cayley(n, d, i) for i in range(n * d + 1)})
                   for n in range(1, 5) for d in range(6)
               )),
        _tally("tables", "scaled elementary polynomials realize the standard module (d<=8)",
               "realizations", map(_vd_realization_failures, range(1, 9))),
        Check("tables", "two-variable box d=2 decomposition", True,
              f"computed: V0 + V4 (multiplicities {computed}); paper: V2 + V4", note=True),
    ]


# ---------------------------------------------------------------------- kerov


def _transported(op, lam, n, d=None):
    """The transported operators on one diagram as the paper's box sums:
    xi_minus = remove (1, 0), nabla_minus = remove (0, 1), nabla_plus =
    add (0, 1) and xi_plus (Pieri) = add (1, 0), the adding ones within n
    rows.  The first action when d is None, else the second in the n x d
    box.  The oracle for hat_apply and tilde_apply."""
    basis = DiagramVector.basis(lam, n)
    if op == "cartan":
        image = DiagramVector(None, {lam: 2 * sum(lam) - n * (d or 0)})
    elif op == "lower":
        xi_minus = box_operator(basis, ("remove", 1, 0), n)
        nabla_minus = box_operator(basis, ("remove", 0, 1), n)
        image = (-1 if d is None else 1) * (n * xi_minus + nabla_minus)
    else:
        nabla_plus = box_operator(basis, ("add", 0, 1), n)
        image = nabla_plus if d is None else d * box_operator(basis, ("add", 1, 0), n) - nabla_plus
    return image.terms


def suite_kerov():
    rng = random.Random(20250809)
    pairs = [
        KerovParams(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        for _ in range(5)
    ]
    # U, -D, L satisfy the relations of raise, lower, cartan
    as_sl2 = {"raise": ("U", 1), "lower": ("D", -1), "cartan": ("L", 1)}
    witness = KerovParams(Fraction(1, 2), Fraction(-3, 7))
    return [
        _tally("kerov", "transport intertwines the first action (|lam|<=6, n<=4)", "comparisons", (
            hat_apply(op, DiagramVector.basis(lam, row_bound=n), n).terms
            != _transported(op, lam, n)
            for n in range(1, 5) for lam in _partitions_up_to(6, n) for op in OPS
        )),
        _tally("kerov", "transport intertwines the second action (|lam|<=6, n<=4, d<=6)",
               "comparisons", (
                   tilde_apply(op, DiagramVector.basis(lam, row_bound=n), n, d).terms
                   != _transported(op, lam, n, d)
                   for n in range(1, 5) for d in range(7) for lam in _partitions_up_to(6, n, d)
                   for op in OPS
               )),
        _tally("kerov",
               "hook vectors map to power sums, preimages to kernel generators (k<=6, n<=4)",
               "comparisons", chain(
                   (as_data(power_sum_schur(k, n)) != as_data(poly_to_schur(power_sum_poly(k, n)))
                    for n in range(1, 5) for k in range(1, 7)),
                   (as_data(z_generator_schur(i, n)) != as_data(poly_to_schur(z_generator_poly(i, n)))
                    for n in range(2, 5) for i in range(2, n + 1)),
               )),
        _tally("kerov", "Kerov bracket relations (|lam|<=7, 5 rational parameter pairs)",
               "diagrams x 3 relations per pair", (
                   not _brackets_ok(
                       lambda op, v: as_sl2[op][1] * kerov_apply(as_sl2[op][0], v, params),
                       DiagramVector.basis(lam))
                   for params in pairs for lam in _partitions_up_to(7, 7)
               )),
        _tally("kerov", "box adding escapes every row bound (witness (1^n), n<=4)", "witnesses", (
            all(
                len(lam) <= n
                for lam in kerov_apply("U", DiagramVector.basis((1,) * n), witness).terms
            )
            for n in range(1, 5)
        )),
        _tally("kerov", "transported kernel monomials are annihilated (deg<=5, n<=4)", "vectors", (
            bool(hat_apply("lower", phi_inverse(z_monomial_schur(alpha, n)), n))
            for n in range(2, 5) for alpha in alpha_tuples(n, 5)
        )),
    ]


# --------------------------------------------------------------- closed-forms


def standard_tableaux(lam) -> int:
    """f^lam, the number of standard tableaux of shape lam, by the hook
    length formula."""
    cols = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, p in enumerate(lam):
        for j in range(p):
            hooks *= p - j + cols[j] - i - 1
    return factorial(sum(lam)) // hooks


def content_product(x, lam):
    """(x)_lam, the product of x + content over the cells of lam."""
    out = 1
    for i, p in enumerate(lam):
        for j in range(p):
            out *= x + j - i
    return out


def _kerov_coefficients(params, max_size):
    """For every diagram lam with 1 <= |lam| <= max_size, computed by
    kerov_apply: (lam, coefficient of lam in U^|lam|(empty), coefficient of
    empty in D^|lam|(lam))."""
    out = []
    up = DiagramVector.unit()
    for m in range(1, max_size + 1):
        up = kerov_apply("U", up, params)
        for lam in partitions(m):
            down = DiagramVector.basis(lam)
            for _ in range(m):
                down = kerov_apply("D", down, params)
            out.append((lam, up.terms.get(lam, 0), down.terms.get((), 0)))
    return out


def _rho2_raising_failures(n, d):
    """Per m = 1..nd+1, whether raise^m(s[]) in the n x d box misses the
    sum of f^lam prod(d - content) s_lam over its partitions of m.  After
    the first miss the higher powers, which may leave the box, count as
    misses without being computed."""
    v = SchurVector.unit(n)
    for m in range(1, n * d + 2):
        v = act_rho2("raise", v, d)
        if as_data(v) != as_data(SchurVector(n, {
            lam: (-1) ** m * standard_tableaux(lam) * content_product(-d, lam)
            for lam in partitions(m, n, d)
        })):
            yield from [True] * (n * d + 2 - m)
            return
        yield False


def _rho1_lowering_fails(n, lam):
    m = sum(lam)
    v = SchurVector.basis(n, lam)
    for _ in range(m):
        v = act_rho1("lower", v)
    expected = (-1) ** m * standard_tableaux(lam) * content_product(n, lam) * SchurVector.unit(n)
    return as_data(v) != as_data(expected)


def suite_closed_forms():
    # off the integers, so no factor z + content or z' + content vanishes
    rng = random.Random(2005)
    pairs = [
        KerovParams(*(rng.randint(-9, 8) + Fraction(rng.randint(1, 8), 9) for _ in range(2)))
        for _ in range(3)
    ]
    cases = [(params, *case) for params in pairs for case in _kerov_coefficients(params, 10)]
    sizes = Counter()
    for (z, zprime), lam, up, down in cases:
        sizes[z, zprime, sum(lam)] += up * down
    return [
        _tally("closed-forms",
               "Kerov U^m(empty) has coefficients f^lam (z)_lam (m<=10, 3 rational parameter pairs)",
               "diagrams", (
                   up != standard_tableaux(lam) * content_product(params.z, lam)
                   for params, lam, up, _ in cases
               )),
        _tally("closed-forms",
               "Kerov D^m(lam) is f^lam (z')_lam times empty (m<=10, 3 rational parameter pairs)",
               "diagrams", (
                   down != standard_tableaux(lam) * content_product(params.zprime, lam)
                   for params, lam, _, down in cases
               )),
        _tally("closed-forms",
               "z-measure sums to 1: sum over |lam|=m of the coefficient products is m! (zz')_m "
               "(m<=10, 3 rational parameter pairs)",
               "sizes", (
                   total != factorial(m) * content_product(z * zprime, (m,))
                   for (z, zprime, m), total in sizes.items()
               )),
        _tally("closed-forms",
               "second action raise^m(s[]) is the sum of f^lam prod(d - content) s_lam "
               "over the n x d box (m<=nd+1, n,d<=4)",
               "powers", (
                   failed for n in range(1, 5) for d in range(1, 5)
                   for failed in _rho2_raising_failures(n, d)
               )),
        _tally("closed-forms",
               "first action lower^|lam|(s_lam) is (-1)^|lam| f^lam (n)_lam s[] (|lam|<=8, n<=8)",
               "partitions", (
                   _rho1_lowering_fails(n, lam)
                   for n in range(1, 9) for m in range(1, 9) for lam in partitions(m, n)
               )),
    ]


SUITES = {
    "commutators": suite_commutators,
    "schur-action": suite_schur_action,
    "kernel": suite_kernel,
    "identities": suite_identities,
    "tables": suite_tables,
    "kerov": suite_kerov,
    "closed-forms": suite_closed_forms,
}


def run_suite(name: str) -> list[Check]:
    """The checks of one suite, or of every suite for "all".  A suite that
    raises a ValueError or ArithmeticError (an operator left its domain)
    is one FAIL naming the exception, and the other suites still run."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    out = []
    for suite in SUITES if name == "all" else [name]:
        try:
            out.extend(SUITES[suite]())
        except (ValueError, ArithmeticError) as exc:
            out.append(Check(suite, "suite raised", False, f"{type(exc).__name__}: {exc}"))
    return out
