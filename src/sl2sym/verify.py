"""Verification suites behind `sl2sym verify`: exhaustive exact checks of
the operator commutation relations, the Schur-basis actions against the
differential operators, the kernels and decompositions, the combinatorial
identities, and the diagram transport, all at desk scale."""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .combinatorics import (
    add_cell,
    addable_corners,
    alpha_tuples,
    content,
    count_lw_solutions,
    count_partitions_in_rectangle,
    gamma,
    partitions,
    sylvester_cayley,
)
from .polyring import (
    Poly,
    power_sum_poly,
    rho1_apply,
    rho2_apply,
    sigma_slice,
    z_generator_poly,
)
from .sl2_actions import (
    act_rho1,
    act_rho1_named,
    act_rho2,
    character_finite,
    decompose_finite,
    graded_matrix,
    lowest_weight_basis_rho1,
    lowest_weight_space_rho2,
    rational_rref,
    rho1_constants,
    vd_realization,
    weight_of_alpha,
)
from .symfunc import (
    SchurVector,
    elementary_schur,
    power_sum_schur,
    poly_to_schur,
    schur_to_poly,
    z_generator_schur,
    z_monomial_schur,
)
from .young import (
    DiagramVector,
    KerovParams,
    hat_apply,
    kerov_apply,
    nabla,
    phi,
    phi_inverse,
    pi_k,
    tilde_apply,
    xi_minus,
    zeta,
)

SUITE_NAMES = ("commutators", "schur-action", "kernel", "identities", "tables", "kerov")

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


@dataclass
class Check:
    suite: str
    name: str
    ok: bool
    detail: str = ""
    note: bool = False


def _exponents(n, max_deg):
    if n == 0:
        yield ()
        return
    for e in range(max_deg + 1):
        for rest in _exponents(n - 1, max_deg - e):
            yield (e,) + rest


def _partitions_up_to(max_size, max_rows, max_part=None):
    out = []
    for m in range(max_size + 1):
        out.extend(partitions(m, max_rows, max_part))
    return out


# ---------------------------------------------------------------- commutators


def _brackets_ok(apply_op, f):
    rl = apply_op("raise", apply_op("lower", f)) - apply_op("lower", apply_op("raise", f))
    if rl != apply_op("cartan", f):
        return False
    cr = apply_op("cartan", apply_op("raise", f)) - apply_op("raise", apply_op("cartan", f))
    if cr != 2 * apply_op("raise", f):
        return False
    cl = apply_op("cartan", apply_op("lower", f)) - apply_op("lower", apply_op("cartan", f))
    return cl == -2 * apply_op("lower", f)


def suite_commutators():
    checks = []

    count = bad = 0
    for n in range(1, 5):
        for exps in _exponents(n, 8):
            f = Poly.monomial(n, exps)
            count += 1
            if not _brackets_ok(lambda op, g: rho1_apply(op, g), f):
                bad += 1
    checks.append(Check(
        "commutators", "first action on monomials (deg<=8, n<=4)",
        bad == 0, f"{count} monomials, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        monos = [Poly.monomial(n, exps) for exps in _exponents(n, 8)]
        for d in range(7):
            for f in monos:
                count += 1
                if not _brackets_ok(lambda op, g: rho2_apply(op, g, d), f):
                    bad += 1
    checks.append(Check(
        "commutators", "second action on monomials (deg<=8, n<=4, d<=6)",
        bad == 0, f"{count} monomial/parameter pairs, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        for lam in _partitions_up_to(6, n):
            v = SchurVector.basis(n, lam)
            count += 1
            if not _brackets_ok(lambda op, u: act_rho1(op, u), v):
                bad += 1
    checks.append(Check(
        "commutators", "first action on Schur basis (|lam|<=6, n<=4)",
        bad == 0, f"{count} basis elements, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        for d in range(7):
            for lam in _partitions_up_to(6, n, d):
                v = SchurVector.basis(n, lam)
                count += 1
                if not _brackets_ok(lambda op, u: act_rho2(op, u, d), v):
                    bad += 1
    checks.append(Check(
        "commutators", "second action on Schur basis (|lam|<=6, n<=4, d<=6)",
        bad == 0, f"{count} basis/parameter pairs, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        samples = [power_sum_poly(m, n) for m in range(1, 9)]
        samples += [
            power_sum_poly(a, n) * power_sum_poly(b, n)
            for a in range(1, 8)
            for b in range(a, 9 - a)
        ]
        for f in samples:
            for op in ("lower", "cartan", "raise"):
                count += 1
                if not rho1_apply(op, f).is_symmetric():
                    bad += 1
    checks.append(Check(
        "commutators", "first action preserves symmetry (power-sum products, deg<=8, n<=4)",
        bad == 0, f"{count} images checked, {bad} failures"))

    return checks


# --------------------------------------------------------------- schur-action


def suite_schur_action():
    checks = []

    count = bad = 0
    for n in range(1, 5):
        for lam in _partitions_up_to(6, n):
            fp = schur_to_poly(lam, n)
            v = SchurVector.basis(n, lam)
            for op in ("lower", "cartan", "raise"):
                count += 1
                if act_rho1(op, v) != poly_to_schur(rho1_apply(op, fp)):
                    bad += 1
    checks.append(Check(
        "schur-action", "first action matches differential operators (|lam|<=6, n<=4)",
        bad == 0, f"{count} comparisons, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        for d in range(7):
            for lam in _partitions_up_to(6, n, d):
                fp = schur_to_poly(lam, n)
                v = SchurVector.basis(n, lam)
                for op in ("lower", "cartan", "raise"):
                    count += 1
                    if act_rho2(op, v, d) != poly_to_schur(rho2_apply(op, fp, d)):
                        bad += 1
    checks.append(Check(
        "schur-action", "second action matches differential operators (|lam|<=6, n<=4, d<=6)",
        bad == 0, f"{count} comparisons, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        cases = [("e", i) for i in range(1, n + 1)]
        cases += [("h", i) for i in range(1, 7)]
        cases += [("p", i) for i in range(1, 7)]
        for family, i in cases:
            if family == "e":
                vec = elementary_schur(i, n)
            elif family == "h":
                vec = SchurVector.basis(n, (i,))
            else:
                vec = power_sum_schur(i, n)
            for op in ("lower", "cartan", "raise"):
                count += 1
                if act_rho1_named(op, family, i, n) != act_rho1(op, vec):
                    bad += 1
    checks.append(Check(
        "schur-action", "closed-form family images match the Schur action",
        bad == 0, f"{count} comparisons, {bad} failures"))

    checks.append(Check(
        "schur-action", "power-sum lowering sign",
        True,
        "computed: lowering sends p_i to -i*p_(i-1); paper: +i*p_(i-1)",
        note=True))

    return checks


# --------------------------------------------------------------------- kernel


def suite_kernel():
    checks = []

    count = bad = 0
    for n in range(2, 7):
        for i in range(2, n + 1):
            z = z_generator_poly(i, n)
            count += 1
            if rho1_apply("lower", z):
                bad += 1
            if rho1_apply("cartan", z) != z * (2 * i):
                bad += 1
    checks.append(Check(
        "kernel", "generators are annihilated with cartan eigenvalue 2i (n<=6)",
        bad == 0, f"{count} generators, {bad} failures"))

    count = bad = 0
    for n in range(2, 9):
        for i in range(2, n + 1):
            z = z_generator_poly(i, n)
            lead = [0] * n
            lead[0] = i
            c = z.terms.get(tuple(lead), Fraction(0))
            count += 1
            if n * c != (n - 1) ** i + (-1) ** i * (n - 1):
                bad += 1
    checks.append(Check(
        "kernel", "leading coefficient identity n*C_i = (n-1)^i + (-1)^i (n-1) (n<=8)",
        bad == 0, f"{count} coefficients, {bad} failures"))

    count = bad = 0
    for n in range(2, 6):
        for i in range(2, n + 1):
            count += 1
            if sigma_slice(power_sum_poly(i, n)) != z_generator_poly(i, n) * Fraction(1, n ** (i - 1)):
                bad += 1
    checks.append(Check(
        "kernel", "slice homomorphism reproduces generators: sigma(p_i) = z_i/n^(i-1) (i<=n<=5)",
        bad == 0, f"{count} comparisons, {bad} failures"))

    count = bad = 0
    for n in range(2, 6):
        for m in range(13):
            total = sum(count_lw_solutions(n, j) for j in range(m + 1))
            count += 1
            if total != count_partitions_in_rectangle(n, m, m):
                bad += 1
    checks.append(Check(
        "kernel", "graded dimensions: partial sums count partitions with <=n parts (m<=12, n<=5)",
        bad == 0, f"{count} grades, {bad} failures"))

    computed = tuple(count_lw_solutions(3, i) for i in range(11))
    checks.append(Check(
        "kernel", "three-variable multiplicity sequence c_0..c_10",
        computed == THREE_VAR_MULTIPLICITIES, f"computed {computed}"))

    seq = [count_lw_solutions(3, i) for i in range(31)]
    rec_ok = seq[:5] == [1, 0, 1, 1, 1] and all(
        seq[i] == seq[i - 2] + seq[i - 3] - seq[i - 5] for i in range(5, 31)
    )
    checks.append(Check(
        "kernel", "three-variable recurrence c_i = c_(i-2)+c_(i-3)-c_(i-5) (i<=30)",
        rec_ok, "initial values 1,0,1,1,1"))

    count = bad = 0
    for n in range(2, 5):
        basis = lowest_weight_basis_rho1(n, 6)
        per_degree = {}
        for vec, weight in basis:
            if act_rho1("lower", vec):
                bad += 1
            if act_rho1("cartan", vec) != Fraction(weight) * vec:
                bad += 1
            deg = weight // 2
            per_degree[deg] = per_degree.get(deg, 0) + 1
            count += 1
        for m in range(7):
            if per_degree.get(m, 0) != count_lw_solutions(n, m):
                bad += 1
    checks.append(Check(
        "kernel", "kernel monomials annihilated, weights and counts agree (deg<=6, n<=4)",
        bad == 0, f"{count} vectors, {bad} failures"))

    lw = lowest_weight_space_rho2(3, 6)
    weights = sorted(v.weight for v in lw)
    ann_ok = all(not act_rho2("lower", v.vector, 6) for v in lw)
    eig_ok = all(
        act_rho2("cartan", v.vector, 6) == Fraction(v.weight) * v.vector for v in lw
    )
    checks.append(Check(
        "kernel", "three-variable box d=6: kernel has 8 vectors with the stated weights",
        len(lw) == 8
        and weights == [-18, -14, -12, -10, -8, -6, -6, -2]
        and ann_ok and eig_ok,
        f"weights {weights}"))

    count = bad = 0
    for n in range(2, 5):
        for alpha in alpha_tuples(n, 5):
            w = weight_of_alpha(alpha)
            v = z_monomial_schur(alpha, n)
            for k in range(1, 5):
                v_prev = v
                v = act_rho1("raise", v_prev)
                count += 1
                if act_rho1("lower", v) != Fraction(-k * (w + k - 1)) * v_prev:
                    bad += 1
                if act_rho1("cartan", v) != Fraction(w + 2 * k) * v:
                    bad += 1
    checks.append(Check(
        "kernel", "standard-module relations on raised kernel vectors (k<=4, deg<=5, n<=4)",
        bad == 0, f"{count} relations, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        raising = rho1_constants(n)["raise"]
        for m in range(1, 7):
            domain = sorted(partitions(m, n), reverse=True)
            codomain = sorted(partitions(m + 1, n), reverse=True)
            _, pivots = rational_rref(graded_matrix(raising, domain, codomain, n))
            count += 1
            if len(pivots) != len(domain):
                bad += 1
    checks.append(Check(
        "kernel", "raising is injective off constants (1<=m<=6, n<=4)",
        bad == 0, f"{count} graded components, {bad} failures"))

    two_var = lowest_weight_basis_rho1(2, 12)
    degrees = [v.weight // 2 for v in two_var]
    checks.append(Check(
        "kernel", "two-variable kernel degrees",
        True,
        "computed: kernel spanned by all powers z_2^i, degrees "
        f"{degrees} (weights 4i); paper: modules of weight 8i only",
        note=True))

    return checks


# ----------------------------------------------------------------- identities


def suite_identities():
    checks = []
    x = Poly.variable(2, 1)
    y = Poly.variable(2, 2)

    count = bad = 0
    for m in range(1, 9):
        p1 = power_sum_poly(1, 2)
        lhs = Poly.zero(2)
        for k in range(2 * m):
            coef = Fraction(-1, 2) ** (k + 1) * comb(2 * m + 1, k)
            lhs = lhs + power_sum_poly(2 * m + 1 - k, 2) * (p1 ** k) * coef
        rhs = (p1 ** (2 * m + 1)) * Fraction(m, 2 ** (2 * m))
        count += 1
        if lhs != rhs:
            bad += 1
    checks.append(Check(
        "identities", "odd power-sum identity (m=1..8)",
        bad == 0, f"{count} cases, {bad} failures"))

    count = bad = 0
    for m in range(1, 9):
        p1 = power_sum_poly(1, 2)
        lhs = Poly.zero(2)
        for k in range(2 * m - 1):
            coef = (-1) ** k * 2 ** (2 * m - k - 1) * comb(2 * m, k)
            lhs = lhs + power_sum_poly(2 * m - k, 2) * (p1 ** k) * coef
        rhs = (p1 ** (2 * m)) * (2 * m - 1) + (x - y) ** (2 * m)
        count += 1
        if lhs != rhs:
            bad += 1
    checks.append(Check(
        "identities", "even power-sum identity (m=1..8)",
        bad == 0, f"{count} cases, {bad} failures"))

    return checks


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


def suite_tables():
    checks = []

    count = bad = 0
    for n in range(1, 7):
        for a in range(n, 13):
            top = n * (a - n)
            for i in range(top + 1):
                count += 1
                if gamma(a, n, i) != count_partitions_in_rectangle(n, a - n, i):
                    bad += 1
                if gamma(a, n, i) != gamma(a, n, top - i):
                    bad += 1
    checks.append(Check(
        "tables", "Gaussian binomial equals rectangle count and is palindromic (a<=12, n<=6)",
        bad == 0, f"{count} coefficients, {bad} failures"))

    count = bad = 0
    for n in range(6):
        for d in range(6):
            count += 1
            if character_finite(n, d) != _symmetric_power_character(n, d):
                bad += 1
    checks.append(Check(
        "tables", "box character equals symmetric-power character (n,d<=5)",
        bad == 0, f"{count} characters, {bad} failures"))

    count = bad = 0
    for n in range(6):
        for d in range(6):
            decomp = decompose_finite(n, d)
            peeled = peel_character(_symmetric_power_character(n, d))
            count += 1
            for i in range(n * d + 1):
                if decomp.get(i, 0) != peeled.get(i, 0):
                    bad += 1
    checks.append(Check(
        "tables", "peeled decomposition equals the difference formula (n,d<=5)",
        bad == 0, f"{count} decompositions, {bad} failures"))

    count = bad = 0
    for n in range(1, 7):
        for d in range(7):
            total = sum((i + 1) * sylvester_cayley(n, d, i) for i in range(n * d + 1))
            count += 1
            if total != comb(n + d, n):
                bad += 1
    checks.append(Check(
        "tables", "dimension identity sum c*(i+1) = C(n+d,n) (n,d<=6)",
        bad == 0, f"{count} pairs, {bad} failures"))

    bad = sum(1 for d, tab in THREE_VAR_TABLES.items() if decompose_finite(3, d) != tab)
    checks.append(Check(
        "tables", "three-variable decomposition tables d=2..8",
        bad == 0, f"{len(THREE_VAR_TABLES)} tables, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        for d in range(6):
            lw = lowest_weight_space_rho2(n, d)
            weights = {}
            for v in lw:
                weights[-v.weight] = weights.get(-v.weight, 0) + 1
            count += 1
            expected = {
                i: sylvester_cayley(n, d, i)
                for i in range(n * d + 1)
                if sylvester_cayley(n, d, i)
            }
            if weights != expected:
                bad += 1
    checks.append(Check(
        "tables", "kernel dimensions per weight equal multiplicities (n<=4, d<=5)",
        bad == 0, f"{count} boxes, {bad} failures"))

    count = bad = 0
    for d in range(1, 9):
        w = vd_realization(d)
        count += 1
        if act_rho2("raise", w[d], 1):
            bad += 1
        for i in range(d + 1):
            if act_rho2("cartan", w[i], 1) != Fraction(2 * i - d) * w[i]:
                bad += 1
            if i and act_rho2("lower", w[i], 1) != Fraction(i) * w[i - 1]:
                bad += 1
            if i < d and act_rho2("raise", w[i], 1) != Fraction(d - i) * w[i + 1]:
                bad += 1
    checks.append(Check(
        "tables", "scaled elementary polynomials realize the standard module (d<=8)",
        bad == 0, f"{count} realizations, {bad} failures"))

    computed = decompose_finite(2, 2)
    checks.append(Check(
        "tables", "two-variable box d=2 decomposition",
        True,
        f"computed: V0 + V4 (multiplicities {computed}); paper: V2 + V4",
        note=True))

    return checks


# ---------------------------------------------------------------------- kerov


def _transported(op, lam, n, d=None):
    """The transported operators on one diagram as explicit box sums built
    from xi_minus and nabla: the first action when d is None, else the
    second in the n x d box.  The oracle for hat_apply and tilde_apply."""
    if op == "cartan":
        image = DiagramVector(None, {lam: 2 * sum(lam) - n * (d or 0)})
    elif op == "lower":
        image = (-1 if d is None else 1) * (n * xi_minus(lam) + nabla("-", lam))
    elif d is None:
        image = nabla("+", lam, n)
    else:
        image = DiagramVector(None, {
            add_cell(lam, cell): d - content(cell) for cell in addable_corners(lam, n)
        })
    return image.terms


def suite_kerov():
    checks = []

    count = bad = 0
    for n in range(1, 5):
        for lam in _partitions_up_to(6, n):
            dv = DiagramVector.basis(lam, row_bound=n)
            for op in ("lower", "cartan", "raise"):
                count += 1
                if hat_apply(op, dv, n).terms != _transported(op, lam, n):
                    bad += 1
    checks.append(Check(
        "kerov", "transport intertwines the first action (|lam|<=6, n<=4)",
        bad == 0, f"{count} comparisons, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        for d in range(7):
            for lam in _partitions_up_to(6, n, d):
                dv = DiagramVector.basis(lam, row_bound=n)
                for op in ("lower", "cartan", "raise"):
                    count += 1
                    if tilde_apply(op, dv, n, d).terms != _transported(op, lam, n, d):
                        bad += 1
    checks.append(Check(
        "kerov", "transport intertwines the second action (|lam|<=6, n<=4, d<=6)",
        bad == 0, f"{count} comparisons, {bad} failures"))

    count = bad = 0
    for n in range(1, 5):
        for k in range(1, 7):
            count += 1
            if phi(pi_k(k, n)) != poly_to_schur(power_sum_poly(k, n)):
                bad += 1
    for n in range(2, 5):
        for i in range(2, n + 1):
            count += 1
            if phi(zeta(i, n)) != z_generator_schur(i, n):
                bad += 1
            if z_generator_schur(i, n) != poly_to_schur(z_generator_poly(i, n)):
                bad += 1
    checks.append(Check(
        "kerov", "hook vectors map to power sums, preimages to kernel generators (k<=6, n<=4)",
        bad == 0, f"{count} comparisons, {bad} failures"))

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
    count = bad = 0
    diagrams = _partitions_up_to(7, 7)
    for params in pairs:
        apply_op = lambda op, v, p=params: as_sl2[op][1] * kerov_apply(as_sl2[op][0], v, p)
        for lam in diagrams:
            count += 1
            if not _brackets_ok(apply_op, DiagramVector.basis(lam)):
                bad += 1
    checks.append(Check(
        "kerov", "Kerov bracket relations (|lam|<=7, 5 rational parameter pairs)",
        bad == 0, f"{count} diagrams x 3 relations per pair, {bad} failures"))

    params = KerovParams(Fraction(1, 2), Fraction(-3, 7))
    count = bad = 0
    for n in range(1, 5):
        column = (1,) * n
        image = kerov_apply("U", DiagramVector.basis(column), params)
        count += 1
        if all(len(lam) <= n for lam in image.terms):
            bad += 1
    checks.append(Check(
        "kerov", "box adding escapes every row bound (witness (1^n), n<=4)",
        bad == 0, f"{count} witnesses, {bad} failures"))

    count = bad = 0
    for n in range(2, 5):
        for alpha in alpha_tuples(n, 5):
            vec = phi_inverse(z_monomial_schur(alpha, n))
            count += 1
            if hat_apply("lower", vec, n):
                bad += 1
    checks.append(Check(
        "kerov", "transported kernel monomials are annihilated (deg<=5, n<=4)",
        bad == 0, f"{count} vectors, {bad} failures"))

    return checks


SUITES = {
    "commutators": suite_commutators,
    "schur-action": suite_schur_action,
    "kernel": suite_kernel,
    "identities": suite_identities,
    "tables": suite_tables,
    "kerov": suite_kerov,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out = []
        for suite in SUITE_NAMES:
            out.extend(SUITES[suite]())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name]()
