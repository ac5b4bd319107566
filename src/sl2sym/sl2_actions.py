"""Both sl2-actions in the Schur basis, lowest-weight (kernel) computation,
decomposition into irreducibles, characters, and the realization of the
finite standard module by scaled elementary symmetric polynomials."""

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .combinatorics import (
    alpha_degree,
    alpha_tuples,
    gaussian_binomial,
    lw_counts,
    partitions,
)
from .symfunc import SchurVector, elementary_schur, multiply, power_sum_schur, z_monomial_schur
from .vector import box_image, box_operator, op_constants


class LowestWeightVector(NamedTuple):
    vector: SchurVector
    weight: int


def rho1_constants(n: int) -> dict:
    """Box-operator constants of the first action on Schur vectors:
    lower s = -sum over removable cells of (n + content) s',
    cartan s = 2|lam| s, raise s = sum over addable cells of content * s'."""
    return {"lower": ("remove", -n, -1), "cartan": ("diagonal", 0, 2), "raise": ("add", 0, 1)}


def rho2_constants(n: int, d: int) -> dict:
    """Box-operator constants of the second action with column bound d:
    lower s = +sum (n + content) s', cartan s = (2|lam| - n*d) s,
    raise s = sum (d - content) s'.  The corner in column d+1 has content d,
    so the column bound is preserved automatically."""
    if d < 0:
        raise ValueError(f"need d >= 0, got d={d}")
    return {"lower": ("remove", n, 1), "cartan": ("diagonal", -n * d, 2), "raise": ("add", d, -1)}


def act_rho1(op: str, v: SchurVector) -> SchurVector:
    """First action on Schur vectors (see rho1_constants)."""
    return box_operator(v, op_constants(rho1_constants(v.n), op), v.n)


def act_rho2(op: str, v: SchurVector, d: int) -> SchurVector:
    """Second action on Schur vectors in the n x d box (see rho2_constants)."""
    constants = op_constants(rho2_constants(v.n, d), op)
    for lam in v.terms:
        if lam and lam[0] > d:
            raise ValueError(f"partition {lam!r} violates the column bound {d}")
    return box_operator(v, constants, v.n)


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


def weight_of_alpha(alpha) -> int:
    """Cartan eigenvalue 2*(2 a_1 + 3 a_2 + ... + n a_{n-1}) of the kernel
    monomial with exponents alpha."""
    return 2 * alpha_degree(alpha)


def lowest_weight_basis_rho1(n: int, max_degree: int) -> list[LowestWeightVector]:
    """All kernel monomials z^alpha of degree at most `max_degree` as Schur
    vectors, ordered by (degree, exponent tuple), tagged with their weights."""
    if n < 2:
        raise ValueError("need n >= 2")
    if max_degree < 0:
        raise ValueError(f"need max_degree >= 0, got {max_degree}")
    return [
        LowestWeightVector(z_monomial_schur(alpha, n), weight_of_alpha(alpha))
        for alpha in alpha_tuples(n, max_degree)
    ]


def decompose_lambda_n(n: int, max_weight_half: int) -> dict[int, int]:
    """Multiplicities i -> c_i of the infinite-dimensional lowest-weight
    modules of weight 2i in the graded decomposition, for i <= max_weight_half
    (zero entries omitted)."""
    return {i: c for i, c in enumerate(lw_counts(n, max_weight_half)) if c}


def _box_binomial(n: int, d: int) -> tuple[int, ...]:
    """Coefficients of [n+d choose n]; the T^m one counts the partitions
    of m in the n x d box."""
    if n < 0 or d < 0:
        raise ValueError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
    return gaussian_binomial(n + d, n)


def character_finite(n: int, d: int) -> dict[int, int]:
    """Cartan eigenvalue multiplicities 2|lam| - n*d over all partitions in
    the n x d box."""
    return {2 * m - n * d: c for m, c in enumerate(_box_binomial(n, d))}


def decompose_finite(n: int, d: int) -> dict[int, int]:
    """Irreducible multiplicities i -> c_i, highest weight first.  By the
    Cayley-Sylvester formula c_(nd-2m) is the T^m coefficient of
    [n+d choose n] minus its T^(m-1) coefficient, for 2m <= nd."""
    coeffs = _box_binomial(n, d)
    decomp = {}
    for m in range(n * d // 2 + 1):
        mult = coeffs[m] - (coeffs[m - 1] if m else 0)
        if mult:
            decomp[n * d - 2 * m] = mult
    return decomp


def rational_rref(rows: list[list[Fraction]]):
    """Reduced row echelon form over exact rationals with deterministic
    pivoting (first nonzero column, smallest row index).  Returns the
    reduced matrix and the pivot column list.  Each elimination step only
    touches the columns where the pivot row is nonzero.  The input rows are
    copied, not changed; Fraction entries are shared, being immutable."""
    m = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        prow = m[r]
        # earlier columns of the pivot row are already zero
        support = [j for j in range(c, ncols) if prow[j]]
        pv = prow[c]
        for j in support:
            prow[j] /= pv
        for i in range(nrows):
            row = m[i]
            if i != r and row[c]:
                f = row[c]
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rational_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Deterministic kernel basis: one vector per free column, with a 1 in
    the free position."""
    if not rows:
        rows = [[Fraction(0)] * ncols]
    m, pivots = rational_rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r_idx, pc in enumerate(pivots):
            v[pc] = -m[r_idx][fc]
        basis.append(v)
    return basis


def graded_matrix(constants, domain: list, codomain: list, row_bound) -> list[list]:
    """Matrix of one box operator (constants as in `box_image`) from the
    span of the `domain` partitions to that of the `codomain` partitions,
    one column per domain partition."""
    index = {lam: r for r, lam in enumerate(codomain)}
    rows = [[Fraction(0)] * len(domain) for _ in codomain]
    for col, lam in enumerate(domain):
        for mu, w in box_image(lam, constants, row_bound):
            if w:
                rows[index[mu]][col] = Fraction(w)
    return rows


def lowest_weight_space_rho2(n: int, d: int) -> list[LowestWeightVector]:
    """Basis of the lowering kernel inside the n x d box, computed per
    cartan-weight component by exact nullspace of the lowering matrix in the
    Schur basis.  The number of vectors of weight -i equals the multiplicity
    of the (i+1)-dimensional irreducible."""
    lower = rho2_constants(n, d)["lower"]
    out = []
    for m in range(n * d + 1):
        domain = sorted(partitions(m, n, d), reverse=True)
        if not domain:
            continue
        codomain = sorted(partitions(m - 1, n, d), reverse=True) if m else []
        rows = graded_matrix(lower, domain, codomain, n)
        for vec in rational_nullspace(rows, len(domain)):
            sv = SchurVector(
                n, {domain[j]: vec[j] for j in range(len(domain)) if vec[j]}
            )
            out.append(LowestWeightVector(sv, 2 * m - n * d))
    return out


def vd_realization(d: int) -> list[SchurVector]:
    """Basis w_0, ..., w_d of the (d+1)-dimensional standard module inside
    the single-column box in d variables: w_i = e_i / C(d, i).  Under the
    second action with column bound 1: lower w_i = i w_{i-1},
    raise w_i = (d-i) w_{i+1}, cartan w_i = (2i-d) w_i."""
    if d < 1:
        raise ValueError("need d >= 1")
    return [Fraction(1, comb(d, i)) * elementary_schur(i, d) for i in range(d + 1)]
