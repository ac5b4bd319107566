"""The Schur-basis view of the symmetric polynomial algebra: the
Littlewood-Richardson product and the named families (power sums, kernel
generators) as Schur vectors.  The monomial expansions that check them
live in `polyring`."""

from functools import lru_cache
from math import comb
from operator import index

from .combinatorics import Partition
from .vector import SparseVector, _divided, _integers


class SchurVector(SparseVector):
    """Finite rational linear combination of Schur basis elements s_lambda,
    all partitions having at most `n` rows.  n = 0 is the algebra of no
    variables, the rationals: only s_() is a key."""

    __slots__ = ()
    LETTER = "s"
    n = property(lambda self: self.ambient)

    def _check_ambient(self, n):
        if index(n) < 0:
            raise ValueError(f"need n >= 0 variables, got {n}")

    @classmethod
    def basis(cls, n: int, lam) -> "SchurVector":
        return cls(n, {tuple(lam): 1})

    def __mul__(self, other):
        if isinstance(other, SchurVector):
            return multiply(self, other)
        return super().__mul__(other)


@lru_cache(maxsize=8192)
def _basis_product(lam: Partition, mu: Partition, n: int) -> dict:
    """s_lam * s_mu in n variables as {nu: Littlewood-Richardson coefficient}
    (Macdonald, Symmetric Functions and Hall Polynomials, I.9).  The
    coefficient of s_nu counts the fillings of nu/lam with mu_k copies of
    the letter k in which each letter's cells form a horizontal strip and
    the reading word (rows top to bottom, each right to left) is a lattice
    word.  No shape grows past n rows: that truncates the stable product to
    n variables, where s_nu = 0 for len(nu) > n.  The monomial expansion
    (`polyring.schur_to_poly`, `polyring.poly_to_schur`) is the oracle the
    tests check this against."""
    if sum(mu) > sum(lam):
        lam, mu = mu, lam
    if not mu:
        return {lam: 1}
    out = {}

    def fill(k, r, base, shape, counts, prev, left, budget):
        # Place the `left` > 0 remaining cells of letter k from row r down,
        # on top of `base` (the shape before letter k, padded to n rows).
        # prev[r] counts the letter k-1 in row r; `budget` is (k-1's in rows
        # < r) minus (k's in rows < r), the lattice bound on the k's allowed
        # in row r.  Each row takes a = cap..1 cells, the letter's last cell
        # starting the next letter or recording the shape, then none (a = 0).
        while True:
            # Horizontal strip: row r may not pass the old end of row r-1.
            cap = left
            if r and base[r - 1] - base[r] < cap:
                cap = base[r - 1] - base[r]
            if k and budget < cap:
                cap = budget
            # Rows r+1.. can take at most base[r] - base[-1] of the cells,
            # each up to the old end of the row above, so row r takes the
            # rest.  This also ends every filling by row n-1 and keeps cells
            # out of the rows below an empty one.
            low = left - (base[r] - base[-1])
            for a in range(cap, low - 1 if low > 1 else 0, -1):
                shape[r] = base[r] + a
                counts[r] = a
                if a < left:
                    fill(k, r + 1, base, shape, counts, prev, left - a, budget - a + prev[r])
                elif k + 1 < len(mu):
                    fill(k + 1, 0, tuple(shape), shape, [0] * n, counts, mu[k + 1], 0)
                else:
                    nu = tuple(shape[:shape.index(0)] if shape[-1] == 0 else shape)
                    out[nu] = out.get(nu, 0) + 1
            shape[r] = base[r]
            counts[r] = 0
            if low > 0:
                return
            budget += prev[r]
            r += 1

    start = list(lam) + [0] * (n - len(lam))
    fill(0, 0, tuple(start), start, [0] * n, [0] * n, mu[0], 0)
    return out


def multiply(u: SchurVector, v: SchurVector) -> SchurVector:
    """Product in the Schur basis by the Littlewood-Richardson rule (see
    `_basis_product`), truncated to the n rows of the operands.  Sums run
    over integers, each operand scaled by the lcm of its denominators."""
    SchurVector._require(u)
    u._same_ambient(v)
    n = u.n
    du, u_terms = _integers(u.terms)
    dv, v_terms = _integers(v.terms)
    u_terms, v_terms = u_terms.items(), v_terms.items()
    out = {}
    get = out.get
    for lam, a in u_terms:
        for mu, b in v_terms:
            ab = a * b
            product = _basis_product(lam, mu, n) if lam <= mu else _basis_product(mu, lam, n)
            for nu, c in product.items():
                out[nu] = get(nu, 0) + ab * c
    return SchurVector._wrap(n, _divided(out.items(), du * dv))


def power_sum_schur(k: int, n: int) -> SchurVector:
    """p_k as the alternating hook sum s_(k) - s_(k-1,1) + s_(k-2,1,1) - ...,
    truncated to hooks with at most n rows."""
    if k < 1:
        raise ValueError("need k >= 1")
    terms = {}
    for j in range(min(k, n)):
        hook = (k - j,) + (1,) * j
        terms[hook] = (-1) ** j
    return SchurVector(n, terms)


@lru_cache(maxsize=128, typed=True)
def z_generator_schur(i: int, n: int) -> SchurVector:
    """Schur expansion of the kernel generator z_i, built from the power-sum
    hooks; empty for odd i when n = 2."""
    if i < 2:
        raise ValueError("kernel generators start at z_2")
    p1 = power_sum_schur(1, n)
    total = SchurVector.zero(n)
    for k in range(i - 1):
        coef = (-1) ** k * n ** (i - k - 1) * comb(i, k)
        total = total + power_sum_schur(i - k, n) * (p1 ** k) * coef
    return total + (p1 ** i) * ((i - 1) * (-1) ** (i + 1))


def z_monomial_schur(alpha, n: int) -> SchurVector:
    """Schur expansion of z_2^a_1 * z_3^a_2 * ... * z_n^a_{n-1}."""
    alpha = tuple(alpha)
    if len(alpha) != n - 1:
        raise ValueError(f"need {n - 1} exponents, got {alpha!r}")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be naturals")
    out = None
    for idx, a in enumerate(alpha):
        for _ in range(a):
            z = z_generator_schur(idx + 2, n)
            out = z if out is None else multiply(out, z)
    return SchurVector.unit(n) if out is None else out
