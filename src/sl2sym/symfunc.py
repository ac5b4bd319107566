"""The Schur-basis view of the symmetric polynomial algebra: the
Littlewood-Richardson product and the named families (power sums,
elementary, kernel generators) as Schur vectors.  The monomial expansions
that check them live in `polyring`."""

from functools import lru_cache
from math import comb, lcm
from operator import index

from .combinatorics import Partition, check_partition
from .vector import SparseVector, _divided


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

    def _check_key(self, lam):
        lam = check_partition(lam)
        if len(lam) > self.n:
            raise ValueError(f"partition {lam!r} has more than {self.n} rows")
        return lam

    @classmethod
    def zero(cls, n: int) -> "SchurVector":
        return cls(n)

    @classmethod
    def unit(cls, n: int) -> "SchurVector":
        return cls(n, {(): 1})

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
        # Place the `left` remaining cells of letter k from row r down, on
        # top of `base` (the shape before letter k).  prev[r] counts the
        # letter k-1 in row r; `budget` is (k-1's in rows < r) minus (k's in
        # rows < r), the lattice bound on the k's allowed in row r.
        if not left:
            if k + 1 == len(mu):
                nu = tuple(p for p in shape if p)
                out[nu] = out.get(nu, 0) + 1
            else:
                fill(k + 1, 0, tuple(shape), shape, [0] * n, counts, mu[k + 1], 0)
            return
        if r == n or (r and not base[r - 1]):
            return
        # Horizontal strip: row r may not pass the old end of row r-1.
        cap = left if r == 0 else min(left, base[r - 1] - base[r])
        if k:
            cap = min(cap, budget)
        for a in range(cap, -1, -1):
            shape[r] = base[r] + a
            counts[r] = a
            fill(k, r + 1, base, shape, counts, prev, left - a, budget - a + prev[r])
        shape[r] = base[r]
        counts[r] = 0

    start = list(lam) + [0] * (n - len(lam))
    fill(0, 0, tuple(start), start, [0] * n, [0] * n, mu[0], 0)
    return out


def multiply(u: SchurVector, v: SchurVector) -> SchurVector:
    """Product in the Schur basis by the Littlewood-Richardson rule (see
    `_basis_product`), truncated to the n rows of the operands.  Sums run
    over integers, each operand scaled by the lcm of its denominators."""
    u._same_ambient(v)
    n = u.n
    du = lcm(*[c.denominator for c in u.terms.values()])
    dv = lcm(*[c.denominator for c in v.terms.values()])
    u_terms = u.terms.items() if du == 1 else [
        (lam, a.numerator * (du // a.denominator)) for lam, a in u.terms.items()]
    v_terms = v.terms.items() if dv == 1 else [
        (mu, b.numerator * (dv // b.denominator)) for mu, b in v.terms.items()]
    out = {}
    get = out.get
    for lam, a in u_terms:
        for mu, b in v_terms:
            ab = a * b
            product = _basis_product(lam, mu, n) if lam <= mu else _basis_product(mu, lam, n)
            for nu, c in product.items():
                out[nu] = get(nu, 0) + ab * c
    return SchurVector._wrap(n, _divided(out, du * dv))


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


def elementary_schur(i: int, n: int) -> SchurVector:
    """e_i = s_(1^i)."""
    if i < 0 or i > n:
        raise ValueError(f"e_{i} undefined in {n} variables")
    return SchurVector(n, {(1,) * i: 1})


@lru_cache(maxsize=128)
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
    out = SchurVector.unit(n)
    for idx, a in enumerate(alpha):
        for _ in range(a):
            out = multiply(out, z_generator_schur(idx + 2, n))
    return out
