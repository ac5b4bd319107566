"""Reference arithmetic for the benchmark's correctness checks.

Nothing here calls sl2sym: results are checked by exact integer evaluation
(the bialternant formula for Schur polynomials, the power-sum formula for
the kernel generators), by the bracket relations computed on plain
dictionaries, and by Gaussian binomial coefficients from their recurrence.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb


def det(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination)."""
    m = [list(r) for r in rows]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


class Point:
    """Exact evaluation of symmetric functions at one integer point with
    distinct coordinates."""

    def __init__(self, xs):
        self.xs = tuple(xs)
        self.n = len(self.xs)
        if len(set(self.xs)) != self.n:
            raise ValueError("coordinates must be distinct")
        self._vandermonde = det([[x ** (self.n - 1 - j) for j in range(self.n)] for x in self.xs])
        self._schur = {}

    def schur(self, lam) -> int:
        """s_lam(x) = det(x_i^(lam_j + n - j)) / det(x_i^(n - j))."""
        lam = tuple(lam)
        if len(lam) > self.n:
            return 0
        val = self._schur.get(lam)
        if val is None:
            parts = lam + (0,) * (self.n - len(lam))
            top = det([[x ** (parts[j] + self.n - 1 - j) for j in range(self.n)] for x in self.xs])
            val, rem = divmod(top, self._vandermonde)
            if rem:
                raise ArithmeticError("bialternant quotient is not exact")
            self._schur[lam] = val
        return val

    def power_sum(self, k: int) -> int:
        return sum(x ** k for x in self.xs)

    def elementary(self, k: int) -> int:
        return self.schur((1,) * k) if k else 1

    def homogeneous(self, k: int) -> int:
        return self.schur((k,) if k else ())

    def z_generator(self, i: int) -> int:
        """z_i = sum_{k<=i-2} (-1)^k n^(i-k-1) C(i,k) p_{i-k} p_1^k + (i-1)(-1)^(i+1) p_1^i."""
        n, p1 = self.n, self.power_sum(1)
        total = sum(
            (-1) ** k * n ** (i - k - 1) * comb(i, k) * self.power_sum(i - k) * p1 ** k
            for k in range(i - 1)
        )
        return total + (i - 1) * (-1) ** (i + 1) * p1 ** i

    def z_monomial(self, alpha) -> int:
        out = 1
        for idx, a in enumerate(alpha):
            out *= self.z_generator(idx + 2) ** a
        return out

    def expr(self, e):
        """Value of a benchmark expression tree (see workloads.render)."""
        kind = e[0]
        if kind == "num":
            return e[1]
        if kind == "atom":
            letter, parts = e[1], e[2]
            if letter == "s":
                return self.schur(parts)
            if letter == "p":
                return self.power_sum(parts[0])
            if letter == "e":
                return self.elementary(parts[0])
            return self.homogeneous(parts[0])
        if kind == "add":
            return self.expr(e[1]) + self.expr(e[2])
        if kind == "sub":
            return self.expr(e[1]) - self.expr(e[2])
        if kind == "mul":
            return self.expr(e[1]) * self.expr(e[2])
        if kind == "pow":
            return self.expr(e[1]) ** e[2]
        raise ValueError(f"unknown node {kind!r}")

    def schur_vector(self, terms) -> Fraction:
        """Value of sum c_lam s_lam for a {partition: coefficient} map."""
        return sum((Fraction(c) * self.schur(lam) for lam, c in terms.items()), Fraction(0))


def normalize(terms) -> dict:
    """Terms as {partition tuple: coefficient}, zero coefficients dropped.
    Integer and Fraction coefficients of equal value compare and print
    alike, so neither is converted."""
    return {tuple(lam): c for lam, c in terms.items() if c}


def combine(*scaled) -> dict:
    """Sum of (scalar, terms) pairs as a normalized term map."""
    out = {}
    for a, terms in scaled:
        for lam, c in terms.items():
            out[lam] = out.get(lam, 0) + a * c
    return normalize(out)


def brackets_hold(h, r, l, hr, rh, hl, lh, first, second) -> bool:
    """The three bracket relations on term maps, with h, r, l the images of
    cartan, raise and lower and hr = h(r(v)), rh = r(h(v)) and so on:
    first - second = h, hr - rh = 2r and hl - lh = -2l.  For the sl2
    actions first, second are raise(lower(v)), lower(raise(v)); for the
    Kerov operators (h, r, l) = (L, U, D) and first, second are D(U(v)),
    U(D(v))."""
    return (
        combine((1, first), (-1, second)) == normalize(h)
        and combine((1, hr), (-1, rh)) == combine((2, r))
        and combine((1, hl), (-1, lh)) == combine((-2, l))
    )


@lru_cache(maxsize=None)
def gaussian_binomial(a: int, k: int) -> tuple:
    """Coefficients of [a choose k]_q, from [a,k] = [a-1,k-1] + q^k [a-1,k]."""
    if k < 0 or k > a:
        return ()
    if k == 0 or k == a:
        return (1,)
    left = gaussian_binomial(a - 1, k - 1)
    right = gaussian_binomial(a - 1, k)
    out = [0] * (k * (a - k) + 1)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return tuple(out)


def box_count(n: int, d: int, m: int) -> int:
    """Number of partitions of m inside the n x d box."""
    coeffs = gaussian_binomial(n + d, n)
    return coeffs[m] if 0 <= m < len(coeffs) else 0


def cayley_sylvester(n: int, d: int, i: int) -> int:
    """Multiplicity of V[i] in the n x d box: box_count at (nd - i)/2 minus
    the count one step lower."""
    t = n * d - i
    if t < 0 or t % 2:
        return 0
    return box_count(n, d, t // 2) - box_count(n, d, t // 2 - 1)


def lower_rho2(terms, n: int) -> dict:
    """Second-action lowering on a Schur term map: remove a corner box of
    content c with weight n + c."""
    out = {}
    for lam, coef in terms.items():
        for i in range(len(lam)):
            if i + 1 == len(lam) or lam[i + 1] < lam[i]:
                c = lam[i] - (i + 1)
                mu = lam[:i] + ((lam[i] - 1,) if lam[i] > 1 else ()) + lam[i + 1:]
                out[mu] = out.get(mu, 0) + Fraction(coef) * (n + c)
    return normalize(out)
