"""Sparse multivariate polynomials with exact rational coefficients, the
differential operators giving both sl2-actions, the classical symmetric
families, the slice homomorphism onto the lowering kernel, the kernel
generators z_i, and the monomial expansion of Schur polynomials and back.
The Schur-basis engine never imports this module; `verify` and the tests
check the engine against it."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial
from operator import add, index, sub

from .combinatorics import Partition, check_partition
from .symfunc import SchurVector


class Poly:
    """Polynomial in a fixed number of variables `n`, stored as `terms`, a
    plain dict from exponent tuples to nonzero coefficients: an int if
    integral, otherwise a reduced Fraction.  Its arithmetic is plain
    Fraction arithmetic written here, so that the oracle shares none of it
    with the Schur-basis engine it checks."""

    __slots__ = ("n", "terms")
    ambient = property(lambda self: self.n)

    def __init__(self, n, terms=None):
        if index(n) < 1:
            raise ValueError("need at least one variable")
        self.n, self.terms = n, {}
        for exps, c in (terms or {}).items():
            if isinstance(c, float):
                raise TypeError(f"coefficient of {exps!r}: float {c!r} is not an exact coefficient: "
                                "use an int, a Fraction or a Decimal")
            exps = tuple(exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r} for {n} variables")
            if type(c) is not int:
                c = Fraction(c)
                c = c.numerator if c.denominator == 1 else c
            if c:
                self.terms[exps] = c

    @classmethod
    def _closed(cls, n: int, terms: dict) -> "Poly":
        """The polynomial of `terms`, whose keys are checked exponent tuples
        and whose values are ints or Fractions: zeros are dropped and
        integral Fractions become ints."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = {e: c if type(c) is int or c.denominator != 1 else c.numerator
                     for e, c in terms.items() if c}
        return out

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def unit(cls, n: int) -> "Poly":
        return cls.constant(n, 1)

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * index(n): c})

    @classmethod
    def variable(cls, n: int, k: int) -> "Poly":
        """The variable x_k (1-based)."""
        if not 1 <= index(k) <= index(n):
            raise ValueError(f"variable index {k} out of range 1..{n}")
        exps = [0] * n
        exps[k - 1] = 1
        return cls(n, {tuple(exps): 1})

    @classmethod
    def monomial(cls, n: int, exps, c=1) -> "Poly":
        return cls(n, {tuple(exps): c})

    def _same_ambient(self, other):
        if type(other) is not Poly:
            raise TypeError(f"cannot combine Poly with {type(other).__name__}")
        if self.n != other.n:
            raise ValueError(f"ambients differ: {self.n} vs {other.n}")

    def _combine(self, other, op):
        self._same_ambient(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = op(out.get(e, 0), c)
        return self._closed(self.n, out)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._closed(self.n, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_ambient(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return self._closed(self.n, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = index(k)
        if k < 0:
            raise ValueError("only natural powers")
        out = self if k else self.unit(self.n)
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return type(other) is Poly and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), [-e for e in kv[0]]))
        text = " + ".join(f"{c}*x^[{','.join(map(str, e))}]" for e, c in items)
        return f"Poly({self.n}, {text or 0})"

    def partial(self, k: int) -> "Poly":
        """Formal partial derivative in x_k (1-based)."""
        if not 1 <= index(k) <= self.n:
            raise ValueError(f"variable index {k} out of range 1..{self.n}")
        out = {}
        for exps, c in self.terms.items():
            e = exps[k - 1]
            if e:
                key = exps[: k - 1] + (e - 1,) + exps[k:]
                out[key] = out.get(key, 0) + c * e
        return Poly._closed(self.n, out)

    def is_symmetric(self) -> bool:
        """True iff invariant under every adjacent swap of variables."""
        for k in range(self.n - 1):
            swapped = {}
            for exps, c in self.terms.items():
                key = exps[:k] + (exps[k + 1], exps[k]) + exps[k + 2:]
                swapped[key] = c
            if swapped != self.terms:
                return False
        return True


def _monomial_operator(op: str, f: Poly, constants: dict) -> Poly:
    """One of lower/cartan/raise, given on a monomial x^e by `constants[op]`
    = (a, b): lower and raise sum over k the monomial with e_k moved down or
    up by one, weighted a + b*e_k; cartan scales x^e by a + b*deg(e)."""
    if op not in constants:
        raise ValueError(f"unknown operator {op!r}")
    a, b = constants[op]
    step = 1 if op == "raise" else -1
    out = {}
    for exps, c in f.terms.items():
        if op == "cartan":
            out[exps] = (a + b * sum(exps)) * c
            continue
        for k, e in enumerate(exps):
            w = a + b * e
            if w:
                key = exps[:k] + (e + step,) + exps[k + 1:]
                out[key] = out.get(key, 0) + c * w
    return Poly._closed(f.n, out)


def rho1_apply(op: str, f: Poly) -> Poly:
    """First action: lower = -sum d/dx_k, cartan = 2 sum x_k d/dx_k,
    raise = sum x_k^2 d/dx_k."""
    return _monomial_operator(op, f, {"lower": (0, -1), "cartan": (0, 2), "raise": (0, 1)})


def rho2_apply(op: str, f: Poly, d: int) -> Poly:
    """Second action: lower = sum d/dx_k, cartan = 2 sum x_k d/dx_k - n*d,
    raise = sum (-x_k^2 d/dx_k + d*x_k); on a monomial the k-th summand of
    raise contributes (d - e_k) x_k * monomial."""
    constants = {"lower": (0, 1), "cartan": (-f.n * d, 2), "raise": (d, -1)}
    return _monomial_operator(op, f, constants)


def _monomial_sum(n: int, supports) -> Poly:
    """The sum of the monomials over `supports`, tuples of variable indices
    from 0, in which a repeated index raises its exponent."""
    terms = {}
    for support in supports:
        exps = [0] * n
        for j in support:
            exps[j] += 1
        terms[tuple(exps)] = 1
    return Poly(n, terms)


def power_sum_poly(k: int, n: int) -> Poly:
    """p_k = x_1^k + ... + x_n^k."""
    if k < 1:
        raise ValueError("need k >= 1")
    return _monomial_sum(n, ((i,) * k for i in range(n)))


def elementary_poly(i: int, n: int) -> Poly:
    """e_i, the sum of all squarefree monomials of degree i."""
    if i < 0 or i > n:
        raise ValueError(f"e_{i} undefined in {n} variables")
    return _monomial_sum(n, combinations(range(n), i))


def homogeneous_poly(i: int, n: int) -> Poly:
    """h_i, the sum of all monomials of degree i."""
    if i < 0:
        raise ValueError("need i >= 0")
    return _monomial_sum(n, combinations_with_replacement(range(n), i))


def sigma_slice(f: Poly) -> Poly:
    """Slice homomorphism sum_i (1/i!) L^i(f) (p_1/n)^i where L is the
    lowering operator; lands in ker L.  The sum is finite because lowering
    strictly decreases total degree."""
    if not f.is_symmetric():
        raise ValueError("slice homomorphism needs symmetric input")
    n = f.n
    s = power_sum_poly(1, n) * Fraction(1, n)
    total = Poly.zero(n)
    g = f
    spow = Poly.constant(n, 1)
    i = 0
    while g:
        total = total + g * spow * Fraction(1, factorial(i))
        g = rho1_apply("lower", g)
        spow = spow * s
        i += 1
    return total


def z_generator_poly(i: int, n: int) -> Poly:
    """Kernel generator
    z_i = sum_{k=0}^{i-2} (-1)^k n^(i-k-1) C(i,k) p_{i-k} p_1^k
          + (i-1)(-1)^(i+1) p_1^i.
    Vanishes for odd i when n = 2."""
    if i < 2:
        raise ValueError("kernel generators start at z_2")
    p1 = power_sum_poly(1, n)
    total = Poly.zero(n)
    for k in range(i - 1):
        coef = (-1) ** k * n ** (i - k - 1) * comb(i, k)
        total = total + power_sum_poly(i - k, n) * (p1 ** k) * coef
    return total + (p1 ** i) * ((i - 1) * (-1) ** (i + 1))


def staircase(n: int) -> Partition:
    """(n-1, n-2, ..., 1, 0)."""
    return tuple(range(n - 1, -1, -1))


@lru_cache(maxsize=1024, typed=True)
def schur_to_poly(lam: Partition, n: int) -> Poly:
    """Schur polynomial in n variables by semistandard tableau enumeration:
    rows weakly increase, columns strictly increase, entries in 1..n; each
    tableau contributes its content monomial."""
    lam = check_partition(lam)
    if len(lam) > n:
        raise ValueError(f"partition {lam!r} has more than {n} rows")
    terms: dict = {}

    def fill_row(row_idx, col, min_val, prev_row, row, weight):
        if col == lam[row_idx]:
            fill_shape(row_idx + 1, tuple(row), weight)
            return
        lo = max(min_val, (prev_row[col] + 1) if prev_row else 1)
        for v in range(lo, n + 1):
            row.append(v)
            weight[v - 1] += 1
            fill_row(row_idx, col + 1, v, prev_row, row, weight)
            weight[v - 1] -= 1
            row.pop()

    def fill_shape(row_idx, prev_row, weight):
        if row_idx == len(lam):
            key = tuple(weight)
            terms[key] = terms.get(key, 0) + 1
            return
        fill_row(row_idx, 0, 1, prev_row, [], weight)

    fill_shape(0, None, [0] * n)
    return Poly(n, terms)


def alternant(mu, n: int) -> Poly:
    """det(x_i^mu_j), expanded over permutations with sign."""
    mu = tuple(mu)
    if len(mu) != n:
        raise ValueError(f"need {n} exponents, got {mu!r}")
    terms: dict = {}
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        sign = -1 if inversions % 2 else 1
        key = tuple(mu[perm[i]] for i in range(n))
        terms[key] = terms.get(key, 0) + sign
    return Poly(n, terms)


def poly_to_schur(f: Poly) -> SchurVector:
    """Expand a symmetric polynomial in the Schur basis by repeatedly
    stripping the lexicographically greatest remaining monomial, whose
    sorted exponent vector names the next Schur term."""
    if not f.is_symmetric():
        raise ValueError("Schur expansion needs a symmetric polynomial")
    n = f.n
    out = {}
    rem = f
    while rem:
        exps = max(rem.terms)
        if any(exps[k] < exps[k + 1] for k in range(n - 1)):
            raise ArithmeticError(f"leading exponent {exps!r} is not sorted")
        lam = tuple(p for p in exps if p)
        c = rem.terms[exps]
        out[lam] = c
        rem = rem - schur_to_poly(lam, n) * c
    return SchurVector(n, out)
