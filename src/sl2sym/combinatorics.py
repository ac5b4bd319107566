"""Partitions and the counting formulas behind the sl2 decompositions:
Gaussian binomial coefficients, which count the partitions in a
rectangle, and the Cayley-Sylvester multiplicity formula."""

import sys
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import index, sub

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Return `parts` as a tuple, after checking weak decrease and positivity."""
    lam = tuple(parts)
    for k, p in enumerate(lam):
        if not isinstance(p, int) or p < 1:
            raise ValueError(f"partition parts must be positive integers: {lam!r}")
        if k and lam[k - 1] < p:
            raise ValueError(f"partition must be weakly decreasing: {lam!r}")
    return lam


def partitions(size: int, max_rows: int | None = None, max_part: int | None = None):
    """Yield the partitions of `size` with at most `max_rows` parts, each at
    most `max_part` (None: unbounded), in lexicographically decreasing order."""
    for name, bound in (("max_rows", max_rows), ("max_part", max_part)):
        if bound is not None and index(bound) < 0:
            raise ValueError(f"{name} must be >= 0, got {bound}")
    if max_rows is None:
        max_rows = size
    if max_part is None:
        max_part = size
    if index(size) < 0 or size > max_rows * max_part:
        return
    lam, rest = [], size  # the parts so far, and what they leave of size
    while True:
        cap = lam[-1] if lam else max_part
        while rest:  # fill greedily: the rows left can always hold rest
            if rest < cap:
                cap = rest
            lam.append(cap)
            rest -= cap
        yield tuple(lam)
        # back up to the last row that can lose a cell and still be completed
        while lam:
            p = lam.pop()
            rest += p
            if p > 1 and (p - 1) * (max_rows - len(lam)) >= rest:
                lam.append(p - 1)
                rest -= p - 1
                break
        else:
            return


def _divide_by_one_minus(coeffs: list[int], step: int) -> None:
    """Divide the power series `coeffs` by 1 - T^step in place, truncated
    to its length: one prefix sum along each residue class mod step."""
    for r in range(min(step, len(coeffs))):
        coeffs[r::step] = accumulate(coeffs[r::step])


def gaussian_binomial(a: int, k: int) -> tuple[int, ...]:
    """Coefficients, ascending in T, of the Gaussian binomial [a choose k]
    = prod_{j=1..k} (1 - T^(a-k+j)) / (1 - T^j), a polynomial of degree
    k*(a-k).  a and k pass through `operator.index` before the cache is
    read, so a non-integer raises TypeError and a cached (4, 2) never
    answers (4.0, 2), which hashes and compares equal to it."""
    return _binomial(index(a), index(k))


@lru_cache(maxsize=1024)
def _binomial(a: int, k: int) -> tuple[int, ...]:
    """[a choose k] for ints a and k, built for the smaller of k and a-k
    (the two give the same polynomial).  The coefficients are nonnegative
    and sum to C(a, k), so while C(a, k) < 2**32 each fits a 32-bit word:
    both products, signs flipped, are evaluated at T = 2**32 as ints,
    divided once, and the quotient is read one word per coefficient.
    Larger binomials keep prefix sums, since CPython's long division is
    quadratic (with 64-bit words it already loses at [40 choose 20], about
    660 against 400 us): one factor at a time, after step j the list holds
    [a-k+j choose j].  Each division is exact or raises ArithmeticError."""
    if k < 0 or a < k:
        raise ValueError(f"need 0 <= k <= a, got a={a}, k={k}")
    k = min(k, a - k)
    if not comb(a, k) >> 32:
        num = den = 1
        for j in range(1, k + 1):
            num, den = (num << 32 * (a - k + j)) - num, (den << 32 * j) - den
        q, r = divmod(num, den)
        if r:
            raise ArithmeticError("polynomial division left a remainder")
        # to_bytes writes the words in the machine's byte order, which cast("I") reads
        words = memoryview(q.to_bytes(4 * (k * (a - k) + 1), sys.byteorder)).cast("I")
        return tuple(words)
    coeffs = [1]
    for j in range(1, k + 1):
        m = a - k + j
        coeffs += [0] * m
        coeffs[m:] = map(sub, coeffs[m:], coeffs[:-m])
        _divide_by_one_minus(coeffs, j)
        if any(coeffs[-j:]):
            raise ArithmeticError("polynomial division left a remainder")
        del coeffs[-j:]
    return tuple(coeffs)


def gamma(a: int, n: int, i: int) -> int:
    """Coefficient of T^i in prod_{j=1..n} (1 - T^(a-n+j)) / (1 - T^j),
    i.e. the Gaussian binomial coefficient [a choose n] at T^i."""
    n = index(n)
    if n < 1:
        raise ValueError("need n >= 1")
    coeffs = _binomial(index(a), n)  # raises unless a >= n
    return coeffs[i] if 0 <= index(i) < len(coeffs) else 0


def _box_binomial(n: int, d: int) -> tuple[int, ...]:
    """Coefficients of [n+d choose n]; the T^m one counts the partitions
    of m in the n x d box."""
    if index(n) < 0 or index(d) < 0:
        raise ValueError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
    return gaussian_binomial(n + d, n)


@lru_cache(maxsize=1024)
def _box_multiplicities(n: int, d: int) -> tuple[int, ...]:
    """Multiplicities of the irreducibles in the n x d box span, for ints
    n and d (callers pass them through `operator.index`), indexed by
    highest weight i = 0..nd, by the Cayley-Sylvester formula: at
    i = nd - 2m, the T^m coefficient of the box binomial minus its
    T^(m-1) one, which is also the number of lowest-weight vectors of
    weight 2m - nd; 0 where nd - i is odd."""
    coeffs = _box_binomial(n, d)
    half = coeffs[:n * d // 2 + 1]  # T^m for m = 0..nd/2, so i = nd - 2m >= 0
    mults = [0] * (n * d + 1)
    mults[n * d::-2] = map(sub, half, (0,) + half)
    return tuple(mults)


def sylvester_cayley(n: int, d: int, i: int) -> int:
    """Multiplicity of the highest weight i in the n-th symmetric power of
    the standard (d+1)-dimensional module, by the Cayley-Sylvester formula.
    Zero when i is negative (no highest weight is) or when d*n - i is odd
    or negative."""
    mults = _box_multiplicities(index(n), index(d))
    return mults[i] if 0 <= index(i) < len(mults) else 0


def lw_counts(n: int, max_weight: int) -> list[int]:
    """[c_0, ..., c_max_weight] in one pass, where c_i is the number of
    tuples (a_1, ..., a_{n-1}) of naturals with
    2*a_1 + 3*a_2 + ... + n*a_{n-1} = i: the coefficients of
    prod_{part=2..n} 1 / (1 - T^part)."""
    if index(n) < 2:
        raise ValueError("need n >= 2")
    if index(max_weight) < 0:
        raise ValueError(f"need max_weight >= 0, got {max_weight}")
    counts = [1] + [0] * max_weight
    for part in range(2, n + 1):
        _divide_by_one_minus(counts, part)
    return counts


def alpha_degree(alpha) -> int:
    """Polynomial degree of z_2^a_1 * z_3^a_2 * ... given the exponent tuple."""
    return sum((k + 2) * a for k, a in enumerate(alpha))


def alpha_tuples(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length n-1 with degree at most `max_degree`,
    sorted by (degree, tuple).  Built from the last exponent down, each
    suffix with its degree, so no call nests per variable."""
    if index(n) < 2:
        raise ValueError("need n >= 2")
    found = [(0, ())]
    for w in range(n, 1, -1):  # the exponent of z_w has weight w
        found = [(deg + w * a, (a,) + rest) for deg, rest in found
                 for a in range((max_degree - deg) // w + 1)]
    return [alpha for _, alpha in sorted(found)]
