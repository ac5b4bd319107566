"""Both sl2-actions in the Schur basis as box-operator constants, the
lowest-weight (kernel) computation, the decomposition into irreducibles and
the characters."""

from math import gcd, lcm
from operator import index
from typing import NamedTuple

from .combinatorics import _box_binomial, _cayley_sylvester, alpha_degree, alpha_tuples, partitions
# perfbench's tracer test checks that its wrapper reaches sl2_actions.multiply
from .symfunc import SchurVector, multiply, z_monomial_schur  # noqa: F401
from .vector import _divided, _walk, box_operator, op_constants


class LowestWeightVector(NamedTuple):
    vector: SchurVector
    weight: int


def kerov_constants(z, zprime) -> dict:
    """Box-operator constants of Kerov's operators on diagrams: U adds a box
    with weight z + content, D removes one with weight z' + content, and L
    is diagonal with eigenvalue z*z' + 2|lam|."""
    return {"U": ("add", z, 1), "L": ("diagonal", z * zprime, 2), "D": ("remove", zprime, 1)}


def rho1_constants(n: int) -> dict:
    """Box-operator constants of the first action on Schur vectors: Kerov's
    (U, -D, L) at (z, z') = (0, n), cut to n rows."""
    kerov = kerov_constants(0, n)
    part, a, b = kerov["D"]
    return {"lower": (part, -a, -b), "cartan": kerov["L"], "raise": kerov["U"]}


def rho2_constants(n: int, d: int) -> dict:
    """Box-operator constants of the second action with column bound d:
    Kerov's (-U, D, L) at (z, z') = (-d, n), cut to n rows.  Raising has
    weight d - content, 0 at the corner in column d+1, so the column bound
    is preserved."""
    if index(n) < 0 or index(d) < 0:
        raise ValueError(f"need n >= 0 and d >= 0, got n={n}, d={d}")
    kerov = kerov_constants(-d, n)
    part, a, b = kerov["U"]
    return {"lower": kerov["D"], "cartan": kerov["L"], "raise": (part, -a, -b)}


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


def character_finite(n: int, d: int) -> dict[int, int]:
    """Cartan eigenvalue multiplicities 2|lam| - n*d over all partitions in
    the n x d box."""
    return {2 * m - n * d: c for m, c in enumerate(_box_binomial(n, d))}


def decompose_finite(n: int, d: int) -> dict[int, int]:
    """Irreducible multiplicities i -> c_i of the n x d box span, highest
    weight first, by the Cayley-Sylvester formula (zero ones omitted)."""
    coeffs = _box_binomial(n, d)
    decomp = {}
    for m in range(n * d // 2 + 1):
        mult = _cayley_sylvester(coeffs, m)
        if mult:
            decomp[n * d - 2 * m] = mult
    return decomp


def rational_nullspace(images: list[dict]) -> list[dict]:
    """Kernel of the linear map sending basis element j to `images[j]`, a
    sparse {key: canonical coefficient} dict that is not changed.  Each
    image is reduced in order against the pivots, the earlier images that
    are independent, each kept reduced as e_t with the key it clears and
    the steps it took: e_t = S*image - sum(b*e_u).  An image j that reduces
    to zero has S*image_j = sum(b*e_t); expanded through the steps, latest
    pivot first, this gives the kernel vector {j: 1, p: -c_p}, the unique
    one supported on j and the earlier pivots: the vector a reduced row
    echelon form gives for the free column j.  The reduction runs over
    integers, each image first scaled by the lcm of its denominators; only
    the kernel vectors are divided out.  A new pivot clears the smallest
    key left in its image, `min(v)`.  The output does not depend on that
    choice: which images are pivots depends only on the span of the earlier
    ones, and the kernel vector on j and the earlier pivots is unique.  The
    key only sets the cost: on the rho2 kernels the smallest partition keeps
    the integers short (at most 91 bits at 7 x 7, against 639 bits when the
    first key left is cleared)."""
    pivots = []
    relations = []
    kernel = []
    for j, image in enumerate(images):
        s = lcm(*[c.denominator for c in image.values()])
        v = dict(image) if s == 1 else {k: c.numerator * (s // c.denominator)
                                        for k, c in image.items()}
        steps = []
        for key, reduced, t in pivots:
            f = v.get(key)
            if f:
                p = reduced[key]
                if f % p:
                    g = gcd(f, p)
                    a, b = p // g, f // g
                    v = {k: a * c for k, c in v.items()}
                    s *= a
                    steps = [(u, a * c) for u, c in steps]
                else:  # p divides f: subtract f/p times the pivot, no rescale
                    b = f // p
                for k, c in reduced.items():
                    x = v.get(k, 0) - b * c
                    if x:
                        v[k] = x
                    else:
                        del v[k]
                steps.append((t, b))
        if v:
            g = gcd(*v.values(), s, *[b for _, b in steps])
            if g != 1:
                v, s = {k: c // g for k, c in v.items()}, s // g
                steps = [(u, b // g) for u, b in steps]
            pivots.append((min(v), v, len(pivots)))
            relations.append((j, s, steps))
            continue
        vec, coeffs = {j: s}, dict(steps)
        for t in range(len(pivots) - 1, -1, -1):
            c = coeffs.pop(t, 0)
            if c:
                col, scale, recorded = relations[t]
                vec[col] = -c * scale
                for u, b in recorded:
                    coeffs[u] = coeffs.get(u, 0) - c * b
        kernel.append(_divided(vec, s))
    return kernel


def lowest_weight_space_rho2(n: int, d: int) -> list[LowestWeightVector]:
    """Basis of the lowering kernel inside the n x d box, computed per
    cartan-weight component as the exact kernel of the lowering images of
    its Schur basis elements.  The number of vectors of weight -i equals
    the multiplicity of the (i+1)-dimensional irreducible.  Only the
    weights 2m - nd <= 0 are reduced: the box span is a finite-dimensional
    sl2-module, in which lowering is injective on positive weights.  Of
    those, the weights whose Cayley-Sylvester count is 0 are skipped, and
    each other weight must give exactly its count of kernel vectors, or
    ArithmeticError is raised.  Each image is walked afresh (`_walk`, no
    partition index) and keyed by the rank of its target among the
    partitions of m - 1 in the box, lexicographically increasing, so the
    reduction runs over small ints and clears the same smallest partition
    as over partition keys.  The lowering weights n + content are positive
    in the box, so no image has a zero coefficient.  Each vector's terms
    are in canonical order as built (`sorted_terms` gives the same list):
    its keys all have one size and come in the domain's lexicographically
    decreasing order."""
    part, a, b = rho2_constants(n, d)["lower"]
    counts = _box_binomial(n, d)
    out, domain = [], []
    for m in range(n * d // 2 + 1):
        below, domain = domain, list(partitions(m, n, d))
        expected = _cayley_sylvester(counts, m)
        if not expected:
            continue
        rank = {mu: i for i, mu in enumerate(reversed(below))}
        kernel = rational_nullspace(_walk(domain, part, rank.__getitem__, a, b))
        if len(kernel) != expected:
            raise ArithmeticError(f"weight {2 * m - n * d} of the {n} x {d} box has "
                                  f"{len(kernel)} kernel vectors, not {expected}")
        for vec in kernel:
            sv = SchurVector._wrap(n, {domain[j]: vec[j] for j in sorted(vec)})
            out.append(LowestWeightVector(sv, 2 * m - n * d))
    return out
