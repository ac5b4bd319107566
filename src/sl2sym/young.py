"""Linear operators on the vector space spanned by Young diagrams: the
transported sl2-actions, the two-parameter Kerov operators on unbounded
diagrams, and the relabeling isomorphism with the Schur basis."""

from fractions import Fraction
from operator import index
from typing import NamedTuple

from .combinatorics import check_partition
from .sl2_actions import act_rho1, act_rho2, kerov_constants
from .symfunc import SchurVector
from .vector import SparseVector, box_operator, canonical_coefficient, op_constants


class KerovParams(NamedTuple):
    z: Fraction
    zprime: Fraction


class DiagramVector(SparseVector):
    """Finite rational linear combination of Young diagrams.  `row_bound`
    is the maximal number of rows (0 leaves only the empty diagram), or
    None for unbounded diagrams."""

    __slots__ = ()
    LETTER = "y"
    row_bound = property(lambda self: self.ambient)

    def _check_ambient(self, row_bound):
        if row_bound is not None and index(row_bound) < 0:
            raise ValueError(f"row bound must be >= 0 or None, got {row_bound}")

    def _check_key(self, lam):
        lam = check_partition(lam)
        if self.row_bound is not None and len(lam) > self.row_bound:
            raise ValueError(f"diagram {lam!r} has more than {self.row_bound} rows")
        return lam

    @classmethod
    def zero(cls, row_bound=None) -> "DiagramVector":
        return cls(row_bound)

    @classmethod
    def unit(cls, row_bound=None) -> "DiagramVector":
        return cls(row_bound, {(): 1})

    @classmethod
    def basis(cls, lam, row_bound=None) -> "DiagramVector":
        return cls(row_bound, {tuple(lam): 1})


def _schur_rows(v: DiagramVector, n: int) -> SchurVector:
    """The diagrams of `v`, whose keys are already checked partitions, as
    a Schur vector in n variables sharing v's terms: only n and the row
    counts are checked."""
    if index(n) < 0:
        raise ValueError(f"need n >= 0 variables, got {n}")
    for lam in v.terms:
        if len(lam) > n:
            raise ValueError(f"partition {lam!r} has more than {n} rows")
    return SchurVector._wrap(n, v.terms)


def hat_apply(op: str, v: DiagramVector, n: int) -> DiagramVector:
    """Transported first action on diagrams with at most n rows: rho1
    relabelled through phi."""
    return phi_inverse(act_rho1(op, _schur_rows(v, n)))


def tilde_apply(op: str, v: DiagramVector, n: int, d: int) -> DiagramVector:
    """Transported second action on diagrams in the n x d box: rho2
    relabelled through phi."""
    return phi_inverse(act_rho2(op, _schur_rows(v, n), d))


def kerov_apply(op: str, v: DiagramVector, params: KerovParams) -> DiagramVector:
    """Kerov operators U, L, D on unbounded diagrams (see kerov_constants).
    Application is exact for any finite vector; a float z or z' is refused."""
    exact = []
    for name, c in zip(KerovParams._fields, params):
        try:
            exact.append(canonical_coefficient(c))
        except TypeError as exc:
            raise TypeError(f"{name}: {exc}") from None
    return box_operator(v, op_constants(kerov_constants(*exact), op), None)


def phi(v: DiagramVector) -> SchurVector:
    """Relabel diagrams as Schur basis elements (the terms are shared)."""
    if v.row_bound is None:
        raise ValueError("need a row-bounded diagram vector")
    return SchurVector._wrap(v.row_bound, v.terms)


def phi_inverse(u: SchurVector) -> DiagramVector:
    """Relabel Schur basis elements as diagrams (the terms are shared)."""
    return DiagramVector._wrap(u.n, u.terms)
