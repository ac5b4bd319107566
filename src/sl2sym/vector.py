"""The sparse vector algebra under every basis of the library, and the
content-weighted box operator on partition-keyed vectors: both sl2-actions,
their transports, the Kerov operators, Pieri's rule and the rational
multiples c*v (its diagonal) are that operator with different constants."""

import functools
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add, index, sub
from threading import Lock

from .combinatorics import check_partition


def _digits_unlimited(fn):
    """`fn` run with CPython's limit on the digits of an int-to-str
    conversion (3.10.7 and later) lifted, then restored: exact coefficients
    print at any length, while integer literals in the input stay bounded."""
    @functools.wraps(fn)
    def wrapper(*args):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return fn(*args)
        finally:
            sys.set_int_max_str_digits(limit)
    return wrapper if hasattr(sys, "set_int_max_str_digits") else fn


@_digits_unlimited
def format_terms(items, letter: str, names: dict) -> str:
    """Render sorted (partition, coefficient) pairs like '-4*s[1,1] - 2*s[2]',
    each coefficient from its integer numerator and denominator.  `names`
    maps each partition to its printed name under this `letter` and is
    filled as partitions come, so calls that share it print each one once."""
    if not items:
        return "0"
    out = []
    for lam, c in items:
        num, den = c.numerator, c.denominator
        if num < 0:
            out.append(" - ")
            num = -num
        else:
            out.append(" + ")
        if den != 1:
            out.append(f"{num}/{den}*")
        elif num != 1:
            out.append(f"{num}*")
        name = names.get(lam)
        if name is None:
            name = names[lam] = f"{letter}[{','.join(map(str, lam))}]"
        out.append(name)
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def canonical_coefficient(c):
    """`c` as a canonical coefficient: an int if it is integral, otherwise
    a reduced Fraction.  A float raises TypeError: its binary value is not
    the decimal number that was meant."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"float {c!r} is not an exact coefficient: use an int, a Fraction or a Decimal")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _integers(terms: dict) -> tuple:
    """(m, {key: m*c}): canonical `terms` scaled to ints over m, the lcm of
    their denominators; `terms` itself when m = 1.  Ints take a type test
    and Fractions are read through their two slots, so no coefficient costs
    a Python-level call."""
    m = lcm(*[c._denominator for c in terms.values() if type(c) is not int])
    if m == 1:
        return 1, terms
    return m, {key: c * m if type(c) is int else c._numerator * (m // c._denominator)
               for key, c in terms.items()}


def _divided(items, den: int) -> dict:
    """Integer sums over one denominator `den` (of either sign), given as
    (key, sum) pairs, as canonical coefficients: zeros dropped, an int
    where `den` divides a sum, else a reduced Fraction.  One gcd per term;
    a Fraction is built without its public constructor and its type checks,
    its two slots (`_numerator`, `_denominator`, on every CPython from 3.6
    to 3.13) filled directly, as CPython's own `Fraction._from_coprime_ints`
    does on 3.12 and later."""
    if den < 0:
        return _divided(((key, -x) for key, x in items), -den)
    if den == 1:
        return {key: x for key, x in items if x}
    out = {}
    for key, x in items:
        if x:
            g = gcd(x, den)
            if g == den:
                out[key] = x // den
            else:
                f = out[key] = object.__new__(Fraction)
                f._numerator, f._denominator = x // g, den // g
    return out


class SparseVector:
    """Finite rational linear combination of basis keys in a fixed ambient
    (a variable count or a row bound).  Subclasses define `_check_ambient`
    and name the basis in `repr` by `LETTER`.  A key is a partition of at
    most `ambient` rows (None: any), a `NOUN` in errors, unless a subclass
    overrides `_check_key`, which returns the key as stored.

    Every stored coefficient is canonical: a nonzero int if it is
    integral, otherwise a reduced Fraction.  A vector is immutable: no code
    changes `terms` after construction, so results that only relabel or
    hand over a dict (`_wrap`) may share it with their input."""

    __slots__ = ("ambient", "terms")
    LETTER = "?"
    NOUN = "partition"

    def __init__(self, ambient, terms=None):
        self._check_ambient(ambient)
        self.ambient = ambient
        clean = {}
        if terms:
            for key, c in terms.items():
                try:
                    c = canonical_coefficient(c)
                except TypeError as exc:
                    raise TypeError(f"coefficient of {key!r}: {exc}") from None
                if c:
                    clean[self._check_key(key)] = c
        self.terms = clean

    def _check_key(self, lam):
        lam, rows = check_partition(lam), self.ambient
        if rows is not None and len(lam) > rows:
            raise ValueError(f"{self.NOUN} {lam!r} has more than {rows} rows")
        return lam

    @classmethod
    def _wrap(cls, ambient, terms: dict):
        """A vector holding `terms` itself, not a copy, and unchecked: its
        keys must be checked keys and its values nonzero canonical
        coefficients."""
        out = cls.__new__(cls)
        out.ambient = ambient
        out.terms = terms
        return out

    @classmethod
    def _closed(cls, ambient, terms: dict):
        """Result of a closed operation, whose keys come from checked keys
        and whose coefficients are ints or Fractions: zeros are dropped and
        integral Fractions become ints."""
        return cls._wrap(ambient, {
            key: c if type(c) is int or c._denominator != 1 else c._numerator
            for key, c in terms.items() if c
        })

    @classmethod
    def _require(cls, v):
        """Refuse `v` unless it is a `cls` itself, not another basis."""
        if type(v) is not cls:
            raise TypeError(f"need a {cls.__name__}, got {type(v).__name__}")

    @classmethod
    def zero(cls, ambient=None):
        return cls(ambient)

    @classmethod
    def unit(cls, ambient=None):
        return cls(ambient, {cls._unit_key(ambient): 1})

    @staticmethod
    def _unit_key(ambient):
        return ()

    def _same_ambient(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.ambient != other.ambient:
            raise ValueError(f"ambients differ: {self.ambient} vs {other.ambient}")

    def _combine(self, other, op):
        self._same_ambient(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = op(out.get(key, 0), c)
        return self._closed(self.ambient, out)

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return box_operator(self, ("diagonal", other, 0), self.ambient)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        k = index(k)
        if k < 0:
            raise ValueError("only natural powers")
        unit = self._closed(self.ambient, {self._unit_key(self.ambient): 1})
        if k < 2:  # one product at k = 1 too, so a class without one refuses every k >= 1
            return unit * self if k else unit
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.ambient == other.ambient
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash((self.ambient, frozenset(self.terms.items())))

    def sorted_terms(self) -> list:
        """Items sorted by degree, then lexicographically descending key."""
        items = sorted(self.terms.items(), key=lambda kv: kv[0], reverse=True)
        items.sort(key=lambda kv: sum(kv[0]))
        return items

    def __repr__(self):
        return f"{type(self).__name__}({self.ambient}, {format_terms(self.sorted_terms(), self.LETTER, {})})"


def op_constants(table: dict, op: str) -> tuple:
    """The constants of operator `op` in `table`.  Looked up before any
    term is touched, so an unknown name raises whatever the input is."""
    try:
        return table[op]
    except KeyError:
        raise ValueError(f"unknown operator {op!r}") from None


# The partition index of the process: each partition the box operator walks
# or reaches gets a small int, and the box sums add up over those ints, which
# hash faster than tuples.  Filled on first use and never cleared, since the
# neighbours of a partition depend neither on the operator's constants nor on
# a row bound.  Indices never leave this module.
_INDEX = {}  # partition -> index
_PARTITIONS = []  # index -> partition, the same tuple objects as the keys
# part -> {partition: ((neighbour index, content), ...)}, top to bottom; the
# "add" neighbours end with the cell in the new row below the partition.
_NEIGHBOURS = {"remove": {}, "add": {}}
_INDEX_LOCK = Lock()  # so that threads never see an index before its partition


def _index(lam: tuple) -> int:
    i = _INDEX.get(lam)
    if i is None:
        with _INDEX_LOCK:
            i = _INDEX.get(lam)
            if i is None:
                _PARTITIONS.append(lam)
                i = _INDEX[lam] = len(_PARTITIONS) - 1
    return i


def _walk(lam: tuple, part: str) -> tuple:
    """The corner walk of the box operator: ((_index(mu), content), ...)
    over the `part` neighbours mu of `lam`, top to bottom, the "add" ones
    ending with the cell in the new row below it.  One pass over its rows,
    each neighbour built by changing one entry of a list of the rows."""
    rows, cells, out = len(lam), list(lam), []
    if part == "remove":
        for r, p in enumerate(lam):
            if r == rows - 1 or lam[r + 1] < p:  # cell (r + 1, p), content p - r - 1
                cells[r] = p - 1
                out.append((_index(tuple(cells) if p > 1 else lam[:r]), p - r - 1))
                cells[r] = p
    else:
        for r, p in enumerate(lam):
            if not r or lam[r - 1] > p:  # cell (r + 1, p + 1), content p - r
                cells[r] = p + 1
                out.append((_index(tuple(cells)), p - r))
                cells[r] = p
        out.append((_index(lam + (1,)), -rows))
    return tuple(out)


def box_operator(v: SparseVector, constants, row_bound) -> SparseVector:
    """The content-weighted box operator on a partition-keyed vector, with
    ambient `row_bound`.  `constants` (part, a, b) sends lam to lam less each
    removable cell ("remove") or plus each cell addable within `row_bound`
    rows (None: unbounded) ("add"), top to bottom, weighted a + b*content, or
    to lam weighted a + b*|lam| ("diagonal").  The constants are scaled to
    integers over k, the lcm of their denominators.  A diagonal term is
    divided on its own: its numerator times a + b*|lam| over its
    denominator times k, canonicalized inline as `_divided` does.  The
    other parts scale each coefficient to an int over m, the lcm of the
    input's denominators, as they read it, sum c*(a + b*content) over its
    `_NEIGHBOURS` (walked on a miss) as ints keyed by partition index, and
    divide each sum once by k*m through `_divided`."""
    part, a, b = constants
    k = lcm(a.denominator, b.denominator)
    a, b = a.numerator * (k // a.denominator), b.numerator * (k // b.denominator)
    if part == "diagonal":
        out = {}
        for lam, c in v.terms.items():
            if type(c) is int:
                x, den = c * (a + b * sum(lam)), k
            else:
                x, den = c._numerator * (a + b * sum(lam)), c._denominator * k
            if x:
                g = gcd(x, den)
                if g == den:
                    out[lam] = x // den
                else:
                    f = out[lam] = object.__new__(Fraction)
                    f._numerator, f._denominator = x // g, den // g
        return v._wrap(row_bound, out)
    m = lcm(*[c._denominator for c in v.terms.values() if type(c) is not int])
    sums = {}
    get = sums.get
    table = _NEIGHBOURS[part]
    bounded = part != "remove" and row_bound is not None
    for lam, c in v.terms.items():
        if m != 1:
            c = c * m if type(c) is int else c._numerator * (m // c._denominator)
        nbrs = table.get(lam)
        if nbrs is None:
            nbrs = table[_PARTITIONS[_index(lam)]] = _walk(lam, part)
        if bounded and len(lam) >= row_bound:
            if len(lam) > row_bound:
                raise ValueError(f"{lam!r} already has more than {row_bound} rows")
            nbrs = nbrs[:-1]
        for i, w in nbrs:
            sums[i] = get(i, 0) + c * (a + b * w)
    return v._wrap(row_bound, _divided(zip(map(_PARTITIONS.__getitem__, sums), sums.values()), k * m))
