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


def _reduced(den: int, keys, values) -> tuple:
    """(den, nums) of a closed operation's result, from integer sums over
    the nonzero `den`: `values`, a collection read twice, and `keys`, an
    iterable of their keys in the same order.  Zeros are dropped, `den`
    made positive, and both divided by their content gcd, most often 1.
    The one normalizer of the vector form."""
    g = gcd(den, *values)
    if den < 0:
        g = -g
    if g == 1:
        return den, {key: x for key, x in zip(keys, values) if x}
    return den // g, {key: x // g for key, x in zip(keys, values) if x}


def _divided(items, den: int) -> dict:
    """The canonical coefficients {key: int | Fraction} of nonzero integer
    numerators over one positive denominator `den`, given as (key,
    numerator) pairs: an int where `den` divides a numerator, else a reduced
    Fraction.  One gcd per term; a Fraction is built without its public
    constructor and its type checks, its two slots (`_numerator`,
    `_denominator`, on every CPython from 3.6 to 3.13) filled directly, as
    CPython's own `Fraction._from_coprime_ints` does on 3.12 and later."""
    if den == 1:
        return dict(items)
    out = {}
    for key, x in items:
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

    A vector stores `den`, a positive int, and `nums`, a dict of nonzero
    ints by key, with gcd(den, *nums.values()) == 1: the coefficient of a
    key is its numerator over `den`.  That form is unique, so equality and
    the hash read it directly; `terms` builds the canonical coefficients
    (an int if integral, otherwise a reduced Fraction) on every read.  A
    vector is immutable: no code changes `nums` after construction, so
    results that only relabel (`_wrap`) may share it with their input."""

    __slots__ = ("ambient", "den", "nums")
    LETTER = "?"
    NOUN = "partition"

    def __init__(self, ambient, terms=None):
        self._check_ambient(ambient)
        self.ambient = ambient
        clean, den = {}, 1
        if terms:
            for key, c in terms.items():
                try:
                    c = canonical_coefficient(c)
                except TypeError as exc:
                    raise TypeError(f"coefficient of {key!r}: {exc}") from None
                if c:
                    clean[self._check_key(key)] = c
                    if type(c) is not int:
                        den = lcm(den, c._denominator)
        # the lcm of reduced denominators leaves no common factor to divide
        self.den = den
        self.nums = clean if den == 1 else {
            key: c * den if type(c) is int else c._numerator * (den // c._denominator) for key, c in clean.items()}

    @property
    def terms(self) -> dict:
        """The coefficients {key: int | Fraction}, in term order, built anew
        from (den, nums) on every read."""
        return _divided(self.nums.items(), self.den)

    def _check_key(self, lam):
        lam, rows = check_partition(lam), self.ambient
        if rows is not None and len(lam) > rows:
            raise ValueError(f"{self.NOUN} {lam!r} has more than {rows} rows")
        return lam

    @classmethod
    def _wrap(cls, ambient, den: int, nums: dict):
        """A vector holding `nums` itself, not a copy, and unchecked: its
        keys must be checked keys and (den, nums) in the normal form."""
        out = cls.__new__(cls)
        out.ambient, out.den, out.nums = ambient, den, nums
        return out

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
        return cls(ambient, {(): 1})

    def _same_ambient(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.ambient != other.ambient:
            raise ValueError(f"ambients differ: {self.ambient} vs {other.ambient}")

    def _combine(self, other, op):
        self._same_ambient(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = dict(self.nums) if a == 1 else {key: x * a for key, x in self.nums.items()}
        get = out.get
        for key, x in other.nums.items():
            out[key] = op(get(key, 0), x * b)
        return self._wrap(self.ambient, *_reduced(den, out, out.values()))

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
        unit = self._wrap(self.ambient, 1, {(): 1})
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
            and self.den == other.den
            and self.nums == other.nums
        )

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __hash__(self):
        return hash((type(self), self.ambient, self.den, frozenset(self.nums.items())))

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
    integers over k, the lcm of their denominators, and the result is the
    integer sums over v.den * k: each numerator of v times a + b*|lam|
    ("diagonal"), or c*(a + b*content) summed over the `_NEIGHBOURS` of each
    key (walked on a miss) as ints keyed by partition index, and brought to
    the normal form by one content gcd (`_reduced`)."""
    part, a, b = constants
    k = lcm(a.denominator, b.denominator)
    a, b = a.numerator * (k // a.denominator), b.numerator * (k // b.denominator)
    if part == "diagonal":
        weighted = [x * (a + b * sum(lam)) for lam, x in v.nums.items()]
        return v._wrap(row_bound, *_reduced(v.den * k, v.nums, weighted))
    sums = {}
    get = sums.get
    table = _NEIGHBOURS[part]
    bounded = part != "remove" and row_bound is not None
    for lam, c in v.nums.items():
        nbrs = table.get(lam)
        if nbrs is None:
            nbrs = table[_PARTITIONS[_index(lam)]] = _walk(lam, part)
        if bounded and len(lam) >= row_bound:
            if len(lam) > row_bound:
                raise ValueError(f"{lam!r} already has more than {row_bound} rows")
            nbrs = nbrs[:-1]
        for i, w in nbrs:
            sums[i] = get(i, 0) + c * (a + b * w)
    return v._wrap(row_bound, *_reduced(v.den * k, map(_PARTITIONS.__getitem__, sums), sums.values()))
