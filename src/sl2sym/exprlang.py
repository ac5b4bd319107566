"""A small expression language for symmetric-function and diagram inputs.

Grammar (whitespace-insensitive, '*' explicit):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nat)?
    base     := rational | atom | '(' expr ')' | '-' factor
    atom     := ('s'|'p'|'e'|'h'|'y') '[' nat (',' nat)* ']' | ('s'|'y') '[' ']'
    rational := nat ('/' nat)?

Expressions are parsed into tuple trees:
    ('num', Fraction), ('atom', letter, parts), ('neg', e),
    ('add', a, b), ('sub', a, b), ('mul', a, b), ('pow', e, k).
"""

import re
from fractions import Fraction
from operator import add, sub

from .symfunc import SchurVector, multiply, power_sum_schur
from .young import phi_inverse

ATOM_LETTERS = "speyh"
_BINARY = {"add": add, "sub": sub, "mul": multiply}


class ParseError(Exception):
    """Syntax error with a 1-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class EvalError(Exception):
    pass


class _EndOfInput:
    """The value of the end token, named as such in error messages."""

    def __repr__(self):
        return "end of input"


_END = _EndOfInput()
_LETTERS = frozenset(ATOM_LETTERS)
_TOKEN = re.compile(r"[0-9]+|\S")
_FOREIGN = re.compile(rf"[^\s0-9{ATOM_LETTERS}+\-*^()\[\],/]")


class _Parser:
    """Recursive descent over the tokens: runs of ASCII digits as ints, any
    other non-space character as itself, then _END.  A character outside the
    grammar is refused first; token positions are found only for a ParseError."""

    def __init__(self, text: str):
        foreign = _FOREIGN.search(text)
        if foreign:
            raise ParseError(f"unexpected character {foreign.group()!r}", foreign.start() + 1)
        self.text, self.pos = text, 0
        # digit runs are the only tokens from "0" up to ":", the character after "9"
        self.tokens = [int(t) if "0" <= t < ":" else t for t in _TOKEN.findall(text)]
        self.tokens.append(_END)

    def error(self, message: str, index: int) -> ParseError:
        starts = [m.start() + 1 for m in _TOKEN.finditer(self.text)]
        return ParseError(message, starts[index] if index < len(starts) else len(self.text) + 1)

    def take(self, kind: str):
        """The next token, which must be a nat or the character `kind`."""
        tok = self.tokens[self.pos]
        if type(tok) is not int if kind == "nat" else tok != kind:
            raise self.error(f"expected {kind!r}, found {tok!r}", self.pos)
        self.pos += 1
        return tok

    def expr(self):
        e = self.term()
        while self.tokens[self.pos] in ("+", "-"):
            kind = "add" if self.tokens[self.pos] == "+" else "sub"
            self.pos += 1
            e = (kind, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while self.tokens[self.pos] == "*":
            self.pos += 1
            e = ("mul", e, self.factor())
        return e

    def factor(self):
        e = self.base()
        if self.tokens[self.pos] == "^":
            self.pos += 1
            e = ("pow", e, self.take("nat"))
        return e

    def base(self):
        tok = self.tokens[self.pos]
        if type(tok) is int:
            self.pos += 1
            if self.tokens[self.pos] != "/":
                return ("num", Fraction(tok))
            self.pos += 1
            den = self.take("nat")
            if den == 0:
                raise self.error("zero denominator", self.pos - 1)
            return ("num", Fraction(tok, den))
        if tok in _LETTERS:
            self.pos += 1
            return self.atom(tok)
        if tok == "-":
            self.pos += 1
            return ("neg", self.factor())
        if tok == "(":
            self.pos += 1
            e = self.expr()
            self.take(")")
            return e
        raise self.error(f"expected an expression, found {tok!r}", self.pos)

    def atom(self, letter: str):
        self.take("[")
        if self.tokens[self.pos] == "]":
            if letter not in "sy":
                raise self.error(f"{letter}[] needs an index", self.pos)
            self.pos += 1
            return ("atom", letter, ())
        first = self.pos  # part i is token first + 2*i, after i commas
        parts = [self.take("nat")]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            parts.append(self.take("nat"))
        self.take("]")
        if letter in "sy":
            for i, p in enumerate(parts):
                if p < 1:
                    raise self.error("partition parts must be positive", first + 2 * i)
                if i and parts[i - 1] < p:
                    raise self.error("partition not weakly decreasing", first + 2 * i)
        elif len(parts) != 1:
            raise self.error(f"{letter}[...] takes a single index", first + 2)
        elif parts[0] < 1:
            raise self.error("index must be positive", first)
        return ("atom", letter, tuple(parts))


def parse(text: str):
    """Parse `text` into an expression tree."""
    parser = _Parser(text)
    e = parser.expr()
    if parser.tokens[parser.pos] is not _END:
        raise parser.error(f"unexpected token {parser.tokens[parser.pos]!r}", parser.pos)
    return e


def _left_spine(e):
    """The first non-binary node down the left operands of `e`, and the
    (kind, right operand) of each binary node above it, innermost first."""
    steps = []
    while e[0] in _BINARY:
        steps.append((e[0], e[2]))
        e = e[1]
    steps.reverse()
    return e, steps


def degree(e) -> int:
    """A bound on the degree of every term of the expression tree: atoms
    have the size of their partition or their index, products add degrees
    and powers multiply them."""
    kind = e[0]
    if kind == "num":
        return 0
    if kind == "atom":
        return sum(e[2])
    if kind == "neg":
        return degree(e[1])
    if kind == "pow":
        return e[2] * degree(e[1])
    if kind in _BINARY:
        first, steps = _left_spine(e)
        d = degree(first)
        for kind, rhs in steps:
            d = d + degree(rhs) if kind == "mul" else max(d, degree(rhs))
        return d
    raise ValueError(f"unknown node {kind!r}")


def _eval_schur(e, n: int, allow_diagram_atoms: bool):
    """The SchurVector of `e`, or a Fraction if `e` has no atom: a number
    times a vector is the scalar product, and in a sum a number c is
    c*s_()."""
    kind = e[0]
    if kind == "num":
        return e[1]
    if kind == "atom":
        letter, parts = e[1], e[2]
        if letter == "y" and not allow_diagram_atoms:
            raise EvalError("diagram atoms y[...] need diagram mode")
        if letter in ("s", "y"):
            if len(parts) > n:
                raise EvalError(f"partition {list(parts)} has more than {n} rows")
            return SchurVector.basis(n, parts)
        (i,) = parts
        if letter == "p":
            return power_sum_schur(i, n)
        if letter == "e":
            if i > n:
                raise EvalError(f"e[{i}] undefined in {n} variables")
            return SchurVector.basis(n, (1,) * i)
        if letter == "h":
            return SchurVector.basis(n, (i,))
        raise EvalError(f"unknown atom {letter!r}")
    if kind == "neg":
        return -_eval_schur(e[1], n, allow_diagram_atoms)
    if kind == "pow":
        return _eval_schur(e[1], n, allow_diagram_atoms) ** e[2]
    if kind in _BINARY:
        first, steps = _left_spine(e)
        lhs = _eval_schur(first, n, allow_diagram_atoms)
        for kind, arg in steps:
            rhs = _eval_schur(arg, n, allow_diagram_atoms)
            if kind == "mul" and Fraction in (type(lhs), type(rhs)):
                lhs = lhs * rhs
                continue
            if type(lhs) is not type(rhs):
                lhs, rhs = (x * SchurVector.unit(n) if type(x) is Fraction else x for x in (lhs, rhs))
            lhs = _BINARY[kind](lhs, rhs)
        return lhs
    raise ValueError(f"unknown node {kind!r}")


def evaluate(e, n: int, mode: str = "schur"):
    """Evaluate an expression tree in n variables.  In 'schur' mode the
    result is a SchurVector and y-atoms are rejected; in 'diagram' mode all
    atoms are resolved through the Schur side (products are the transported
    Littlewood-Richardson product) and the result is relabeled as diagrams."""
    if mode not in ("schur", "diagram"):
        raise ValueError(f"unknown mode {mode!r}")
    sv = _eval_schur(e, n, allow_diagram_atoms=(mode == "diagram"))
    if type(sv) is Fraction:
        sv = sv * SchurVector.unit(n)
    return phi_inverse(sv) if mode == "diagram" else sv
