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


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("nat", int(text[i:j]), i + 1))
            i = j
        elif ch in ATOM_LETTERS:
            tokens.append(("letter", ch, i + 1))
            i += 1
        elif ch in "+-*^()[],/":
            tokens.append((ch, ch, i + 1))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i + 1)
    tokens.append(("end", _EndOfInput(), len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            kind = self.take(self.peek()[0])[0]
            rhs = self.term()
            e = ("add" if kind == "+" else "sub", e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] == "*":
            self.take("*")
            e = ("mul", e, self.factor())
        return e

    def factor(self):
        e = self.base()
        if self.peek()[0] == "^":
            self.take("^")
            k = self.take("nat")[1]
            e = ("pow", e, k)
        return e

    def base(self):
        tok = self.peek()
        if tok[0] == "-":
            self.take("-")
            return ("neg", self.factor())
        if tok[0] == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        if tok[0] == "nat":
            self.take("nat")
            num = tok[1]
            if self.peek()[0] == "/":
                self.take("/")
                dtok = self.take("nat")
                if dtok[1] == 0:
                    raise ParseError("zero denominator", dtok[2])
                return ("num", Fraction(num, dtok[1]))
            return ("num", Fraction(num))
        if tok[0] == "letter":
            return self.atom()
        raise ParseError(f"expected an expression, found {tok[1]!r}", tok[2])

    def atom(self):
        letter_tok = self.take("letter")
        letter = letter_tok[1]
        self.take("[")
        parts = []
        if self.peek()[0] == "]":
            if letter not in ("s", "y"):
                raise ParseError(f"{letter}[] needs an index", self.peek()[2])
            self.take("]")
            return ("atom", letter, ())
        while True:
            tok = self.take("nat")
            parts.append((tok[1], tok[2]))
            if self.peek()[0] == ",":
                self.take(",")
                continue
            self.take("]")
            break
        if letter in ("s", "y"):
            for idx, (p, pos) in enumerate(parts):
                if p < 1:
                    raise ParseError("partition parts must be positive", pos)
                if idx and parts[idx - 1][0] < p:
                    raise ParseError("partition not weakly decreasing", pos)
        else:
            if len(parts) != 1:
                raise ParseError(f"{letter}[...] takes a single index", parts[1][1])
            if parts[0][0] < 1:
                raise ParseError("index must be positive", parts[0][1])
        return ("atom", letter, tuple(p for p, _ in parts))


def parse(text: str):
    """Parse `text` into an expression tree."""
    return _Parser(text).parse()


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
    if kind == "mul":
        return degree(e[1]) + degree(e[2])
    if kind in ("add", "sub"):
        return max(degree(e[1]), degree(e[2]))
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
        lhs, rhs = (_eval_schur(arg, n, allow_diagram_atoms) for arg in e[1:])
        if kind == "mul" and Fraction in (type(lhs), type(rhs)):
            return lhs * rhs
        if type(lhs) is not type(rhs):
            lhs, rhs = (x * SchurVector.unit(n) if type(x) is Fraction else x for x in (lhs, rhs))
        return _BINARY[kind](lhs, rhs)
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
