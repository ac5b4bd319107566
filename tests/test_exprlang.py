import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sl2sym import exprlang
from sl2sym.exprlang import EvalError, ParseError, degree, evaluate, parse
from sl2sym.symfunc import SchurVector, multiply, power_sum_schur, z_generator_schur
from sl2sym.young import DiagramVector

_partition_atoms = st.tuples(
    st.sampled_from(["s", "y"]),
    st.lists(st.integers(min_value=1, max_value=6), max_size=3).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    ),
).map(lambda t: ("atom", t[0], t[1]))

_indexed_atoms = st.tuples(
    st.sampled_from(["p", "e", "h"]), st.integers(min_value=1, max_value=6)
).map(lambda t: ("atom", t[0], (t[1],)))

_numbers = st.tuples(
    st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=9)
).map(lambda t: ("num", Fraction(t[0], t[1])))


def expressions():
    base = st.one_of(_numbers, _partition_atoms, _indexed_atoms)
    return st.recursive(
        base,
        lambda sub: st.one_of(
            sub.map(lambda e: ("neg", e)),
            st.tuples(sub, sub).map(lambda t: ("add",) + t),
            st.tuples(sub, sub).map(lambda t: ("sub",) + t),
            st.tuples(sub, sub).map(lambda t: ("mul",) + t),
            st.tuples(sub, st.integers(min_value=0, max_value=3)).map(
                lambda t: ("pow",) + t
            ),
        ),
        max_leaves=10,
    )


def print_expr(e) -> str:
    """Render an expression tree back to parseable text."""
    kind = e[0]
    if kind == "num":
        return str(e[1])
    if kind == "atom":
        return f"{e[1]}[{','.join(map(str, e[2]))}]"
    if kind == "neg":
        inner = print_expr(e[1])
        if e[1][0] in ("add", "sub", "mul"):
            inner = f"({inner})"
        return "-" + inner
    if kind in ("add", "sub"):
        op = " + " if kind == "add" else " - "
        lhs = print_expr(e[1])
        rhs = print_expr(e[2])
        if e[2][0] in ("add", "sub"):
            rhs = f"({rhs})"
        return lhs + op + rhs
    if kind == "mul":
        lhs = print_expr(e[1])
        if e[1][0] in ("add", "sub"):
            lhs = f"({lhs})"
        rhs = print_expr(e[2])
        if e[2][0] in ("add", "sub", "mul"):
            rhs = f"({rhs})"
        return lhs + "*" + rhs
    if kind == "pow":
        base = print_expr(e[1])
        if e[1][0] not in ("num", "atom"):
            base = f"({base})"
        return f"{base}^{e[2]}"
    raise ValueError(f"unknown node {kind!r}")


def test_parse_examples():
    assert parse("s[2,1] + 2*p[2]") == (
        "add",
        ("atom", "s", (2, 1)),
        ("mul", ("num", Fraction(2)), ("atom", "p", (2,))),
    )
    assert parse("3*p[2] - p[1]^2") == (
        "sub",
        ("mul", ("num", Fraction(3)), ("atom", "p", (2,))),
        ("pow", ("atom", "p", (1,)), 2),
    )
    assert parse("s[]") == ("atom", "s", ())
    assert parse(" 1/2 * ( s[1] - h[2] ) ") == (
        "mul",
        ("num", Fraction(1, 2)),
        ("sub", ("atom", "s", (1,)), ("atom", "h", (2,))),
    )
    assert parse("-p[1]*s[2]") == (
        "mul",
        ("neg", ("atom", "p", (1,))),
        ("atom", "s", (2,)),
    )


# one case for each place the parser raises, with its exact message and
# 1-based position: a found token is shown as an int, a quoted character or
# "end of input", which sits one past the last character
_PARSE_ERRORS = [
    # characters outside the grammar, reported before any syntax error
    ("s[1] ? 2", "unexpected character '?'", 6),
    ("q[1]", "unexpected character 'q'", 1),
    (") ?", "unexpected character '?'", 3),
    ("\N{NO-BREAK SPACE}1 +\N{INFORMATION SEPARATOR FOUR}\N{LATIN SMALL LETTER E WITH ACUTE}",
     "unexpected character '\N{LATIN SMALL LETTER E WITH ACUTE}'", 6),
    # digits are ASCII 0-9 only: other Unicode digits are not read as numbers
    ("s[\N{SUPERSCRIPT TWO}]", "unexpected character '\N{SUPERSCRIPT TWO}'", 3),
    ("2\N{SUPERSCRIPT TWO}", "unexpected character '\N{SUPERSCRIPT TWO}'", 2),
    ("s[\N{ARABIC-INDIC DIGIT THREE}]", "unexpected character '\N{ARABIC-INDIC DIGIT THREE}'", 3),
    ("s[/]", "expected 'nat', found '/'", 3),
    ("s[,1]", "expected 'nat', found ','", 3),
    ("s[s]", "expected 'nat', found 's'", 3),
    ("1/)", "expected 'nat', found ')'", 3),
    ("s[1]^/", "expected 'nat', found '/'", 6),
    ("s[", "expected 'nat', found end of input", 3),
    ("s[1,", "expected 'nat', found end of input", 5),
    ("s[1]^", "expected 'nat', found end of input", 6),
    ("1/", "expected 'nat', found end of input", 3),
    ("s1", "expected '[', found 1", 2),
    ("s 12", "expected '[', found 12", 3),
    ("s/", "expected '[', found '/'", 2),
    ("s,", "expected '[', found ','", 2),
    ("s", "expected '[', found end of input", 2),
    ("s[1 2]", "expected ']', found 2", 5),
    ("s[1/", "expected ']', found '/'", 4),
    ("s[1", "expected ']', found end of input", 4),
    ("s[2,1", "expected ']', found end of input", 6),
    ("(1 2)", "expected ')', found 2", 4),
    ("(1,2)", "expected ')', found ','", 3),
    ("(1", "expected ')', found end of input", 3),
    ("(1/2", "expected ')', found end of input", 5),
    ("(3)/4", "unexpected token '/'", 4),
    ("1 2", "unexpected token 2", 3),
    ("123 456 + 7", "unexpected token 456", 5),
    ("s[1]]", "unexpected token ']'", 5),
    ("\N{NO-BREAK SPACE} s[1]\N{NO-BREAK SPACE}\N{NO-BREAK SPACE})", "unexpected token ')'", 9),
    ("", "expected an expression, found end of input", 1),
    ("2 +", "expected an expression, found end of input", 4),
    ("*2", "expected an expression, found '*'", 1),
    (")", "expected an expression, found ')'", 1),
    ("s[1] + ,", "expected an expression, found ','", 8),
    ("p[]", "p[] needs an index", 3),
    ("h[]", "h[] needs an index", 3),
    ("s[0]", "partition parts must be positive", 3),
    ("y[2,0]", "partition parts must be positive", 5),
    ("s[1,2]", "partition not weakly decreasing", 5),
    ("s[ 12 ,\t 345 ]", "partition not weakly decreasing", 10),
    ("p[1,2]", "p[...] takes a single index", 5),
    ("e[3,0]", "e[...] takes a single index", 5),
    ("p[0]", "index must be positive", 3),
    ("1/0", "zero denominator", 3),
]


@pytest.mark.parametrize("text, message, position", _PARSE_ERRORS)
def test_parse_error_table(text, message, position):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == f"{message} at position {position}"
    assert exc.value.position == position


def test_parse_errors():
    # every digit run is converted to an int before parsing starts, so a
    # literal past CPython's 4,300-digit limit is refused even where the
    # parser would have stopped before reaching it
    with pytest.raises(ValueError, match="4300") as exc:
        parse("s[1] ) " + "9" * 5000)
    assert not isinstance(exc.value, ParseError)


@given(expressions())
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(expr):
    assert parse(print_expr(expr)) == expr


# the grammar's characters, whitespace that is not ASCII, and a few
# characters outside the grammar, two of them digits that are not ASCII
_TEXT_ALPHABET = ("0123456789speyh+-*^()[],/ \t\n\N{NO-BREAK SPACE}\N{INFORMATION SEPARATOR FOUR}"
                  "?q\N{SUPERSCRIPT TWO}\N{ARABIC-INDIC DIGIT THREE}")


@given(st.text(alphabet=_TEXT_ALPHABET, max_size=30))
@settings(max_examples=300, deadline=None)
def test_any_text_parses_or_fails_at_a_position_in_it(text):
    try:
        tree = parse(text)
    except ParseError as exc:
        assert 1 <= exc.position <= len(text) + 1
    else:
        assert parse(print_expr(tree)) == tree


def test_token_classes_over_every_code_point():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    # the tokens leave out exactly the characters str.isspace() names
    spaces = "".join(filter(str.isspace, every))
    assert exprlang._TOKEN.sub("", every) == spaces
    # only ASCII digits run together into one token
    runs = [t for start in range(0, len(every), 4096)
            for t in exprlang._TOKEN.findall(every, start, start + 4096) if len(t) > 1]
    assert runs == ["0123456789"]
    # every other character is refused before parsing
    grammar = "".join(c for c in every if c in "0123456789speyh+-*^()[],/" or c.isspace())
    assert exprlang._FOREIGN.sub("", every) == grammar


def test_flat_sums_and_products_need_no_recursion():
    # a flat chain is evaluated along its left spine in a loop, whatever its length
    rng = random.Random(5)
    terms = Counter()
    text = []
    for i in range(5000):
        lam = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))), reverse=True))
        sign = -1 if i and rng.random() < 0.3 else 1
        terms[lam] += sign
        text.append(("- " if sign < 0 else "+ " if i else "") + f"s[{','.join(map(str, lam))}]")
    tree = parse(" ".join(text))
    assert evaluate(tree, 3) == SchurVector(3, terms)
    assert degree(tree) == max(map(sum, terms))
    tree = parse("2*" * 1999 + "s[2]")
    assert evaluate(tree, 3) == SchurVector(3, {(2,): 2 ** 1999})
    assert degree(tree) == 2


def test_evaluate_examples():
    assert evaluate(parse("3*p[2]-p[1]^2"), 3) == z_generator_schur(2, 3)
    assert evaluate(parse("s[]"), 2) == SchurVector.unit(2)
    assert evaluate(parse("p[3]"), 4) == power_sum_schur(3, 4)
    assert evaluate(parse("e[2]"), 3) == SchurVector.basis(3, (1, 1))
    assert evaluate(parse("h[2]"), 3) == SchurVector.basis(3, (2,))
    assert evaluate(parse("1/2 - 1/2"), 2) == SchurVector.zero(2)
    assert evaluate(parse("s[1]^0"), 2) == SchurVector.unit(2)


def test_evaluate_errors():
    with pytest.raises(EvalError):
        evaluate(parse("e[3]"), 2)
    with pytest.raises(EvalError):
        evaluate(parse("y[2,1]"), 3)  # diagram atom in schur mode
    with pytest.raises(EvalError):
        evaluate(parse("s[1,1,1]"), 2)
    with pytest.raises(ValueError):
        evaluate(parse("s[1]"), 2, mode="poly")


def test_evaluate_diagram_mode():
    out = evaluate(parse("y[2,1] + 2*y[1]"), 3, mode="diagram")
    assert out == DiagramVector(3, {(2, 1): 1, (1,): 2})
    prod = evaluate(parse("y[1]*y[2,1]"), 3, mode="diagram")
    assert prod == DiagramVector(3, {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1})
    assert evaluate(parse("p[2]"), 2, mode="diagram") == DiagramVector(
        2, {(2,): 1, (1, 1): -1}
    )


def test_numeric_factors_skip_the_schur_product(monkeypatch):
    # a negated number and a product of numbers scale like a plain number:
    # none of these expressions multiplies two Schur vectors
    def refuse(u, v):
        raise AssertionError(f"multiply called on {u!r} and {v!r}")

    monkeypatch.setitem(exprlang._BINARY, "mul", refuse)
    cases = {
        "-2*s[1]": {(1,): -2},
        "2*3*s[2,1]": {(2, 1): 6},
        "s[1]*2*3": {(1,): 6},
        "-(1/2*3)*s[1]": {(1,): Fraction(-3, 2)},
        "2*-3*s[1] + s[1]*-1": {(1,): -7},
        "2*3": {(): 6},
    }
    for text, terms in cases.items():
        assert evaluate(parse(text), 3) == SchurVector(3, terms)
    with pytest.raises(AssertionError, match="multiply called"):
        evaluate(parse("s[1]*s[1]"), 3)


def test_evaluate_is_multiplicative():
    samples = ["s[2,1]", "p[2] - 3*e[1]", "h[2]^2", "1/3*s[1,1]"]
    for a in samples:
        for b in samples:
            lhs = evaluate(parse(f"({a})*({b})"), 3)
            rhs = multiply(evaluate(parse(a), 3), evaluate(parse(b), 3))
            assert lhs == rhs
