from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from sl2sym import exprlang
from sl2sym.exprlang import EvalError, ParseError, evaluate, parse
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


def test_parse_errors():
    with pytest.raises(ParseError) as exc:
        parse("s[1,2]")
    assert "weakly decreasing" in str(exc.value)
    assert exc.value.position == 5

    with pytest.raises(ParseError):
        parse("s[2,1")
    with pytest.raises(ParseError):
        parse("p[]")
    with pytest.raises(ParseError):
        parse("p[1,2]")
    with pytest.raises(ParseError):
        parse("s[0]")
    with pytest.raises(ParseError):
        parse("2 +")
    with pytest.raises(ParseError):
        parse("q[1]")
    with pytest.raises(ParseError) as exc:
        parse("s[1] ? 2")
    assert exc.value.position == 6
    with pytest.raises(ParseError):
        parse("1/0")
    # digits are ASCII 0-9 only: other Unicode digits are not read as numbers
    for text, position in (("s[\N{SUPERSCRIPT TWO}]", 3), ("s[\N{ARABIC-INDIC DIGIT THREE}]", 3),
                           ("2\N{SUPERSCRIPT TWO}", 2)):
        with pytest.raises(ParseError, match="^unexpected character") as exc:
            parse(text)
        assert exc.value.position == position

    # at the end of the input the message names it, at the same position
    for text, position in (("", 1), ("s[1", 4)):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert "end of input" in str(exc.value) and "None" not in str(exc.value)
        assert exc.value.position == position


@given(expressions())
@settings(max_examples=200, deadline=None)
def test_print_parse_round_trip(expr):
    assert parse(print_expr(expr)) == expr


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
