import json
import re
import sys
from decimal import Decimal

import pytest

from sl2sym.cli import build_parser, format_terms, main
from sl2sym.sl2_actions import act_rho1
from sl2sym.symfunc import SchurVector
from sl2sym.vector import box_operator


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_act_rho1_lower(capsys):
    code, out, err = run_cli(
        capsys, "act", "--rep", "rho1", "--op", "lower", "--n", "3",
        "--expr", "s[2,1]",
    )
    assert code == 0 and not err
    assert out.strip() == "-2*s[2] - 4*s[1,1]"


def test_act_json_document(capsys):
    argv = [
        "act", "--rep", "rho1", "--op", "lower", "--n", "3",
        "--expr", "s[2,1]", "--json",
    ]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == "schur"
    assert doc["n"] == 3
    assert doc["terms"] == [
        {"coefficient": "-2", "partition": [2]},
        {"coefficient": "-4", "partition": [1, 1]},
    ]
    assert doc["metadata"]["command"] == "act"
    # byte stability across repeated invocations
    code2, out2, _ = run_cli(capsys, *argv)
    assert code2 == 0 and out2 == out


def test_act_tilde_and_kerov(capsys):
    code, out, _ = run_cli(
        capsys, "act", "--rep", "tilde", "--op", "cartan", "--n", "3", "--d", "6",
        "--expr", "y[]",
    )
    assert code == 0
    assert out.strip() == "-18*y[]"

    code, out, _ = run_cli(
        capsys, "act", "--rep", "kerov", "--op", "U", "--n", "1",
        "--z", "1/2", "--zprime", "-3", "--expr", "y[1]",
    )
    assert code == 0
    assert out.strip() == "3/2*y[2] - 1/2*y[1,1]"


def test_act_flag_validation(capsys):
    code, _, err = run_cli(
        capsys, "act", "--rep", "rho2", "--op", "lower", "--n", "2",
        "--expr", "s[1]",
    )
    assert code == 2 and "--d" in err

    code, _, err = run_cli(
        capsys, "act", "--rep", "rho1", "--op", "U", "--n", "2", "--expr", "s[1]",
    )
    assert code == 2 and "not valid" in err

    code, _, err = run_cli(
        capsys, "act", "--rep", "rho1", "--op", "raise", "--n", "2", "--d", "3",
        "--expr", "s[1]", "--json",
    )
    assert code == 2 and err == "error: --d does not apply to representation 'rho1'\n"

    code, _, err = run_cli(
        capsys, "act", "--rep", "rho1", "--op", "lower", "--n", "2",
        "--expr", "s[1,2]",
    )
    assert code == 2 and "position" in err

    code, _, err = run_cli(
        capsys, "act", "--rep", "rho1", "--op", "lower", "--n", "2",
        "--expr", "e[3]",
    )
    assert code == 2 and "e[3]" in err


# The flag rules of `act`, written out here rather than read from the cli:
# the flags each representation reads (each one required), its operators
# and the letter of its basis.
SL2_OPS = ("raise", "lower", "cartan")
ACT_RULES = {
    "rho1": ((), SL2_OPS, "s"),
    "rho2": (("d",), SL2_OPS, "s"),
    "hat": ((), SL2_OPS, "y"),
    "tilde": (("d",), SL2_OPS, "y"),
    "kerov": (("z", "zprime"), ("U", "L", "D"), "y"),
}
FLAG_VALUES = {"d": "2", "z": "1/2", "zprime": "-3"}


def act_argv(rep, op, flags):
    letter = ACT_RULES[rep][2]
    values = [arg for flag in flags for arg in (f"--{flag}", FLAG_VALUES[flag])]
    return ["act", "--rep", rep, "--op", op, "--n", "2", *values, "--expr", f"{letter}[1]"]


@pytest.mark.parametrize("flag", ["d", "z", "zprime"])
@pytest.mark.parametrize("rep", sorted(ACT_RULES))
def test_act_flag_rules(capsys, rep, flag):
    reads, ops, _ = ACT_RULES[rep]
    if flag in reads:
        code, out, err = run_cli(capsys, *act_argv(rep, ops[0], [f for f in reads if f != flag]))
        assert code == 2 and not out and re.search(rf"--{flag}\b.*required", err)
    else:
        code, out, err = run_cli(capsys, *act_argv(rep, ops[0], [*reads, flag]))
        assert (code, out, err) == (2, "", f"error: --{flag} does not apply to representation {rep!r}\n")
    code, out, err = run_cli(capsys, *act_argv(rep, ops[0], reads))
    assert code == 0 and out and not err


@pytest.mark.parametrize("rep", sorted(ACT_RULES))
def test_act_refuses_operators_of_other_representations(capsys, rep):
    reads, ops, _ = ACT_RULES[rep]
    for op in {op for _, other, _ in ACT_RULES.values() for op in other} - set(ops):
        code, out, err = run_cli(capsys, *act_argv(rep, op, reads))
        assert code == 2 and not out and "not valid" in err


@pytest.mark.parametrize("argv, message", [
    (["--rep", "rho1", "--n", "3", "--d", "2"], "--d does not apply to representation 'rho1'"),
    (["--rep", "rho2", "--n", "3", "--d", "2", "--max-degree", "4"],
     "--max-degree does not apply to representation 'rho2'"),
    (["--rep", "rho2", "--n", "3"], "--d is required"),
    (["--rep", "rho2", "--n", "3", "--max-degree", "4"], "--d is required"),
])
def test_kernel_flag_rules(capsys, argv, message):
    code, out, err = run_cli(capsys, "kernel", *argv)
    assert code == 2 and not out and message in err


def test_long_exact_coefficients_print(capsys):
    """A coefficient longer than CPython's int-to-str digit limit prints in
    full, the limit is the same after main returns, and an integer literal
    longer than it is still refused."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    act = ["act", "--rep", "rho1", "--op", "cartan", "--n", "1", "--expr"]
    code, out, err = run_cli(capsys, *act, "2^15000*s[1]")
    digits, _, basis = out.partition("*")
    assert code == 0 and not err and basis == "s[1]\n"
    assert len(digits) > 4300 and int(Decimal(digits)) == 2 ** 15001
    code, out, err = run_cli(capsys, *act, "1/2^15000*s[1]", "--json")
    num, den = json.loads(out)["terms"][0]["coefficient"].split("/")
    assert code == 0 and not err and num == "1" and int(Decimal(den)) == 2 ** 14999
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    if limit:
        code, out, err = run_cli(capsys, *act, "1" * (limit + 1) + "*s[1]")
        assert code == 2 and not out and "limit" in err


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["act", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["decompose"])
    assert exc.value.code == 2


def test_decompose_finite(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--n", "3", "--d", "2")
    assert code == 0
    assert out.strip() == "V[2] + V[6]"

    code, out, _ = run_cli(capsys, "decompose", "--n", "3", "--d", "2", "--json")
    doc = json.loads(out)
    assert doc["multiplicities"] == [[2, 1], [6, 1]]

    code, out, _ = run_cli(capsys, "decompose", "--n", "3", "--d", "6", "--json")
    doc = json.loads(out)
    assert doc["multiplicities"] == [
        [2, 1], [6, 2], [8, 1], [10, 1], [12, 1], [14, 1], [18, 1],
    ]


def test_decompose_graded(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--n", "3", "--max-weight", "10", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [m for _, m in doc["multiplicities"]] == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2]

    code, _, err = run_cli(
        capsys, "decompose", "--n", "3", "--d", "2", "--max-weight", "4"
    )
    assert code == 2 and "exactly one" in err


def test_character(capsys):
    code, out, _ = run_cli(capsys, "character", "--n", "2", "--d", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exponents"] == [[-4, 1], [-2, 1], [0, 2], [2, 1], [4, 1]]


def test_kernel_commands(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--rep", "rho2", "--n", "3", "--d", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert lines[0] == "weight -18: s[]"

    code, out, _ = run_cli(
        capsys, "kernel", "--rep", "rho1", "--n", "2", "--max-degree", "4", "--json"
    )
    doc = json.loads(out)
    assert [v["weight"] for v in doc["vectors"]] == [0, 4, 8]

    code, out, _ = run_cli(capsys, "kernel", "--rep", "rho1", "--n", "2", "--json")
    assert json.loads(out)["inputs"]["max_degree"] == 6

    code, _, err = run_cli(capsys, "kernel", "--rep", "rho2", "--n", "2")
    assert code == 2 and "--d" in err

    code, _, err = run_cli(capsys, "kernel", "--rep", "rho2", "--n", "2", "--d", "2",
                           "--max-degree", "9")
    assert code == 2 and err == "error: --max-degree does not apply to representation 'rho2'\n"


def test_kernel_rho2_odd_box(capsys):
    # n*d = 9 is odd: the highest weight reduced is 2*4 - 9 = -1, which has
    # no kernel vector
    code, out, err = run_cli(capsys, "kernel", "--rep", "rho2", "--n", "3", "--d", "3")
    assert code == 0 and not err
    assert out == (
        "weight -9: s[]\n"
        "weight -5: -1/2*s[2] + s[1,1]\n"
        "weight -3: 1/10*s[3] - 1/4*s[2,1] + s[1,1,1]\n"
    )


def test_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
    assert code == 0
    assert "PASS identities/odd power-sum identity (m=1..8)" in out
    assert "checks passed" in out


def test_suite_that_raises_is_one_fail(capsys, monkeypatch):
    """An operator that leaves its domain makes its suite one FAIL line
    naming the exception, with exit 1, not an error with exit 2."""
    from sl2sym import sl2_actions

    correct = sl2_actions.rho2_constants
    monkeypatch.setattr(sl2_actions, "rho2_constants",
                        lambda n, d: {**correct(n, d), "raise": ("add", d, -2)})
    code, out, err = run_cli(capsys, "verify", "--suite", "commutators")
    assert code == 1 and not err
    assert out.splitlines() == [
        "FAIL commutators/suite raised: ValueError: partition (2,) violates the column bound 1",
        "0/1 checks passed",
    ]


def test_format_terms():
    from fractions import Fraction

    items = [((2,), Fraction(-2)), ((1, 1), Fraction(-4))]
    assert format_terms(items, "s") == "-2*s[2] - 4*s[1,1]"
    assert format_terms([], "s") == "0"
    assert format_terms([((), Fraction(1, 2))], "y") == "1/2*y[]"
    assert format_terms([((1,), Fraction(1)), ((2,), Fraction(-1))], "s") == "s[1] - s[2]"
    mixed = [((1,), -1), ((2,), Fraction(-3, 4)), ((3,), 5), ((2, 1), Fraction(7, 2)), ((1, 1), 1)]
    assert format_terms(mixed, "s") == "-s[1] - 3/4*s[2] + 5*s[3] + 7/2*s[2,1] + s[1,1]"


@pytest.mark.parametrize("argv", [
    ["act", "--rep", "rho2", "--op", "raise", "--n", "2", "--d", "-1", "--expr", "s[]"],
    ["character", "--n", "2", "--d", "-3"],
    ["decompose", "--n", "-1", "--d", "2"],
    ["decompose", "--n", "3", "--max-weight", "-2"],
    ["kernel", "--rep", "rho1", "--n", "3", "--max-degree", "-1"],
    ["kernel", "--rep", "rho2", "--n", "-1", "--d", "2"],
    ["act", "--rep", "kerov", "--op", "U", "--n", "-1", "--z", "0", "--zprime", "0",
     "--expr", "y[1]"],
    ["verify", "--suite", "nope"],
    ["act", "--rep", "rho1", "--op", "raise", "--n", "2", "--d", "3", "--expr", "s[1]", "--json"],
    ["act", "--rep", "hat", "--op", "raise", "--n", "2", "--z", "1", "--expr", "y[1]"],
    ["act", "--rep", "tilde", "--op", "raise", "--n", "2", "--d", "2", "--zprime", "1",
     "--expr", "y[1]"],
    ["act", "--rep", "kerov", "--op", "U", "--n", "2", "--d", "2", "--z", "0", "--zprime", "0",
     "--expr", "y[1]"],
    ["kernel", "--rep", "rho1", "--n", "3", "--d", "2"],
    ["kernel", "--rep", "rho2", "--n", "3", "--d", "2", "--max-degree", "9"],
])
def test_out_of_domain_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out and err.startswith("error: ")
    if argv[0] == "verify":
        assert "kerov" in err and "all" in err


def test_empty_box_stays_valid(capsys):
    code, out, _ = run_cli(capsys, "character", "--n", "0", "--d", "3")
    assert code == 0 and out.strip() == "0 1"
    code, out, _ = run_cli(capsys, "decompose", "--n", "3", "--d", "0")
    assert code == 0 and out.strip() == "V[0]"
    code, out, _ = run_cli(capsys, "kernel", "--rep", "rho2", "--n", "0", "--d", "2")
    assert code == 0 and out.strip() == "weight 0: s[]"


@pytest.mark.parametrize("n", ["1", "2", "3"])
def test_kerov_result_does_not_depend_on_n(capsys, n):
    kerov = ["act", "--rep", "kerov", "--op", "U", "--z", "0", "--zprime", "0", "--n", n]
    code, out, _ = run_cli(capsys, *kerov, "--expr", "y[1]*y[1]")
    assert code == 0 and out.strip() == "2*y[3] - 2*y[1,1,1]"
    code, out, _ = run_cli(capsys, *kerov, "--expr", "y[1,1]")
    assert code == 0 and out.strip() == "y[2,1] - 2*y[1,1,1]"


def test_large_power_finishes(capsys):
    code, out, err = run_cli(
        capsys, "act", "--rep", "rho1", "--op", "lower", "--n", "6", "--expr", "s[1]^14",
    )
    v = SchurVector.unit(6)
    for _ in range(14):
        v = box_operator(v, ("add", 1, 0), 6)
    assert code == 0 and not err
    assert out.strip() == format_terms(act_rho1("lower", v).sorted_terms(), "s")


def test_deep_nesting_exits_2_without_traceback(capsys):
    expr = "(" * 3000 + "s[1]" + ")" * 3000
    code, out, err = run_cli(
        capsys, "act", "--rep", "rho1", "--op", "raise", "--n", "2", "--expr", expr,
    )
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err
