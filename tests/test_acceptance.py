"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact; the timed criteria assert their stated wall-clock
budgets.  The exhaustive ranges live in the verification suites, which this
module runs once each and indexes by check name."""

import json
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings

from sl2sym import verify as verify_mod
from sl2sym.exprlang import parse

from test_exprlang import expressions, print_expr


@lru_cache(maxsize=None)
def run_suite(name):
    t0 = time.monotonic()
    checks = {c.name: c for c in verify_mod.SUITES[name]()}
    return checks, time.monotonic() - t0


def report(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_commutators():
    checks, elapsed = run_suite("commutators")
    ok = all(c.ok for c in checks.values()) and elapsed < 30
    report(1, f"commutator relations, both actions, polynomial and Schur sides "
              f"({elapsed:.1f}s < 30s)", ok)


def test_criterion_02_schur_action_oracle():
    checks, elapsed = run_suite("schur-action")
    ok = (
        checks["first action matches differential operators (|lam|<=6, n<=4)"].ok
        and checks["second action matches differential operators (|lam|<=6, n<=4, d<=6)"].ok
        and checks["closed-form family images match the Schur action"].ok
        and elapsed < 60
    )
    report(2, f"combinatorial Schur action equals the differential operators "
              f"({elapsed:.1f}s < 60s)", ok)


def test_criterion_03_kernel_generators():
    checks, _ = run_suite("kernel")
    ok = (
        checks["generators are annihilated with cartan eigenvalue 2i (n<=6)"].ok
        and checks["leading coefficient identity n*C_i = (n-1)^i + (-1)^i (n-1) (n<=8)"].ok
        and checks["slice homomorphism reproduces generators: sigma(p_i) = z_i/n^(i-1) (i<=n<=5)"].ok
    )
    report(3, "kernel generators: annihilation, eigenvalues, leading "
              "coefficients, slice images", ok)


def test_criterion_04_grading():
    checks, _ = run_suite("kernel")
    ok = (
        checks["graded dimensions: partial sums count partitions with <=n parts (m<=12, n<=5)"].ok
        and checks["three-variable multiplicity sequence c_0..c_10"].ok
        and checks["three-variable recurrence c_i = c_(i-2)+c_(i-3)-c_(i-5) (i<=30)"].ok
    )
    report(4, "graded multiplicities match partition counts, the stated "
              "sequence and its recurrence", ok)


def test_criterion_05_power_sum_identities():
    checks, _ = run_suite("identities")
    ok = all(c.ok for c in checks.values())
    report(5, "both power-sum identities hold exactly for m = 1..8", ok)


def test_criterion_06_finite_decomposition():
    checks, _ = run_suite("tables")
    ok = (
        checks["box character equals symmetric-power character (n,d<=5)"].ok
        and checks["peeled decomposition equals the difference formula (n,d<=5)"].ok
        and checks["dimension identity sum c*(i+1) = C(n+d,n) (n,d<=6)"].ok
        and checks["three-variable decomposition tables d=2..8"].ok
    )
    report(6, "characters, multiplicity formula, dimension identity, and "
              "the three-variable tables", ok)


def test_criterion_07_lowest_weight_space():
    checks, _ = run_suite("kernel")
    ok = checks["three-variable box d=6: kernel has 8 vectors with the stated weights"].ok
    report(7, "three-variable box d=6 kernel: 8 vectors with weight multiset "
              "{-18,-14,-12,-10,-8,-6,-6,-2}", ok)


def test_criterion_08_standard_module_realization():
    checks, _ = run_suite("tables")
    ok = checks["scaled elementary polynomials realize the standard module (d<=8)"].ok
    report(8, "scaled elementary polynomials satisfy all four standard-module "
              "relations for d <= 8", ok)


def test_criterion_09_transport():
    checks, _ = run_suite("kerov")
    ok = (
        checks["transport intertwines the first action (|lam|<=6, n<=4)"].ok
        and checks["transport intertwines the second action (|lam|<=6, n<=4, d<=6)"].ok
        and checks["hook vectors map to power sums, preimages to kernel generators (k<=6, n<=4)"].ok
    )
    report(9, "relabeling intertwines the diagram operators with both actions; "
              "hooks and preimages map correctly", ok)


def test_criterion_10_kerov():
    checks, _ = run_suite("kerov")
    ok = (
        checks["Kerov bracket relations (|lam|<=7, 5 rational parameter pairs)"].ok
        and checks["box adding escapes every row bound (witness (1^n), n<=4)"].ok
    )
    report(10, "Kerov bracket relations and the row-bound escape witness", ok)


def test_criterion_11_discrepancy_reporting():
    kernel_checks, _ = run_suite("kernel")
    table_checks, _ = run_suite("tables")
    note_a = kernel_checks["two-variable kernel degrees"]
    note_b = table_checks["two-variable box d=2 decomposition"]
    ok = (
        note_a.note and note_a.ok
        and "computed" in note_a.detail and "paper" in note_a.detail
        and note_b.note and note_b.ok
        and "computed" in note_b.detail and "paper" in note_b.detail
        and "V0 + V4" in note_b.detail
        and all(c.ok for c in kernel_checks.values())
        and all(c.ok for c in table_checks.values())
    )
    report(11, "both known discrepancies reported as computed-vs-paper notes "
               "without failing the suites", ok)


# the checks that compare the first action's raise against an independent
# oracle, and their counts when its raising constant is content + 1
WRONG_RAISING_FAILURES = {
    "schur-action/first action matches differential operators (|lam|<=6, n<=4)":
        "219 comparisons, 73 failures",
    "schur-action/closed-form family images match the Schur action":
        "174 comparisons, 58 failures",
    "kerov/transport intertwines the first action (|lam|<=6, n<=4)":
        "219 comparisons, 73 failures",
}


def failures_with_wrong_raising_constant(monkeypatch) -> dict:
    from sl2sym import sl2_actions

    correct = sl2_actions.rho1_constants

    def broken(n):
        return {**correct(n), "raise": ("add", 1, 1)}

    monkeypatch.setattr(sl2_actions, "rho1_constants", broken)
    checks = verify_mod.suite_schur_action() + verify_mod.suite_kerov()
    return {f"{c.suite}/{c.name}": c.detail for c in checks if not c.ok}


def test_wrong_raising_constant_fails_exactly_the_dependent_checks(monkeypatch):
    """A wrong rho1 raising constant (content + 1 instead of content) is
    counted case by case: exactly the checks that compare the first
    action's raise against an independent oracle fail, with these counts."""
    assert failures_with_wrong_raising_constant(monkeypatch) == WRONG_RAISING_FAILURES


def test_wrong_raising_constant_fails_the_same_checks_under_a_blind_equality(monkeypatch):
    """The same failures with `SparseVector.__eq__` calling any two vectors
    of one class equal: verify compares vectors as plain data, so no check
    rests on the equality it would check."""
    from sl2sym.vector import SparseVector

    monkeypatch.setattr(SparseVector, "__eq__", lambda self, other: type(other) is type(self))
    assert failures_with_wrong_raising_constant(monkeypatch) == WRONG_RAISING_FAILURES


@pytest.mark.parametrize("op, index", [(op, i) for op in "ULD" for i in (1, 2)],
                         ids=[f"{op}.{ab}" for op in "ULD" for ab in "ab"])
def test_each_kerov_constant_is_pinned(monkeypatch, op, index):
    """Adding 1 to any one of the six numbers of the Kerov table, a or b of
    U, L or D, fails a kerov check; for U and D a closed-form check fails
    too.  rho1, rho2, hat and tilde all read the table."""
    from sl2sym import sl2_actions, young

    correct = sl2_actions.kerov_constants

    def perturbed(z, zprime):
        table = correct(z, zprime)
        entry = list(table[op])
        entry[index] += 1
        return {**table, op: tuple(entry)}

    monkeypatch.setattr(sl2_actions, "kerov_constants", perturbed)
    monkeypatch.setattr(young, "kerov_constants", perturbed)
    checks = verify_mod.suite_kerov() + verify_mod.suite_closed_forms()
    failed = {c.suite for c in checks if not c.ok}
    assert "kerov" in failed
    assert ("closed-forms" in failed) == (op != "L")


CLI_EXAMPLES = [
    (
        ["act", "--rep", "rho1", "--op", "lower", "--n", "3",
         "--expr", "s[2,1]", "--json"],
        lambda doc: doc["terms"] == [
            {"coefficient": "-2", "partition": [2]},
            {"coefficient": "-4", "partition": [1, 1]},
        ],
    ),
    (
        ["decompose", "--n", "3", "--d", "2", "--json"],
        lambda doc: doc["multiplicities"] == [[2, 1], [6, 1]],
    ),
    (
        ["decompose", "--n", "3", "--max-weight", "10", "--json"],
        lambda doc: [m for _, m in doc["multiplicities"]]
        == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2],
    ),
]


def _run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "sl2sym.cli", *argv],
        capture_output=True, timeout=600,
    )


def test_criterion_12_cli():
    @given(expressions())
    @settings(max_examples=500, deadline=None)
    def round_trip(expr):
        assert parse(print_expr(expr)) == expr

    round_trip()

    stable = True
    for argv, expect in CLI_EXAMPLES:
        first = _run_cli(argv)
        second = _run_cli(argv)
        if first.returncode or second.returncode:
            stable = False
            break
        if first.stdout != second.stdout or not expect(json.loads(first.stdout)):
            stable = False
            break

    t0 = time.monotonic()
    full = _run_cli(["verify", "--suite", "all"])
    elapsed = time.monotonic() - t0
    expected = Path(__file__).with_name("verify_all.txt").read_bytes()
    ok = stable and full.returncode == 0 and full.stdout == expected and elapsed < 300
    report(12, f"500-expression parser round trip, byte-stable JSON examples, "
               f"full verification output as recorded in {elapsed:.1f}s < 300s", ok)
