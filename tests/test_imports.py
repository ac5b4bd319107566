"""The boundary between the engine and its reference oracles: no engine
module imports the monomial world (`polyring`) or the verification suites
(`verify`) when it is imported, the CLI loads `verify` only for the
`verify` command, the helpers only the oracles use live in `verify`, and
the package root binds `Poly` alone of the monomial world's names."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENGINE = ("vector", "combinatorics", "symfunc", "sl2_actions", "young", "exprlang", "cli")
ORACLES = {"sl2sym.polyring", "sl2sym.verify"}
ORACLE_ONLY = ("act_rho1_named", "count_partitions_in_rectangle", "elementary_schur", "vd_realization")
DELETED = ("decompose_lambda_n", "xi_minus", "nabla", "pieri_e1", "pi_k", "zeta",
           "weight_of_alpha", "print_expr", "canonical_order", "_box_sums", "_neighbours",
           "_gaussian_binomial", "_cayley_sylvester", "_BINOMIALS", "_MULTIPLICITIES", "_remember",
           "_CACHE_LOCK", "_CACHE_SIZE")


def import_time_imports(source: str) -> set:
    """The sl2sym modules that a module with this source names in an
    import statement that runs when it is imported: every one outside a
    function body."""
    stack = list(ast.parse(source).body)
    found = set()
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            name = ".".join(filter(None, ("sl2sym" if node.level else "", node.module)))
            if name == "sl2sym":
                found.update(f"sl2sym.{alias.name}" for alias in node.names)
            else:
                found.add(name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_scanner_sees_every_import_form():
    source = (
        "from . import verify as v\n"
        "from .polyring import Poly\n"
        "import sl2sym.young\n"
        "from sl2sym import exprlang\n"
        "if True:\n"
        "    from sl2sym.vector import box_operator\n"
        "def f():\n"
        "    from .combinatorics import partitions\n"
    )
    assert import_time_imports(source) == {
        "sl2sym.verify", "sl2sym.polyring", "sl2sym.young", "sl2sym.exprlang", "sl2sym.vector",
    }


@pytest.mark.parametrize("module", ENGINE)
def test_engine_module_imports_no_oracle(module):
    source = (SRC / "sl2sym" / f"{module}.py").read_text()
    assert not import_time_imports(source) & ORACLES


@pytest.mark.parametrize("module", ("sl2sym",) + tuple(f"sl2sym.{m}" for m in ENGINE))
def test_engine_module_binds_no_oracle_only_helper(module):
    assert not set(vars(importlib.import_module(module))) & set(ORACLE_ONLY + DELETED)


def test_verify_binds_the_oracle_only_helpers():
    verify = importlib.import_module("sl2sym.verify")
    for name in ORACLE_ONLY:
        assert callable(getattr(verify, name))
        assert getattr(verify, name).__module__ == "sl2sym.verify"
    assert not set(vars(verify)) & set(DELETED)


def test_root_binds_only_poly_of_the_monomial_oracle():
    import sl2sym
    import sl2sym.polyring as polyring

    own = {name for name, value in vars(polyring).items()
           if getattr(value, "__module__", None) == "sl2sym.polyring"}
    assert {"Poly", "schur_to_poly", "rho1_apply", "z_generator_poly"} <= own
    assert own & set(vars(sl2sym)) == {"Poly"}


RUNTIME_CHECK = """
import json, sys
from sl2sym.cli import main
codes = [main(["act", "--rep", "rho1", "--op", "lower", "--n", "3", "--expr", "s[2,1]"]),
         main(["decompose", "--n", "3", "--d", "2"])]
before = "sl2sym.verify" in sys.modules
codes.append(main(["verify", "--suite", "identities"]))
print(json.dumps([codes, before, "sl2sym.verify" in sys.modules]), file=sys.stderr)
"""


def test_cli_loads_verify_only_for_verify():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", RUNTIME_CHECK],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stderr.splitlines()[-1]) == [[0, 0, 0], False, True]


LAZY_CHECK = """
import sys
from sl2sym.cli import main
codes = [main(["act", "--rep", "rho1", "--op", "lower", "--n", "3", "--expr", "s[2,1]"]),
         main(["kernel", "--rep", "rho1", "--n", "3", "--max-degree", "4"]),
         main(["decompose", "--n", "3", "--d", "2"]),
         main(["character", "--n", "2", "--d", "2"]),
         main(["verify", "--suite", "identities"])]
loaded = ["json" in sys.modules, "dataclasses" in sys.modules]
codes.append(main(["character", "--n", "2", "--d", "2", "--json"]))
print(repr([codes, loaded, "json" in sys.modules]), file=sys.stderr)
"""


def test_cli_loads_json_only_for_json_output():
    # each CLI process pays for its imports: text output and `verify` load
    # neither json nor dataclasses (which pulls in inspect, ast and dis)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", LAZY_CHECK],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert ast.literal_eval(run.stderr.splitlines()[-1]) == [[0] * 6, [False, False], True]


def test_all_lists_exactly_the_public_names():
    """`__all__` names every public non-module name that `__init__` binds,
    and each of them resolves."""
    import sl2sym

    bound = {
        name for name, value in vars(sl2sym).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(sl2sym.__all__) == sorted(bound)
    assert len(set(sl2sym.__all__)) == len(sl2sym.__all__)
    for name in sl2sym.__all__:
        assert getattr(sl2sym, name) is not None
