"""Command-line front-end: operator application on expressions, kernel and
decomposition tables, characters, and the verification suites.  Output is
human-readable text by default; --json emits a machine-readable document
with deterministic field and term order."""

import argparse
import json
import sys
from fractions import Fraction

from .exprlang import EvalError, ParseError, degree, evaluate, parse
from .sl2_actions import (
    act_rho1,
    act_rho2,
    character_finite,
    decompose_finite,
    lowest_weight_basis_rho1,
    lowest_weight_space_rho2,
)
from .combinatorics import lw_counts
from .young import KerovParams, hat_apply, kerov_apply, tilde_apply

REP_OPS = {
    "rho1": ("raise", "lower", "cartan"),
    "rho2": ("raise", "lower", "cartan"),
    "hat": ("raise", "lower", "cartan"),
    "tilde": ("raise", "lower", "cartan"),
    "kerov": ("U", "L", "D"),
}


class CliError(Exception):
    pass


def format_terms(items, letter: str) -> str:
    """Render sorted (partition, coefficient) pairs like '-4*s[1,1] - 2*s[2]',
    each coefficient from its integer numerator and denominator."""
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
        out.append(f"{letter}[{','.join(map(str, lam))}]")
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


def _terms_json(items):
    return [
        {"coefficient": str(c), "partition": list(lam)}
        for lam, c in items
    ]


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}: {exc}")


def _refuse_flags(args, rep, flags):
    """Refuse each of `flags` that was given, since representation `rep`
    does not read it."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise CliError(f"{flag} does not apply to representation {rep!r}")


def _cmd_act(args) -> str:
    rep = args.rep
    op = args.op
    if op not in REP_OPS[rep]:
        raise CliError(f"operator {op!r} is not valid for representation {rep!r}")
    if rep in ("rho2", "tilde") and args.d is None:
        raise CliError(f"--d is required for representation {rep!r}")
    if rep == "kerov" and (args.z is None or args.zprime is None):
        raise CliError("--z and --zprime are required for the Kerov operators")
    unused = [] if rep in ("rho2", "tilde") else ["--d"]
    if rep != "kerov":
        unused += ["--z", "--zprime"]
    _refuse_flags(args, rep, unused)
    if args.n < 0:
        raise CliError(f"--n must be >= 0, got {args.n}")

    mode = "schur" if rep in ("rho1", "rho2") else "diagram"
    tree = parse(args.expr)
    # The Kerov operators act on unbounded diagrams, so their input is
    # evaluated with a row for every box: no product is truncated.
    rows = max(args.n, degree(tree)) if rep == "kerov" else args.n
    vec = evaluate(tree, rows, mode)

    if rep == "rho1":
        out = act_rho1(op, vec)
    elif rep == "rho2":
        out = act_rho2(op, vec, args.d)
    elif rep == "hat":
        out = hat_apply(op, vec, args.n)
    elif rep == "tilde":
        out = tilde_apply(op, vec, args.n, args.d)
    else:
        params = KerovParams(_parse_fraction(args.z), _parse_fraction(args.zprime))
        out = kerov_apply(op, vec, params)

    items = out.sorted_terms()
    if not args.json:
        return format_terms(items, "s" if mode == "schur" else "y")
    inputs = {"rep": rep, "op": op, "n": args.n, "expr": args.expr}
    doc = {"basis": mode, "n": args.n}
    if args.d is not None:
        doc["d"] = args.d
        inputs["d"] = args.d
    if rep == "kerov":
        inputs["z"] = args.z
        inputs["zprime"] = args.zprime
    doc["terms"] = _terms_json(items)
    doc["metadata"] = {"command": "act", "inputs": inputs}
    return json.dumps(doc)


def _cmd_kernel(args) -> str:
    _refuse_flags(args, args.rep, ["--max-degree"] if args.rep == "rho2" else ["--d"])
    if args.rep == "rho2":
        if args.d is None:
            raise CliError("--d is required for the second representation")
        vectors = lowest_weight_space_rho2(args.n, args.d)
    else:
        if args.n < 2:
            raise CliError("the infinite kernel needs n >= 2")
        max_degree = 6 if args.max_degree is None else args.max_degree
        vectors = lowest_weight_basis_rho1(args.n, max_degree)

    # rho2 kernel vectors are built in canonical order; rho1's come from multiply
    items = [(weight, vec.terms.items() if args.rep == "rho2" else vec.sorted_terms())
             for vec, weight in vectors]
    if not args.json:
        lines = [f"weight {weight}: {format_terms(terms, 's')}" for weight, terms in items]
        return "\n".join(lines) if lines else "0"
    json_vectors = [{"weight": weight, "terms": _terms_json(terms)} for weight, terms in items]
    inputs = {"rep": args.rep, "n": args.n}
    if args.rep == "rho2":
        inputs["d"] = args.d
    else:
        inputs["max_degree"] = max_degree
    return json.dumps({"command": "kernel", "inputs": inputs, "vectors": json_vectors})


def _cmd_decompose(args) -> str:
    if (args.d is None) == (args.max_weight is None):
        raise CliError("decompose needs exactly one of --d or --max-weight")
    if args.d is not None:
        entries = sorted(decompose_finite(args.n, args.d).items())
        if not args.json:
            return " + ".join(f"V[{i}]" if m == 1 else f"{m}*V[{i}]" for i, m in entries) or "0"
        doc = {"command": "decompose", "n": args.n, "d": args.d}
    else:
        entries = list(enumerate(lw_counts(args.n, args.max_weight)))
        if not args.json:
            return "\n".join(f"c[{i}] = {m}" for i, m in entries)
        doc = {"command": "decompose", "n": args.n, "max_weight": args.max_weight}
    doc["multiplicities"] = [[i, m] for i, m in entries]
    return json.dumps(doc)


def _cmd_character(args) -> str:
    entries = sorted(character_finite(args.n, args.d).items())
    if not args.json:
        return "\n".join(f"{w} {m}" for w, m in entries)
    return json.dumps({
        "command": "character", "n": args.n, "d": args.d,
        "exponents": [[w, m] for w, m in entries],
    })


def _cmd_verify(args) -> int:
    # verify loads the monomial oracles; no other command needs them
    from .verify import run_suite

    checks = run_suite(args.suite)
    failures = 0
    for check in checks:
        if check.note:
            status = "NOTE"
        elif check.ok:
            status = "PASS"
        else:
            status = "FAIL"
            failures += 1
        line = f"{status} {check.suite}/{check.name}"
        if check.detail:
            line += f": {check.detail}"
        print(line)
    real = [c for c in checks if not c.note]
    print(f"{len(real) - failures}/{len(real)} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2sym",
        description="Exact sl2-actions on symmetric polynomials and Young diagrams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    act = sub.add_parser("act", help="apply an operator to an expression")
    act.add_argument("--rep", required=True, choices=sorted(REP_OPS))
    act.add_argument("--op", required=True,
                     choices=("raise", "lower", "cartan", "U", "L", "D"))
    act.add_argument("--n", required=True, type=int)
    act.add_argument("--d", type=int)
    act.add_argument("--z")
    act.add_argument("--zprime")
    act.add_argument("--expr", required=True)
    act.add_argument("--json", action="store_true")

    kernel = sub.add_parser("kernel", help="lowest-weight vectors with weights")
    kernel.add_argument("--rep", required=True, choices=("rho1", "rho2"))
    kernel.add_argument("--n", required=True, type=int)
    kernel.add_argument("--d", type=int)
    kernel.add_argument("--max-degree", type=int)
    kernel.add_argument("--json", action="store_true")

    dec = sub.add_parser("decompose", help="irreducible multiplicity table")
    dec.add_argument("--n", required=True, type=int)
    dec.add_argument("--d", type=int)
    dec.add_argument("--max-weight", type=int)
    dec.add_argument("--json", action="store_true")

    char = sub.add_parser("character", help="weight exponent/multiplicity table")
    char.add_argument("--n", required=True, type=int)
    char.add_argument("--d", required=True, type=int)
    char.add_argument("--json", action="store_true")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, help="a suite name, or all")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "act":
            out = _cmd_act(args)
        elif args.command == "kernel":
            out = _cmd_kernel(args)
        elif args.command == "decompose":
            out = _cmd_decompose(args)
        else:
            out = _cmd_character(args)
    except (CliError, ParseError, EvalError, ValueError, ArithmeticError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
