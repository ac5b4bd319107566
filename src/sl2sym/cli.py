"""Command-line front-end: operator application on expressions, kernel and
decomposition tables, characters, and the verification suites.  Output is
human-readable text by default; --json emits a machine-readable document
with deterministic field and term order."""

import argparse
import functools
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


@_digits_unlimited
def _terms_json(items):
    return [{"coefficient": str(c), "partition": list(lam)} for lam, c in items]


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {text!r}: {exc}")


def _read_flags(args, reads: dict, flags) -> dict:
    """The flags that representation args.rep reads, by name: `reads` maps
    each to its default, None for a required flag.  Any other of `flags`
    that was given is refused."""
    for flag, default in reads.items():
        if getattr(args, flag) is None:
            if default is None:
                raise ValueError(f"--{flag.replace('_', '-')} is required for representation {args.rep!r}")
            setattr(args, flag, default)
    for flag in flags:
        if flag not in reads and getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to representation {args.rep!r}")
    return {flag: getattr(args, flag) for flag in reads}


# rep -> (flags it reads, basis of its expressions, operators, call).  Each call
# looks the library up in this module's globals when it runs, so a function
# rebound here after import (as by a tracer) is the one used.
_SL2 = ("raise", "lower", "cartan")
_ACT = {
    "rho1": ({}, "schur", _SL2, lambda op, v, args: act_rho1(op, v)),
    "rho2": ({"d": None}, "schur", _SL2, lambda op, v, args: act_rho2(op, v, args.d)),
    "hat": ({}, "diagram", _SL2, lambda op, v, args: hat_apply(op, v, args.n)),
    "tilde": ({"d": None}, "diagram", _SL2, lambda op, v, args: tilde_apply(op, v, args.n, args.d)),
    "kerov": ({"z": None, "zprime": None}, "diagram", ("U", "L", "D"), lambda op, v, args: kerov_apply(
        op, v, KerovParams(_parse_fraction(args.z), _parse_fraction(args.zprime)))),
}
# rep -> (flags it reads, call, whether its vectors are built in canonical order)
_KERNEL = {
    "rho1": ({"max_degree": 6}, lambda args: lowest_weight_basis_rho1(args.n, args.max_degree), False),
    "rho2": ({"d": None}, lambda args: lowest_weight_space_rho2(args.n, args.d), True),
}


def _cmd_act(args) -> str:
    reads, basis, ops, call = _ACT[args.rep]
    if args.op not in ops:
        raise ValueError(f"operator {args.op!r} is not valid for representation {args.rep!r}")
    flags = _read_flags(args, reads, ("d", "z", "zprime"))
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    tree = parse(args.expr)
    # The Kerov operators act on unbounded diagrams, so their input is
    # evaluated with a row for every box: no product is truncated.
    rows = max(args.n, degree(tree)) if args.rep == "kerov" else args.n
    out = call(args.op, evaluate(tree, rows, basis), args)
    items = out.sorted_terms()
    if not args.json:
        return format_terms(items, out.LETTER)
    doc = {"basis": basis, "n": args.n}
    if args.d is not None:
        doc["d"] = args.d
    doc["terms"] = _terms_json(items)
    inputs = {"rep": args.rep, "op": args.op, "n": args.n, "expr": args.expr, **flags}
    doc["metadata"] = {"command": "act", "inputs": inputs}
    return json.dumps(doc)


def _cmd_kernel(args) -> str:
    reads, call, canonical = _KERNEL[args.rep]
    flags = _read_flags(args, reads, ("d", "max_degree"))
    items = [(weight, vec.terms.items() if canonical else vec.sorted_terms())
             for vec, weight in call(args)]
    if not args.json:
        lines = [f"weight {weight}: {format_terms(terms, 's')}" for weight, terms in items]
        return "\n".join(lines) if lines else "0"
    vectors = [{"weight": weight, "terms": _terms_json(terms)} for weight, terms in items]
    return json.dumps({"command": "kernel", "inputs": {"rep": args.rep, "n": args.n, **flags}, "vectors": vectors})


def _cmd_decompose(args) -> str:
    if (args.d is None) == (args.max_weight is None):
        raise ValueError("decompose needs exactly one of --d or --max-weight")
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", required=True, type=int)
    common.add_argument("--json", action="store_true")

    act = sub.add_parser("act", parents=[common], help="apply an operator to an expression")
    act.add_argument("--rep", required=True, choices=sorted(_ACT))
    act.add_argument("--op", required=True, choices=list(dict.fromkeys(
        op for _, _, ops, _ in _ACT.values() for op in ops)))
    act.add_argument("--d", type=int)
    act.add_argument("--z")
    act.add_argument("--zprime")
    act.add_argument("--expr", required=True)
    act.set_defaults(handler=_cmd_act)

    kernel = sub.add_parser("kernel", parents=[common], help="lowest-weight vectors with weights")
    kernel.add_argument("--rep", required=True, choices=sorted(_KERNEL))
    kernel.add_argument("--d", type=int)
    kernel.add_argument("--max-degree", type=int)
    kernel.set_defaults(handler=_cmd_kernel)

    dec = sub.add_parser("decompose", parents=[common], help="irreducible multiplicity table")
    dec.add_argument("--d", type=int)
    dec.add_argument("--max-weight", type=int)
    dec.set_defaults(handler=_cmd_decompose)

    char = sub.add_parser("character", parents=[common], help="weight exponent/multiplicity table")
    char.add_argument("--d", required=True, type=int)
    char.set_defaults(handler=_cmd_character)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--suite", required=True, help="a suite name, or all")
    ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.handler(args)
    except (ParseError, EvalError, ValueError, ArithmeticError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(out, int):  # verify printed its report
        return out
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
