"""The benchmark's workloads: seeded inputs, the operations run on them, and
the check of every result.

A workload is a list of tasks.  A task is a few operations, each timed on
its own, and one check of their results that does not use the code being
timed (see oracle.py).  Operations call the library through module
attributes looked up at call time, so the tracer's wrappers see them.

Why these workloads:

- product: Schur-basis expressions through exprlang.parse + evaluate.  The
  time goes to symfunc.multiply and polyring.Poly arithmetic; factors come
  from a small pool, so basis-pair products repeat within a round.
- operators: the five box operators and their bracket relations on large
  sparse vectors, with no product call.
- tables: kernels by exact nullspace, character and decomposition tables,
  Cayley-Sylvester and Gaussian-binomial tables, with no product call.
- cli: fresh `python -m sl2sym.cli` processes, each paying interpreter
  start, import and cold caches, including the six verify suites.
"""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import oracle
import sl2sym as lib

ROOT = Path(__file__).resolve().parent.parent


class Task:
    """Operations checked together.  Each op is (label, fn) where fn takes
    the results of the earlier ops of the task."""

    __slots__ = ("ops", "check")

    def __init__(self, ops, check):
        self.ops = ops
        self.check = check


def canonical(value) -> str:
    """Text naming a result exactly, independent of term order and of the
    numeric type of the coefficients."""
    if isinstance(value, bytes):
        return value.decode()
    if hasattr(value, "terms"):
        bound = value.n if hasattr(value, "n") else value.row_bound
        items = sorted(oracle.normalize(value.terms).items())
        return f"{bound}|" + ";".join(f"{','.join(map(str, lam))}:{c}" for lam, c in items)
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{canonical(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    return str(value)


def digest(value) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()[:16]


def _coef(rng) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def _point(rng, n) -> oracle.Point:
    return oracle.Point(rng.sample(range(1, 12), n))


# ------------------------------------------------------------------ product


def render(e) -> str:
    """Expression tree (the shape exprlang.parse returns) as input text."""
    kind = e[0]
    if kind == "num":
        return str(e[1])
    if kind == "atom":
        return f"{e[1]}[{','.join(map(str, e[2]))}]"
    if kind in ("add", "sub"):
        return f"({render(e[1])} {'+' if kind == 'add' else '-'} {render(e[2])})"
    if kind == "mul":
        return f"{render(e[1])}*{render(e[2])}"
    if kind == "pow":
        return f"{render(e[1])}^{e[2]}"
    raise ValueError(f"unknown node {kind!r}")


def _atom_pool(n):
    pool = [("atom", "s", lam) for lam in ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)) if len(lam) <= n]
    pool += [("atom", letter, (k,)) for letter in "peh" for k in (1, 2, 3) if letter != "e" or k <= n]
    return pool


def _alphas(n, low, high):
    """Exponent tuples of z_2..z_n with low <= degree <= high, sorted by
    (degree, tuple) as lowest_weight_basis_rho1 orders them."""
    out = []

    def rec(prefix, budget):
        if len(prefix) == n - 1:
            out.append(tuple(prefix))
            return
        w = len(prefix) + 2
        for a in range(budget // w + 1):
            rec(prefix + [a], budget - w * a)

    rec([], high)
    deg = lambda a: sum((k + 2) * x for k, x in enumerate(a))
    return sorted((a for a in out if deg(a) >= low), key=lambda a: (deg(a), a))


def _expr_task(text, n, tree, point):
    def op(results):
        return lib.exprlang.evaluate(lib.exprlang.parse(text), n)

    def check(results):
        return point.schur_vector(results[0].terms) == point.expr(tree)

    return Task([(f"expr n={n} {text}", op)], check)


def _zmono_task(alpha, n, point):
    def op(results):
        return lib.symfunc.z_monomial_schur(alpha, n)

    def check(results):
        return point.schur_vector(results[0].terms) == point.z_monomial(alpha)

    return Task([(f"z_monomial_schur n={n} {alpha}", op)], check)


def _lw_basis_task(n, degree, point):
    alphas = _alphas(n, 0, degree)

    def op(results):
        return lib.sl2_actions.lowest_weight_basis_rho1(n, degree)

    def check(results):
        vectors = results[0]
        return len(vectors) == len(alphas) and all(
            weight == 2 * sum((k + 2) * x for k, x in enumerate(alpha))
            and point.schur_vector(vec.terms) == point.z_monomial(alpha)
            for (vec, weight), alpha in zip(vectors, alphas)
        )

    return Task([(f"lowest_weight_basis_rho1 n={n} deg={degree}", op)], check)


# One product batch has three parts, each evaluated at its own n so that
# no part leaves cache entries another part would use:
# - light, at n = 3 and n = 4: every product of two atoms of degree <= 2,
#   every square and cube of one, every kernel monomial z_monomial_schur
#   of degree 2..6, lowest_weight_basis_rho1 to degree 4 and 5, and
#   LIGHT_TRIPLES seeded products of three atoms.  The atoms share Schur
#   terms (p[2] = s[2] - s[1,1], e[2] = s[1,1], ...), so basis products
#   repeat within the batch.  A fixed set keeps the median latency on
#   the same work for every seed;
# - medium: every product of two shapes of MEDIUM_SHAPES at n = 5, 10 to
#   50 ms each, in a fixed relative order, so each costs the same in
#   every batch; they are an eighth of the operations, so the 90th
#   latency percentile falls among them;
# - heavy: powers of about a second each at n = 6, also in fixed order.
# The seed picks the triples, the operand order and scalar of every
# product, the check points, and the order of the batch.
LIGHT_ROWS = (3, 4)
LIGHT_TRIPLES = 8
MEDIUM_SHAPES = ((3,), (2, 1), (4,), (3, 1), (2, 2), (2, 1, 1))
MEDIUM_ROWS = 5
HEAVY = (("pow", ("atom", "s", (1,)), 8), ("pow", ("atom", "h", (3,)), 3))
HEAVY_ROWS = 6


def _interleave(rng, tasks, fixed):
    """Insert `fixed` into `tasks` at seeded positions, keeping its order."""
    slots = sorted(rng.sample(range(len(tasks) + len(fixed)), len(fixed)))
    out, rest = [], iter(tasks)
    for position, task in zip(slots, fixed):
        while len(out) < position:
            out.append(next(rest))
        out.append(task)
    out.extend(rest)
    return out


def product(rng):
    light = []
    for n in LIGHT_ROWS:
        pool = [atom for atom in _atom_pool(n) if sum(atom[2]) <= 2]
        trees = [("mul", a, b) if rng.random() < 0.5 else ("mul", b, a)
                 for i, a in enumerate(pool) for b in pool[i + 1:]]
        trees += [("pow", a, k) for a in pool for k in (2, 3)]
        trees += [("mul", ("mul", rng.choice(pool), rng.choice(pool)), rng.choice(pool))
                  for _ in range(LIGHT_TRIPLES)]
        for tree in trees:
            scaled = ("mul", ("num", abs(_coef(rng))), tree)
            light.append(_expr_task(render(scaled), n, scaled, _point(rng, n)))
        light += [_zmono_task(alpha, n, _point(rng, n)) for alpha in _alphas(n, 2, 6)]
        light += [_lw_basis_task(n, degree, _point(rng, n)) for degree in (4, 5)]
    rng.shuffle(light)
    medium = [("mul", ("atom", "s", lam), ("atom", "s", mu))
              for i, lam in enumerate(MEDIUM_SHAPES) for mu in MEDIUM_SHAPES[i:]]
    fixed = []
    for rows, tree in [(MEDIUM_ROWS, t) for t in medium] + [(HEAVY_ROWS, t) for t in HEAVY]:
        scaled = ("mul", ("num", abs(_coef(rng))), tree)
        fixed.append(_expr_task(render(scaled), rows, scaled, _point(rng, rows)))
    return _interleave(rng, light, fixed)


# ---------------------------------------------------------------- operators

# (terms, rows n, column bound d): every vector has |lam| <= 18.
OPERATOR_VECTORS = ((250, 6, 10), (600, 7, 12), (950, 8, 12), (1300, 8, 18))
MAX_SIZE = 18


def _box_partitions(n, d, max_size):
    out = []

    def rec(prefix, remaining, cap):
        out.append(tuple(prefix))
        if len(prefix) == n:
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(prefix + [part], remaining - part, part)

    rec([], max_size, d)
    return sorted(out)


def _bracket_task(label, apply, names, source):
    """Nine applications: h, r, l on v, then h(r), r(h), h(l), l(h) and the
    two compositions whose difference is h."""
    h, r, l = names
    # (operator, index of the result it applies to; -1 is the input vector)
    plan = ((h, -1), (r, -1), (l, -1), (h, 1), (r, 0), (h, 2), (l, 0))
    if h == "L":  # Kerov: D(U(v)) - U(D(v)) = L(v)
        plan += ((l, 1), (r, 2))
    else:  # raise(lower(v)) - lower(raise(v)) = cartan(v)
        plan += ((r, 2), (l, 1))

    def make(op_name, arg):
        return lambda results: apply(op_name, source() if arg < 0 else results[arg])

    ops = [(f"{label} {op_name}", make(op_name, arg)) for op_name, arg in plan]

    def check(results):
        return oracle.brackets_hold(*(res.terms for res in results))

    return Task(ops, check)


def operators(rng):
    tasks = []
    for size, n, d in OPERATOR_VECTORS:
        shapes = rng.sample(_box_partitions(n, d, MAX_SIZE), size)
        terms = {lam: _coef(rng) for lam in shapes}
        z, zp = _coef(rng), _coef(rng)
        schur = lib.symfunc.SchurVector(n, terms)
        bounded = lib.young.DiagramVector(n, terms)
        free = lib.young.DiagramVector(None, terms)
        params = lib.young.KerovParams(z, zp)
        label = f"{size} terms n={n} d={d} z={z} z'={zp} vector {digest(schur)}"
        reps = (
            ("rho1", lambda op, v: lib.sl2_actions.act_rho1(op, v), lambda s=schur: s),
            ("rho2", lambda op, v, d=d: lib.sl2_actions.act_rho2(op, v, d), lambda s=schur: s),
            ("hat", lambda op, v, n=n: lib.young.hat_apply(op, v, n), lambda b=bounded: b),
            ("tilde", lambda op, v, n=n, d=d: lib.young.tilde_apply(op, v, n, d), lambda b=bounded: b),
            ("kerov", lambda op, v, p=params: lib.young.kerov_apply(op, v, p), lambda f=free: f),
        )
        for rep, apply, source in reps:
            names = ("L", "U", "D") if rep == "kerov" else ("cartan", "raise", "lower")
            tasks.append(_bracket_task(f"{rep} {label}", apply, names, source))
    rng.shuffle(tasks)
    return tasks


# ------------------------------------------------------------------- tables


def _oriented(rng, pairs):
    return [(a, b) if rng.random() < 0.5 else (b, a) for a, b in pairs]


def _lw_space_task(n, d):
    def op(results):
        return lib.sl2_actions.lowest_weight_space_rho2(n, d)

    def check(results):
        per_weight = {}
        for vec, weight in results[0]:
            terms = oracle.normalize(vec.terms)
            if not terms or oracle.lower_rho2(terms, n):
                return False
            for lam in terms:
                if len(lam) > n or (lam and lam[0] > d) or 2 * sum(lam) - n * d != weight:
                    return False
            per_weight[-weight] = per_weight.get(-weight, 0) + 1
        expected = {i: oracle.cayley_sylvester(n, d, i) for i in range(n * d + 1)}
        return per_weight == {i: c for i, c in expected.items() if c}

    return Task([(f"lowest_weight_space_rho2 {n}x{d}", op)], check)


def _decompose_task(n, d):
    def op(results):
        return lib.sl2_actions.decompose_finite(n, d)

    def check(results):
        expected = {i: oracle.cayley_sylvester(n, d, i) for i in range(n * d + 1)}
        table = results[0]
        return (table == {i: c for i, c in expected.items() if c}
                and sum((i + 1) * c for i, c in table.items()) == comb(n + d, n))

    return Task([(f"decompose_finite {n}x{d}", op)], check)


def _character_task(n, d):
    def op(results):
        return lib.sl2_actions.character_finite(n, d)

    def check(results):
        expected = {2 * m - n * d: oracle.box_count(n, d, m) for m in range(n * d + 1)}
        return results[0] == expected and sum(results[0].values()) == comb(n + d, n)

    return Task([(f"character_finite {n}x{d}", op)], check)


def _cayley_task(n, d):
    def op(results):
        sc = lib.combinatorics.sylvester_cayley
        return [sc(n, d, i) for i in range(n * d + 1)]

    def check(results):
        table = results[0]
        return (table == [oracle.cayley_sylvester(n, d, i) for i in range(n * d + 1)]
                and sum((i + 1) * c for i, c in enumerate(table)) == comb(n + d, n))

    return Task([(f"sylvester_cayley table {n}x{d}", op)], check)


def _gamma_task(a, k):
    def op(results):
        gamma = lib.combinatorics.gamma
        return [gamma(a, k, i) for i in range(k * (a - k) + 1)]

    def check(results):
        return tuple(results[0]) == oracle.gaussian_binomial(a, k)

    return Task([(f"gamma table [{a} choose {k}]", op)], check)


# Size classes of one tables batch.  The seed picks the order and, where
# the cost barely depends on it, the orientation of a box (n x d or d x n,
# conjugate boxes) or of a binomial ([a choose k] or [a choose a-k]); a
# Cayley-Sylvester table costs more with the larger n, so its boxes keep
# the orientation given.
LW_SPACE_BOXES = ((5, 6), (4, 7), (4, 6), (3, 8), (4, 5), (3, 6), (3, 5), (2, 8))
DECOMPOSE_BOXES = ((9, 9), (8, 9), (7, 8), (6, 7), (6, 6), (5, 6))
CHARACTER_BOXES = ((7, 8), (6, 7), (5, 6), (4, 8))
CAYLEY_BOXES = ((12, 11), (10, 12), (9, 10), (8, 8), (6, 9), (6, 6), (5, 7), (4, 4))
GAMMA_BINOMIALS = ((20, 10), (16, 8), (14, 7), (12, 6), (10, 5), (9, 4))
# Every small table for 2 <= n, d <= 5, this many times each, so that the
# median latency falls on the same work for every seed.
SMALL_TABLE_PASSES = 3
# Six more 8 x 8 Cayley-Sylvester tables, about 25 ms each, the size at
# which the 90th latency percentile falls: with equal work around it, that
# percentile does not move with the seeded orientations.
P90_TABLES = 6


def tables(rng):
    tasks = [_lw_space_task(n, d) for n, d in _oriented(rng, LW_SPACE_BOXES)]
    tasks += [_decompose_task(n, d) for n, d in _oriented(rng, DECOMPOSE_BOXES)]
    tasks += [_character_task(n, d) for n, d in _oriented(rng, CHARACTER_BOXES)]
    tasks += [_cayley_task(n, d) for n, d in CAYLEY_BOXES]
    tasks += [_cayley_task(8, 8) for _ in range(P90_TABLES)]
    tasks += [_gamma_task(a, k if rng.random() < 0.5 else a - k) for a, k in GAMMA_BINOMIALS]
    for _ in range(SMALL_TABLE_PASSES):
        tasks += [_cayley_task(n, d) for n in range(2, 6) for d in range(2, 6)]
        tasks += [_gamma_task(n + d, n) for n in range(2, 6) for d in range(2, 6)]
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------- cli

SUITES = ("commutators", "schur-action", "kernel", "identities", "tables", "kerov")
# Seeded commands, each 0.1 to 0.2 s, most of it interpreter start and
# import.  Alongside them run the six verify suites, of which five take
# 0.35 s or more, and CLI_P90_RUNS runs of CLI_P90_COMMAND, about 0.3 s
# each.  The 90th latency percentile then falls inside that block of
# equal commands, for every seed, instead of on the noisiest single
# command.
CLI_MIX = {"act": 58, "kernel": 14, "decompose": 18, "character": 12}
CLI_P90_COMMAND = ("decompose", "--n", "8", "--d", "8")
CLI_P90_RUNS = 12


def _act_args(rng):
    rep = rng.choice(("rho1", "rho2", "hat", "tilde", "kerov"))
    n = rng.randint(2, 4)
    if rep == "kerov":
        # Sums of single diagrams only: a product of y-atoms is evaluated in
        # n rows, so its output depends on --n, a known defect to be fixed;
        # a golden made from it would encode a wrong answer.
        shapes = rng.sample([lam for lam in _box_partitions(n, 4, 4) if lam], 2)
        expr = " + ".join(f"{rng.randint(1, 9)}*y[{','.join(map(str, lam))}]" for lam in shapes)
        return ["act", "--rep", rep, "--op", rng.choice("ULD"), "--n", str(n),
                f"--z={_coef(rng)}", f"--zprime={_coef(rng)}", "--expr", expr]
    letter = "s" if rep in ("rho1", "rho2") else "y"
    op = rng.choice(("raise", "lower", "cartan"))
    if rep in ("rho2", "tilde"):
        d = rng.randint(3, 4)
        shapes = rng.sample([lam for lam in _box_partitions(n, d, 6) if lam], 2)
        expr = " + ".join(f"{letter}[{','.join(map(str, lam))}]" for lam in shapes)
        return ["act", "--rep", rep, "--op", op, "--n", str(n), "--d", str(d), "--expr", expr]
    atoms = [render(a) for a in _atom_pool(n)] if letter == "s" else [
        f"y[{','.join(map(str, lam))}]" for lam in _box_partitions(n, 3, 3) if lam]
    expr = f"{rng.choice(atoms)}*{rng.choice(atoms)}"
    return ["act", "--rep", rep, "--op", op, "--n", str(n), "--expr", expr]


def _cli_args(rng, kind):
    if kind == "act":
        args = _act_args(rng)
    elif kind == "kernel":
        if rng.random() < 0.5:
            args = ["kernel", "--rep", "rho1", "--n", str(rng.randint(3, 4)), "--max-degree", str(rng.randint(4, 6))]
        else:
            args = ["kernel", "--rep", "rho2", "--n", str(rng.randint(2, 4)), "--d", str(rng.randint(2, 4))]
    elif kind == "decompose":
        if rng.random() < 0.5:
            args = ["decompose", "--n", str(rng.randint(3, 6)), "--d", str(rng.randint(3, 6))]
        else:
            args = ["decompose", "--n", str(rng.randint(3, 5)), "--max-weight", str(rng.randint(8, 20))]
    else:
        args = ["character", "--n", str(rng.randint(3, 6)), "--d", str(rng.randint(3, 6))]
    if rng.random() < 0.5:
        args.append("--json")
    return args


def cli_command(args, spans_path=None):
    """The argv of one cli process; traced processes start through
    cli_traced.py, which writes their spans to `spans_path`."""
    if spans_path is None:
        return [sys.executable, "-m", "sl2sym.cli", *args]
    return [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(spans_path), *args]


def _cli_task(args, context):
    def op(results):
        index = context["next"]
        context["next"] += 1
        spans = None if context["spans_dir"] is None else context["spans_dir"] / f"cli-{index}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(cli_command(args, spans), cwd=ROOT, env=env, capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        return proc.stdout

    def check(results):
        return isinstance(results[0], bytes)

    return Task([("sl2sym " + " ".join(args), op)], check)


def cli(rng, context=None):
    """`context` carries the directory for traced span files; None runs
    the plain cli."""
    context = {"next": 0, "spans_dir": None} if context is None else context
    commands = [["verify", "--suite", suite] for suite in SUITES]
    commands += [list(CLI_P90_COMMAND) for _ in range(CLI_P90_RUNS)]
    for kind, count in CLI_MIX.items():
        commands += [_cli_args(rng, kind) for _ in range(count)]
    rng.shuffle(commands)
    return [_cli_task(args, context) for args in commands]


def build(workload, seed, **kwargs):
    """The tasks of one batch, drawn from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    return {"product": product, "operators": operators, "tables": tables, "cli": cli}[workload](rng, **kwargs)
