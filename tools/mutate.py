"""Mutation check for the test suite: each mutant below is one exact-text
replacement in one source file, and the suite must notice it.

For each mutant the tree is copied, without `.git`, to a temporary
directory, the replacement is made there, and tier-1 runs on the copy with
`-x` and the `mutate` hypothesis profile (`tests/conftest.py`: no shrinking,
no example database), so a failing run stops at its first falsifying
example.  A "killed" mutant must fail that run; an "equivalent" one, whose
output is the same as the unmutated code's, must pass it.  The check fails
if a mutant's old text does not occur exactly once in its file.

Run from anywhere, with the test requirements installed:

    python tools/mutate.py              # every mutant
    python tools/mutate.py lr-lower-bound divided-gcd   # only these

It prints one line per mutant and exits 1 if any mutant's outcome is not
the expected one.  A change that adds a fast path adds its mutant here."""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/sl2sym, old text, new text, expected outcome)
MUTANTS = [
    ("kerov-U-content", "sl2_actions.py", '"U": ("add", z, 1)', '"U": ("add", z, 2)', "killed"),
    ("kerov-U-constant", "sl2_actions.py", '"U": ("add", z, 1)', '"U": ("add", -z, 1)', "killed"),
    ("kerov-L-constant", "sl2_actions.py", '("diagonal", z * zprime, 2)', '("diagonal", z + zprime, 2)', "killed"),
    ("kerov-L-size", "sl2_actions.py", '("diagonal", z * zprime, 2)', '("diagonal", z * zprime, 1)', "killed"),
    ("kerov-D-content", "sl2_actions.py", '"D": ("remove", zprime, 1)', '"D": ("remove", zprime, 2)', "killed"),
    ("kerov-D-constant", "sl2_actions.py", '"D": ("remove", zprime, 1)', '"D": ("remove", -zprime, 1)', "killed"),
    ("rho1-lowering-sign", "sl2_actions.py", '{"lower": (part, -a, -b)', '{"lower": (part, a, b)', "killed"),
    ("walk-new-row-content", "vector.py", "out.append((_index(lam + (1,)), -rows))",
     "out.append((_index(lam + (1,)), -(rows - 1)))", "killed"),
    # the rho2 kernel levels: the first row may not pass column d, and the
    # weight is n + content of the added cell
    ("level-column-bound", "sl2_actions.py", "cells, above = list(lam), d", "cells, above = list(lam), d + 1",
     "killed"),
    ("level-weight", "sl2_actions.py", "by_mu[tuple(cells)][i] = a + b * (p - r)",
     "by_mu[tuple(cells)][i] = a + b * (p - r + 1)", "killed"),
    ("lr-lattice-bound", "symfunc.py", "if k and budget < cap:\n                cap = budget\n",
     "if k and budget + 1 < cap:\n                cap = budget + 1\n", "killed"),
    # a row the letter passes over still adds its k-1's to the lattice bound
    ("fill-pass-budget", "symfunc.py", "            budget += prev[r]\n", "", "killed"),
    ("lr-lower-bound", "symfunc.py", "low = left - (base[r] - base[-1])",
     "low = left - (base[r] - base[-1] - 1)", "killed"),
    # the lower bound also keeps the walk inside n rows: without it, IndexError
    ("lr-no-lower-bound", "symfunc.py", "low = left - (base[r] - base[-1])", "low = 0", "killed"),
    ("cayley-sylvester-m1", "combinatorics.py", "map(sub, half, (0,) + half)",
     "map(sub, half, (0, 0) + half[1:])", "killed"),
    # a table's cache is read only after its arguments pass `operator.index`,
    # since 2.0 == 2: a warm (2, 2) would answer (2.0, 2)
    ("table-key-index", "combinatorics.py", "_box_multiplicities(index(n), index(d))",
     "_box_multiplicities(n, d)", "killed"),
    ("table-cache-unbounded", "combinatorics.py", "@lru_cache(maxsize=1024)\ndef _binomial",
     "@lru_cache(maxsize=None)\ndef _binomial", "killed"),
    # a binomial is read from 32-bit words only while C(a, k) < 2**32 bounds its
    # coefficients: from [42 choose 21] on, one needs more than 32 bits
    ("binomial-word-bound", "combinatorics.py", "if not comb(a, k) >> 32:", "if not comb(a, k) >> 64:",
     "killed"),
    ("binomial-word-factor", "combinatorics.py", "(num << 32 * (a - k + j)) - num",
     "(num << 32 * (a - k + j + 1)) - num", "killed"),
    ("rho2-kernel-count", "sl2_actions.py", "if len(kernel) != expected:", "if False:", "killed"),
    ("poly-scalar-engine", "polyring.py",
     "return self._closed(self.n, {e: c * other for e, c in self.terms.items()})",
     "return SparseVector.__mul__(self, other)", "killed"),
    ("divided-gcd", "vector.py", "if g == den:\n                out[key] = x // den",
     "if g == 1:\n                out[key] = x // den", "killed"),
    ("divided-sign", "vector.py", "return _divided(((key, -x) for key, x in items), -den)",
     "return _divided(items, -den)", "killed"),
    ("diagonal-scale", "vector.py", "c._numerator * (a + b * sum(lam)), c._denominator * k",
     "c._numerator * (a + b * sum(lam)), c._denominator", "killed"),
    ("box-scale-swap", "vector.py", "c = c * m if type(c) is int else c._numerator * (m // c._denominator)",
     "c = c * m if type(c) is int else c._denominator * (m // c._numerator)", "killed"),
    ("power-any-exponent", "vector.py", "        k = index(k)\n", "", "killed"),
    ("rho1-basis-generator", "sl2_actions.py", "z_generator_schur(i + 1, n)", "z_generator_schur(i, n)", "killed"),
    ("format-fraction-space", "vector.py", 'out.append(f"{num}/{den}*")', 'out.append(f"{num} / {den}*")',
     "killed"),
    # the one partition-key check of the Schur and diagram vectors
    ("key-check-bound", "vector.py", "if rows is not None and len(lam) > rows:",
     "if rows is not None and len(lam) >= rows:", "killed"),
    # verify compares vectors as plain data, so the tests must pin equality itself
    ("eq-always", "vector.py",
     "type(other) is type(self)\n            and self.ambient == other.ambient\n            and self.terms == other.terms",
     "type(other) is type(self)", "killed"),
    ("eq-keys-only", "vector.py", "and self.terms == other.terms", "and self.terms.keys() == other.terms.keys()",
     "killed"),
    ("multiply-schur-check", "symfunc.py", "    SchurVector._require(u)\n", "", "killed"),
    ("token-digit-class", "exprlang.py", r're.compile(r"[0-9]+|\S")', r're.compile(r"\d+|\S")', "killed"),
    ("foreign-check", "exprlang.py", "foreign = _FOREIGN.search(text)", "foreign = None", "killed"),
    ("error-position", "exprlang.py", "starts = [m.start() + 1 for m", "starts = [m.start() for m", "killed"),
    # each digit run converted only when the parser reads it: an over-long
    # literal after a syntax error is then never converted
    ("lazy-digit-runs", "exprlang.py",
     'self.tokens = [int(t) if "0" <= t < ":" else t for t in _TOKEN.findall(text)]',
     "class Lazy(list):\n"
     "            def __getitem__(self, i):\n"
     "                t = list.__getitem__(self, i)\n"
     '                return int(t) if type(t) is str and "0" <= t < ":" else t\n'
     "        self.tokens = Lazy(_TOKEN.findall(text))", "killed"),
    # the nullspace's output does not depend on which key a pivot clears
    ("pivot-key", "sl2_actions.py", "pivots.append((min(v), v, len(pivots)))",
     "pivots.append((max(v), v, len(pivots)))", "equivalent"),
]

COMMAND = [sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q", "-x",
           "--continue-on-collection-errors", "--hypothesis-profile", "mutate"]
OUTCOMES = {0: "equivalent", 1: "killed"}  # pytest's exit codes; any other is a broken run
LEFT_BEHIND = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "results")


def run(name, file, old, new, expected, scratch) -> bool:
    tree = scratch / name
    shutil.copytree(ROOT, tree, ignore=LEFT_BEHIND)
    path = tree / "src" / "sl2sym" / file
    text = path.read_text()
    if text.count(old) != 1:
        print(f"{name}: its old text occurs {text.count(old)} times in {file}, not once")
        return False
    path.write_text(text.replace(old, new))
    start = time.perf_counter()
    code = subprocess.run(COMMAND, cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    shutil.rmtree(tree)
    outcome = OUTCOMES.get(code, f"not run (pytest exit {code})")
    print(f"{name}: {outcome} ({time.perf_counter() - start:.1f} s), expected {expected}", flush=True)
    return outcome == expected


def main(names) -> int:
    known = {m[0] for m in MUTANTS}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    with tempfile.TemporaryDirectory() as scratch:
        failed = [m[0] for m in chosen if not run(*m, Path(scratch))]
    print(f"{len(chosen) - len(failed)}/{len(chosen)} mutants as expected"
          + (f"; not: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
