"""Tests of the benchmark itself, outside the library's test suite:

    python3 -m pytest perfbench/tests -q
"""

from array import array
from fractions import Fraction

import pytest

import oracle
import tracing
import workloads
from worker import run_tasks


def labels(tasks):
    return [label for task in tasks for label, _ in task.ops]


@pytest.mark.parametrize("workload", ["product", "operators", "tables", "cli"])
def test_inputs_repeat_for_the_same_seed(workload):
    first = labels(workloads.build(workload, 7))
    assert first == labels(workloads.build(workload, 7))
    assert first != labels(workloads.build(workload, 8))


@pytest.mark.parametrize("workload", ["product", "operators", "tables", "cli"])
def test_a_batch_puts_ten_samples_beyond_p90(workload):
    assert len(labels(workloads.build(workload, 0))) >= 110


def corrupt(result):
    """The same result with one coefficient changed."""
    terms = dict(result.terms)
    lam = min(terms)
    terms[lam] += 1
    bound = result.n if hasattr(result, "n") else result.row_bound
    return type(result)(bound, terms)


def corrupt_kernel(vectors):
    """Change one coefficient of the first kernel vector with two terms or
    more; a one-term vector scaled is still a kernel vector."""
    k = next(i for i, v in enumerate(vectors) if len(v.vector.terms) > 1)
    return vectors[:k] + [vectors[k]._replace(vector=corrupt(vectors[k].vector))] + vectors[k + 1:]


def corrupt_first_op(task, change):
    label, op = task.ops[0]
    task.ops[0] = (label, lambda results: change(op(results)))


@pytest.mark.parametrize("workload, pick, change", [
    ("product", lambda t: t.ops[0][0].startswith("expr"), corrupt),
    ("operators", lambda t: "250 terms" in t.ops[0][0], corrupt),
    ("tables", lambda t: t.ops[0][0].startswith("gamma"), lambda r: [r[0] + 1] + r[1:]),
    ("tables", lambda t: t.ops[0][0].startswith("lowest_weight"), lambda r: corrupt_kernel(r)),
])
def test_a_changed_coefficient_counts_as_failed(workload, pick, change):
    tasks = [t for t in workloads.build(workload, 3) if pick(t)][:1]
    latencies, failed, errors, _ = run_tasks(tasks)
    assert failed == 0 and not errors
    corrupt_first_op(tasks[0], change)
    latencies, failed, errors, _ = run_tasks(tasks)
    assert 0 < failed <= len(latencies)
    assert "check failed" in errors[0]


def test_cli_output_is_compared_with_goldens():
    tasks = [t for t in workloads.build("cli", 3) if "decompose" in t.ops[0][0]][:1]
    _, failed, _, digests = run_tasks(tasks, with_digests=True)
    assert failed == 0
    _, failed, _, _ = run_tasks(tasks, goldens=digests)
    assert failed == 0
    corrupt_first_op(tasks[0], lambda out: out + b"\n")
    _, failed, errors, _ = run_tasks(tasks, goldens=digests)
    assert failed == 1 and "golden" in errors[0]


def test_oracle_agrees_with_direct_evaluation():
    point = oracle.Point((2, 3, 5))
    # s_(2,1)(x1,x2,x3) = sum over the 8 tableaux of shape (2,1)
    xs = point.xs
    direct = sum(xs[i] * xs[j] * xs[k] for i in range(3) for j in range(i, 3) for k in range(3) if k > i)
    assert point.schur((2, 1)) == direct
    assert point.schur_vector({(1,): Fraction(1, 2)}) == Fraction(10, 2)
    assert oracle.gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert sum(oracle.cayley_sylvester(3, 2, i) * (i + 1) for i in range(7)) == 10


def spans(rows):
    """(names, name_of, parent, start, end) from (name, parent, start, end) rows."""
    names = sorted({r[0] for r in rows})
    return (names, array("i", [names.index(r[0]) for r in rows]), array("i", [r[1] for r in rows]),
            array("d", [r[2] for r in rows]), array("d", [r[3] for r in rows]))


def test_self_time_of_a_synthetic_span_tree():
    tree = spans([
        ("sl2_actions.decompose_finite", -1, 0.0, 10.0),   # 0
        ("combinatorics.gamma", 0, 1.0, 4.0),               # 1
        ("combinatorics.gamma", 1, 2.0, 3.0),               # 2: nested, counted once in gamma_s
        ("polyring.Poly.__init__", 0, 5.0, 6.5),            # 3
        ("polyring.rho1_apply", -1, 11.0, 12.0),            # 4: a second root
    ])
    assert tracing.self_times(*tree[1:]) == [10.0 - 3.0 - 1.5, 2.0, 1.0, 1.5, 1.0]
    metrics = tracing.reduce(*tree, {"combinatorics.gamma_calls": 2})
    assert metrics["sl2_actions.self_s"] == 5.5
    assert metrics["sl2_actions.table_self_s"] == 5.5
    assert metrics["combinatorics.self_s"] == 3.0
    assert metrics["combinatorics.gamma_s"] == 3.0
    assert metrics["polyring.self_s"] == 2.5
    assert metrics["polyring.diffop_s"] == 1.0
    assert metrics["combinatorics.gamma_calls"] == 2
    assert metrics["young.self_s"] == 0.0


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    import sl2sym
    import sl2sym.cli  # noqa: F401
    import sl2sym.verify

    original = sl2sym.symfunc.multiply
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert sl2sym.multiply is sl2sym.symfunc.multiply is sl2sym.sl2_actions.multiply
        assert sl2sym.multiply is not original
        assert sl2sym.verify.SUITES["tables"] is sl2sym.verify.suite_tables
        u = sl2sym.SchurVector.basis(3, (1,))
        sl2sym.multiply(u, u)
        sl2sym.Poly.variable(2, 1) * sl2sym.Poly.variable(2, 2)
    finally:
        tracer.uninstall()
    assert sl2sym.multiply is original is sl2sym.symfunc.multiply
    tracer.dump(tmp_path / "t.spans")
    loaded = tracing.load_spans(tmp_path / "t.spans")
    assert [list(x) for x in loaded] == [list(x) for x in tracer.spans()]
    metrics = tracing.reduce(*loaded, tracer.counts)
    assert metrics["symfunc.multiply_calls"] == 1
    assert metrics["symfunc.multiply_term_pairs"] == 1
    assert metrics["polyring.mul_term_pairs"] >= 1
