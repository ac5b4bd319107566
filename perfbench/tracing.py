"""Span tracing installed from outside the library.

`Tracer.install` replaces, at run time, every public function of every
loaded `sl2sym` module under each name the package binds it to, and the
arithmetic methods of `Poly`, `SchurVector` and `DiagramVector`, with a
wrapper that records one span (name, start, end, parent).  Spans are kept
in memory as parallel arrays and written out at the end; `reduce` turns
them into the per-layer metrics listed in BENCHMARK.json.
"""

import functools
import inspect
import json
import statistics
import sys
import time
from array import array

LAYERS = ("polyring", "symfunc", "combinatorics", "sl2_actions", "young", "exprlang", "cli", "verify")
ARITHMETIC = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__")
VECTOR_CLASSES = (("polyring", "Poly"), ("symfunc", "SchurVector"), ("young", "DiagramVector"))
SUITES = ("commutators", "schur-action", "kernel", "identities", "tables", "kerov")

SYMFUNC_CACHES = ("schur_to_poly", "_basis_product", "z_generator_schur")


def _terms(value) -> int:
    return len(value.terms) if hasattr(value, "terms") else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _ctor(counter):
    def hook(counts, args, kwargs, result):
        counts[counter] += len(_arg(args, kwargs, 2, "terms") or ())
    return hook


def _multiply(counts, args, kwargs, result):
    counts["symfunc.multiply_calls"] += 1
    counts["symfunc.multiply_term_pairs"] += _terms(args[0]) * _terms(args[1])


def _poly_mul(counts, args, kwargs, result):
    if hasattr(args[1], "terms"):
        counts["polyring.mul_term_pairs"] += _terms(args[0]) * _terms(args[1])


def _calls(counter):
    def hook(counts, args, kwargs, result):
        counts[counter] += 1
    return hook


def _apply(prefix):
    def hook(counts, args, kwargs, result):
        counts[prefix + "_terms_in"] += _terms(_arg(args, kwargs, 1, "v"))
        counts[prefix + "_terms_out"] += _terms(result)
    return hook


def _named(counts, args, kwargs, result):
    counts["sl2_actions.act_terms_out"] += _terms(result)


def _rref(counts, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    counts["sl2_actions.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _nullspace(counts, args, kwargs, result):
    counts["sl2_actions.nullspace_vectors"] += len(result)


# Counters updated after a call returns, keyed by span name.
HOOKS = {
    "polyring.Poly.__init__": _ctor("polyring.ctor_terms_in"),
    "polyring.Poly.__mul__": _poly_mul,
    "symfunc.SchurVector.__init__": _ctor("symfunc.vector_ctor_terms_in"),
    "young.DiagramVector.__init__": _ctor("young.vector_ctor_terms_in"),
    "symfunc.multiply": _multiply,
    "combinatorics.addable_corners": _calls("combinatorics.corner_calls"),
    "combinatorics.removable_corners": _calls("combinatorics.corner_calls"),
    "combinatorics.gamma": _calls("combinatorics.gamma_calls"),
    "sl2_actions.act_rho1": _apply("sl2_actions.act"),
    "sl2_actions.act_rho2": _apply("sl2_actions.act"),
    "sl2_actions.act_rho1_named": _named,
    "sl2_actions.rational_rref": _rref,
    "sl2_actions.rational_nullspace": _nullspace,
    "young.hat_apply": _apply("young.apply"),
    "young.tilde_apply": _apply("young.apply"),
    "young.kerov_apply": _apply("young.apply"),
}
GENERATOR_COUNTERS = {"combinatorics.partitions": "combinatorics.partitions_yielded"}
COUNTERS = (
    "symfunc.multiply_calls", "symfunc.multiply_term_pairs",
    "symfunc.vector_ctor_terms_in", "young.vector_ctor_terms_in",
    "polyring.ctor_terms_in", "polyring.mul_term_pairs",
    "combinatorics.partitions_yielded", "combinatorics.corner_calls", "combinatorics.gamma_calls",
    "sl2_actions.act_terms_in", "sl2_actions.act_terms_out",
    "sl2_actions.rref_cells", "sl2_actions.nullspace_vectors",
    "young.apply_terms_in", "young.apply_terms_out",
)

# Self time (span minus children) summed over the named spans.
SELF_GROUPS = {
    "exprlang.evaluate_self_s": ("exprlang.evaluate",),
    "symfunc.multiply_self_s": ("symfunc.multiply",),
    "symfunc.vector_arith_s": tuple(
        f"symfunc.SchurVector.{m}" for m in ("__init__", "__add__", "__sub__", "__neg__", "__mul__")
    ),
    "sl2_actions.act_self_s": ("sl2_actions.act_rho1", "sl2_actions.act_rho2", "sl2_actions.act_rho1_named"),
    "sl2_actions.table_self_s": tuple(
        "sl2_actions." + f for f in (
            "character_finite", "decompose_finite", "decompose_lambda_n",
            "lowest_weight_space_rho2", "lowest_weight_basis_rho1", "vd_realization",
        )
    ),
    "young.apply_self_s": tuple(
        "young." + f for f in ("hat_apply", "tilde_apply", "kerov_apply", "nabla", "xi_minus")
    ),
}
# Wall time covered by the named spans, nested ones counted once.
INCLUSIVE_GROUPS = {
    "exprlang.parse_s": ("exprlang.parse",),
    "symfunc.schur_to_poly_s": ("symfunc.schur_to_poly",),
    "symfunc.poly_to_schur_s": ("symfunc.poly_to_schur",),
    "polyring.diffop_s": ("polyring.rho1_apply", "polyring.rho2_apply", "polyring.sigma_slice", "polyring.partial"),
    "combinatorics.gamma_s": ("combinatorics.gamma",),
    "sl2_actions.rref_s": ("sl2_actions.rational_rref",),
    "cli.format_s": ("cli.format_terms",),
    **{f"verify.{s}_s": ("verify.suite_" + s.replace("-", "_"),) for s in SUITES},
}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._undo = []

    def _intern(self, name) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self._intern(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        counts, clock = self.counts, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            counter = GENERATOR_COUNTERS.get(name)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    idx = len(name_of)
                    name_of.append(nid)
                    parent.append(stack[-1])
                    end.append(0.0)
                    stack.append(idx)
                    start.append(clock())
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = clock()
                        stack.pop()
                    if counter:
                        counts[counter] += 1
                    yield item

            return gen_wrapper

        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public sl2sym function at each module binding (module
        attributes and the values of module-level dicts such as verify's
        suite table), and the arithmetic methods of the vector classes."""
        modules = [m for key, m in sorted(sys.modules.items()) if key == "sl2sym" or key.startswith("sl2sym.")]
        wrappers = {}

        def wrapped(obj):
            home = getattr(obj, "__module__", None) or ""
            if inspect.isclass(obj) or not callable(obj) or not home.startswith("sl2sym."):
                return None
            if obj.__name__.startswith("_"):
                return None
            if id(obj) not in wrappers:
                wrappers[id(obj)] = self.wrap(obj, f"{home.split('.')[-1]}.{obj.__name__}")
            return wrappers[id(obj)]

        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if wrapped(value) is not None:
                            self._undo.append((obj.__setitem__, key, value))
                            obj[key] = wrapped(value)
                elif wrapped(obj) is not None:
                    self._undo.append((functools.partial(setattr, module), attr, obj))
                    setattr(module, attr, wrapped(obj))
        for layer, cls_name in VECTOR_CLASSES:
            cls = getattr(sys.modules["sl2sym." + layer], cls_name)
            for attr in ARITHMETIC:
                fn = vars(cls).get(attr)
                if fn is None:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self.wrap(fn, f"{layer}.{cls_name}.{fn.__name__}")
                self._undo.append((functools.partial(setattr, cls), attr, fn))
                setattr(cls, attr, wrappers[id(fn)])

    def uninstall(self):
        for put, key, original in reversed(self._undo):
            put(key, original)
        self._undo.clear()

    def spans(self):
        return self.names, self.name_of, self.parent, self.start, self.end

    def dump(self, path):
        """Write the spans: one JSON header line, then the four arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.name_of),
                      "arrays": ["name_of:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path):
    """Inverse of Tracer.dump: (names, name_of, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for spec in header["arrays"]:
            arr = array(spec.split(":")[1])
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return (header["names"], *arrays)


def self_times(name_of, parent, start, end) -> list:
    """Per span: its duration minus the durations of its direct children.
    Spans nest (one thread), so children never overlap each other."""
    covered = [0.0] * len(name_of)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(name_of))]


def reduce(names, name_of, parent, start, end, counts) -> dict:
    """Per-layer metrics of one traced process, in seconds and counts."""
    own = self_times(name_of, parent, start, end)
    per_name = [0.0] * len(names)
    for nid, t in zip(name_of, own):
        per_name[nid] += t
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for nid, t in enumerate(per_name):
        layer = names[nid].split(".")[0]
        if layer in LAYERS:
            metrics[layer + ".self_s"] += t
    ids = {name: nid for nid, name in enumerate(names)}
    for metric, members in SELF_GROUPS.items():
        metrics[metric] = sum(per_name[ids[m]] for m in members if m in ids)
    group_of = {}
    for metric, members in INCLUSIVE_GROUPS.items():
        metrics[metric] = 0.0
        for m in members:
            if m in ids:
                group_of[ids[m]] = metric
    for i, nid in enumerate(name_of):
        metric = group_of.get(nid)
        if metric is None:
            continue
        p = parent[i]
        while p >= 0 and group_of.get(name_of[p]) != metric:
            p = parent[p]
        if p < 0:
            metrics[metric] += end[i] - start[i]
    metrics.update(counts)
    return metrics


def cache_stats() -> dict:
    """cache_info() of the symfunc caches, keyed by attribute name; a cache
    that no longer exists is left out."""
    module = sys.modules["sl2sym.symfunc"]
    out = {}
    for attr in SYMFUNC_CACHES:
        obj = getattr(module, attr, None)
        while obj is not None and not hasattr(obj, "cache_info"):
            obj = getattr(obj, "__wrapped__", None)
        if obj is not None:
            info = obj.cache_info()
            out[attr] = [info.hits, info.misses, info.currsize]
    return out


def cache_metrics(stats: dict) -> tuple[dict, dict]:
    """Hit ratios and entry count from summed cache stats; the second dict
    names each metric that could not be read and why."""
    metrics, absent = {}, {}
    for metric, attr in (("symfunc.basis_product_hit_ratio", "_basis_product"),
                         ("symfunc.schur_to_poly_hit_ratio", "schur_to_poly")):
        if attr in stats:
            hits, misses = stats[attr][0], stats[attr][1]
            metrics[metric] = hits / (hits + misses) if hits + misses else 0.0
        else:
            metrics[metric] = 0.0
            absent[metric] = f"symfunc.{attr} has no cache_info()"
    metrics["symfunc.cache_entries"] = sum(s[2] for s in stats.values())
    if not stats:
        absent["symfunc.cache_entries"] = "no symfunc cache has cache_info()"
    return metrics, absent


def merge(parts: list) -> dict:
    """Sum per-process metrics; import times are summarised by their median."""
    out = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    imports = [p["cli.import_s"] for p in parts if "cli.import_s" in p]
    if imports:
        out["cli.import_s"] = statistics.median(imports)
    return out
