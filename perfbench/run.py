"""The sl2sym benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare DIR_A DIR_B

A run is a closed loop with one caller.  It first starts SETUP_PROBES
fresh interpreters that import sl2sym and build the seeded inputs (the
set-up time is their median), then
repeats rounds, each a fresh interpreter (so the library caches start
empty, as for a user) that runs the seeded batch once and checks every
result.  Rounds repeat until the next one would end after S seconds.
Every round runs the same operations from the same cache state, so an
operation's latency is the median over rounds, which filters out the
host's short slow spells; throughput and percentiles are taken over those
per-operation medians.  Workloads, inputs and checks are in workloads.py.

A shared host, such as the 2-core x86-64 host at 2.0 GHz the reference
times below come from, changes speed by tens of percent within seconds
to minutes, for computation and process start alike (CPU time tracks
wall time, so it is not a matter of scheduling).  So every worker also
times a fixed piece of work (worker.Calibrator): a pure-Python loop of
about a millisecond just before each operation and, every 50 ms of CPU
time, during it; for the cli, whose operations are new processes, a
bare interpreter start before every second operation, and likewise
after each set-up probe, whose time is mostly interpreter start and
import.  Each time is reported scaled to the reference speed:
time * REFERENCE_CALIBRATION_S[kind] / calibration time, where the
calibration time is the median of the loops run during the operation,
or else the median of the samples taken within CALIBRATION_WINDOW
operations of it.  A change to the library moves the scaled times as it
moves the raw ones; a change in the host's speed does not.  The raw
values are kept in the result file.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 rounds alternate untraced and traced,
and the JSON holds the per-layer metrics of the traced rounds (medians).
Every run also writes its result set, with provenance, to
perfbench/results/ (or --out).  --compare reads two such directories and
prints, per workload and end-to-end metric, each side's median and
quartiles, the pair wins and a verdict under the bounds in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import BUDGET_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
# Median times of worker.CALIBRATIONS on a 2-core x86-64 host at 2.0 GHz
# with Python 3.11, measured while the host was quiet.
REFERENCE_CALIBRATION_S = {"loop": 0.00125, "start": 0.045}
CALIBRATION_WINDOW = 10  # operations on each side
RUN_LIMIT_S = 170.0  # a run must end within 180 s
WORKLOADS = ("product", "operators", "tables", "cli")
DEFAULT_SEED = 0  # the seed whose results are compared with goldens/


class RunError(Exception):
    pass


def spawn(args, deadline):
    """Start one worker; return its JSON with setup_s and wall_s added."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(args)} passed the run's time limit")
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - start
    out["wall_s"] = time.perf_counter() - start
    return out


def percentile(values, q):
    """The q-th percentile (1..99) by statistics.quantiles, inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    """sha256 over src/sl2sym/*.py, naming the code measured when there is no git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sl2sym").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def scaled(result, raw):
    """A round's operation times, scaled to the reference speed unless raw."""
    times = result["latencies"]
    if raw:
        return times
    reference = REFERENCE_CALIBRATION_S[result["calibration_kind"]]
    before, during = result["calibration"], result["calibration_during"]
    w = CALIBRATION_WINDOW
    return [t * reference / (during[i] or statistics.median(
                c for c in before[max(0, i - w):i + w + 1] if c is not None))
            for i, t in enumerate(times)]


def setup_time(result, raw):
    if raw:
        return result["setup_s"]
    reference = REFERENCE_CALIBRATION_S[result["calibration_kind"]]
    return result["setup_s"] * reference / statistics.median(c for c in result["calibration"] if c is not None)


def per_op_latencies(rounds, raw=False):
    """Each operation's median latency over the rounds."""
    return [statistics.median(times) for times in zip(*(scaled(r, raw) for r in rounds))]


def end_to_end(workload, probes, rounds, raw=False):
    latencies = per_op_latencies(rounds, raw)
    # Peak RSS of the round's process, or for the cli of its largest command.
    rss_key = "children_maxrss_kib" if workload == "cli" else "maxrss_kib"
    return {
        "setup_s": (statistics.median(setup_time(r, raw) for r in probes), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "peak_rss_mib": (statistics.median(r[rss_key] for r in rounds) / 1024, "MiB"),
    }


def per_layer(untraced, traced):
    import tracing

    metrics = {}
    for key in traced[0]["trace"]:
        metrics[key] = statistics.median(r["trace"][key] for r in traced)
    caches = {}
    for r in traced:
        for name, stats in r["caches"].items():
            caches.setdefault(name, []).append(stats)
    median_stats = {name: [statistics.median(s[i] for s in runs) for i in range(3)] for name, runs in caches.items()}
    cache_metrics, absent = tracing.cache_metrics(median_stats)
    metrics.update(cache_metrics)
    metrics["trace.overhead_ratio"] = (statistics.median(sum(r["latencies"]) for r in traced)
                                       / statistics.median(sum(r["latencies"]) for r in untraced))
    units = {}
    for key in metrics:
        units[key] = "s" if key.endswith("_s") else "ratio" if key.endswith("_ratio") else "count"
    return {k: (metrics[k], units[k]) for k in sorted(metrics)}, absent


def run(args):
    if not (ROOT / "src" / "sl2sym" / "__init__.py").is_file():
        raise RunError(f"no sl2sym sources under {ROOT / 'src'}")
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    load_before = os.getloadavg()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    goldens = HERE / "goldens" / f"{args.workload}.json"
    round_args = list(common)
    if args.seed == DEFAULT_SEED and goldens.is_file():
        round_args += ["--goldens", str(goldens)]
    spans_dir = args.out / "spans" / args.workload
    if args.trace:
        spans_dir.mkdir(parents=True, exist_ok=True)

    probes = [spawn(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    rounds, traced = [], []
    while True:
        rounds.append(spawn(round_args, deadline))
        if args.trace:
            traced.append(spawn(round_args + ["--spans", str(spans_dir)], deadline))
        elapsed = time.perf_counter() - started
        per_round = (elapsed - sum(p["wall_s"] for p in probes)) / len(rounds)
        if elapsed + per_round > min(args.seconds, RUN_LIMIT_S):
            break

    raw = end_to_end(args.workload, probes, rounds, raw=True)
    if args.trace:
        metrics, absent = per_layer(rounds, traced)
    else:
        metrics, absent = end_to_end(args.workload, probes, rounds), {}
    every = rounds + traced
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    latencies = per_op_latencies(rounds, raw=True)
    p90 = percentile(latencies, 90)
    extra = {
        "failed_ops_ratio": failed / attempted,
        "latency_samples": len(latencies),
        "samples_beyond_p90": sum(1 for t in latencies if t > p90),
    }
    loops = [t for r in probes + rounds for t in r["calibration"] if t is not None]
    caches = rounds[0]["caches"]
    basis = caches.get("_basis_product")
    provenance = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "setup_probes": SETUP_PROBES,
        "op_budget_s": BUDGET_S,
        "calibration_median_s": statistics.median(loops),
        "reference_calibration_s": REFERENCE_CALIBRATION_S[rounds[0]["calibration_kind"]],
        "product_repeat_share": (basis[0] / (basis[0] + basis[1]) if args.workload == "product" and basis
                                 and basis[0] + basis[1] else None),
        "goldens_checked": "--goldens" in round_args,
    }
    errors = [e for r in rounds + traced for e in r["errors"]][:10]
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        **extra,
        "absent": absent,
        "errors": errors,
        "provenance": provenance,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (args.out / name).write_text(json.dumps(result, indent=1))

    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} {value:.6g} {unit}")
    for key, (value, unit) in raw.items():
        print(f"{args.workload} raw {key} {value:.6g} {unit} (not scaled to the reference speed)")
    for key, value in extra.items():
        print(f"{args.workload} {key} {value:.6g}")
    for key, why in absent.items():
        print(f"{args.workload} {key} absent: {why}")
    for error in errors:
        print(f"{args.workload} error: {error}")
    print(f"{args.workload} provenance {json.dumps(provenance)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))


def load_set(directory):
    """{workload: [result, ...]} of the untraced results in a directory."""
    out = {}
    for path in sorted(Path(directory).glob("*.json")):
        result = json.loads(path.read_text())
        if not result.get("trace"):
            out.setdefault(result["workload"], []).append(result)
    for runs in out.values():
        runs.sort(key=lambda r: r["provenance"]["seed"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec, a, b):
    """Judge B against A for one metric."""
    sign = 1 if spec["better"] == "lower" else -1

    def better(x, y):
        return sign * (y - x) < 0

    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if better(x, y))
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    worse_by = sign * (bm - am) / am
    every = None
    if all(better(x, y) for x in a for y in b):
        every = "better in every run"
    elif all(better(y, x) for x in a for y in b):
        every = "worse in every run"
    if spread > spec["bound"]:
        text = every or "unresolved"
    elif worse_by > spec["bound"]:
        text = "regression"
    elif worse_by < 0 and wins >= 0.9 * len(pairs) and abs(bm - am) > a3 - a1:
        text = "improved"
    else:
        text = "no change"
    return (a1, am, a3), (b1, bm, b3), wins, len(pairs), text


def compare(dir_a, dir_b):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    print(f"A = {dir_a}, B = {dir_b}; quartiles q1/median/q3; wins = pairs where B is better")
    for workload in WORKLOADS:
        if workload not in set_a or workload not in set_b:
            continue
        print(f"{workload}: {len(set_a[workload])} runs in A, {len(set_b[workload])} in B")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in set_a[workload]]
            b = [r["metrics"][name]["value"] for r in set_b[workload]]
            qa, qb, wins, pairs, text = verdict(metric, a, b)
            print(f"  {name:16s} A {qa[0]:.4g}/{qa[1]:.4g}/{qa[2]:.4g}  B {qb[0]:.4g}/{qb[1]:.4g}/{qb[2]:.4g}"
                  f"  wins {wins}/{pairs}  bound {metric['bound']:g}: {text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results", help="directory for result sets")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        run(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
