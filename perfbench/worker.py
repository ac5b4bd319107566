"""One round of a workload in a fresh interpreter, so every library cache
starts empty.  Started by run.py; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed S [--setup-only] [--spans DIR] [--goldens FILE] [--digests]

`t_ready` is this process's time.perf_counter() when the first operation
is ready; the parent, on the same monotonic clock, subtracts its spawn
time to get the set-up time.  `calibration` holds times of a fixed piece
of work (see Calibrator) taken before operations, or of three
interpreter starts after set-up with --setup-only, and `calibration_during` the median time of the loops
run during each operation, if at least three ran; the parent scales times
to a reference host speed from them.  With --spans the round is traced
and its spans are written under DIR.
"""

import argparse
import json
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUDGET_S = 30.0  # per operation; an operation over it counts as failed


def _calibration_loop():
    """About a millisecond of dict, tuple and Fraction work, the kind the
    library does."""
    acc = {}
    for i in range(500):
        key = (i % 7, i % 11, i % 5)
        acc[key] = acc.get(key, 0) + Fraction(i % 17, 1 + i % 5)
    return acc


def _interpreter_start():
    """A bare interpreter start, the fixed part of every cli operation."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


# How fast the host runs at a moment is told by the time of a fixed piece
# of work: the loop for workloads that run in this process, an
# interpreter start for the cli, whose operations are new processes.
CALIBRATIONS = {"loop": _calibration_loop, "start": _interpreter_start}


def calibrate(kind, samples) -> list:
    """Times of `samples` runs of the calibration work `kind`."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        CALIBRATIONS[kind]()
        times.append(time.perf_counter() - start)
    return times


class Calibrator:
    """Times the calibration work before every `every`-th operation (None
    for the others).  For the loop it also runs it from a SIGPROF handler
    every SAMPLE_CPU_S of CPU time during each operation, so that a long
    operation is scaled by the host's speed while it ran; the time spent
    in the handler is taken out of the operation's latency."""

    SAMPLE_CPU_S = 0.05

    def __init__(self, kind, every=1):
        self.kind, self.every = kind, every
        self.before, self.during = [], []
        self._inside, self._paused = [], 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _calibration_loop()
        self._inside.append(time.perf_counter() - start)
        self._paused += time.perf_counter() - start

    def start(self):
        due = len(self.before) % self.every == 0
        self.before.append(calibrate(self.kind, 1)[0] if due else None)
        self._inside, self._paused = [], 0.0
        if self.kind == "loop":
            signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, self.SAMPLE_CPU_S, self.SAMPLE_CPU_S)

    def stop(self) -> float:
        """End the operation; returns the time the handler took."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        inside = sorted(self._inside)
        self.during.append(inside[len(inside) // 2] if len(inside) >= 3 else None)
        return self._paused


class BudgetExceeded(Exception):
    pass


def _on_alarm(signum, frame):
    raise BudgetExceeded(f"over the {BUDGET_S:g} s budget")


def run_tasks(tasks, goldens=None, with_digests=False, calibrator=None):
    """Run and check every task.  Returns latencies, the number of failed
    operations, the first errors and, when asked for or compared with
    goldens, the digest of every result."""
    from workloads import digest

    want_digests = with_digests or goldens is not None
    latencies, digests, errors = [], [], []
    failed = 0
    signal.signal(signal.SIGALRM, _on_alarm)
    for task in tasks:
        results, bad = [], 0
        for label, op in task.ops:
            if calibrator:
                calibrator.start()
            start = time.perf_counter()
            paused = 0.0
            try:
                signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
                try:
                    result = op(results)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    if calibrator:
                        paused = calibrator.stop()
            except Exception as exc:  # any failure of the library counts, and the run goes on
                latencies.append(time.perf_counter() - start - paused)
                errors.append(f"{label}: {exc!r}"[:300])
                bad += 1
                break
            latencies.append(time.perf_counter() - start - paused)
            results.append(result)
            if not want_digests:
                continue
            index = len(digests)
            digests.append(digest(result))
            if goldens is not None and (index >= len(goldens) or goldens[index] != digests[-1]):
                errors.append(f"{label}: result differs from the golden")
                bad += 1
        else:
            if not task.check(results):
                errors.append(f"{task.ops[0][0]}: check failed")
                bad = len(task.ops)
        failed += bad
    return latencies, failed, errors[:5], digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="trace the round and write spans here")
    parser.add_argument("--goldens", type=Path, help="compare result digests with this file")
    parser.add_argument("--digests", action="store_true", help="report the digest of every result")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import sl2sym.cli  # noqa: F401  (loads every module of the package)
    import_s = time.perf_counter() - start
    if not Path(sl2sym.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"sl2sym was imported from {sl2sym.__file__}, not from {ROOT / 'src'}")

    import tracing
    import workloads

    context = None
    if args.workload == "cli":
        context = {"next": 0, "spans_dir": args.spans}
        tasks = workloads.build("cli", args.seed, context=context)
    else:
        tasks = workloads.build(args.workload, args.seed)
    tracer = None
    if args.spans is not None and args.workload != "cli":
        tracer = tracing.Tracer()
        tracer.install()
    t_ready = time.perf_counter()
    out = {"t_ready": t_ready, "import_s": import_s}
    kind = "start" if args.workload == "cli" else "loop"
    out["calibration_kind"] = kind
    if args.setup_only:
        # Set-up is mostly interpreter start and import, whatever the workload.
        out.update(calibration_kind="start", calibration=calibrate("start", 3))
        print(json.dumps(out))
        return 0

    goldens = json.loads(args.goldens.read_text())["digests"] if args.goldens else None
    calibrator = None if tracer else Calibrator(kind, every=2 if kind == "start" else 1)
    latencies, failed, errors, digests = run_tasks(tasks, goldens, args.digests, calibrator)
    if calibrator:
        out.update(calibration=calibrator.before, calibration_during=calibrator.during)
    out.update(
        latencies=latencies,
        attempted=len(latencies),
        failed=failed,
        errors=errors,
        digests=digests,
        maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        children_maxrss_kib=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        caches=tracing.cache_stats(),
    )
    if tracer is not None:
        tracer.uninstall()
        metrics = tracing.reduce(*tracer.spans(), tracer.counts)
        metrics["cli.import_s"] = import_s
        tracer.dump(args.spans / f"{args.workload}.spans")
        out["trace"] = metrics
    elif args.spans is not None:
        parts, caches = [], {}
        for index in range(context["next"]):
            part = json.loads((args.spans / f"cli-{index}.json").read_text())
            parts.append(part["metrics"])
            for name, stats in part["caches"].items():
                caches[name] = [a + b for a, b in zip(caches.get(name, [0, 0, 0]), stats)]
        out["trace"] = tracing.merge(parts)
        out["caches"] = caches
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
