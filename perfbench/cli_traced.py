"""`python -m sl2sym.cli` with the benchmark's tracer installed.

    python3 perfbench/cli_traced.py OUT ARGS...

Runs the cli on ARGS with unchanged stdout and exit code, then writes the
spans to OUT.spans and the reduced per-layer metrics and cache statistics
to OUT.json.
"""

import json
import sys
import time
from pathlib import Path

import tracing


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    import sl2sym.cli
    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = sl2sym.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        metrics = tracing.reduce(*tracer.spans(), tracer.counts)
        metrics["cli.import_s"] = import_s
        tracer.dump(out.with_suffix(".spans"))
        out.with_suffix(".json").write_text(json.dumps({"metrics": metrics, "caches": tracing.cache_stats()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
