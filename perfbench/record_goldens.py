"""Capture goldens/<workload>.json: the digest of every result at the
default seed, in operation order.  Runs at that seed compare against
these, so re-record only when a result is meant to change.

    python3 perfbench/record_goldens.py [WORKLOAD ...]
"""

import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    for workload in argv or WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(DEFAULT_SEED), "--digests"],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if out["failed"]:
            raise SystemExit(f"{workload}: {out['failed']} operations failed: {out['errors']}")
        path = HERE / "goldens" / f"{workload}.json"
        path.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": out["digests"]}, indent=0) + "\n")
        print(f"{workload}: {len(out['digests'])} digests -> {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
