"""Pin the sha256 of the sample-stream JSONL and the pair-stats report.

    python3 bench/pin_digests.py

Writes ``bench/digests.json`` for seeds 0-31 at the default workload
sizes.  The pins are criterion 11 at benchmark scale: a change
to the program that alters either artifact fails the benchmark's
``pinned-sha256`` check, so re-pin only for an intended stream change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402

SEEDS = range(32)


def main() -> int:
    pins = {}
    defaults = workloads.default_workloads()
    out_dir = BENCH.parent / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        for name in ("sample-stream", "pair-stats"):
            wl = defaults[name]
            digests = {}
            for seed in SEEDS:
                env = workloads.prepare(wl, seed, workdir)
                digests[str(seed)] = wl.digest(env, wl.run(env))
            pins[name] = {wl.pin_key(): digests}
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
