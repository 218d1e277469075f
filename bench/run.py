"""kerdock3 benchmark: one workload per invocation, outputs checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, so nothing is installed.  Workloads (see ``workloads.py``):
``sample-stream``, ``pair-stats``, ``dense-oracle``, ``exact-chains``.

``--trace 0`` measures the end-to-end metrics, all with threads=1
(BLAS threads included):

- ``setup_s``: median of import plus the workload's ``setup()``
  (``FieldContext`` construction, table builds) in a fresh interpreter,
  timed once after each pass.
- ``wall_s``: median time of one pass of the timed section.  Passes
  repeat until about ``--seconds`` of passes are timed, at least three.
- ``samples_per_s``: samples per pass over ``wall_s``.  On
  ``exact-chains``, which samples nothing, the samples are the seeded
  random pairs whose orbit keys it computes.
- ``peak_rss_mb``: peak resident memory of this process.

Every pass's outputs are checked outside the timed section.  The
failure count is the ``failed`` field of the result, and the record
line before it holds ``failed_ratio``, the failed checks by name and
the provenance of the run.

``--trace 1`` measures the per-layer metrics instead; see ``layers.py``.
``--seconds`` does not apply to it.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Scratch files and traces go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sample-stream", "pair-stats", "dense-oracle", "exact-chains")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s",
                    "peak_rss_mb": "MB"}

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workloads.{workload!r}.setup()
print(time.perf_counter() - t0)
"""


def setup_seconds(wl) -> float:
    """Import plus ``wl.setup()`` in a fresh interpreter."""
    code = _SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), workload=wl)
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def end_to_end(wl, seed: int, seconds: float, workdir: str, checks):
    """Timed passes until about ``seconds`` of them, each checked after
    its timer stops and followed by one timed set-up in a fresh
    interpreter, so that set-up samples span the run."""
    import workloads

    env = workloads.prepare(wl, seed, workdir)
    times, setups = [], []
    while len(times) < MIN_PASSES or sum(times) + statistics.median(times) <= seconds:
        t0 = time.perf_counter()
        out = wl.run(env)
        times.append(time.perf_counter() - t0)
        wl.check(env, out, checks)
        setups.append(setup_seconds(wl))
    wall = statistics.median(times)
    metrics = {"setup_s": statistics.median(setups), "wall_s": wall,
               "samples_per_s": wl.samples / wall,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    return metrics, {"setup_runs_s": setups, "pass_s": times}


def provenance(wl, seed: int, trace: int) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():  # a source export has no .git
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                  capture_output=True, text=True)
            git_sha = proc.stdout.strip() or None
        except FileNotFoundError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "kerdock3").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": wl.name, "seed": seed, "trace": trace, **wl.provenance(),
            "git_sha": git_sha, "src_sha256": src_hash.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kerdock3" / "__init__.py").is_file():
        sys.stderr.write(f"error: no kerdock3 sources under {SRC}; "
                         "run from the root of a source checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    defaults = workloads.default_workloads()
    wl = defaults[args.workload]
    checks = workloads.Checks()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, detail = layers.traced_run(defaults, args.workload, args.seed, workdir,
                                                str(trace_path), checks)
            units = layers.PER_LAYER_UNITS
        else:
            metrics, detail = end_to_end(wl, args.seed, args.seconds, workdir, checks)
            units = END_TO_END_UNITS
    record = {**provenance(wl, args.seed, args.trace), **detail,
              "attempted": checks.attempted, "failed": checks.failed_count,
              "failed_ratio": checks.failed_count / checks.attempted,
              "failed_checks": dict(checks.failed)}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": checks.failed_count == 0, "attempted": checks.attempted,
                      "failed": checks.failed_count,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
