"""liqhedge benchmark: one workload per invocation, timed from outside.

    python3 perfbench/run.py --workload price-tree --seed 0 --seconds 30 --trace 0

Run from the root of a liqhedge source tree. The workload runs in fresh
worker processes (worker.py) with one caller and one BLAS thread:

* --trace 0: set-up is sampled SETUP_SAMPLES times (fresh processes, the
  last of which goes on to run the ops); prints the end-to-end metrics.
  Set-up and op times are scaled by host-speed probes (calib.py).
* --trace 1: one worker alternates untraced and traced ops and prints the
  per-layer metrics; spans are written to .perfbench/ at the end.

The last stdout line is the result object; the line before it is a record
of the machine, the samples and the op times. Metric names and units come
from BENCHMARK.json. Exit code 2 means the tree to benchmark is missing,
1 means a worker failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3
MIN_OPS = 3  # per kind: untraced ops, and traced ops when tracing
RUN_TIMEOUT_S = 170.0


class WorkerFailed(Exception):
    pass


def _env():
    env = dict(os.environ)
    # one caller, no extra threads; no bytecode written into the tree
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, extra, deadline):
    """Run one worker; returns (seconds from spawn to ready, its result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--min-ops", str(MIN_OPS), *extra]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    return out["ready"] - start, out


def main(argv=None):
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "liqhedge" / "__init__.py",
              ROOT / "demos" / "reference_config.json"]
    missing = [str(f.relative_to(ROOT)) for f in needed if not f.is_file()]
    if missing:
        print(f"perfbench: not a liqhedge source tree, missing {missing}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        spawned = [_spawn(args, ["--setup-only"], deadline)
                   for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        spawned.append(_spawn(args, [], deadline))
    except WorkerFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    out = spawned[-1][1]
    setup = [s for s, _ in spawned]
    # each set-up is scaled by the host probe its worker ran right after it
    setup_scaled = [s * o["setup_scale"] for s, o in spawned]

    if args.trace:
        values = out["layers"]
    else:
        values = {"setup_s": statistics.median(setup_scaled),
                  "op_scaled_p50_s": statistics.median(out["op_scaled_s"]),
                  "peak_rss_mb": out["peak_rss_mb"]}
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(values)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1

    attempted, failed = out["attempted"], out["failed"]
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": out["machine"],
        "setup_s": setup, "setup_scaled_s": setup_scaled,
        "op_s": out["op_s"], "traced_op_s": out["traced_op_s"],
        "op_scaled_s": out["op_scaled_s"], "host_probe_s": out["host_probe_s"],
        "fail_ratio": failed / attempted}}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
