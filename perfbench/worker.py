"""One workload in one fresh process: set up, then run ops in a closed loop.

Started by run.py, never by hand. With --setup-only the worker stops once
the first op would be ready and the host probe after set-up has run;
run.py uses that to sample set-up time. The last stdout line is one JSON
object; diagnostics go to stderr.

Every op is timed between two host-speed probes (calib.py), which give its
scaled time; the probe after one op is the probe before the next. With
--trace 1 ops alternate untraced and traced, so both medians come from the
same process. The layer probes of a workload run after each traced op,
outside the op's span and its host probes.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--min-ops", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    t0 = time.perf_counter()
    import liqhedge  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - t0

    import calib
    from spans import NullTracer, Tracer, layer_metrics
    from workloads import WORKLOADS, load_reference

    wl = WORKLOADS[args.workload]
    null = NullTracer()
    tr = Tracer() if args.trace else null
    tr.op_id = "setup"
    ctx = wl.setup(args.seed, tr)
    # time.monotonic is CLOCK_MONOTONIC, shared by every process on the host
    ready = time.monotonic()
    calib.probe()  # warm-up, untimed
    # the probe right after set-up scales it; it is also the one before
    # the first op, and one more follows each op
    host_s = [calib.probe()]
    setup_scale = calib.REF_S / host_s[0]
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    ref = load_reference()[args.workload]
    untraced, traced, traced_ids = [], [], []
    scaled = {False: [], True: []}
    failed = 0
    need = args.min_ops * (2 if args.trace else 1)
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < need or time.perf_counter() < deadline:
        traced_op = bool(args.trace) and i % 2 == 1
        t = tr if traced_op else null
        t.op_id = i
        try:
            start = time.perf_counter()
            with t.span("op"):
                summary = wl.op(ctx, t, i)
            dur = time.perf_counter() - start
            bad = wl.check(summary, ref, args.seed, i)
            del summary
        except Exception:
            traceback.print_exc()
            dur, bad = None, ["op raised"]
        host_s.append(calib.probe())
        if bad:
            failed += 1
            print(f"op {i} failed: {'; '.join(bad)}", file=sys.stderr)
        if dur is not None:
            (traced if traced_op else untraced).append(dur)
            scaled[traced_op].append(calib.scaled(dur, *host_s[-2:]))
        if traced_op:
            traced_ids.append(i)
            if wl.probe is not None:
                wl.probe(ctx, tr, i)
        i += 1

    if not untraced or (args.trace and not traced):
        print("no op completed", file=sys.stderr)
        return 1
    out = {"ready": ready, "setup_scale": setup_scale, "attempted": i, "failed": failed,
           "op_s": untraced, "traced_op_s": traced, "host_probe_s": host_s,
           "op_scaled_s": scaled[False],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "machine": machine_record()}
    if args.trace:
        out["layers"] = layer_metrics(tr, traced_ids, "setup", import_s, traced,
                                      untraced, scaled[True], scaled[False], host_s)
        dump = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"], "spans": tr.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
