#!/usr/bin/env python3
"""hazlab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload {pretrain,sweep,protocol,all} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports hazlab from ./src. The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""

import os
import time

START = time.perf_counter()
# pinned before numpy loads; every child process inherits it
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})


def _process_age() -> float:
    """Seconds since this process started, from /proc; 0 where unavailable."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


AGE = _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

END_TO_END = (("setup_s", "s"), ("latency_ms_p50", "ms"), ("latency_ms_p90", "ms"),
              ("throughput_per_s", "1/s"), ("peak_rss_mb", "MB"))
WORKLOAD_NAMES = ("pretrain", "sweep", "protocol")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(args.trace)]
                                ).returncode for w in WORKLOAD_NAMES]
        return max(codes)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "hazlab" / "__init__.py").is_file():
        print(f"hazlab sources not found under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import spans
    import workloads

    scratch = root / ".bench_tmp"
    tmp = scratch / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        run = workloads.Run(root=root, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                            tmp=tmp, start=START - AGE)
        if run.trace:
            run.tracer = spans.Tracer()
            spans.install(run.tracer)
        res = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()

    for msg in res.failures:
        print(f"failed operation: {msg}", file=sys.stderr)
    for msg in res.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, value, unit in res.aliases:
        print(f"{args.workload} {name} = {value} {unit}")
    units = spans.per_layer_names() + spans.OUTSIDE_NAMES if args.trace else END_TO_END
    values = res.per_layer if args.trace else res.end_to_end
    print(json.dumps({"correct": not res.errors, "attempted": res.attempted, "failed": res.failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
