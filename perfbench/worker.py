"""One benchmark process: set up a workload, then (unless ``--phase
setup``) run it, check its outputs, and print one JSON line.

``run.py`` starts this several times per run and times each start up to
the ``READY`` line, so ``setup_s`` covers interpreter start, ``import
repro``, input generation, warm-up, and pool or server start.

    python3 perfbench/worker.py --workload tutorial_session --seed 1 \\
        --seconds 20 --trace 0 --phase measure
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_IMPORT_START = time.perf_counter()
import repro  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _IMPORT_START

import numpy as np  # noqa: E402

import host  # noqa: E402
import tracing  # noqa: E402
from workloads import SLO_MS, WORKLOADS  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--phase", choices=("setup", "measure"),
                        default="measure")
    args = parser.parse_args(argv)

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workers = host.nproc()
    workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir,
                                        workers)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.phase == "setup":
            return 0
        return _measure(workload, args, workers)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, args, workers: int) -> int:
    tracer = None
    span_cost = 0.0
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        span_cost = tracing.calibrate_span_cost(tracer)

    steal_start, jiffies_start = host.cpu_jiffies()
    cpu_start = _cpu_seconds()
    wall_start = time.perf_counter()
    workload.run()
    wall = time.perf_counter() - wall_start
    cpu = _cpu_seconds() - cpu_start
    steal_end, jiffies_end = host.cpu_jiffies()
    steal_ratio = (steal_end - steal_start) / max(1, jiffies_end
                                                  - jiffies_start)
    if tracer is not None:
        tracer.uninstall()

    problems = workload.check()
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    latencies = np.asarray(workload.latencies_ms)
    ops = len(latencies)
    attempted = ops + workload.failed + 1            # + the output check
    failed = workload.failed + len(problems)
    slo = SLO_MS[args.workload]
    within = int(np.sum(latencies <= slo))
    # A closed loop reports the median CPU time of its operations, so a
    # host stall during one of them moves one sample; the open loop's
    # jobs overlap, so it reports the timed phase's CPU time per burst.
    cpu_per_op = float(np.median(workload.op_cpu_s)) if workload.op_cpu_s \
        else cpu / max(1, ops)
    metrics = {
        "op_p50_ms": (float(np.percentile(latencies, 50)), "ms"),
        "slo_met_ratio": (within / (ops + workload.failed), "ratio"),
        "cpu_s": (cpu_per_op, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
    }
    metrics.update({name: (value, "ratio")
                    for name, value in workload.summary().items()})

    facts = host.facts()
    layers = {}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        hits = misses = retries = 0
        for runtime in workload.runtimes():
            if runtime.cache is not None:
                hits += runtime.cache.stats.memory_hits \
                    + runtime.cache.stats.disk_hits
                misses += runtime.cache.stats.misses
            retries += runtime.executor.fault_stats.retries
        layers["runtime.cache_hit_ratio"] = \
            hits / (hits + misses) if hits + misses else 0.0
        layers["runtime.retries"] = retries
        layers.update(workload.layer_extras())
        layers["setup.import_s"] = IMPORT_S
        layers["host.calib_ms"] = float(np.median(workload.calib_ms))
        layers["host.blas_threads"] = facts["blas_threads"]
        layers["trace.overhead_ratio"] = \
            len(tracer.spans) * span_cost / wall
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{args.workload}-{args.seed}.jsonl.gz")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "ops": ops,
        "wall_s": wall,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "layers": layers,
        "details": dict(workload.details, import_s=IMPORT_S,
                        op_p90_ms=float(np.percentile(latencies, 90)),
                        calib_ms=float(np.median(workload.calib_ms)),
                        steal_ratio=steal_ratio, workers=workers,
                        host=facts),
    }), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
