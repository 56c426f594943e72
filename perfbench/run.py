"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload tutorial_session --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root. Each run starts the workload's process
(``worker.py``) five times: four times only to set up, once to set up
and measure. ``setup_s`` is the median of the five start-to-ready times;
every other metric comes from the measuring process. With ``--trace 1``
the measuring process records spans and the result holds the per-layer
metrics instead of the end-to-end ones.

``--workload all`` runs every workload in turn and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when an output check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tutorial_session", "cleaning_pool", "serve_open_loop")
SETUPS = 5
RUN_TIMEOUT_S = 170.0        # for all of one workload's workers together


def _start(args, phase: str, deadline: float):
    """Start one worker; return (seconds until READY, process)."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--phase", phase]
    started = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
    # A worker that never gets ready is killed, which ends the loop.
    watchdog = threading.Timer(max(0.0, deadline - started), process.kill)
    watchdog.start()
    try:
        for line in process.stdout:
            if line.strip() == "READY":
                return time.perf_counter() - started, process
    finally:
        watchdog.cancel()
    process.wait()
    raise RuntimeError(f"{args.workload} worker exited with code "
                       f"{process.returncode} before it was ready")


def _finish(process, deadline: float, codes=(0,)) -> str:
    """Wait for a started worker; return its last output line."""
    try:
        out, _ = process.communicate(
            timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError("worker did not finish in time")
    if process.returncode not in codes:
        raise RuntimeError(f"worker exited with code {process.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    return lines[-1] if lines else ""


def run_one(args) -> dict:
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    setups = []
    for _ in range(SETUPS - 1):
        seconds, process = _start(args, "setup", deadline)
        _finish(process, deadline)
        setups.append(seconds)
    seconds, process = _start(args, "measure", deadline)
    setups.append(seconds)
    # Exit code 1 is a failed output check: the result is still printed.
    line = _finish(process, deadline, codes=(0, 1))
    if not line:
        raise RuntimeError("worker printed no result")
    result = json.loads(line)
    result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                    "unit": "s"}
    result["details"]["setup_runs_s"] = setups
    return result


def _print_table(workload: str, result: dict, trace: int) -> None:
    print(f"== {workload}: {result['ops']} operations, "
          f"{result['failed']} failed of {result['attempted']}, "
          f"correct={result['correct']}")
    if trace:
        for name, value in result["layers"].items():
            print(f"  {name:32s} {value:12.6g}")
        return
    for name, metric in result["metrics"].items():
        print(f"  {name:20s} {metric['value']:12.6g} {metric['unit']}")
    print(f"  {'op_p90_ms':20s} {result['details']['op_p90_ms']:12.6g} ms "
          "(not gated)")
    for act, value in result["details"].get("act_p50_ms", {}).items():
        print(f"  act {act:16s} {value:12.6g} ms (median)")
    for name in ("job_p50_ms", "job_p90_ms"):
        if name in result["details"]:
            print(f"  {name:20s} {result['details'][name]:12.6g} ms "
                  "(single jobs, not gated)")
    if "rss_growth_mb_per_pass" in result["details"]:
        print(f"  {'rss_growth':20s} "
              f"{result['details']['rss_growth_mb_per_pass']:12.6g} MB per "
              "pass (not gated)")
    host = result["details"]["host"]
    print(f"  host: nproc={host['nproc']} blas={host['blas']} "
          f"numpy={host['numpy']} python={host['python']} "
          f"loadavg={host['loadavg']} "
          f"calib_ms={result['details']['calib_ms']:.3f} "
          f"steal={result['details']['steal_ratio']:.4f}")


def _result_line(result: dict, trace: int) -> dict:
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["layers"].items()}
    else:
        metrics = result["metrics"]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "parallelism", "share_error")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = run_one(args)
        except RuntimeError as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 2
        _print_table(name, results[name], args.trace)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"results-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1))
    if len(results) == 1:
        line = _result_line(next(iter(results.values())), args.trace)
    else:
        lines = {name: _result_line(r, args.trace)
                 for name, r in results.items()}
        line = {"correct": all(r["correct"] for r in lines.values()),
                "attempted": sum(r["attempted"] for r in lines.values()),
                "failed": sum(r["failed"] for r in lines.values()),
                "metrics": {f"{name}/{metric}": value
                            for name, r in lines.items()
                            for metric, value in r["metrics"].items()}}
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
