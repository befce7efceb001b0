"""Run one flowmoe benchmark workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 25 --trace 0

The workload is set up several times (the median is ``setup_s``), run once
to warm up and to record reference output hashes, then run pass after pass
until ``--seconds`` have gone by. With ``--trace 0`` it reports every
end-to-end metric of ``BENCHMARK.json``: median pass time, throughput as
work over the median stage time of a pass, and accuracy. With
``--trace 1`` passes alternate between untraced and traced and it reports
every per-layer metric of ``BENCHMARK.json``: medians over the traced
passes, 0 for a layer the workload never calls, and ``trace_overhead_s``,
the difference of the two medians of pass wall time. The last line of
standard output is the result object; the line before it records the
environment and the workload's own per-stage figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads():
    """One BLAS/OpenMP thread unless set to at most the usable CPUs.

    The matrices are small (batch <= 128 against 912x256 towers), so a
    second BLAS thread gains little and makes the timings depend on what
    else runs on the other CPU. Must run before numpy is imported.
    """
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= n:
            os.environ[var] = "1"


def environment():
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class SetupFailed(Exception):
    pass


def measure(workload_cls, seed, seconds, trace, work, scale):
    """Set up, warm up and run passes; returns (result, details)."""
    from perfbench import workloads
    from perfbench.tracer import Tracer, pass_metrics

    setup_s, setup_hashes, attempted = [], [], 0
    for k in range(SETUP_REPEATS):
        workload = workload_cls(seed, scale)
        op = workloads.Pass()
        start = time.perf_counter()
        (work / f"setup{k}").mkdir(parents=True)
        workload.setup(work / f"setup{k}", op)
        setup_s.append(time.perf_counter() - start)
        if op.failed:
            raise SetupFailed("; ".join(op.reasons))
        attempted += op.attempted
        setup_hashes.append(op.hashes)
    failed = sum(1 for h in setup_hashes[1:] if h != setup_hashes[0])
    reasons = ["setup outputs differ between repeats"] if failed else []

    reference = {}
    warmup = workloads.Pass()
    workload.run_pass(warmup)
    workloads.check_repeats(reference, warmup)
    done = [warmup]

    plain, traced = [], []          # (Pass, wall seconds, per-layer metrics)
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or not plain
           or (trace and not traced)):
        tracer = Tracer() if trace and len(plain) > len(traced) else None
        op = workloads.Pass(tracer)
        start = time.perf_counter()
        if tracer is None:
            workload.run_pass(op)
            plain.append((op, time.perf_counter() - start, None))
        else:
            with tracer.installed():
                workload.run_pass(op)
            traced.append((op, time.perf_counter() - start,
                           pass_metrics(tracer)))
        workloads.check_repeats(reference, op)
        done.append(op)
    if not trace and hasattr(workload, "top_up_single_calls"):
        workload.top_up_single_calls([p for p, _w, _m in plain])

    attempted += sum(p.attempted for p in done)
    failed += sum(p.failed for p in done)
    reasons += [r for p in done for r in p.reasons]

    details = {"passes": len(plain) + len(traced), "setup_s": setup_s,
               "ops_failed_ratio": failed / attempted,
               "failures": reasons[:20]}
    spec = manifest()
    if trace:
        measured = {}
        for key in {k for _p, _w, m in traced for k in m}:
            measured[key] = statistics.median(
                m[key] for _p, _w, m in traced if key in m)
        measured["trace_overhead_s"] = (
            statistics.median(w for _p, w, _m in traced)
            - statistics.median(w for _p, w, _m in plain))
        declared = spec["per_layer"]
        details["undeclared_metrics"] = sorted(
            set(measured) - {m["name"] for m in declared})
        # a layer the workload never calls did no work and took no time
        measured = {m["name"]: 0 for m in declared} | measured
    else:
        passes = [p for p, _w, _m in plain]
        measured, details["stages"] = workload.end_to_end(passes)
        measured["pass_s"] = statistics.median(w for _p, w, _m in plain)
        measured["setup_s"] = statistics.median(setup_s)
        measured["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        measured["ops_ok_ratio"] = (attempted - failed) / attempted
        declared = spec["end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": measured[m["name"]],
                                      "unit": m["unit"]}
                          for m in declared}}
    return result, details


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("train", "fuse", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    for needed in (ROOT / "src" / "flowmoe" / "__init__.py",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            print(f"perfbench: error: {needed} not found", file=sys.stderr)
            return 2
    limit_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, details = measure(workloads.WORKLOADS[args.workload],
                                  args.seed, args.seconds, bool(args.trace),
                                  work, workloads.Scale())
    except SetupFailed as exc:
        print(f"perfbench: error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass                    # another run still uses it
    for reason in details["failures"]:
        print(f"perfbench: failed: {reason}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "environment": environment(),
                      **details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
