"""Single-stream CNN inference benchmark for nanoinfer.

  python3 perfbench/run.py --workload resnet-64 --seed 1 --seconds 35 --trace 0

One process, one closed-loop caller, batch 1, sessions built with one
thread. Every inference is checked against an independent float64
reference evaluator.

--trace 0 prints the end-to-end metrics: latency p90, set-up time (median
over fresh interpreters), pool and heap bytes, the worst relative error (as
bits of accuracy) and the share of inferences that succeeded. Latency p50,
images per second and the raw worst error are printed in the table too, but
are not part of the JSON result, which holds only the bounded metrics.
--trace 1 takes turns between untraced and traced inferences, then runs a
session with one thread per core, prints the per-layer metrics, and writes
spans, the estimate-vs-measured table and the scheme-regret table to
perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; lines before it give a machine
record and a readable table with sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

if __name__ == "__main__" and not (SRC / "nanoinfer" / "__init__.py").is_file():
    sys.exit(f"run.py: engine source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from nanoinfer import CpuBackend, Session  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
from measure import (  # noqa: E402
    TOLERANCE, Samples, Workload, closed_loop, cpu_steal, heap_peak_bytes,
    setup_probes, warm_up,
)

WORKLOAD_NAMES = ("mobilenet-32", "resnet-32", "resnet-64")
# One thread per session: on a 2-vCPU guest whose host steals CPU time, a
# 2-thread session measured 12-30 ms p50 on mobilenet-32 against a steady
# 7-9 ms at one thread. The worker pool is still timed, in the traced run.
SESSION_THREADS = 1
SETUP_PROBES = 9  # fresh interpreters per run; set-up is their median
LAYER_PROBES = 5


def machine_record(threads: int) -> dict:
    """Facts without which numbers from two machines must not be compared."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "session_threads": threads,
        "git_commit": commit,
    }


def metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(w: Workload, seconds: float) -> tuple[dict, dict, int, int]:
    warm_up(w)
    # the set-up probes are spread over the timed phase, so that setup_s, like
    # latency, is a median over the phase's host conditions; the caller waits
    # while a probe runs, and the wait is not part of the phase
    setup = []
    s = Samples()
    steal0 = cpu_steal()
    for _ in range(SETUP_PROBES):
        (probe,) = setup_probes(w, "pipeline", 1)
        setup.append(probe["ms"]["setup"] / 1e3)
        (part,) = closed_loop(w, seconds / SETUP_PROBES,
                              [lambda x, _: w.session.run(x)])
        s.add(part)
    steal1 = cpu_steal()
    heap = heap_peak_bytes(w)
    done = len(s.latencies_ms)
    metrics = {
        "latency_p90_ms": metric(s.percentile(90), "ms", done),
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "pool_bytes": metric(w.pool_bytes, "bytes", 1),
        "heap_peak_bytes": metric(statistics.median(heap), "bytes", len(heap)),
        "accuracy_bits": metric(-math.log2(max(s.errors)), "bits",
                                len(s.errors)),
        "ok_share": metric((s.attempted - s.failed) / s.attempted, "share",
                           s.attempted),
    }
    # Reported without a bound. The raw error gates correctness; across seeds
    # it spreads too widely (a few float32 ulps) to carry a bound, so the
    # bound is on its log. p50 and the rate follow the host's speed, which
    # changes by up to 1.8x for minutes at a time; p90 stays within 0.15.
    raw = {"max_rel_error": metric(max(s.errors), "ratio", len(s.errors)),
           "latency_p50_ms": metric(s.percentile(50), "ms", done),
           "images_per_s": metric(s.rate(), "1/s", done)}
    if steal0 and steal1:  # CPU time the host took from this guest
        raw["host_steal_share"] = metric(
            (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1), "share", 1)
    return metrics, raw, s.attempted, s.failed


def traced(w: Workload, seconds: float, trace_path: Path) -> tuple[dict, int, int, dict]:
    pipeline = setup_probes(w, "pipeline", LAYER_PROBES)
    components = setup_probes(w, "components", LAYER_PROBES)

    def setup_ms(results, name):
        return statistics.median(r["ms"][name] for r in results)

    warm_up(w)
    spans: list[dict] = []
    runs: list[tuple[float, list]] = []
    origin = time.perf_counter()

    def untraced_run(x, _):
        return w.session.run(x)

    def traced_run(x, rid):
        start = time.perf_counter()
        outputs, steps = w.session.run_timed(x)
        end = time.perf_counter()
        runs.append(((end - start) * 1e3, steps))
        t0 = (start - origin) * 1e3
        spans.append({"id": f"{rid}", "name": "backend.run", "parent": None,
                      "request": rid, "start_ms": t0,
                      "end_ms": (end - origin) * 1e3})
        # run_timed reports durations only: steps are laid back to back from
        # the run's start, so the gaps between them sit at the end of the run
        for name, ms in steps:
            spans.append({"id": f"{rid}/{name}", "name": f"step:{name}",
                          "parent": f"{rid}", "request": rid,
                          "start_ms": t0, "end_ms": t0 + ms})
            t0 += ms
        return outputs

    # the same plan at one thread per core, so kernels run on the worker pool
    pool_backend = CpuBackend()
    pooled = Session(w.plan, [pool_backend],
                     threads=len(os.sched_getaffinity(0)))
    for x in w.inputs:
        pooled.run(x)

    hits0, recomputes0 = w.plan.weight_cache.hits, w.plan.weight_cache.recomputes
    allocs0 = w.backend.alloc_count + pool_backend.alloc_count
    # the pooled session gets its own phase: its worker threads would
    # otherwise take CPU from the one-thread runs that follow them
    try:
        plain, trace = closed_loop(w, seconds * 0.75, [untraced_run, traced_run])
        (pool,) = closed_loop(w, seconds * 0.25, [lambda x, _: pooled.run(x)])
    finally:
        pooled.close()
    n_runs = plain.attempted + trace.attempted + pool.attempted
    hits = (w.plan.weight_cache.hits - hits0) / n_runs
    recomputes = (w.plan.weight_cache.recomputes - recomputes0) / n_runs
    allocs = (w.backend.alloc_count + pool_backend.alloc_count - allocs0) / n_runs
    heap = heap_peak_bytes(w)

    layer_ms, op_ms = layers.step_breakdown(w.plan, runs)
    estimates, estimate_ratio = layers.estimate_table(w.plan, op_ms)
    regret_rows, regret, fastest = layers.scheme_regret(w.plan, w.refs[0],
                                                        w.threads)
    n = len(runs)
    m = {
        "graph.load_ms": metric(setup_ms(pipeline, "graph.load"), "ms", len(pipeline)),
        "graph.fuse_ms": metric(setup_ms(pipeline, "graph.fuse"), "ms", len(pipeline)),
        "preinference.pre_infer_ms": metric(
            setup_ms(pipeline, "preinference.pre_infer"), "ms", len(pipeline)),
        "preinference.select_schemes_ms": metric(
            setup_ms(components, "preinference.select_schemes"), "ms", len(components)),
        "preinference.plan_memory_ms": metric(
            setup_ms(components, "preinference.plan_memory"), "ms", len(components)),
        "preinference.scratch_share": metric(layers.scratch_share(w.plan), "share", 1),
        "preinference.scheme_regret_ms": metric(regret, "ms", len(regret_rows)),
        "preinference.fastest_share": metric(fastest, "share", len(regret_rows)),
        "preinference.estimate_ratio": metric(estimate_ratio, "ratio", len(estimates)),
        "winograd.generate_ms": metric(
            setup_ms(components, "winograd.generate"), "ms", len(components)),
        "winograd.weight_transform_ms": metric(
            setup_ms(components, "winograd.weight_transform"), "ms", len(components)),
        "winograd.conv_ms": metric(layer_ms["winograd.conv_ms"], "ms", n),
        "winograd.pad_waste": metric(layers.pad_waste(w.plan), "share", 1),
        "winograd.cache_hits_per_run": metric(hits, "count", n_runs),
        "winograd.cache_recomputes_per_run": metric(recomputes, "count", n_runs),
        "kernels.sliding_ms": metric(layer_ms["kernels.sliding_ms"], "ms", n),
        "kernels.depthwise_ms": metric(layer_ms["kernels.depthwise_ms"], "ms", n),
        "kernels.matmul_ms": metric(layer_ms["kernels.matmul_ms"], "ms", n),
        "kernels.strassen_depth": metric(layers.strassen_depth(w.plan), "levels", 1),
        "kernels.pool_run_ms": metric(pool.percentile(50), "ms",
                                      len(pool.latencies_ms)),
        "backend.session_ms": metric(setup_ms(pipeline, "backend.session"), "ms",
                                     len(pipeline)),
        "backend.first_run_ms": metric(setup_ms(pipeline, "backend.first_run"),
                                       "ms", len(pipeline)),
        "backend.run_ms": metric(layer_ms["backend.run_ms"], "ms", n),
        "backend.steps_ms": metric(layer_ms["backend.steps_ms"], "ms", n),
        "backend.overhead_ms": metric(layer_ms["backend.overhead_ms"], "ms", n),
        "backend.pool2d_ms": metric(layer_ms["backend.pool2d_ms"], "ms", n),
        "backend.elementwise_ms": metric(layer_ms["backend.elementwise_ms"], "ms", n),
        "backend.alloc_calls_per_run": metric(allocs, "count", n_runs),
        "backend.heap_peak_bytes": metric(statistics.median(heap), "bytes", len(heap)),
        "trace.overhead_ms": metric(trace.percentile(50) - plain.percentile(50),
                                    "ms", len(trace.latencies_ms)),
    }
    spans.extend({**span, "request": f"setup-{i}"}
                 for i, probe in enumerate(pipeline + components)
                 for span in probe["spans"])
    # what each layer takes of the step time: backs each workload's "why"
    shares = {name: layer_ms[name] / layer_ms["backend.steps_ms"]
              for name in layers.STEP_LAYERS}
    report = {"step_shares": shares, "estimate_table": estimates,
              "regret_table": regret_rows}
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps({
        "workload": w.name, "seed": w.seed, "metrics": m, **report,
        "spans": spans,
    }))
    return m, n_runs, plain.failed + trace.failed + pool.failed, report


def print_table(workload: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"{workload:<13} {name:<36} {entry['value']:>14.6g} "
              f"{entry['unit']:<6} n={entry['samples']}")


def print_report(report: dict) -> None:
    print("share of step time: " + ", ".join(
        f"{name} {share:.0%}" for name, share in report["step_shares"].items()))
    print("op                 kind     scheme       measured_ms  estimate_ms  miss")
    for row in report["estimate_table"]:
        print(f"{row['op']:<18} {row['kind']:<8} {row['scheme'] or '-':<12} "
              f"{row['measured_ms']:>11.4f} {row['estimate_ms']:>12.4f} "
              f"{row['miss_factor']:>5.1f}x")
    print("conv               chosen       best         regret_ms  candidates (median ms)")
    for row in report["regret_table"]:
        cands = " ".join(f"{k}={v:.3f}" for k, v in row["ms"].items())
        print(f"{row['op']:<18} {row['chosen']:<12} {row['best']:<12} "
              f"{row['regret_ms']:>9.4f}  {cands}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    reference.self_test()
    print(json.dumps({"machine": machine_record(SESSION_THREADS)}))
    w = Workload.prepare(args.workload, args.seed, SESSION_THREADS)
    try:
        if args.trace:
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, report = traced(w, args.seconds, path)
            print_report(report)
            print(f"trace written to {path}")
            correct = failed == 0
        else:
            metrics, raw, attempted, failed = end_to_end(w, args.seconds)
            correct = failed == 0 and raw["max_rel_error"]["value"] <= TOLERANCE
            print_table(args.workload, raw)
    finally:
        w.session.close()
    print_table(args.workload, metrics)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": e["value"], "unit": e["unit"]}
                    for name, e in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
