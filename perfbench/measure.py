"""Drive the engine through its public API and measure it from outside.

Nothing here reaches into the engine's private state: a workload goes
build -> save_model -> load_model -> fuse -> pre_infer -> Session, and
each inference is a Session.run or Session.run_timed call whose outputs
are checked against the float64 reference.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from nanoinfer import (
    CpuBackend, ExecutionPlan, Graph, Session, fuse, load_model, pre_infer,
    save_model,
)
from nanoinfer.tensor import from_nchw

import reference
from workloads import make_graph, make_inputs

TOLERANCE = 1e-3  # the engine's documented Winograd tolerance (relative)
WARMUP_S = 0.5
HEAP_RUNS = 5
PROBE = Path(__file__).resolve().with_name("setup_probe.py")


@dataclass
class Workload:
    """One workload bound to a live session, with precomputed references."""

    name: str
    seed: int
    threads: int
    graph: Graph
    model: bytes
    inputs: list
    refs: list
    backend: CpuBackend
    plan: ExecutionPlan
    session: Session

    @classmethod
    def prepare(cls, name: str, seed: int, threads: int) -> "Workload":
        graph = make_graph(name, seed)
        model = save_model(graph)
        arrays = make_inputs(graph, seed)
        # references come from the graph as built, before serialisation
        refs = [reference.evaluate(graph, x) for x in arrays]
        inputs = [{tid: from_nchw(arr) for tid, arr in x.items()}
                  for x in arrays]
        backend = CpuBackend()
        plan = pre_infer(fuse(load_model(model)), [backend.spec()])
        session = Session(plan, [backend], threads=threads)
        return cls(name, seed, threads, graph, model, inputs, refs, backend,
                   plan, session)

    def error(self, outputs: dict, k: int) -> float:
        """Worst relative deviation of outputs from reference k."""
        return max(reference.rel_error(outputs[tid].data, self.refs[k][tid])
                   for tid in self.graph.outputs)

    @property
    def pool_bytes(self) -> int:
        return sum(self.plan.pool_sizes.values())


@dataclass
class Samples:
    """Outcome of the inferences one caller mode made in a closed loop."""

    latencies_ms: list[float] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0  # length of the timed phase

    def add(self, other: "Samples") -> None:
        """Take in the samples of a later stretch of the same timed phase."""
        self.latencies_ms += other.latencies_ms
        self.errors += other.errors
        self.attempted += other.attempted
        self.failed += other.failed
        self.seconds += other.seconds

    def percentile(self, q: int) -> float:
        """q-th percentile of every inference's latency in the phase."""
        return statistics.quantiles(self.latencies_ms, n=100,
                                    method="inclusive")[q - 1]

    def rate(self) -> float:
        """Inferences completed per second of the timed phase."""
        return len(self.latencies_ms) / self.seconds


def closed_loop(w: Workload, seconds: float, modes: list) -> list[Samples]:
    """One caller sends the next inference only after the last one is done.

    Modes are callables (inputs, request_id) -> outputs, taken in turn; each
    input of the fixed set is seen by every mode equally often.
    """
    samples = [Samples() for _ in modes]
    i = 0
    started = time.perf_counter()
    deadline = started + seconds
    while True:
        m = i % len(modes)
        k = (i // len(modes)) % len(w.inputs)
        s = samples[m]
        s.attempted += 1
        t0 = time.perf_counter()
        try:
            outputs = modes[m](w.inputs[k], i)
        except Exception:  # a failed inference is counted, not fatal
            t1 = time.perf_counter()
            s.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            t1 = time.perf_counter()
            s.latencies_ms.append((t1 - t0) * 1e3)
            err = w.error(outputs, k)
            s.errors.append(err)
            if not err <= TOLERANCE:
                s.failed += 1
        i += 1
        if t1 >= deadline and i % len(modes) == 0:
            for s in samples:
                s.seconds = t1 - started
            return samples


def cpu_steal() -> tuple[int, int] | None:
    """(steal, total) CPU jiffies so far on this host, where Linux reports them."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def warm_up(w: Workload) -> None:
    """Let lazy set-up (worker pools, BLAS buffers) finish before timing."""
    deadline = time.perf_counter() + WARMUP_S
    k = 0
    while k < len(w.inputs) or time.perf_counter() < deadline:
        w.session.run(w.inputs[k % len(w.inputs)])
        k += 1


def heap_peak_bytes(w: Workload) -> list[int]:
    """tracemalloc peak of new allocations over single steady-state runs."""
    peaks = []
    tracemalloc.start()
    try:
        for k in range(HEAP_RUNS):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            outputs = w.session.run(w.inputs[k % len(w.inputs)])
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            del outputs
    finally:
        tracemalloc.stop()
    return peaks


def setup_probes(w: Workload, mode: str, runs: int) -> list[dict]:
    """Run the set-up probe `runs` times, each in a fresh interpreter."""
    results = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, str(PROBE), mode, "--threads", str(w.threads),
             "--seed", str(w.seed)],
            input=w.model, capture_output=True, timeout=120)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode())
            raise RuntimeError(f"set-up probe {mode!r} exited {proc.returncode}")
        results.append(json.loads(proc.stdout.decode().splitlines()[-1]))
    return results
