"""Pre-inference: pick a scheme and backend per operator and plan all memory.

Everything here runs once per session.  The resulting ExecutionPlan is
immutable: per-op algorithm choice, backend assignment, explicit transfer
steps at backend boundaries, each conv's weights packed once for its planned
scheme and each MatMul's permuted into packed row order (pack_weights), and
byte offsets into one pre-sized pool per backend.  The pool holds what the
kernels read and write in place: activations (each conv kernel writes its
output there), transfer copies and the Strassen scratch of MatMul steps.
Kernels' temporaries (conv and pool working buffers, MatMul's product)
still come from the heap.

Each conv runs the scheme of least scheme_cost among conv_schemes, sliding
window or a Winograd tile: the work its kernel does from its packed weights
to the step's pool view, counted by scheme_work and weighed in BLAS
multiplies by the constants next to kernels.ADD_COST.  Backend selection
bills a conv at that cost and any other op at its multiply count, through
op_cost.  The plan keeps every candidate's estimate, for dump-plan and the
debug log.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GraphValidationError, UnsupportedSizeError
from .graph import Graph, OpKind, OpNode, infer_shapes
from .kernels import (
    ConvParams, KernelWork, MatDims, pack_conv, pack_matmul_rows,
    pack_sliding, sliding_work, strassen_scratch_elems, zero_map,
)
from .tensor import LANES, Layout, Shape, channel_blocks, data_shape
from .winograd import (
    DEFAULT_SPACING, MAX_ALPHA, TILE_CANDIDATES, WeightCache,
    generate_transforms, weight_transform, winograd_supported, winograd_work,
)

log = logging.getLogger("nanoinfer")

CPU_FLOPS = 2e9  # default capability when no frequency table is available
UNKNOWN_GPU_FLOPS = 4e9  # unlisted GPUs are assumed faster than CPU
T_SCHEDULE_OPENCL_MS = 0.05  # average cost of one kernel-enqueue API call
T_SCHEDULE_VULKAN_MS = 0.01  # command-buffer submission is cheaper

# measured capabilities (multiplies per second) of common mobile GPUs
GPU_FLOPS = {
    "Mali-T860": 6.83e9,
    "Mali-T880": 6.83e9,
    "Mali-G51": 6.83e9,
    "Mali-G52": 6.83e9,
    "Mali-G71": 31.61e9,
    "Mali-G72": 31.61e9,
    "Mali-G76": 31.61e9,
    "Adreno (TM) 505": 3.19e9,
    "Adreno (TM) 506": 4.74e9,
    "Adreno (TM) 512": 14.23e9,
    "Adreno (TM) 530": 25.40e9,
    "Adreno (TM) 540": 42.74e9,
    "Adreno (TM) 615": 16.77e9,
    "Adreno (TM) 616": 18.77e9,
    "Adreno (TM) 618": 18.77e9,
    "Adreno (TM) 630": 42.74e9,
    "Adreno (TM) 640": 42.74e9,
}


@dataclass(frozen=True)
class CostModel:
    """Capability constants of one backend."""

    flops: float
    t_schedule_ms: float = 0.0

    def __post_init__(self):
        if not self.flops > 0:
            raise GraphValidationError(f"flops must be positive, got {self.flops}")
        if self.t_schedule_ms < 0:
            raise GraphValidationError("t_schedule_ms must be >= 0")


CPU_COST = CostModel(flops=CPU_FLOPS, t_schedule_ms=0.0)


def gpu_cost_model(name: str, api: str = "opencl") -> CostModel:
    """Cost entry for a named GPU under a graphics API's dispatch overhead."""
    t = T_SCHEDULE_VULKAN_MS if api.lower() == "vulkan" else T_SCHEDULE_OPENCL_MS
    return CostModel(flops=GPU_FLOPS.get(name, UNKNOWN_GPU_FLOPS), t_schedule_ms=t)


def load_cost_models(path) -> dict[str, CostModel]:
    """Read {backend_name: {flops, t_schedule_ms}} overrides from JSON;
    content of another form raises GraphValidationError naming the file
    and the entry."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise GraphValidationError(
                f"cost model {path}: not JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise GraphValidationError(
            f"cost model {path}: want an object of backend entries, "
            f"got {raw!r}")
    models = {}
    for name, entry in raw.items():
        try:
            models[name] = CostModel(
                flops=float(entry["flops"]),
                t_schedule_ms=float(entry.get("t_schedule_ms", 0.0)))
        except (KeyError, TypeError, ValueError, GraphValidationError):
            raise GraphValidationError(
                f"cost model {path}: entry {name!r} must be "
                f"{{\"flops\": number > 0, \"t_schedule_ms\": number >= 0}}"
                f", got {entry!r}") from None
    return models


def op_cost(mul: int, model: CostModel) -> float:
    """Milliseconds to run an operator of `mul` multiplies on a backend.

    mul / flops * 1000, plus the backend's fixed dispatch overhead (zero
    on CPU, t_schedule on GPU-like backends).
    """
    if mul < 0:
        raise GraphValidationError(f"negative multiply count {mul}")
    return mul / model.flops * 1000.0 + model.t_schedule_ms


def mul_count(node: OpNode, shapes: dict[str, Shape]) -> int:
    """Multiply count of one operator; the complexity input of op_cost."""
    out = shapes[node.outputs[0]]
    if node.kind is OpKind.CONV2D:
        n, _, oh, ow = out.dims
        p = node.params()
        return n * oh * ow * p.out_c * (p.in_c // p.group) * p.kh * p.kw
    if node.kind is OpKind.MATMUL:
        n = out.dims[0]
        return n * int(node.attrs["in_features"]) * int(node.attrs["out_features"])
    return out.element_count


class SchemeKind(Enum):
    MATMUL_STRASSEN = "matmul"  # no conv runs it; only perfbench/ names it
    SLIDING_WINDOW = "sliding"
    WINOGRAD = "winograd"


@dataclass(frozen=True)
class SchemeChoice:
    kind: SchemeKind
    tile: int | None = None  # output tile size for the winograd scheme

    def label(self) -> str:
        if self.kind is SchemeKind.WINOGRAD:
            return f"winograd{self.tile}"
        return self.kind.value


def conv_schemes(p: ConvParams) -> list[SchemeChoice]:
    """Every scheme the backends can run a conv with, sliding window first.

    Sliding window runs every conv; a 1x1 conv is one GEMM per image on the
    packed layout there.  A Winograd-eligible conv may also run any tile
    whose transform fits MAX_ALPHA.
    """
    schemes = [SchemeChoice(SchemeKind.SLIDING_WINDOW)]
    if winograd_supported(p):
        schemes += [SchemeChoice(SchemeKind.WINOGRAD, tile=t)
                    for t in TILE_CANDIDATES if t + p.kh - 1 <= MAX_ALPHA]
    return schemes


def scheme_work(p: ConvParams, scheme: SchemeChoice,
                in_dims: tuple[int, ...]) -> KernelWork:
    """The work of the kernel running `scheme` on an input of in_dims,
    written into the step's pool view."""
    n, _, h, w = in_dims
    if scheme.kind is SchemeKind.WINOGRAD:
        return winograd_work(p, scheme.tile, n, h, w)
    return sliding_work(p, n, h, w)


def scheme_cost(p: ConvParams, scheme: SchemeChoice,
                in_dims: tuple[int, ...]) -> float:
    """Work of one conv under one scheme, in BLAS multiplies."""
    return scheme_work(p, scheme, in_dims).cost()


def scheme_costs(node: OpNode,
                 shapes: dict[str, Shape]) -> dict[SchemeChoice, float]:
    """scheme_cost of every runnable scheme of a conv, in conv_schemes order."""
    p = node.params()
    dims = shapes[node.inputs[0]].dims
    return {s: scheme_cost(p, s, dims) for s in conv_schemes(p)}


def weight_key(node: OpNode, scheme: SchemeChoice | None) -> tuple[str, str]:
    """The weight cache's key of a node's weights packed for `scheme`; a
    MatMul, which has no scheme, is keyed by its kind."""
    return (node.id, scheme.label() if scheme else node.kind.value)


def pack_weights(node: OpNode, scheme: SchemeChoice | None,
                 shapes: dict[str, Shape], spacing: float,
                 zeros: np.ndarray | None = None):
    """A node's weights as the kernel running `scheme` reads them: a
    MatMul's in packed row order (kernels.pack_matmul_rows), a conv's as
    one kernels.ConvWeights operand with its bias and ReLU maps, holding
    sliding window's packed weights (kernels.pack_sliding) or Winograd's
    transformed weights and transform at the tile.  A ReLU conv's zero map
    is a view of ``zeros`` (relu_zeros) when given."""
    if node.kind is OpKind.MATMUL:
        _, c, h, wd = shapes[node.inputs[0]].dims
        return pack_matmul_rows(node.weights, c, h, wd)
    p = node.params()
    if scheme.kind is SchemeKind.WINOGRAD:
        _, _, oh, ow = shapes[node.outputs[0]].dims
        t = generate_transforms(scheme.tile, p.kh, spacing)
        return pack_conv(weight_transform(node.weights, t), p, node.bias,
                         oh, ow, t, zeros)
    n, _, h, wd = shapes[node.inputs[0]].dims
    return pack_sliding(node.weights, p, node.bias, n, h, wd, zeros)


def relu_zeros(g: Graph) -> np.ndarray:
    """The zero map every ReLU conv of g reads a prefix of: read-only, the
    size of g's largest conv output image."""
    return zero_map(max(
        (math.prod(data_shape(g.tensor_shapes[node.outputs[0]].dims,
                              Layout.NHWC4)[1:])
         for node in g.nodes if node.kind is OpKind.CONV2D), default=0))


def select_scheme_for(node: OpNode, shapes: dict[str, Shape]) -> SchemeChoice:
    """The planned scheme: the cheapest by scheme_cost; ties go to the
    earlier scheme in conv_schemes, so to sliding window first."""
    costs = scheme_costs(node, shapes)
    return min(costs, key=costs.get)


def select_schemes(g: Graph) -> dict[str, SchemeChoice]:
    """Scheme per Conv2D node, each the argmin of its scheme costs."""
    return {node.id: select_scheme_for(node, g.tensor_shapes)
            for node in g.nodes if node.kind is OpKind.CONV2D}


def op_work(node: OpNode, shapes: dict[str, Shape],
            scheme: SchemeChoice | None) -> float:
    """Work one op is billed at: a conv's planned scheme cost, else mul_count."""
    if scheme is None:
        return mul_count(node, shapes)
    return scheme_cost(node.params(), scheme, shapes[node.inputs[0]].dims)


@dataclass(frozen=True)
class BackendSpec:
    """Planning view of a backend: name, cost constants, supported op kinds."""

    name: str
    cost: CostModel
    supported: frozenset[OpKind] | None = None  # None means everything

    def supports(self, kind: OpKind) -> bool:
        return self.supported is None or kind in self.supported


@dataclass
class BackendPlan:
    candidate: str
    assignment: dict[str, str]  # node id -> backend name
    op_costs: dict[str, float]
    total_cost_ms: float


def plan_for_candidate(g: Graph, candidate: BackendSpec, cpu: BackendSpec,
                       schemes: dict[str, SchemeChoice] | None = None
                       ) -> BackendPlan:
    """Every op on the candidate, or on CPU where the candidate lacks it,
    each billed at op_work under the planned schemes."""
    if schemes is None:
        schemes = select_schemes(g)
    assignment = {}
    costs = {}
    total = 0.0
    for node in g.nodes:
        target = candidate if candidate.supports(node.kind) else cpu
        work = op_work(node, g.tensor_shapes, schemes.get(node.id))
        cost = op_cost(work, target.cost)
        assignment[node.id] = target.name
        costs[node.id] = cost
        total += cost
    return BackendPlan(candidate.name, assignment, costs, total)


def select_backend(g: Graph, backends: list[BackendSpec],
                   schemes: dict[str, SchemeChoice] | None = None
                   ) -> BackendPlan:
    """Minimal-total-cost plan over candidate backends with CPU fallback.

    Each candidate plan sums per-op cost, billing ops it cannot run at CPU
    rates (hybrid).  Ties go to CPU, which must be first and support all ops.
    """
    cpu = backends[0]
    if cpu.supported is not None:
        raise GraphValidationError("first backend must be CPU supporting all ops")
    if schemes is None:
        schemes = select_schemes(g)
    best = plan_for_candidate(g, cpu, cpu, schemes)
    for candidate in backends[1:]:
        plan = plan_for_candidate(g, candidate, cpu, schemes)
        if plan.total_cost_ms < best.total_cost_ms:
            best = plan
    return best


def _align(n: int, alignment: int) -> int:
    return -(-n // alignment) * alignment


@dataclass
class MemoryPlan:
    pool_size: int
    offsets: dict[str, int]
    sizes: dict[str, int]
    lifetimes: dict[str, tuple[int, int]]


def plan_intervals(items: list[tuple[str, int, int, int]],
                   alignment: int = 64) -> MemoryPlan:
    """First-fit offsets for (tensor, bytes, first_write, last_read) items.

    Walks the op timeline: at each step, buffers whose last reader has
    executed are freed, then new buffers go to the lowest free gap that
    fits.  Sizes are rounded up to the alignment so every offset stays
    aligned; pool_size is the peak watermark.
    """
    sizes = {tid: _align(max(size, 0), alignment) or 0
             for tid, size, _, _ in items}
    by_start: dict[int, list[tuple[str, int, int, int]]] = {}
    for item in items:
        by_start.setdefault(item[2], []).append(item)
    live: list[tuple[int, int, str, int]] = []  # (offset, size, tid, last_read)
    offsets: dict[str, int] = {}
    lifetimes = {tid: (first, last) for tid, _, first, last in items}
    pool = 0
    steps = sorted(by_start)
    for step in steps:
        live = [entry for entry in live if entry[3] >= step]
        live.sort()
        for tid, _, first, last in by_start[step]:
            size = sizes[tid]
            if size == 0:
                offsets[tid] = 0
                continue
            cursor = 0
            for off, sz, _, _ in live:
                if cursor + size <= off:
                    break
                cursor = max(cursor, off + sz)
            offsets[tid] = cursor
            live.append((cursor, size, tid, last))
            live.sort()
            pool = max(pool, cursor + size)
    return MemoryPlan(pool_size=pool, offsets=offsets, sizes=sizes,
                      lifetimes=lifetimes)


def packed_bytes(shape: Shape) -> int:
    """Bytes of a 4-d shape stored as NHWC4 float32 (the same bytes as
    NC4HW4): the array a session shapes for it."""
    return 4 * math.prod(data_shape(shape.dims, Layout.NHWC4))


def strassen_dims(node: OpNode, shapes: dict[str, Shape]) -> MatDims | None:
    """The product a step hands to matmul_strassen, or None if it has none.

    Only a MatMul has one: its packed input rows, [n, blocks*h*w*4], by its
    weights in packed row order, [blocks*h*w*4, out_features].
    """
    if node.kind is not OpKind.MATMUL:
        return None
    n, c, h, w = shapes[node.inputs[0]].dims
    return MatDims(n, channel_blocks(c) * h * w * LANES,
                   int(node.attrs["out_features"]))


def _scratch_elems_for(node: OpNode, shapes: dict[str, Shape]) -> int:
    """Pool elements an op's kernel works in beyond its inputs and outputs.

    Only Strassen's level stacks live in the pool; every other kernel takes
    its temporaries from the heap.
    """
    dims = strassen_dims(node, shapes)
    return 0 if dims is None else strassen_scratch_elems(dims)


@dataclass
class TransferStep:
    tensor: str
    src: str
    dst: str


@dataclass
class OpStep:
    node: OpNode
    scheme: SchemeChoice | None
    backend: str
    scratch_id: str | None


@dataclass
class ExecutionPlan:
    """Immutable output of pre-inference, shared by all sessions over it."""

    graph: Graph
    steps: list[TransferStep | OpStep]
    schemes: dict[str, SchemeChoice]
    assignment: dict[str, str]
    op_costs: dict[str, float]
    total_cost_ms: float
    muls: dict[str, int]
    candidates: dict[str, dict[str, float]]  # conv id -> scheme label -> ms
    # backend name -> pool plan over tensor ids and "<node>#scratch"
    memory: dict[str, MemoryPlan]
    weight_cache: WeightCache  # weight_key(node, scheme) -> packed weights
    spacing: float
    zeros: np.ndarray | None = None  # relu_zeros, shared by every ReLU conv

    @property
    def pool_sizes(self) -> dict[str, int]:
        return {name: plan.pool_size for name, plan in self.memory.items()}

    def transfers(self) -> list[TransferStep]:
        return [s for s in self.steps if isinstance(s, TransferStep)]

    def dump(self) -> dict:
        ops = []
        for step in self.steps:
            if isinstance(step, OpStep):
                node = step.node
                ops.append({
                    "id": node.id,
                    "kind": node.kind.value,
                    "scheme": step.scheme.label() if step.scheme else None,
                    "backend": step.backend,
                    "mul": self.muls[node.id],
                    "cost_ms": self.op_costs[node.id],
                    "candidates": self.candidates.get(node.id),
                })
        return {
            "ops": ops,
            "transfers": [{"tensor": t.tensor, "from": t.src, "to": t.dst}
                          for t in self.transfers()],
            "pool_size": sum(self.pool_sizes.values()),
            "total_cost_ms": self.total_cost_ms,
        }


def build_steps(g: Graph, assignment: dict[str, str],
                schemes: dict[str, SchemeChoice],
                cpu_name: str) -> list[TransferStep | OpStep]:
    """Op sequence with explicit transfers at backend boundaries.

    Graph inputs start on CPU; outputs are delivered on CPU at the end.
    """
    homes = {tid: cpu_name for tid in g.inputs}
    placed: set[tuple[str, str]] = {(tid, cpu_name) for tid in g.inputs}
    steps: list[TransferStep | OpStep] = []
    for node in g.nodes:
        backend = assignment[node.id]
        for tid in node.inputs:
            if (tid, backend) not in placed:
                steps.append(TransferStep(tid, homes[tid], backend))
                placed.add((tid, backend))
        steps.append(OpStep(node, schemes.get(node.id), backend,
                            scratch_id=f"{node.id}#scratch"))
        for tid in node.outputs:
            homes[tid] = backend
            placed.add((tid, backend))
    for tid in g.outputs:
        if (tid, cpu_name) not in placed:
            steps.append(TransferStep(tid, homes[tid], cpu_name))
            placed.add((tid, cpu_name))
    return steps


def plan_memory(g: Graph, *,
                schemes: dict[str, SchemeChoice] | None = None,
                alignment: int = 64,
                steps: list[TransferStep | OpStep] | None = None,
                cpu_name: str = "cpu") -> dict[str, MemoryPlan]:
    """Pool layout per backend namespace for the step sequence.

    Graph inputs live in caller-provided staging buffers and are not pooled;
    everything produced by a step is, and so is a MatMul step's Strassen
    scratch, which lives only for its own step.  Copies of a tensor on
    another backend are pooled in that backend's namespace from the
    transfer step to their last reader.  Without steps, every op runs on CPU.
    """
    if steps is None:
        if schemes is None:
            schemes = select_schemes(g)
        steps = build_steps(g, {node.id: cpu_name for node in g.nodes},
                            schemes, cpu_name)

    # last step index reading each (tensor, backend) residency
    last_read: dict[tuple[str, str], int] = {}
    first_write: dict[tuple[str, str], int] = {}
    for idx, step in enumerate(steps):
        if isinstance(step, TransferStep):
            last_read[(step.tensor, step.src)] = idx
            first_write[(step.tensor, step.dst)] = idx
        else:
            for tid in step.node.inputs:
                last_read[(tid, step.backend)] = idx
            for tid in step.node.outputs:
                first_write[(tid, step.backend)] = idx
    end = len(steps)
    for tid in g.outputs:
        last_read[(tid, cpu_name)] = end  # outputs survive the whole run

    items_by_backend: dict[str, list[tuple[str, int, int, int]]] = {}
    for (tid, backend), start in first_write.items():
        if tid in g.inputs and backend == cpu_name:
            continue
        size = packed_bytes(g.tensor_shapes[tid])
        last = last_read.get((tid, backend), start)
        items_by_backend.setdefault(backend, []).append((tid, size, start, last))
    for idx, step in enumerate(steps):
        if isinstance(step, OpStep):
            scratch = _scratch_elems_for(step.node, g.tensor_shapes)
            if scratch:
                items_by_backend.setdefault(step.backend, []).append(
                    (step.scratch_id, scratch * 4, idx, idx))
    return {backend: plan_intervals(items, alignment)
            for backend, items in items_by_backend.items()}


def pre_infer(g: Graph, backends: list[BackendSpec],
              spacing: float = DEFAULT_SPACING,
              force_backend: str | None = None) -> ExecutionPlan:
    """Compose scheme selection, backend selection, weight transforms, and
    the memory plan into one immutable execution plan.

    ``force_backend`` skips the cost comparison and plans for that candidate
    (unsupported ops still fall back to CPU).  A Winograd point
    ``spacing`` must be positive and finite, whether or not any conv plans
    a tile.
    """
    if not (spacing > 0 and math.isfinite(spacing)):
        raise UnsupportedSizeError(
            f"point spacing f={spacing} must be positive and finite")
    if not g.tensor_shapes:
        g = infer_shapes(g)
    schemes = select_schemes(g)
    by_name = {b.name: b for b in backends}
    if force_backend is None:
        backend_plan = select_backend(g, backends, schemes)
    elif force_backend not in by_name:
        raise GraphValidationError(
            f"force_backend {force_backend!r} is not a planned backend "
            f"({', '.join(by_name)})")
    else:
        backend_plan = plan_for_candidate(g, by_name[force_backend],
                                          backends[0], schemes)
    steps = build_steps(g, backend_plan.assignment, schemes, backends[0].name)
    memory = plan_memory(g, steps=steps, cpu_name=backends[0].name)
    muls = {node.id: mul_count(node, g.tensor_shapes) for node in g.nodes}

    # every candidate's estimate on the backend the conv runs on
    candidates = {}
    for node in g.nodes:
        if node.id not in schemes:
            continue
        model = by_name[backend_plan.assignment[node.id]].cost
        est = {s.label(): op_cost(cost, model)
               for s, cost in scheme_costs(node, g.tensor_shapes).items()}
        candidates[node.id] = est
        if log.isEnabledFor(logging.DEBUG):
            log.debug("plan %s: %s (%s)", node.id, schemes[node.id].label(),
                      ", ".join(f"{label} {ms:.4f} ms"
                                for label, ms in est.items()))

    cache = WeightCache()
    zeros = relu_zeros(g)
    for node in g.nodes:
        scheme = schemes.get(node.id)
        if scheme is not None or node.kind is OpKind.MATMUL:
            cache.put(weight_key(node, scheme),
                      pack_weights(node, scheme, g.tensor_shapes, spacing,
                                   zeros))
    return ExecutionPlan(
        graph=g,
        steps=steps,
        schemes=schemes,
        assignment=backend_plan.assignment,
        op_costs=backend_plan.op_costs,
        total_cost_ms=backend_plan.total_cost_ms,
        muls=muls,
        candidates=candidates,
        memory=memory,
        weight_cache=cache,
        spacing=spacing,
        zeros=zeros,
    )
