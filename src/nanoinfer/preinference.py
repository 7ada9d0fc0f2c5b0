"""Pre-inference: pick a scheme and backend per operator and plan all memory.

Everything here runs once per session.  The resulting ExecutionPlan is
immutable: per-op algorithm choice, backend assignment, explicit transfer
steps at backend boundaries, each conv's weights packed once for its planned
scheme and each MatMul's permuted into packed row order (pack_weights), and
byte offsets into one pre-sized pool per backend.  The pool holds what the
kernels read and write in place: activations (each conv kernel writes its
output there), transfer copies, and the scratch of each conv step with
nodes folded in (build_steps), live at that step only.  One rule, folds,
says which: a conv's step runs the node that solely reads its output, on
its backend, where the kernel takes it (kernels.fold_refusal): a max pool,
or a residual Add and the ReLU after it, whose output is written over the
Add's other operand.  Pool offsets and sizes are whole multiples of ALIGNMENT.
Kernels' other temporaries (conv and pool working buffers, MatMul's
product) still come from the heap.

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
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import GraphValidationError, UnsupportedSizeError
from .graph import Graph, OpKind, OpNode, infer_shapes, sole_readers
from .kernels import (
    ConvParams, KernelWork, fold_refusal, fold_scratch_floats, pack_conv,
    pack_matmul_rows, pack_sliding, sliding_work, zero_map,
)
from .tensor import Layout, Shape, data_shape
from .winograd import (
    DEFAULT_SPACING, MAX_ALPHA, TILE_CANDIDATES, WeightCache,
    generate_transforms, weight_transform, winograd_supported, winograd_work,
)

log = logging.getLogger("nanoinfer")

CPU_FLOPS = 2e9  # default capability when no frequency table is available
UNKNOWN_GPU_FLOPS = 4e9  # unlisted GPUs are assumed faster than CPU
T_SCHEDULE_OPENCL_MS = 0.05  # average cost of one kernel-enqueue API call
T_SCHEDULE_VULKAN_MS = 0.01  # command-buffer submission is cheaper
ALIGNMENT = 64  # bytes: a cache line, the pool's offset and size unit

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
        if not (self.flops > 0 and math.isfinite(self.flops)):
            raise GraphValidationError(
                f"flops must be positive and finite, got {self.flops}")
        if not (self.t_schedule_ms >= 0 and math.isfinite(self.t_schedule_ms)):
            raise GraphValidationError(
                f"t_schedule_ms must be >= 0 and finite, got "
                f"{self.t_schedule_ms}")


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
            values = (entry["flops"], entry.get("t_schedule_ms", 0.0))
            # JSON numbers only: float() would also take "3e9" and true
            if not all(type(v) in (int, float) for v in values):
                raise TypeError
            models[name] = CostModel(*map(float, values))
        except (KeyError, TypeError, OverflowError, GraphValidationError):
            raise GraphValidationError(
                f"cost model {path}: entry {name!r} must be "
                f"{{\"flops\": number > 0, \"t_schedule_ms\": number >= 0}}"
                f" (finite), got {entry!r}") from None
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


def weight_key(node: OpNode, scheme: SchemeChoice | None,
               folded: tuple[OpNode, ...] = ()) -> tuple[str, ...]:
    """The weight cache's key of a node's weights packed for `scheme`, with
    the nodes `folded` into its step (OpStep.folded: their epilogue differs,
    so it has a key of its own); a MatMul, which has no scheme, is keyed by
    its kind."""
    key = (node.id, scheme.label() if scheme else node.kind.value)
    return (*key, *(n.id for n in folded))


def pack_weights(node: OpNode, scheme: SchemeChoice | None,
                 shapes: dict[str, Shape], spacing: float,
                 zeros: np.ndarray | None = None,
                 folded: tuple[OpNode, ...] = ()):
    """A node's weights as the kernel running `scheme` reads them: a
    MatMul's in packed row order (kernels.pack_matmul_rows), a conv's as
    one kernels.ConvWeights operand with its bias and ReLU maps, holding
    sliding window's packed weights (kernels.pack_sliding, with the nodes
    `folded` into its step: a max pool, or an Add and maybe its ReLU) or
    Winograd's transformed weights and transform at the tile.  A ReLU's
    zero map is a view of ``zeros`` (relu_zeros) when given."""
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
    kinds = [f.kind for f in folded]
    pool = folded[0].params() if kinds == [OpKind.POOL2D] else None
    return pack_sliding(node.weights, p, node.bias, n, h, wd, zeros, pool,
                        residual=OpKind.ADD in kinds,
                        residual_relu=OpKind.RELU in kinds)


def relu_zeros(g: Graph, steps: list[TransferStep | OpStep]) -> np.ndarray:
    """The zero map every ReLU conv step of g reads a prefix of: read-only,
    the size of the largest output image a conv step writes (a folded
    pool's, for a step that has one)."""
    return zero_map(max(
        (math.prod(data_shape(g.tensor_shapes[s.outputs[0]].dims,
                              Layout.NHWC4)[1:])
         for s in steps
         if isinstance(s, OpStep) and s.node.kind is OpKind.CONV2D),
        default=0))


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
    """One backend's pool: each stored interval's offset, aligned size and
    (first write, last read) steps, and each tensor a fused step writes
    over the interval of another (OpStep.skip), by the tensor whose
    interval it is.  lower_bound is the live-bytes bound: the largest sum
    of aligned sizes live at one step."""

    pool_size: int
    offsets: dict[str, int]
    sizes: dict[str, int]
    lifetimes: dict[str, tuple[int, int]]
    aliases: dict[str, str] = field(default_factory=dict)
    lower_bound: int = 0


def plan_intervals(items: list[tuple[str, int, int, int]],
                   alignment: int = ALIGNMENT) -> MemoryPlan:
    """First-fit offsets for (tensor, bytes, first_write, last_read) items.

    Walks the op timeline: at each step, buffers whose last reader has
    executed are freed, then new buffers go to the lowest free gap that
    fits.  Sizes are rounded up to the alignment so every offset stays
    aligned; pool_size is the peak watermark, at least lower_bound: the
    live bytes at the busiest step.
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
    # live bytes change only where an interval starts
    bound = max((sum(sizes[tid] for tid, (a, b) in lifetimes.items()
                     if a <= step <= b) for step in steps), default=0)
    return MemoryPlan(pool_size=pool, offsets=offsets, sizes=sizes,
                      lifetimes=lifetimes, lower_bound=bound)


def packed_bytes(shape: Shape) -> int:
    """Bytes of a 4-d shape stored as NHWC4 float32 (the same bytes as
    NC4HW4): the array a session shapes for it."""
    return 4 * math.prod(data_shape(shape.dims, Layout.NHWC4))


@dataclass
class TransferStep:
    tensor: str
    src: str
    dst: str


@dataclass
class OpStep:
    """One op's step.  A conv's step may carry nodes folded into it
    (build_steps, by folds): a max pool, or a residual Add and maybe the
    ReLU after it.  It then writes the last folded node's output, not its
    own, and takes a scratch interval of the pool; a folded Add's output is
    written over its skip."""

    node: OpNode
    scheme: SchemeChoice | None
    backend: str
    folded: tuple[OpNode, ...] = ()

    @property
    def pool(self) -> OpNode | None:
        """The max pool folded into the step, if that is its fold."""
        return self.folded[0] if (
            self.folded and self.folded[0].kind is OpKind.POOL2D) else None

    @property
    def skip(self) -> str | None:
        """A folded Add's other operand, which the step adds its conv's
        output to in place: its output is written over the skip's
        interval."""
        if not self.folded or self.folded[0].kind is not OpKind.ADD:
            return None
        a, b = self.folded[0].inputs
        return b if a == self.node.outputs[0] else a

    @property
    def inputs(self) -> list[str]:
        """The tensors the step reads: its node's, and a folded Add's skip."""
        skip = self.skip
        return [*self.node.inputs, *([skip] if skip else [])]

    @property
    def outputs(self) -> list[str]:
        """The tensors the step writes."""
        return (self.folded[-1] if self.folded else self.node).outputs

    @property
    def scratch_id(self) -> str | None:
        """The pool interval of a fused step's scratch, live at the step."""
        return f"{self.node.id}#scratch" if self.folded else None


# the key a dump-plan entry names each kind of folded node under
FOLD_KEYS = {OpKind.POOL2D: "pool", OpKind.ADD: "add", OpKind.RELU: "relu"}


@dataclass
class ExecutionPlan:
    """Immutable output of pre-inference, shared by all sessions over it."""

    graph: Graph
    steps: list[TransferStep | OpStep]
    op_costs: dict[str, float]  # step's node id -> ms, its folded nodes' too
    total_cost_ms: float
    muls: dict[str, int]
    candidates: dict[str, dict[str, float]]  # conv id -> scheme label -> ms
    memory: dict[str, MemoryPlan]  # backend name -> pool plan over tensor ids
    weight_cache: WeightCache  # weight_key(node, scheme) -> packed weights
    spacing: float
    zeros: np.ndarray | None = None  # relu_zeros, shared by every ReLU conv

    @property
    def schemes(self) -> dict[str, SchemeChoice]:
        """Conv id -> the scheme its step runs."""
        return {s.node.id: s.scheme for s in self.steps
                if isinstance(s, OpStep) and s.scheme is not None}

    @property
    def assignment(self) -> dict[str, str]:
        """Node id -> the backend its step runs on, folded nodes' too."""
        return {node.id: s.backend for s in self.steps
                if isinstance(s, OpStep) for node in (s.node, *s.folded)}

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
                for folded in step.folded:
                    ops[-1][FOLD_KEYS[folded.kind]] = folded.id
                if step.folded:
                    ops[-1]["scratch_bytes"] = self.memory[
                        step.backend].sizes[step.scratch_id]
        return {
            "ops": ops,
            "transfers": [{"tensor": t.tensor, "from": t.src, "to": t.dst}
                          for t in self.transfers()],
            "pool_size": sum(self.pool_sizes.values()),
            "pool_lower_bound": sum(m.lower_bound
                                    for m in self.memory.values()),
            "total_cost_ms": self.total_cost_ms,
        }


def folds(g: Graph, assignment: dict[str, str],
          schemes: dict[str, SchemeChoice]) -> dict[str, tuple[OpNode, ...]]:
    """Conv id -> the nodes folded into its step: a conv may run the node
    that solely reads its output, on its backend.

    The conv's output has exactly one reader (graph.sole_readers: so it is
    no graph output), which runs on the conv's backend, and the conv runs
    sliding window, which takes the fold (kernels.fold_refusal); the last
    folded node's output may be a graph output.  The reader is either
    - a max pool, or
    - a residual Add, and the ReLU that is the Add's sole reader if it is
      on the same backend.  The step writes its output over the Add's
      other operand, the skip, so the skip must die there: it is no graph
      input or output, no input of the conv (later windows would read rows
      an earlier chunk wrote), produced before the conv (the conv is the
      Add's later producer), and read by no node scheduled after the conv
      but the Add.
    """
    readers = sole_readers(g.nodes, g.outputs)
    made = {tid: i for i, node in enumerate(g.nodes) for tid in node.outputs}
    found = {}
    for i, node in enumerate(g.nodes):
        reader = readers.get(node.outputs[0])
        if (node.kind is not OpKind.CONV2D or reader is None
                or assignment[reader.id] != assignment[node.id]
                or schemes[node.id].kind is not SchemeKind.SLIDING_WINDOW):
            continue
        p, (_, _, h, w) = node.params(), g.tensor_shapes[node.inputs[0]].dims
        if reader.kind is OpKind.POOL2D:
            if (reader.attrs.get("mode", "max") == "max"
                    and not fold_refusal(p, h, w, reader.params())):
                found[node.id] = (reader,)
            continue
        if reader.kind is not OpKind.ADD or fold_refusal(p, h, w):
            continue
        # the Add reads the conv's output once, so its other operand differs
        (skip,) = set(reader.inputs) - set(node.outputs)
        if (skip in g.inputs or skip in g.outputs or skip in node.inputs
                or made[skip] > i
                or [r for r in g.nodes[i + 1:] if skip in r.inputs]
                != [reader]):
            continue
        relu = readers.get(reader.outputs[0])
        found[node.id] = (reader, relu) if (
            relu is not None and relu.kind is OpKind.RELU
            and assignment[relu.id] == assignment[node.id]) else (reader,)
    return found


def build_steps(g: Graph, assignment: dict[str, str],
                schemes: dict[str, SchemeChoice],
                cpu_name: str) -> list[TransferStep | OpStep]:
    """Op sequence with explicit transfers at backend boundaries.

    Graph inputs start on CPU; outputs are delivered on CPU at the end.
    The nodes of folds run in their conv's step, which writes the last
    folded node's output; the conv's own output is never stored, nor is a
    folded Add's when its ReLU is folded too.  A folded Add's skip is moved
    to the step's backend before the step, like its inputs.
    """
    fused = folds(g, assignment, schemes)
    folded = {node.id for nodes in fused.values() for node in nodes}
    homes = {tid: cpu_name for tid in g.inputs}
    placed: set[tuple[str, str]] = {(tid, cpu_name) for tid in g.inputs}
    steps: list[TransferStep | OpStep] = []
    for node in g.nodes:
        if node.id in folded:
            continue
        backend = assignment[node.id]
        step = OpStep(node, schemes.get(node.id), backend,
                      fused.get(node.id, ()))
        for tid in step.inputs:
            if (tid, backend) not in placed:
                steps.append(TransferStep(tid, homes[tid], backend))
                placed.add((tid, backend))
        steps.append(step)
        for tid in step.outputs:
            homes[tid] = backend
            placed.add((tid, backend))
    for tid in g.outputs:
        if (tid, cpu_name) not in placed:
            steps.append(TransferStep(tid, homes[tid], cpu_name))
            placed.add((tid, cpu_name))
    return steps


def plan_memory(g: Graph, *,
                schemes: dict[str, SchemeChoice] | None = None,
                steps: list[TransferStep | OpStep] | None = None,
                cpu_name: str = "cpu") -> dict[str, MemoryPlan]:
    """Pool layout per backend namespace for the step sequence.

    Graph inputs live in caller-provided staging buffers and are not
    pooled; everything produced by a step is.  Copies of a tensor on
    another backend are pooled in that backend's namespace from the
    transfer step to their last reader.  A fused step pools its scratch
    (OpStep.scratch_id) of kernels.fold_scratch_floats, live at that step
    only: one image of a folded pool's output, or one chunk of a folded
    Add's conv output rows.  A folded Add's output takes no interval
    of its own: it is an alias of its skip's (MemoryPlan.aliases), which
    then runs from the skip's first write to the output's last read.
    Without steps, every op runs on CPU.
    """
    if steps is None:
        if schemes is None:
            schemes = select_schemes(g)
        steps = build_steps(g, {node.id: cpu_name for node in g.nodes},
                            schemes, cpu_name)

    # last step index reading each stored (tensor, backend) residency
    last_read: dict[tuple[str, str], int] = {}
    first_write: dict[tuple[str, str], int] = {}
    scratch: dict[tuple[str, str], int] = {}  # bytes of each fused scratch
    alias: dict[tuple[str, str], tuple[str, str]] = {}  # -> stored residency

    def stored(tid: str, backend: str) -> tuple[str, str]:
        return alias.get((tid, backend), (tid, backend))

    for idx, step in enumerate(steps):
        if isinstance(step, TransferStep):
            last_read[stored(step.tensor, step.src)] = idx
            first_write[(step.tensor, step.dst)] = idx
            continue
        for tid in step.inputs:
            last_read[stored(tid, step.backend)] = idx
        if step.skip is not None:
            alias[(step.outputs[0], step.backend)] = stored(step.skip,
                                                            step.backend)
        else:
            for tid in step.outputs:
                first_write[(tid, step.backend)] = idx
        if step.folded:
            key = (step.scratch_id, step.backend)
            first_write[key] = last_read[key] = idx
            n, _, h, wd = g.tensor_shapes[step.node.inputs[0]].dims
            scratch[key] = 4 * fold_scratch_floats(
                step.node.params(), n, h, wd,
                None if step.pool is None else step.pool.params())
    end = len(steps)
    for tid in g.outputs:
        last_read[stored(tid, cpu_name)] = end  # outputs survive the whole run

    items_by_backend: dict[str, list[tuple[str, int, int, int]]] = {}
    for (tid, backend), start in first_write.items():
        if tid in g.inputs and backend == cpu_name:
            continue
        size = (scratch[(tid, backend)] if (tid, backend) in scratch
                else packed_bytes(g.tensor_shapes[tid]))
        last = last_read.get((tid, backend), start)
        items_by_backend.setdefault(backend, []).append((tid, size, start, last))
    plans = {backend: plan_intervals(items)
             for backend, items in items_by_backend.items()}
    for (tid, backend), (root, _) in alias.items():
        plans[backend].aliases[tid] = root
    return plans


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
    # a fused step is billed its folded nodes' estimates too
    op_costs = dict(backend_plan.op_costs)
    for step in steps:
        if isinstance(step, OpStep):
            for node in step.folded:
                op_costs[step.node.id] += op_costs.pop(node.id)
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
    zeros = relu_zeros(g, steps)
    for step in steps:
        if isinstance(step, OpStep) and (step.scheme is not None
                                         or step.node.kind is OpKind.MATMUL):
            cache.put(weight_key(step.node, step.scheme, step.folded),
                      pack_weights(step.node, step.scheme, g.tensor_shapes,
                                   spacing, zeros, step.folded))
    return ExecutionPlan(
        graph=g,
        steps=steps,
        op_costs=op_costs,
        total_cost_ms=backend_plan.total_cost_ms,
        muls=muls,
        candidates=candidates,
        memory=memory,
        weight_cache=cache,
        spacing=spacing,
        zeros=zeros,
    )
