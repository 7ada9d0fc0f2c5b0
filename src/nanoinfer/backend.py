"""Uniform backend interface, the CPU backend, and plan-driven sessions.

A backend owns a buffer namespace (acquire/release, optionally served from
a pre-planned pool) and builds each operator's execution: a plain runner,
run(inputs, outputs), on the tensors' NHWC4 data arrays
(tensor.Layout.NHWC4, lane-padded NHWC).  A session binds an ExecutionPlan
to concrete pools once: it turns each pool slice and staging buffer into
its tensor's NHWC4 array, and binds every step to one call, its runner on
those arrays or, for a transfer between backends, a copy between its
source and destination arrays.  Each inference only makes those calls in
order.  A run packs its NCHW or NC4HW4 input into the staging array and
unpacks its outputs, and no step between re-lays a tensor.  A conv step calls its
scheme's NHWC4 kernel, kernels.sliding_nhwc4 or winograd.winograd_nhwc4,
with the one operand (kernels.ConvWeights) pre-inference packed for that
scheme and fetched once, when the session is built; either writes straight
into the step's pool array.  A conv step with nodes folded in
(preinference.folds) writes the last one's output array, and its kernel
gets its scratch, a flat float32 slice of the pool bound like the arrays
(kernels.fold_scratch_floats).  A folded Add's output array is its skip's
(MemoryPlan.aliases): the kernel adds into it in place.
Pools run kernels.pool_nhwc4.  MatMul multiplies the packed input rows by
weights permuted once into that row order, one matmul_direct GEMM (no
Strassen level: where the engine's rule would take one, it measured
slower than direct), and Softmax works on the pool
arrays as [pixels, lanes] matrices.  The pools and the staging buffers
start on a cache line of preinference.ALIGNMENT bytes (aligned_zeros), as
every pool offset does.  The kernels' other temporaries (a depthwise
conv's slab of bordered input rows, a dense conv's MEC strip buffer or its
bordered map, the bordered inputs of padded or overlapping pools and of
Winograd, Winograd's patches and tiles, MatMul's product) are still heap
allocations on every run, and so is the NCHW round trip of a Reshape that
changes the shape (graph.fuse drops the identity ones).  Session.run makes
only the bound calls, between the input pack and the output unpack;
Session.run_timed times each.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from .errors import (
    GraphValidationError, PoolExhaustedError, ShapeMismatchError,
    UnsupportedOpError,
)
from .graph import OpKind
from .kernels import LANES, matmul_direct, pool_nhwc4, sliding_nhwc4
from .preinference import (
    ALIGNMENT, CPU_COST, BackendSpec, CostModel, ExecutionPlan, OpStep,
    SchemeKind, TransferStep, pack_weights, packed_bytes, weight_key,
)
from .tensor import (
    Layout, Tensor, channel_blocks, data_shape, from_nchw, relayout,
)
from .winograd import winograd_nhwc4


def aligned_zeros(nbytes: int) -> np.ndarray:
    """nbytes zeroed bytes that start on an ALIGNMENT boundary."""
    raw = np.zeros(nbytes + ALIGNMENT, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGNMENT
    return raw[start:start + nbytes]


class Backend:
    """Resource management and execution creation for one device."""

    # ms charged to timing reports per op step, on top of its wall time
    dispatch_surcharge_ms = 0.0

    def __init__(self, name: str, cost: CostModel,
                 supported: frozenset[OpKind] | None = None,
                 debug: bool = False):
        self.name = name
        self.cost = cost
        self.supported = supported
        self.debug = debug
        self.alloc_count = 0
        self.acquire_count = 0
        self.release_count = 0
        self._pool: np.ndarray | None = None
        self._pool_size = 0

    def spec(self) -> BackendSpec:
        return BackendSpec(self.name, self.cost, self.supported)

    def supports(self, kind: OpKind) -> bool:
        return self.supported is None or kind in self.supported

    @property
    def live_buffers(self) -> int:
        return self.acquire_count - self.release_count

    def set_pool(self, nbytes: int) -> None:
        """Allocate the backing pool once, cache-line aligned; planned
        acquires slice into it."""
        self._pool = aligned_zeros(max(nbytes, 0))
        self._pool_size = nbytes
        self.alloc_count += 1

    def acquire_buffer(self, nbytes: int, offset: int | None = None,
                       owner: str = "?") -> np.ndarray:
        """A float32 view of `nbytes` bytes, pool-backed when planned.

        With an offset the view comes from the pre-planned pool; pool
        overruns are a planner bug and fail loudly, naming the owner op.
        Without an offset a fresh, cache-line aligned buffer is allocated
        (and counted).
        """
        if nbytes < 0:
            raise PoolExhaustedError(f"negative buffer size for {owner!r}")
        self.acquire_count += 1
        if offset is None:
            self.alloc_count += 1
            return aligned_zeros(nbytes // 4 * 4).view(np.float32)
        if self._pool is None or offset + nbytes > self._pool_size:
            raise PoolExhaustedError(
                f"op {owner!r} needs [{offset}, {offset + nbytes}) beyond the "
                f"planned pool of {self._pool_size} bytes on {self.name!r}"
            )
        return self._pool[offset:offset + nbytes].view(np.float32)

    def release_buffer(self, handle: np.ndarray) -> None:
        self.release_count += 1
        if self.debug and handle.size:
            handle[:] = np.nan  # poison to surface use-after-release

    def create_execution(self, step: OpStep, plan: ExecutionPlan):
        """The step's runner, run(inputs, outputs): it runs on the
        tensors' NHWC4 data arrays, which give it their geometry, and can be
        run any number of times."""
        node = step.node
        kind = node.kind

        if kind is OpKind.CONV2D:
            return _build_conv_execution(step, plan)

        if kind is OpKind.MATMUL:
            return _build_matmul_execution(step, plan)

        if kind is OpKind.RELU:
            def run(inputs, outputs):
                np.maximum(inputs[0], 0.0, out=outputs[0])
            return run

        if kind is OpKind.ADD:
            def run(inputs, outputs):
                np.add(inputs[0], inputs[1], out=outputs[0])
            return run

        if kind is OpKind.SOFTMAX:
            return _build_softmax_execution(step, plan)

        if kind is OpKind.RESHAPE:
            in_dims = plan.graph.tensor_shapes[node.inputs[0]].dims
            out_dims = plan.graph.tensor_shapes[node.outputs[0]].dims

            def run(inputs, outputs):
                x = relayout(Tensor(in_dims, Layout.NHWC4, inputs[0]),
                             Layout.NCHW)
                relayout(from_nchw(x.data.reshape(out_dims)), Layout.NHWC4,
                         out=outputs[0])

            return run

        if kind is OpKind.POOL2D:
            p = node.params()
            mode = node.attrs.get("mode", "max")

            def run(inputs, outputs):
                pool_nhwc4(inputs[0], p, mode, outputs[0])

            return run

        raise UnsupportedOpError(f"no CPU execution for kind {kind}")


def _packed_weights(step: OpStep, plan: ExecutionPlan):
    """The step's weights as its kernel reads them, fetched from the plan's
    weight cache; pre_infer packs the planned scheme's, another scheme's
    (compare and calibration run every one) is packed on first use."""
    node = step.node
    return plan.weight_cache.get(
        weight_key(node, step.scheme, step.folded),
        compute=lambda: pack_weights(node, step.scheme,
                                     plan.graph.tensor_shapes, plan.spacing,
                                     plan.zeros, step.folded))


def _build_matmul_execution(step: OpStep, plan: ExecutionPlan):
    """A MatMul on the packed input rows [n, h*w*lanes], whose weights
    pre-inference permuted into that row order with zero pad rows; the
    product fills the output's first out_features lanes, pad lanes zero."""
    node = step.node
    weights = _packed_weights(step, plan)
    bias = None if node.bias is None else node.bias.astype(np.float32)
    features = weights.shape[1]

    def run(inputs, outputs):
        x = inputs[0].reshape(len(inputs[0]), -1)
        out = outputs[0].reshape(len(outputs[0]), -1)
        # the product keeps out_features columns: padding it to whole
        # lanes changes the GEMM, and with it the last bits
        y = matmul_direct(x, weights)
        if bias is None:
            out[:, :features] = y
        else:
            np.add(y, bias, out=out[:, :features])
        if features < out.shape[1]:
            out[:, features:] = 0.0

    return run


def _build_softmax_execution(step: OpStep, plan: ExecutionPlan):
    """Softmax over the channels of each pixel, on the pool views seen as
    [n*h*w, lanes] matrices.  The first C lanes are written, the pad lanes
    zeroed."""
    node = step.node
    c = plan.graph.tensor_shapes[node.inputs[0]].dims[1]
    lanes = channel_blocks(c) * LANES

    def run(inputs, outputs):
        x = inputs[0].reshape(-1, lanes)
        y = outputs[0].reshape(-1, lanes)
        xs, ys = x[:, :c], y[:, :c]
        np.subtract(xs, np.maximum.reduce(xs, axis=1, keepdims=True), out=ys)
        np.exp(ys, out=ys)
        ys /= np.add.reduce(ys, axis=1, keepdims=True)
        if c < lanes:
            y[:, c:] = 0.0

    return run


def _build_conv_execution(step: OpStep, plan: ExecutionPlan):
    """The planned scheme's NHWC4 kernel on the step's arrays, with the
    conv's one packed operand (kernels.ConvWeights).  Sliding window's
    runner takes the scratch of a step with folded nodes, which a session
    binds from its pool."""
    p = step.node.params()
    packed = _packed_weights(step, plan)
    if step.scheme.kind is SchemeKind.WINOGRAD:
        def run(inputs, outputs):
            winograd_nhwc4(inputs[0], packed, p, outputs[0])
    else:
        def run(inputs, outputs, scratch=None):
            sliding_nhwc4(inputs[0], packed, p, outputs[0], scratch)

    return run


class CpuBackend(Backend):
    def __init__(self, cost: CostModel = CPU_COST, debug: bool = False):
        super().__init__("cpu", cost, supported=None, debug=debug)


def resolve_backend(name: str, **kwargs) -> Backend:
    """Instantiate a backend by name; the sim backend is imported only when
    named, so the engine works with that module removed entirely."""
    if name == "cpu":
        return CpuBackend(**kwargs)
    if name == "sim":
        try:
            from .simbackend import SimBackend
        except ModuleNotFoundError as exc:
            if exc.name != f"{__package__}.simbackend":
                raise
            raise GraphValidationError("sim backend not available") from None
        return SimBackend(**kwargs)
    raise GraphValidationError(f"unknown backend {name!r}")


class Session:
    """One executable binding of a plan: pools, arrays, one call per step.

    A session is used by one thread at a time, and its kernels run on that
    thread; several sessions may share the same (immutable) plan
    concurrently.  ``threads`` is accepted and ignored: the benchmark in
    perfbench/ still passes it, and it goes once it stops.
    """

    def __init__(self, plan: ExecutionPlan, backends: list[Backend],
                 threads: int = 1):
        self.plan = plan
        self.backends = {b.name: b for b in backends}
        shapes = plan.graph.tensor_shapes
        self._acquired: list[tuple[Backend, np.ndarray]] = []

        needed = {step.backend for step in plan.steps
                  if isinstance(step, OpStep)}
        for name in needed:
            if name not in self.backends:
                raise GraphValidationError(f"plan needs backend {name!r}")

        for name, mem in plan.memory.items():
            self.backends[name].set_pool(mem.pool_size)

        def nhwc4(buf: np.ndarray, tid: str) -> np.ndarray:
            dims = data_shape(shapes[tid].dims, Layout.NHWC4)
            return buf[:packed_bytes(shapes[tid]) // 4].reshape(dims)

        # every (tensor, backend) residency as its NHWC4 array, bound once:
        # a staging buffer (outside the pools) for each graph input, which
        # a run packs its input into, then the planned pool slices
        cpu = backends[0]
        arrays: dict[tuple[str, str], np.ndarray] = {}
        self._staging: dict[str, np.ndarray] = {}
        for tid in plan.graph.inputs:
            buf = cpu.acquire_buffer(packed_bytes(shapes[tid]),
                                     owner=f"input:{tid}")
            self._staging[tid] = arrays[(tid, cpu.name)] = nhwc4(buf, tid)
            self._acquired.append((cpu, buf))
        for name, mem in plan.memory.items():
            backend = self.backends[name]
            for tid, offset in mem.offsets.items():
                buf = backend.acquire_buffer(mem.sizes[tid], offset, owner=tid)
                # a fused step's scratch stays flat
                arrays.setdefault((tid, name),
                                  nhwc4(buf, tid) if tid in shapes else buf)
                self._acquired.append((backend, buf))
            # a folded Add's output is written over its skip
            for tid, root in mem.aliases.items():
                arrays[(tid, name)] = arrays[(root, name)].reshape(
                    data_shape(shapes[tid].dims, Layout.NHWC4))

        # one call per step, bound once, as (name, call, dispatch surcharge
        # in ms): an op step's runner on its arrays (and its scratch, with
        # folded nodes), or a transfer's copy between the arrays of its
        # source and destination, which build_steps puts on different
        # backends
        self._bound: list[tuple[str, partial, float]] = []
        for step in plan.steps:
            if isinstance(step, TransferStep):
                self._bound.append((
                    f"transfer:{step.tensor}",
                    partial(np.copyto, arrays[(step.tensor, step.dst)],
                            arrays[(step.tensor, step.src)]), 0.0))
                continue
            backend = self.backends[step.backend]
            # the scratch goes by position: a keyword's dict would be made
            # again on every call, on the run's heap
            scratch = ([arrays[(step.scratch_id, step.backend)]]
                       if step.folded else [])
            self._bound.append((
                step.node.id,
                partial(backend.create_execution(step, plan),
                        [arrays[(t, step.backend)] for t in step.node.inputs],
                        [arrays[(t, step.backend)] for t in step.outputs],
                        *scratch),
                backend.dispatch_surcharge_ms))
        self._outputs = [(tid, Tensor(shapes[tid].dims, Layout.NHWC4,
                                      arrays[(tid, cpu.name)]))
                         for tid in plan.graph.outputs]
        self._closed = False

    def run(self, inputs: dict[str, Tensor] | Tensor) -> dict[str, Tensor]:
        """Execute the plan: each step's bound call, in order, untimed;
        returns the outputs, NCHW.

        Each input, NCHW or packed, must match its graph shape, in data as
        in metadata, with zero pad lanes (LayoutError otherwise); any dtype
        is cast.  It is packed straight into the NHWC4 staging view.
        """
        return self._boundary(inputs, self._steps)

    def run_timed(self, inputs: dict[str, Tensor] | Tensor):
        """run, and each step's time: returns (outputs, per-step millisecond
        times).  Sim-style backends account their per-op dispatch latency
        into the reported times; numerical results are unaffected."""
        times: list[tuple[str, float]] = []

        def steps():
            for name, call, surcharge in self._bound:
                start = time.perf_counter()
                call()
                times.append((name, (time.perf_counter() - start) * 1e3
                              + surcharge))

        return self._boundary(inputs, steps), times

    def _steps(self) -> None:
        for _, call, _ in self._bound:
            call()

    def _boundary(self, inputs: dict[str, Tensor] | Tensor,
                  steps) -> dict[str, Tensor]:
        """Pack the inputs into their staging arrays (as run says), call
        steps(), and return the outputs unpacked to NCHW."""
        if self._closed:
            raise GraphValidationError("session is closed")
        g = self.plan.graph
        if isinstance(inputs, Tensor):
            if len(g.inputs) != 1:
                raise ShapeMismatchError("graph expects multiple inputs")
            inputs = {g.inputs[0]: inputs}
        for tid in g.inputs:
            if tid not in inputs:
                raise GraphValidationError(f"missing graph input {tid!r}")
            t = inputs[tid]
            want = g.tensor_shapes[tid].dims
            if tuple(t.shape) != want:
                raise ShapeMismatchError(
                    f"input {tid!r} shape {t.shape} != expected {want}"
                )
            # data of another extent would leave part of the staging buffer
            # stale, and non-zero pad lanes leak into every conv's sums
            t.validate_layout()
            relayout(t, Layout.NHWC4, out=self._staging[tid])
        steps()
        return {tid: relayout(view, Layout.NCHW)
                for tid, view in self._outputs}

    def close(self) -> None:
        if self._closed:
            return
        for backend, view in self._acquired:
            backend.release_buffer(view)
        self._acquired.clear()
        self._closed = True


def run_session(plan: ExecutionPlan, input_tensor: Tensor,
                backends: list[Backend] | None = None) -> dict[str, Tensor]:
    """Build a throwaway session over the plan and run one inference."""
    if backends is None:
        backends = [CpuBackend()]
    session = Session(plan, backends)
    try:
        return session.run(input_tensor)
    finally:
        session.close()
