"""Uniform backend interface, the CPU backend, and plan-driven sessions.

A backend owns a buffer namespace (acquire/release, optionally served from
a pre-planned pool) and creates reusable execution instances per operator.
A session binds an ExecutionPlan to concrete pools once, then every
inference runs the same step list; tensors crossing backends are moved by
explicit transfer steps.  Activations, transfer copies and MatMul's Strassen
scratch are views into the pools; conv and pool kernels, and the layout round
trips of MatMul, Softmax and Reshape, still allocate their temporaries on the
heap.  A conv runs Winograd at its planned tile or sliding window.
"""

from __future__ import annotations

import importlib
import time
from abc import ABC, abstractmethod

import numpy as np

from .errors import (
    GraphValidationError, PoolExhaustedError, ShapeMismatchError,
    UnsupportedOpError,
)
from .graph import OpKind, OpNode
from .kernels import LANES, conv_sliding, matmul_strassen
from .preinference import (
    CPU_COST, BackendSpec, CostModel, ExecutionPlan, OpStep, SchemeKind,
    TransferStep, _conv_params, packed_bytes,
)
from .tensor import (
    Layout, Tensor, channel_blocks, from_nchw, pack_nc4hw4, unpack_nc4hw4,
)
from .winograd import conv_winograd, generate_transforms, weight_transform


class Backend(ABC):
    """Resource management and execution creation for one device."""

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
        """Allocate the backing pool once; planned acquires slice into it."""
        self._pool = np.zeros(max(nbytes, 0), dtype=np.uint8)
        self._pool_size = nbytes
        self.alloc_count += 1

    def acquire_buffer(self, nbytes: int, offset: int | None = None,
                       owner: str = "?") -> np.ndarray:
        """A float32 view of `nbytes` bytes, pool-backed when planned.

        With an offset the view comes from the pre-planned pool; pool
        overruns are a planner bug and fail loudly, naming the owner op.
        Without an offset a fresh buffer is allocated (and counted).
        """
        if nbytes < 0:
            raise PoolExhaustedError(f"negative buffer size for {owner!r}")
        self.acquire_count += 1
        if offset is None:
            self.alloc_count += 1
            return np.zeros(nbytes // 4, dtype=np.float32)
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

    @abstractmethod
    def create_execution(self, step: OpStep, plan: ExecutionPlan,
                         shapes) -> "Execution":
        ...


class Execution:
    """Reusable per-operator execution instance bound to one backend."""

    def __init__(self, node: OpNode, runner):
        self.node = node
        self._runner = runner

    def run(self, inputs: list[np.ndarray], outputs: list[np.ndarray],
            scratch: np.ndarray | None = None) -> None:
        self._runner(inputs, outputs, scratch)


def _packed_view(buf: np.ndarray, shape) -> np.ndarray:
    n, c, h, w = shape.dims
    return buf[:n * channel_blocks(c) * h * w * LANES].reshape(
        n, channel_blocks(c), h, w, LANES
    )


def _as_tensor(view: np.ndarray, shape) -> Tensor:
    data = view if view.ndim == 5 else _packed_view(view, shape)
    return Tensor(shape=tuple(shape.dims), layout=Layout.NC4HW4, data=data)


def _softmax_channels(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def _build_cpu_execution(step: OpStep, plan: ExecutionPlan, shapes) -> Execution:
    node = step.node
    kind = node.kind

    if kind is OpKind.CONV2D:
        return _build_conv_execution(step, plan, shapes)

    if kind is OpKind.MATMUL:
        weights = np.ascontiguousarray(node.weights, dtype=np.float32)
        bias = None if node.bias is None else node.bias.astype(np.float32)
        in_shape = shapes[node.inputs[0]]
        out_shape = shapes[node.outputs[0]]

        def run(inputs, outputs, scratch=None):
            x = unpack_nc4hw4(_as_tensor(inputs[0], in_shape)).data
            flat = x.reshape(x.shape[0], -1)
            y = matmul_strassen(flat, weights, scratch=scratch)
            if bias is not None:
                y = y + bias
            out = _packed_view(outputs[0], out_shape)
            out[:] = pack_nc4hw4(from_nchw(y.reshape(*out_shape.dims))).data

        return Execution(node, run)

    if kind is OpKind.RELU:
        def run(inputs, outputs, scratch=None):
            np.maximum(inputs[0], 0.0, out=outputs[0][:inputs[0].size])
        return Execution(node, run)

    if kind is OpKind.ADD:
        def run(inputs, outputs, scratch=None):
            np.add(inputs[0], inputs[1], out=outputs[0][:inputs[0].size])
        return Execution(node, run)

    if kind is OpKind.SOFTMAX:
        in_shape = shapes[node.inputs[0]]

        def run(inputs, outputs, scratch=None):
            x = unpack_nc4hw4(_as_tensor(inputs[0], in_shape))
            y = _softmax_channels(x.data)
            out = _packed_view(outputs[0], in_shape)
            out[:] = pack_nc4hw4(from_nchw(y)).data

        return Execution(node, run)

    if kind is OpKind.RESHAPE:
        in_shape = shapes[node.inputs[0]]
        out_shape = shapes[node.outputs[0]]

        def run(inputs, outputs, scratch=None):
            x = unpack_nc4hw4(_as_tensor(inputs[0], in_shape))
            y = x.data.reshape(*out_shape.dims)
            out = _packed_view(outputs[0], out_shape)
            out[:] = pack_nc4hw4(from_nchw(y)).data

        return Execution(node, run)

    if kind is OpKind.POOL2D:
        return _build_pool_execution(step, shapes)

    raise UnsupportedOpError(f"no CPU execution for kind {kind}")


def _build_conv_execution(step: OpStep, plan: ExecutionPlan,
                          shapes) -> Execution:
    node = step.node
    p = _conv_params(node)
    in_shape = shapes[node.inputs[0]]
    out_shape = shapes[node.outputs[0]]
    bias = None if node.bias is None else node.bias.astype(np.float32)
    scheme = step.scheme

    if scheme.kind is SchemeKind.WINOGRAD:
        transform = generate_transforms(scheme.tile, p.kh, plan.spacing)

        def run(inputs, outputs, scratch=None):
            transformed = plan.weight_cache.get(
                (node.id, scheme.tile),
                compute=lambda: weight_transform(node.weights, transform))
            x = _as_tensor(inputs[0], in_shape)
            y = conv_winograd(x, node.weights, p, transform, bias=bias,
                              transformed=transformed)
            _packed_view(outputs[0], out_shape)[:] = y.data

        return Execution(node, run)

    def run(inputs, outputs, scratch=None):
        x = _as_tensor(inputs[0], in_shape)
        y = conv_sliding(x, node.weights, p, bias=bias)
        _packed_view(outputs[0], out_shape)[:] = y.data

    return Execution(node, run)


def _build_pool_execution(step: OpStep, shapes) -> Execution:
    node = step.node
    (kh, kw), (sh, sw), (ph, pw) = node.pool_geometry()
    mode = node.attrs.get("mode", "max")
    in_shape = shapes[node.inputs[0]]
    out_shape = shapes[node.outputs[0]]

    def run(inputs, outputs, scratch=None):
        x = _packed_view(inputs[0], in_shape)
        n, blocks, h, w, _ = x.shape
        oh, ow = out_shape.dims[2], out_shape.dims[3]
        xp = x
        if ph or pw:
            xp = np.full((n, blocks, h + 2 * ph, w + 2 * pw, LANES),
                         -np.inf if mode == "max" else 0.0, dtype=np.float32)
            xp[:, :, ph:ph + h, pw:pw + w] = x
        # reduce one window axis at a time, each tap one call over the whole
        # tensor: kh taps over whole rows first, then kw taps on the fewer
        # rows left, where a strided window breaks the contiguous run
        combine = np.maximum if mode == "max" else np.add
        rows = xp[:, :, 0:sh * oh:sh].copy()
        for u in range(1, kh):
            combine(rows, xp[:, :, u:u + sh * oh:sh], out=rows)
        out = _packed_view(outputs[0], out_shape)
        out[:] = rows[:, :, :, 0:sw * ow:sw]
        for v in range(1, kw):
            combine(out, rows[:, :, :, v:v + sw * ow:sw], out=out)
        if mode == "max":
            # spatial padding is -inf so it never wins; scrub any window
            # that saw padding only, and keep channel pad lanes at zero
            out[np.isneginf(out)] = 0.0
        else:
            out /= float(kh * kw)  # padding zeros count toward the average

    return Execution(node, run)


class CpuBackend(Backend):
    def __init__(self, cost: CostModel = CPU_COST, debug: bool = False):
        super().__init__("cpu", cost, supported=None, debug=debug)

    def create_execution(self, step: OpStep, plan: ExecutionPlan,
                         shapes) -> Execution:
        return _build_cpu_execution(step, plan, shapes)


_BACKEND_FACTORIES = {"cpu": CpuBackend}


def register_backend(name: str, factory) -> None:
    _BACKEND_FACTORIES[name] = factory


def resolve_backend(name: str, **kwargs) -> Backend:
    """Instantiate a backend by name; the sim backend loads lazily so the
    engine works with that module removed entirely."""
    if name not in _BACKEND_FACTORIES and name == "sim":
        importlib.import_module("nanoinfer.simbackend")
    if name not in _BACKEND_FACTORIES:
        raise GraphValidationError(f"unknown backend {name!r}")
    return _BACKEND_FACTORIES[name](**kwargs)


def transfer(src_view: np.ndarray, dst_view: np.ndarray,
             counters: dict | None = None) -> None:
    """Copy a tensor between backend namespaces (value-equal, bitwise)."""
    if src_view.size != dst_view.size:
        raise ShapeMismatchError(
            f"transfer size mismatch {src_view.size} != {dst_view.size}"
        )
    np.copyto(dst_view, src_view)
    if counters is not None:
        counters["copies"] = counters.get("copies", 0) + 1


class Session:
    """One executable binding of a plan: pools, buffer views, executions.

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
        self._shapes = shapes
        self.transfer_counters: dict = {"copies": 0, "noop": 0}
        self._acquired: list[tuple[Backend, np.ndarray]] = []

        needed = {step.backend for step in plan.steps
                  if isinstance(step, OpStep)}
        for name in needed:
            if name not in self.backends:
                raise GraphValidationError(f"plan needs backend {name!r}")

        for name, mem in plan.memory.items():
            self.backends[name].set_pool(mem.pool_size)

        # staging buffers for graph inputs (outside the pools)
        cpu = backends[0]
        self._cpu_name = cpu.name
        self._input_views: dict[str, np.ndarray] = {}
        for tid in plan.graph.inputs:
            nbytes = packed_bytes(shapes[tid])
            view = cpu.acquire_buffer(nbytes, owner=f"input:{tid}")
            self._input_views[tid] = view
            self._acquired.append((cpu, view))

        # pool-backed views for every planned (tensor, backend) residency
        self._views: dict[tuple[str, str], np.ndarray] = {}
        for name, mem in plan.memory.items():
            backend = self.backends[name]
            for tid, offset in mem.offsets.items():
                view = backend.acquire_buffer(mem.sizes[tid], offset, owner=tid)
                self._views[(tid, name)] = view
                self._acquired.append((backend, view))
        for tid, view in self._input_views.items():
            self._views[(tid, cpu.name)] = view

        self._executions: list[tuple[OpStep, Execution]] = []
        for step in plan.steps:
            if isinstance(step, OpStep):
                backend = self.backends[step.backend]
                self._executions.append(
                    (step, backend.create_execution(step, plan, shapes)))
        self._closed = False

    def _view(self, tid: str, backend: str) -> np.ndarray:
        size = packed_bytes(self._shapes[tid]) // 4
        return self._views[(tid, backend)][:size]

    def run(self, inputs: dict[str, Tensor] | Tensor) -> dict[str, Tensor]:
        outputs, _ = self.run_timed(inputs)
        return outputs

    def run_timed(self, inputs: dict[str, Tensor] | Tensor):
        """Execute the plan; returns (outputs, per-step millisecond times).

        Sim-style backends account their per-op dispatch latency into the
        reported times; numerical results are unaffected.
        """
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
            want = tuple(self._shapes[tid].dims)
            if tuple(t.shape) != want:
                raise ShapeMismatchError(
                    f"input {tid!r} shape {t.shape} != expected {want}"
                )
            packed = t if t.layout is Layout.NC4HW4 else pack_nc4hw4(t)
            staged = self._views[(tid, self._cpu_name)]
            staged.reshape(-1)[:packed.data.size] = packed.data.reshape(-1)

        times: list[tuple[str, float]] = []
        exec_iter = iter(self._executions)
        for step in self.plan.steps:
            start = time.perf_counter()
            if isinstance(step, TransferStep):
                if step.src == step.dst:
                    self.transfer_counters["noop"] += 1
                else:
                    transfer(self._view(step.tensor, step.src),
                             self._view(step.tensor, step.dst),
                             self.transfer_counters)
                times.append((f"transfer:{step.tensor}",
                              (time.perf_counter() - start) * 1e3))
            else:
                op_step, execution = next(exec_iter)
                assert op_step is step
                ins = [self._view(t, step.backend) for t in step.node.inputs]
                outs = [self._view(t, step.backend) for t in step.node.outputs]
                scratch = self._views.get((step.scratch_id, step.backend))
                execution.run(ins, outs, scratch)
                elapsed = (time.perf_counter() - start) * 1e3
                backend = self.backends[step.backend]
                elapsed += getattr(backend, "dispatch_surcharge_ms", 0.0)
                times.append((step.node.id, elapsed))

        outputs = {}
        for tid in g.outputs:
            view = self._view(tid, self._cpu_name)
            shape = self._shapes[tid]
            packed = _as_tensor(_packed_view(view, shape).copy(), shape)
            outputs[tid] = unpack_nc4hw4(packed, shape.dims[1])
        return outputs, times

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
