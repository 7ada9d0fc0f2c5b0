"""Simulated device backend: CPU kernels behind a GPU-like contract.

Exercises every seam of the backend abstraction on any machine: a separate
buffer namespace that requires explicit transfers, a configurable supported
op set for hybrid-fallback planning, and a per-op dispatch latency that is
charged to timing reports only.  Results are bitwise identical to the CPU
backend because the very same kernels run underneath.

The module is self-registering and nothing in the engine imports it
directly, so it can be deleted wholesale without touching the CPU paths.
"""

from __future__ import annotations

from .backend import Backend, Execution, _build_cpu_execution, register_backend
from .errors import UnsupportedOpError
from .graph import OpKind
from .preinference import (
    CostModel, ExecutionPlan, OpStep, T_SCHEDULE_OPENCL_MS, UNKNOWN_GPU_FLOPS,
)

SIM_COST = CostModel(flops=UNKNOWN_GPU_FLOPS, t_schedule_ms=T_SCHEDULE_OPENCL_MS)


class SimBackend(Backend):
    def __init__(self, cost: CostModel = SIM_COST,
                 supported: frozenset[OpKind] | None = None,
                 debug: bool = False):
        super().__init__("sim", cost, supported=supported, debug=debug)
        self.dispatch_surcharge_ms = cost.t_schedule_ms
        self.dispatch_count = 0

    def create_execution(self, step: OpStep,
                         plan: ExecutionPlan) -> Execution:
        if not self.supports(step.node.kind):
            raise UnsupportedOpError(
                f"sim backend does not support {step.node.kind.value}"
            )
        inner = _build_cpu_execution(step, plan)

        def run(inputs, outputs, scratch=None):
            self.dispatch_count += 1
            inner.run(inputs, outputs, scratch)

        return Execution(step.node, run)


register_backend("sim", SimBackend)
