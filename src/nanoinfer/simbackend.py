"""Simulated device backend: CPU kernels behind a GPU-like contract.

Exercises every seam of the backend abstraction on any machine: a separate
buffer namespace that requires explicit transfers, a configurable supported
op set for hybrid-fallback planning, and a per-op dispatch latency that is
charged to timing reports only.  Results are bitwise identical to the CPU
backend because the very same kernels run underneath.

Nothing in the engine imports this module except backend.resolve_backend,
and only when the sim backend is named, so it can be deleted wholesale
without touching the CPU paths.
"""

from __future__ import annotations

from .backend import Backend
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

    def create_execution(self, step: OpStep, plan: ExecutionPlan):
        for node in (step.node, *step.folded):
            if not self.supports(node.kind):
                raise UnsupportedOpError(
                    f"sim backend does not support {node.kind.value}"
                )
        return super().create_execution(step, plan)
