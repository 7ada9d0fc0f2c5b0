"""nanoinfer: a desk-scale CNN inference engine.

Pre-inference planning picks a convolution algorithm (sliding window or
runtime-generated Winograd) and a backend per operator from an explicit
cost model, transforms weights once, and lays out every intermediate
tensor in a pre-sized memory pool; the execution loop then just runs
kernels.  MatMul runs one direct GEMM: matmul_strassen is the paper's
kernel, tested on its own, and it measured slower than direct wherever the
engine's weighted cutoff would take a level.
"""

from .backend import CpuBackend, Session, resolve_backend, run_session
from .graph import Graph, OpKind, fuse, infer_shapes, load_model, save_model
from .kernels import (
    ConvParams, MatDims, conv_sliding, matmul_direct, matmul_strassen,
    strassen_should_recurse,
)
from .preinference import (
    BackendSpec, CostModel, ExecutionPlan, SchemeChoice, SchemeKind,
    op_cost, plan_memory, pre_infer, select_backend, select_schemes,
)
from .tensor import (
    Layout, Shape, Tensor, from_nchw, pack_nc4hw4, relayout, unpack_nc4hw4,
)
from .winograd import (
    WinogradTransform, conv_winograd, generate_transforms,
)

__version__ = "0.1.0"
