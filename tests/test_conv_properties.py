"""Property test: every runnable scheme of a random conv matches the
float64 reference, through the backend execution a session would run."""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import conv2d_reference
from nanoinfer.backend import CpuBackend
from nanoinfer.graph import GraphBuilder
from nanoinfer.preinference import (
    OpStep, SchemeKind, conv_schemes, pre_infer,
)
from nanoinfer.tensor import Layout, Tensor, data_shape, from_nchw, relayout

# largest deviation from the reference, relative to its largest magnitude
# before ReLU; Winograd's transforms round more than a direct sum
TOLERANCE = {SchemeKind.SLIDING_WINDOW: 1e-4, SchemeKind.WINOGRAD: 1e-3}


@st.composite
def convs(draw):
    """(GraphBuilder.conv keywords, input shape, data seed) of one conv:
    kernels 1-5, square or not, strides 1-2, pads below the kernel,
    dense, depthwise or grouped over 1-9 channels, batch 1-2."""
    kh = draw(st.integers(1, 5))
    kw = kh if draw(st.booleans()) else draw(st.integers(1, 5))
    # half the convs unstrided, so that Winograd, which needs stride 1,
    # is drawn often
    sh, sw = ((1, 1) if draw(st.booleans())
              else (draw(st.integers(1, 2)), draw(st.integers(1, 2))))
    ph, pw = draw(st.integers(0, kh - 1)), draw(st.integers(0, kw - 1))
    kind = draw(st.sampled_from(["dense", "depthwise", "grouped"]))
    if kind == "dense":
        group = 1
        in_c, out_c = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    elif kind == "depthwise":
        group = in_c = out_c = draw(st.integers(1, 9))
    else:
        group = draw(st.integers(2, 4))
        in_c = group * draw(st.integers(1, 9 // group))
        out_c = group * draw(st.integers(1, 9 // group))
    h = draw(st.integers(max(1, kh - 2 * ph), kh + 6))
    w = draw(st.integers(max(1, kw - 2 * pw), kw + 6))
    n = draw(st.integers(1, 2))
    conv = dict(kernel=(kh, kw), stride=(sh, sw), pad=(ph, pw), out_c=out_c,
                group=group, bias=draw(st.booleans()),
                activation=draw(st.sampled_from(["none", "relu"])))
    return conv, (n, in_c, h, w), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(convs())
def test_every_scheme_matches_reference(case):
    conv, shape, seed = case
    b = GraphBuilder(shape, seed=seed)
    b.conv(**conv)
    g = b.build()
    node = g.nodes[0]
    cpu = CpuBackend()
    plan = pre_infer(g, [cpu.spec()])
    x = np.random.default_rng(seed).uniform(-1, 1, shape).astype(np.float32)
    packed = relayout(from_nchw(x), Layout.NHWC4).data

    w = node.weights.astype(np.float64)
    bias = None if node.bias is None else node.bias.astype(np.float64)
    pre = conv2d_reference(x.astype(np.float64), w, stride=conv["stride"],
                           pad=conv["pad"], group=conv["group"], bias=bias)
    want = np.maximum(pre, 0.0) if conv["activation"] == "relu" else pre
    scale = float(np.max(np.abs(pre))) + 1e-12

    out_shape = g.tensor_shapes[node.outputs[0]]
    schemes = conv_schemes(node.params())
    assert plan.schemes[node.id] in schemes
    for scheme in schemes:
        execution = cpu.create_execution(
            OpStep(node, scheme, cpu.name), plan)
        out = np.full(data_shape(out_shape.dims, Layout.NHWC4), np.nan,
                      np.float32)
        execution([packed], [out])
        # every lane written, the pad lanes zero: the NCHW view below
        # drops them
        assert not np.any(np.isnan(out)), scheme.label()
        assert np.all(out[..., conv["out_c"]:] == 0), scheme.label()
        got = relayout(Tensor(out_shape.dims, Layout.NHWC4, out),
                       Layout.NCHW).data
        assert got.shape == want.shape
        err = float(np.max(np.abs(got - want))) / scale
        assert err <= TOLERANCE[scheme.kind], (scheme.label(), err)
