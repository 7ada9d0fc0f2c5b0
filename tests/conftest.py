import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240117)


@pytest.fixture
def winograd_planned(monkeypatch):
    """Make pre_infer plan every conv that can run Winograd at tile 6,
    whatever its cost, to exercise the planned Winograd pipeline."""
    import nanoinfer.preinference as pre

    tile6 = pre.SchemeChoice(pre.SchemeKind.WINOGRAD, 6)
    cheapest = pre.select_scheme_for

    def select(node, shapes):
        if tile6 in pre.conv_schemes(node.params()):
            return tile6
        return cheapest(node, shapes)

    monkeypatch.setattr(pre, "select_scheme_for", select)
    return tile6


def batched_matmul_graph():
    """64 images of 4x4x4 through one MatMul: a 64x64 by 64 product, which
    the count rule (ADD_COST 1) splits twice, where a batch-1 MatMul's
    product takes no level even at weight 1.  A session multiplies it
    directly all the same."""
    from nanoinfer.graph import GraphBuilder

    b = GraphBuilder((64, 4, 4, 4), seed=0)
    b.matmul(64)
    return b.build()


def conv2d_reference(x, w, stride=(1, 1), pad=(0, 0), group=1, bias=None,
                     relu=False):
    """Naive NCHW convolution oracle: explicit loops over output pixels.

    Deliberately independent of the engine's kernels; used as ground truth.
    """
    n, c, h, wd = x.shape
    out_c, icg, kh, kw = w.shape
    sh, sw = stride
    ph, pw = pad
    ocg = out_c // group
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    oh, ow = max(oh, 0), max(ow, 0)
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    y = np.zeros((n, out_c, oh, ow), dtype=np.float64)
    for img in range(n):
        for o in range(out_c):
            g = o // ocg
            xg = xp[img, g * icg:(g + 1) * icg]
            for i in range(oh):
                for j in range(ow):
                    patch = xg[:, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    y[img, o, i, j] = np.sum(patch * w[o])
    if bias is not None:
        y += bias.reshape(1, out_c, 1, 1)
    if relu:
        y = np.maximum(y, 0.0)
    return y


def pool2d_reference(x, kernel, stride, pad, mode):
    """Naive NCHW pooling oracle in float64: explicit loops over windows.

    Max ignores padding and reads 0 where a window sees padding only; avg
    counts padding as zeros and divides by the full window size.
    """
    n, c, h, wd = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = pad
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wd + 2 * pw - kw) // sw + 1
    y = np.zeros((n, c, oh, ow), dtype=np.float64)
    for i in range(oh):
        for j in range(ow):
            r0, c0 = i * sh - ph, j * sw - pw
            rows = range(max(r0, 0), min(r0 + kh, h))
            cols = range(max(c0, 0), min(c0 + kw, wd))
            if not rows or not cols:
                continue  # only padding: max reads 0, avg sums nothing
            win = x[:, :, rows.start:rows.stop, cols.start:cols.stop]
            win = win.astype(np.float64)
            if mode == "max":
                y[:, :, i, j] = win.max(axis=(2, 3))
            else:
                y[:, :, i, j] = win.sum(axis=(2, 3)) / (kh * kw)
    return y


def valid_corr2d(x, w):
    """Direct valid 2-d correlation (no kernel flip), float64."""
    k = w.shape[0]
    n = x.shape[0] - k + 1
    y = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            y[i, j] = np.sum(x[i:i + k, j:j + k] * w)
    return y


def rel_err(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = np.max(np.abs(want)) + 1e-12
    return float(np.max(np.abs(got - want)) / scale) if got.size else 0.0


def assert_replayed(g, plan, backends, x):
    """A session of plan on backends, every pool (fused scratch included)
    filled with NaN first, gives replay_cpu's bits on inputs x; returns
    the session's outputs, NCHW arrays by tensor id."""
    from nanoinfer.backend import Session
    from nanoinfer.cli import replay_cpu
    from nanoinfer.tensor import Layout, relayout

    session = Session(plan, backends)
    for b in backends:
        if b.name in plan.memory:
            b.acquire_buffer(plan.memory[b.name].pool_size, 0,
                             owner="poison")[:] = np.nan
    try:
        got = {tid: t.data.copy() for tid, t in session.run(x).items()}
    finally:
        session.close()
    want = replay_cpu(g, plan, x)
    for tid in g.outputs:
        assert got[tid].tobytes() == relayout(
            want[tid], Layout.NCHW).data.tobytes(), tid
    return got
