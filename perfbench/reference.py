"""Independent float64 NCHW reference evaluator for benchmark graphs.

It reads only the graph's structure, attributes and weights, and computes
every op in float64 with plain NumPy on NCHW arrays. It calls none of the
engine's kernels, layout code or planner, so it can judge them.

Op semantics follow the engine's documented model format: Conv2D with
groups, zero padding and an optional fused ReLU; Pool2D where padding never
wins a max (a window of padding only yields 0) and counts as zero toward an
average; Softmax over the channel axis; MatMul on the flattened NCHW input.

Run ``python3 perfbench/reference.py`` to self-test against scalar loops.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _pair(value) -> tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    return (int(value[0]), int(value[1]))


def _windows(x: np.ndarray, kernel, stride, pad, fill: float) -> np.ndarray:
    """[n, c, oh, ow, kh, kw] windows of x padded with `fill`."""
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, pad
    n, c, h, w = x.shape
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    xp = np.full((n, c, h + 2 * ph, w + 2 * pw), fill, dtype=np.float64)
    xp[:, :, ph:ph + h, pw:pw + w] = x
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))
    return win[:, :, ::sh, ::sw][:, :, :oh, :ow]


def conv2d(x, weights, bias, attrs) -> np.ndarray:
    kernel = _pair(attrs["kernel"])
    stride = _pair(attrs.get("stride", 1))
    pad = _pair(attrs.get("pad", 0))
    group = int(attrs.get("group", 1))
    n, c = x.shape[:2]
    out_c = weights.shape[0]
    win = _windows(x, kernel, stride, pad, 0.0)
    oh, ow = win.shape[2], win.shape[3]
    win = win.reshape(n, group, c // group, oh, ow, *kernel)
    w = np.asarray(weights, dtype=np.float64).reshape(
        group, out_c // group, c // group, *kernel)
    y = np.einsum("ngcijuv,gocuv->ngoij", win, w, optimize=True)
    y = y.reshape(n, out_c, oh, ow)
    if bias is not None:
        y = y + np.asarray(bias, dtype=np.float64).reshape(1, -1, 1, 1)
    if attrs.get("activation", "none") == "relu":
        y = np.maximum(y, 0.0)
    return y


def pool2d(x, attrs) -> np.ndarray:
    kernel = _pair(attrs["kernel"])
    stride = _pair(attrs.get("stride", kernel))
    pad = _pair(attrs.get("pad", 0))
    if attrs.get("mode", "max") == "max":
        y = _windows(x, kernel, stride, pad, -np.inf).max(axis=(4, 5))
        return np.where(np.isneginf(y), 0.0, y)
    win = _windows(x, kernel, stride, pad, 0.0)
    return win.sum(axis=(4, 5)) / float(kernel[0] * kernel[1])


def softmax(x) -> np.ndarray:
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def evaluate(graph, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every tensor of the graph, in float64 NCHW, for the given inputs."""
    values = {tid: np.asarray(arr, dtype=np.float64)
              for tid, arr in inputs.items()}
    for node in graph.nodes:
        ins = [values[tid] for tid in node.inputs]
        kind = node.kind.value
        if kind == "Conv2D":
            out = conv2d(ins[0], node.weights, node.bias, node.attrs)
        elif kind == "Pool2D":
            out = pool2d(ins[0], node.attrs)
        elif kind == "ReLU":
            out = np.maximum(ins[0], 0.0)
        elif kind == "Add":
            out = ins[0] + ins[1]
        elif kind == "Softmax":
            out = softmax(ins[0])
        elif kind == "Reshape":
            out = ins[0].reshape([int(d) for d in node.attrs["shape"]])
        elif kind == "MatMul":
            n = ins[0].shape[0]
            out = ins[0].reshape(n, -1) @ np.asarray(node.weights, np.float64)
            if node.bias is not None:
                out = out + np.asarray(node.bias, dtype=np.float64)
            out = out.reshape(n, -1, 1, 1)
        else:
            raise ValueError(f"reference has no rule for op kind {kind!r}")
        for tid in node.outputs:
            values[tid] = out
    return values


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute deviation, relative to the reference's largest
    magnitude (a scale that stays meaningful where entries are near 0)."""
    scale = max(float(np.max(np.abs(want))), 1e-30)
    return float(np.max(np.abs(np.asarray(got, np.float64) - want))) / scale


# --- self-test: the vectorised rules against scalar loop definitions ------

def _loop_conv(x, w, b, stride, pad, group, relu):
    n, c, h, wd = x.shape
    out_c, icg, kh, kw = w.shape
    ocg = out_c // group
    oh = (h + 2 * pad[0] - kh) // stride[0] + 1
    ow = (wd + 2 * pad[1] - kw) // stride[1] + 1
    y = np.zeros((n, out_c, oh, ow))
    for img, o, i, j in itertools.product(range(n), range(out_c),
                                          range(oh), range(ow)):
        g = o // ocg
        acc = 0.0 if b is None else float(b[o])
        for ci, u, v in itertools.product(range(icg), range(kh), range(kw)):
            r = i * stride[0] + u - pad[0]
            s = j * stride[1] + v - pad[1]
            if 0 <= r < h and 0 <= s < wd:
                acc += float(w[o, ci, u, v]) * float(x[img, g * icg + ci, r, s])
        y[img, o, i, j] = max(acc, 0.0) if relu else acc
    return y


def _loop_pool(x, k, stride, pad, mode):
    n, c, h, w = x.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    y = np.zeros((n, c, oh, ow))
    for img, ch, i, j in itertools.product(range(n), range(c),
                                           range(oh), range(ow)):
        seen = [float(x[img, ch, r, s])
                for r in range(i * stride - pad, i * stride - pad + k)
                for s in range(j * stride - pad, j * stride - pad + k)
                if 0 <= r < h and 0 <= s < w]
        if mode == "max":
            y[img, ch, i, j] = max(seen) if seen else 0.0
        else:
            y[img, ch, i, j] = sum(seen) / (k * k)
    return y


def self_test() -> None:
    """Check evaluate() on a tiny graph that uses every op and attribute
    the benchmark graphs use, plus grouped and padded variants. Raises
    AssertionError on a mismatch."""
    from nanoinfer.graph import GraphBuilder

    b = GraphBuilder((1, 3, 7, 6), seed=3)
    c0 = b.conv(kernel=3, pad=1, out_c=8, name="dense")
    c1 = b.conv(c0, kernel=3, stride=2, pad=1, out_c=8, group=8,
                activation="relu", name="depthwise")
    c2 = b.conv(c1, kernel=(1, 3), pad=(0, 1), out_c=4, group=2, name="grp")
    c3 = b.conv(c1, kernel=1, out_c=4, bias=False, name="pointwise")
    s = b.add(c2, c3)
    r = b.relu(s)
    p0 = b.pool(r, kernel=3, stride=2, pad=1, mode="max")
    p1 = b.pool(p0, kernel=2, mode="avg")
    b.reshape((1, 4, 1, 1), src=p1)
    b.matmul(5)
    b.softmax()
    g = b.build()
    x = np.random.default_rng(0).uniform(-1, 1, (1, 3, 7, 6))
    got = evaluate(g, {"input": x})

    nodes = {node.id: node for node in g.nodes}
    want = {}

    def conv(name, src, relu=False):
        node = nodes[name]
        (kh, kw), stride, pad = node.conv_geometry()
        return _loop_conv(src, node.weights, node.bias, stride, pad,
                          int(node.attrs["group"]), relu)

    want[c0] = conv("dense", x)
    want[c1] = conv("depthwise", want[c0], relu=True)
    want[c2] = conv("grp", want[c1])
    want[c3] = conv("pointwise", want[c1])
    want[r] = np.maximum(want[c2] + want[c3], 0.0)
    want[p0] = _loop_pool(want[r], 3, 2, 1, "max")
    want[p1] = _loop_pool(want[p0], 2, 2, 0, "avg")
    mm = g.nodes[-2]
    logits = [float(mm.bias[o]) + sum(float(v) * float(mm.weights[i, o])
                                      for i, v in enumerate(want[p1].ravel()))
              for o in range(5)]
    total = sum(math.exp(v - max(logits)) for v in logits)
    want[g.outputs[0]] = np.array(
        [math.exp(v - max(logits)) / total for v in logits]).reshape(1, 5, 1, 1)
    for tid, expect in want.items():
        if got[tid].shape != expect.shape:
            raise AssertionError(f"reference self-test: {tid} has shape "
                                 f"{got[tid].shape}, want {expect.shape}")
        err = float(np.max(np.abs(got[tid] - expect)))
        if not err < 1e-12:
            raise AssertionError(f"reference self-test: {tid} off by {err}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    self_test()
    print("reference self-test passed")
