"""The benchmark's workloads: a graph and a fixed set of inputs per seed.

Every workload is single stream: one caller, batch 1, closed loop.

- mobilenet-32: the shipped mobilenet-mini (1x3x32x32). Depthwise
  sliding-window and 1x1 Strassen/matmul steps dominate; Winograd covers
  only the stem, so Winograd-only changes should leave it unchanged.
- resnet-32: the shipped resnet-mini. Winograd on 32- and 16-pixel maps,
  where tile padding waste and fixed per-call costs are large.
- resnet-64: the resnet-mini topology at 1x3x64x64. Same layers on 4x the
  pixels, so a tile or threading change that helps one map size and hurts
  the other shows as a regression on one of the pair.
"""

from __future__ import annotations

import numpy as np

from nanoinfer.graph import Graph, GraphBuilder
from nanoinfer.presets import build_preset

N_INPUTS = 8  # distinct seeded inputs cycled through by the caller


def resnet_at(size: int, seed: int) -> Graph:
    """resnet-mini's topology on a size x size input."""
    b = GraphBuilder((1, 3, size, size), seed=seed)
    b.conv(kernel=3, pad=1, out_c=16)
    b.relu()
    for i, c in enumerate((16, 32)):
        entry = b.last
        stride = 1 if b.shape_of(entry)[1] == c else 2
        first = b.relu(b.conv(entry, kernel=3, stride=stride, pad=1, out_c=c,
                              name=f"res{i}a"))
        second = b.conv(first, kernel=3, pad=1, out_c=c, name=f"res{i}b")
        if stride == 1:
            skip = entry
        else:
            skip = b.conv(entry, kernel=1, stride=stride, out_c=c,
                          name=f"res{i}proj")
        b.add(second, skip)
        b.relu()
    b.pool(kernel=b.shape_of(b.last)[2], mode="avg")
    b.reshape((1, 32, 1, 1))
    b.matmul(10)
    b.softmax()
    return b.build()


WORKLOADS = {
    "mobilenet-32": lambda seed: build_preset("mobilenet-mini", seed=seed),
    "resnet-32": lambda seed: build_preset("resnet-mini", seed=seed),
    "resnet-64": lambda seed: resnet_at(64, seed),
}


def make_graph(name: str, seed: int) -> Graph:
    return WORKLOADS[name](seed)


def make_inputs(graph: Graph, seed: int) -> list[dict[str, np.ndarray]]:
    """N_INPUTS seeded uniform [-1, 1] float32 NCHW inputs."""
    rng = np.random.default_rng([seed, 1])
    return [{tid: rng.uniform(-1.0, 1.0, shape.dims).astype(np.float32)
             for tid, shape in graph.input_shapes.items()}
            for _ in range(N_INPUTS)]
