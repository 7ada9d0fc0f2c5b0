"""Synthetic mini networks for benchmarks and tests.

Channels are capped at 64 and inputs at 64x64 so the full suite runs in
minutes on a laptop.  Weights are seeded, so generation is reproducible
byte for byte.  Branch joins use Add (channel concat is not in the op set).
"""

from __future__ import annotations

from .errors import GraphValidationError
from .graph import Graph, GraphBuilder


def mobilenet_mini(seed: int = 0) -> Graph:
    b = GraphBuilder((1, 3, 32, 32), seed=seed)
    b.conv(kernel=3, stride=1, pad=1, out_c=16)
    b.relu()
    channels = [16, 32, 64]
    for i, c_out in enumerate(channels):
        c_in = b.shape_of(b.last)[1]
        b.conv(kernel=3, pad=1, out_c=c_in, group=c_in, name=f"dw{i}")
        b.relu()
        b.conv(kernel=1, out_c=c_out, name=f"pw{i}")
        b.relu()
    b.pool(kernel=2, mode="max")
    spatial = b.shape_of(b.last)[2]
    b.pool(kernel=spatial, mode="avg")
    b.reshape((1, 64, 1, 1))
    b.matmul(10)
    b.softmax()
    return b.build()


def squeezenet_mini(seed: int = 0) -> Graph:
    b = GraphBuilder((1, 3, 32, 32), seed=seed)
    b.conv(kernel=3, stride=2, pad=1, out_c=32)
    b.relu()
    for i, c in enumerate((32, 64)):
        squeeze = b.conv(kernel=1, out_c=c // 4, name=f"squeeze{i}")
        squeeze = b.relu(squeeze)
        left = b.conv(squeeze, kernel=1, out_c=c, name=f"expand1x1_{i}")
        right = b.conv(squeeze, kernel=3, pad=1, out_c=c, name=f"expand3x3_{i}")
        b.add(left, right)
        b.relu()
    b.conv(kernel=1, out_c=10, name="classifier")
    b.relu()
    spatial = b.shape_of(b.last)[2]
    b.pool(kernel=spatial, mode="avg")
    b.softmax()
    return b.build()


def resnet_mini(seed: int = 0, size: int = 32) -> Graph:
    """The resnet-mini preset, on a size x size input (32 as shipped)."""
    b = GraphBuilder((1, 3, size, size), seed=seed)
    b.conv(kernel=3, pad=1, out_c=16)
    b.relu()
    for i, c in enumerate((16, 32)):
        entry = b.last
        stride = 1 if b.shape_of(entry)[1] == c else 2
        first = b.conv(entry, kernel=3, stride=stride, pad=1, out_c=c,
                       name=f"res{i}a")
        first = b.relu(first)
        second = b.conv(first, kernel=3, pad=1, out_c=c, name=f"res{i}b")
        if stride == 1 and b.shape_of(entry)[1] == c:
            skip = entry
        else:
            skip = b.conv(entry, kernel=1, stride=stride, out_c=c,
                          name=f"res{i}proj")
        b.add(second, skip)
        b.relu()
    spatial = b.shape_of(b.last)[2]
    b.pool(kernel=spatial, mode="avg")
    b.reshape((1, 32, 1, 1))
    b.matmul(10)
    b.softmax()
    return b.build()


def inception_mini(seed: int = 0) -> Graph:
    b = GraphBuilder((1, 3, 33, 33), seed=seed)
    stem = b.conv(kernel=3, pad=1, out_c=24)
    stem = b.relu(stem)
    direct = b.conv(stem, kernel=1, out_c=24, name="branch_a")
    narrow = b.conv(stem, kernel=1, out_c=16, name="branch_b_in")
    narrow = b.relu(narrow)
    wide = b.conv(narrow, kernel=(1, 7), pad=(0, 3), out_c=16, name="conv1x7")
    wide = b.relu(wide)
    tall = b.conv(wide, kernel=(7, 1), pad=(3, 0), out_c=24, name="conv7x1")
    joined = b.add(direct, tall)
    b.relu(joined)
    b.conv(kernel=3, stride=2, out_c=48)
    b.relu()
    b.pool(kernel=2, mode="max")
    spatial = b.shape_of(b.last)[2]
    b.pool(kernel=spatial, mode="avg")
    b.reshape((1, 48, 1, 1))
    b.matmul(10)
    b.softmax()
    return b.build()


PRESETS = {
    "mobilenet-mini": mobilenet_mini,
    "squeezenet-mini": squeezenet_mini,
    "resnet-mini": resnet_mini,
    "inception-mini": inception_mini,
}


def build_preset(name: str, seed: int = 0) -> Graph:
    if name not in PRESETS:
        raise GraphValidationError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        )
    return PRESETS[name](seed=seed)
