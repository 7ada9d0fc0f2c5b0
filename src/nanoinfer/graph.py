"""Operator graph, native model format, shape inference, and fusion.

Model container layout: 8-byte magic "NINF0001", 8-byte little-endian JSON
length, the UTF-8 JSON header, then a blob of little-endian float32 weights
addressed by byte offset/length from the header.  The JSON header is written
canonically (sorted keys, fixed separators) so generation and round trips
are byte-reproducible.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    GraphValidationError, ModelFormatError, ShapeInferenceError, UnknownOpError,
)
from .tensor import Shape

MAGIC = b"NINF0001"
FORMAT_VERSION = 1


class OpKind(Enum):
    CONV2D = "Conv2D"
    MATMUL = "MatMul"
    RELU = "ReLU"
    ADD = "Add"
    POOL2D = "Pool2D"
    SOFTMAX = "Softmax"
    RESHAPE = "Reshape"


def _pair(value, name: str) -> tuple[int, int]:
    if isinstance(value, int):
        return (value, value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return (int(value[0]), int(value[1]))
    raise GraphValidationError(f"attr {name}={value!r} is not an int or pair")


_REQUIRED_ATTRS = {
    OpKind.CONV2D: ("kernel", "in_c", "out_c"),
    OpKind.POOL2D: ("kernel",),
    OpKind.MATMUL: ("in_features", "out_features"),
    OpKind.RESHAPE: ("shape",),
}
_WINDOW_MINIMUM = {"kernel": 1, "stride": 1, "pad": 0}
_POOL_MODES = ("max", "avg")
_CONV_ACTIVATIONS = ("none", "relu")


def _check_attrs(node_id: str, kind: OpKind, attrs: dict) -> None:
    """Reject a missing or out-of-range attribute, naming the node."""
    try:
        for name in _REQUIRED_ATTRS.get(kind, ()):
            if name not in attrs:
                raise GraphValidationError(f"{kind.value} needs attr {name!r}")
        if kind in (OpKind.CONV2D, OpKind.POOL2D):
            for name, least in _WINDOW_MINIMUM.items():
                if name in attrs and min(_pair(attrs[name], name)) < least:
                    raise GraphValidationError(
                        f"attr {name}={attrs[name]!r} is below {least}")
        if kind is OpKind.CONV2D and int(attrs.get("group", 1)) < 1:
            raise GraphValidationError(f"attr group={attrs['group']!r} is below 1")
        if kind is OpKind.CONV2D and \
                attrs.get("activation", "none") not in _CONV_ACTIVATIONS:
            raise GraphValidationError(
                f"conv activation {attrs['activation']!r} is not one of "
                f"{_CONV_ACTIVATIONS}")
        if kind is OpKind.POOL2D and attrs.get("mode", "max") not in _POOL_MODES:
            raise GraphValidationError(
                f"pool mode {attrs['mode']!r} is not one of {_POOL_MODES}")
    except GraphValidationError as exc:
        raise GraphValidationError(f"node {node_id!r}: {exc}") from None


@dataclass
class OpNode:
    id: str
    kind: OpKind
    inputs: list[str]
    outputs: list[str]
    attrs: dict = field(default_factory=dict)
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None

    def conv_geometry(self):
        """(kh, kw), (sh, sw), (ph, pw) from normalized attrs."""
        return (_pair(self.attrs["kernel"], "kernel"),
                _pair(self.attrs.get("stride", 1), "stride"),
                _pair(self.attrs.get("pad", 0), "pad"))

    def pool_geometry(self):
        """Like conv_geometry, but the stride defaults to the window size."""
        kernel = _pair(self.attrs["kernel"], "kernel")
        return (kernel, _pair(self.attrs.get("stride", kernel), "stride"),
                _pair(self.attrs.get("pad", 0), "pad"))


@dataclass
class Graph:
    nodes: list[OpNode]
    inputs: list[str]
    outputs: list[str]
    input_shapes: dict[str, Shape]
    tensor_shapes: dict[str, Shape] = field(default_factory=dict)

    def consumers(self, tensor_id: str) -> list[OpNode]:
        return [n for n in self.nodes if tensor_id in n.inputs]


def _validate_structure(g: Graph) -> None:
    produced: set[str] = set(g.inputs)
    seen_ids: set[str] = set()
    for node in g.nodes:
        _check_attrs(node.id, node.kind, node.attrs)
        if node.id in seen_ids:
            raise GraphValidationError(f"duplicate node id {node.id!r}")
        seen_ids.add(node.id)
        for tid in node.inputs:
            if tid not in produced:
                raise GraphValidationError(
                    f"dangling input {tid!r} consumed by node {node.id!r}"
                )
        for tid in node.outputs:
            if tid in produced:
                raise GraphValidationError(
                    f"tensor {tid!r} produced more than once (node {node.id!r})"
                )
            produced.add(tid)
    for tid in g.outputs:
        if tid not in produced:
            raise GraphValidationError(f"graph output {tid!r} is never produced")
    for tid in g.inputs:
        if tid not in g.input_shapes:
            raise GraphValidationError(f"graph input {tid!r} has no shape")

    for node in g.nodes:
        if node.kind is OpKind.CONV2D:
            (kh, kw), _, _ = node.conv_geometry()
            in_c = int(node.attrs["in_c"])
            out_c = int(node.attrs["out_c"])
            group = int(node.attrs.get("group", 1))
            if in_c % group or out_c % group:
                raise GraphValidationError(
                    f"node {node.id!r}: group {group} does not divide channels"
                )
            want = out_c * (in_c // group) * kh * kw
            got = 0 if node.weights is None else node.weights.size
            if got != want:
                raise GraphValidationError(
                    f"node {node.id!r}: weight length {got} != "
                    f"out_c*(in_c/group)*kh*kw = {want}"
                )
        if node.kind is OpKind.MATMUL:
            want = int(node.attrs["in_features"]) * int(node.attrs["out_features"])
            got = 0 if node.weights is None else node.weights.size
            if got != want:
                raise GraphValidationError(
                    f"node {node.id!r}: weight length {got} != "
                    f"in_features*out_features = {want}"
                )


def _conv_out_shape(node: OpNode, in_shape: Shape) -> Shape:
    n, c, h, w = in_shape.dims
    (kh, kw), (sh, sw), (ph, pw) = node.conv_geometry()
    if c != int(node.attrs["in_c"]):
        raise ShapeInferenceError(
            f"node {node.id!r}: input channels {c} != attr in_c {node.attrs['in_c']}"
        )
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if oh < 0 or ow < 0:
        raise ShapeInferenceError(f"node {node.id!r}: kernel exceeds padded input")
    return Shape((n, int(node.attrs["out_c"]), oh, ow))


def infer_shapes(g: Graph) -> Graph:
    """Propagate concrete shapes from graph inputs through every node."""
    shapes: dict[str, Shape] = dict(g.input_shapes)

    def get(node: OpNode, tid: str) -> Shape:
        if tid not in shapes:
            raise ShapeInferenceError(f"node {node.id!r}: shape of {tid!r} unknown")
        return shapes[tid]

    for node in g.nodes:
        ins = [get(node, t) for t in node.inputs]
        if node.kind is OpKind.CONV2D:
            out = _conv_out_shape(node, ins[0])
        elif node.kind is OpKind.POOL2D:
            n, c, h, w = ins[0].dims
            kernel, stride, pad = node.pool_geometry()
            oh = (h + 2 * pad[0] - kernel[0]) // stride[0] + 1
            ow = (w + 2 * pad[1] - kernel[1]) // stride[1] + 1
            if oh < 0 or ow < 0:
                raise ShapeInferenceError(f"node {node.id!r}: window exceeds input")
            out = Shape((n, c, oh, ow))
        elif node.kind in (OpKind.RELU, OpKind.SOFTMAX):
            out = ins[0]
        elif node.kind is OpKind.ADD:
            if ins[0].dims != ins[1].dims:
                raise ShapeInferenceError(
                    f"node {node.id!r}: operand shapes {ins[0].dims} != {ins[1].dims}"
                )
            out = ins[0]
        elif node.kind is OpKind.MATMUL:
            n, c, h, w = ins[0].dims
            if c * h * w != int(node.attrs["in_features"]):
                raise ShapeInferenceError(
                    f"node {node.id!r}: flattened input {c * h * w} != "
                    f"in_features {node.attrs['in_features']}"
                )
            out = Shape((n, int(node.attrs["out_features"]), 1, 1))
        elif node.kind is OpKind.RESHAPE:
            target = Shape(tuple(int(d) for d in node.attrs["shape"]))
            if target.element_count != ins[0].element_count:
                raise ShapeInferenceError(
                    f"node {node.id!r}: reshape {ins[0].dims} -> {target.dims} "
                    "changes element count"
                )
            out = target
        else:  # pragma: no cover - enum is closed
            raise ShapeInferenceError(f"node {node.id!r}: kind {node.kind}")
        for tid in node.outputs:
            shapes[tid] = out
    g.tensor_shapes = shapes
    return g


def fuse(g: Graph) -> Graph:
    """Merge each Conv2D whose sole consumer is a ReLU into the convolution.

    ReLU runs after bias accumulation in both the separate and the fused
    form, so outputs are unchanged bit for bit.
    """
    removed: set[str] = set()
    nodes: list[OpNode] = []
    for node in g.nodes:
        if node.id in removed:
            continue
        if (node.kind is OpKind.CONV2D
                and node.attrs.get("activation", "none") == "none"
                and len(node.outputs) == 1
                and node.outputs[0] not in g.outputs):
            tid = node.outputs[0]
            consumers = g.consumers(tid)
            if len(consumers) == 1 and consumers[0].kind is OpKind.RELU:
                relu = consumers[0]
                fused = OpNode(
                    id=node.id,
                    kind=OpKind.CONV2D,
                    inputs=list(node.inputs),
                    outputs=list(relu.outputs),
                    attrs={**node.attrs, "activation": "relu"},
                    weights=node.weights,
                    bias=node.bias,
                )
                removed.add(relu.id)
                nodes.append(fused)
                continue
        nodes.append(node)
    out = Graph(nodes=nodes, inputs=list(g.inputs), outputs=list(g.outputs),
                input_shapes=dict(g.input_shapes))
    _validate_structure(out)
    return infer_shapes(out)


_KIND_BY_NAME = {kind.value: kind for kind in OpKind}


def _attrs_to_json(node: OpNode) -> dict:
    attrs = {}
    for key, value in node.attrs.items():
        if isinstance(value, tuple):
            value = list(value)
        attrs[key] = value
    return attrs


def save_model(g: Graph) -> bytes:
    blob = bytearray()
    nodes_json = []
    for node in g.nodes:
        weight_offset = len(blob)
        weight_len = 0
        for arr in (node.weights, node.bias):
            if arr is not None:
                raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
                blob.extend(raw)
                weight_len += len(raw)
        nodes_json.append({
            "id": node.id,
            "kind": node.kind.value,
            "attrs": _attrs_to_json(node),
            "inputs": list(node.inputs),
            "outputs": list(node.outputs),
            "weight_offset": weight_offset,
            "weight_len": weight_len,
        })
    header = {
        "version": FORMAT_VERSION,
        "inputs": [{"id": tid, "shape": list(g.input_shapes[tid].dims)}
                   for tid in g.inputs],
        "nodes": nodes_json,
        "outputs": list(g.outputs),
    }
    payload = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<Q", len(payload)) + payload + bytes(blob)


def _split_weights(node_kind: OpKind, attrs: dict, raw: np.ndarray,
                   node_id: str) -> tuple[np.ndarray | None, np.ndarray | None]:
    if node_kind is OpKind.CONV2D:
        (kh, kw) = _pair(attrs["kernel"], "kernel")
        in_c, out_c = int(attrs["in_c"]), int(attrs["out_c"])
        group = int(attrs.get("group", 1))
        wlen = out_c * (in_c // group) * kh * kw
        blen = out_c if attrs.get("bias") else 0
    elif node_kind is OpKind.MATMUL:
        wlen = int(attrs["in_features"]) * int(attrs["out_features"])
        blen = int(attrs["out_features"]) if attrs.get("bias") else 0
    else:
        if raw.size:
            raise GraphValidationError(
                f"node {node_id!r}: kind {node_kind.value} carries weights"
            )
        return None, None
    if raw.size != wlen + blen:
        raise GraphValidationError(
            f"node {node_id!r}: weight span holds {raw.size} floats, "
            f"expected {wlen + blen}"
        )
    weights = raw[:wlen].copy()
    bias = raw[wlen:].copy() if blen else None
    if node_kind is OpKind.CONV2D:
        weights = weights.reshape(int(attrs["out_c"]),
                                  int(attrs["in_c"]) // int(attrs.get("group", 1)),
                                  *_pair(attrs["kernel"], "kernel"))
    else:
        weights = weights.reshape(int(attrs["in_features"]),
                                  int(attrs["out_features"]))
    return weights, bias


def load_model(data: bytes) -> Graph:
    """Parse, validate, and shape-infer a model container."""
    if len(data) < 16 or data[:8] != MAGIC:
        raise ModelFormatError("bad magic: not a model file")
    (json_len,) = struct.unpack("<Q", data[8:16])
    if 16 + json_len > len(data):
        raise ModelFormatError("truncated header")
    try:
        header = json.loads(data[16:16 + json_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"header is not valid JSON: {exc}") from exc
    blob = data[16 + json_len:]
    if len(blob) % 4:
        raise ModelFormatError("weight section length is not a float32 multiple")

    for key in ("version", "inputs", "nodes", "outputs"):
        if key not in header:
            raise ModelFormatError(f"header missing {key!r}")
    nodes = []
    for spec in header["nodes"]:
        kind = _KIND_BY_NAME.get(spec.get("kind"))
        if kind is None:
            raise UnknownOpError(f"unknown op kind {spec.get('kind')!r}")
        off, ln = int(spec.get("weight_offset", 0)), int(spec.get("weight_len", 0))
        if off < 0 or ln < 0 or off + ln > len(blob) or ln % 4:
            raise ModelFormatError(
                f"node {spec.get('id')!r}: weight span [{off}, {off + ln}) "
                "outside blob"
            )
        raw = np.frombuffer(blob, dtype="<f4", count=ln // 4, offset=off).copy()
        attrs = dict(spec.get("attrs", {}))
        _check_attrs(spec.get("id"), kind, attrs)
        weights, bias = _split_weights(kind, attrs, raw, spec.get("id"))
        nodes.append(OpNode(
            id=str(spec["id"]),
            kind=kind,
            inputs=[str(t) for t in spec.get("inputs", [])],
            outputs=[str(t) for t in spec.get("outputs", [])],
            attrs=attrs,
            weights=weights,
            bias=bias,
        ))
    try:
        input_shapes = {str(item["id"]): Shape(tuple(int(d) for d in item["shape"]))
                        for item in header["inputs"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed inputs section: {exc}") from exc
    g = Graph(
        nodes=nodes,
        inputs=[str(item["id"]) for item in header["inputs"]],
        outputs=[str(t) for t in header["outputs"]],
        input_shapes=input_shapes,
    )
    for shape in g.input_shapes.values():
        if len(shape.dims) != 4:
            raise GraphValidationError(
                f"graph inputs must have concrete 4-d shapes, got {shape.dims}"
            )
    _validate_structure(g)
    return infer_shapes(g)


class GraphBuilder:
    """Incrementally assemble a valid graph; used by presets and tests."""

    def __init__(self, input_shape: tuple[int, int, int, int],
                 input_id: str = "input", seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self.counter = 0
        self.nodes: list[OpNode] = []
        self.input_id = input_id
        self.input_shape = Shape(input_shape)
        self.last = input_id
        self._shapes = {input_id: input_shape}

    def _tid(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}_{self.counter}"

    def _init_weights(self, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        scale = 1.0 / np.sqrt(max(fan_in, 1))
        return (self.rng.standard_normal(shape) * scale).astype(np.float32)

    def shape_of(self, tid: str) -> tuple[int, int, int, int]:
        return self._shapes[tid]

    def conv(self, src: str | None = None, *, kernel=3, stride=1, pad=0,
             out_c: int, group: int = 1, bias: bool = True,
             activation: str = "none", name: str | None = None) -> str:
        src = src or self.last
        n, c, h, w = self._shapes[src]
        kh, kw = _pair(kernel, "kernel")
        sh, sw = _pair(stride, "stride")
        ph, pw = _pair(pad, "pad")
        out = self._tid("t")
        node = OpNode(
            id=name or self._tid("conv"),
            kind=OpKind.CONV2D,
            inputs=[src],
            outputs=[out],
            attrs={"kernel": [kh, kw], "stride": [sh, sw], "pad": [ph, pw],
                   "in_c": c, "out_c": out_c, "group": group,
                   "activation": activation, "bias": bool(bias)},
            weights=self._init_weights((out_c, c // group, kh, kw),
                                       (c // group) * kh * kw),
            bias=self._init_weights((out_c,), out_c) if bias else None,
        )
        self.nodes.append(node)
        oh = (h + 2 * ph - kh) // sh + 1
        ow = (w + 2 * pw - kw) // sw + 1
        self._shapes[out] = (n, out_c, oh, ow)
        self.last = out
        return out

    def relu(self, src: str | None = None, name: str | None = None) -> str:
        src = src or self.last
        out = self._tid("t")
        self.nodes.append(OpNode(id=name or self._tid("relu"), kind=OpKind.RELU,
                                 inputs=[src], outputs=[out]))
        self._shapes[out] = self._shapes[src]
        self.last = out
        return out

    def add(self, a: str, b: str, name: str | None = None) -> str:
        out = self._tid("t")
        self.nodes.append(OpNode(id=name or self._tid("add"), kind=OpKind.ADD,
                                 inputs=[a, b], outputs=[out]))
        self._shapes[out] = self._shapes[a]
        self.last = out
        return out

    def pool(self, src: str | None = None, *, kernel, stride=None, pad=0,
             mode: str = "max", name: str | None = None) -> str:
        src = src or self.last
        n, c, h, w = self._shapes[src]
        kh, kw = _pair(kernel, "kernel")
        sh, sw = _pair(stride if stride is not None else kernel, "stride")
        ph, pw = _pair(pad, "pad")
        out = self._tid("t")
        self.nodes.append(OpNode(
            id=name or self._tid("pool"), kind=OpKind.POOL2D,
            inputs=[src], outputs=[out],
            attrs={"kernel": [kh, kw], "stride": [sh, sw], "pad": [ph, pw],
                   "mode": mode},
        ))
        self._shapes[out] = (n, c, (h + 2 * ph - kh) // sh + 1,
                             (w + 2 * pw - kw) // sw + 1)
        self.last = out
        return out

    def reshape(self, shape: tuple[int, int, int, int],
                src: str | None = None, name: str | None = None) -> str:
        src = src or self.last
        out = self._tid("t")
        self.nodes.append(OpNode(id=name or self._tid("reshape"),
                                 kind=OpKind.RESHAPE, inputs=[src],
                                 outputs=[out],
                                 attrs={"shape": list(shape)}))
        self._shapes[out] = shape
        self.last = out
        return out

    def matmul(self, out_features: int, src: str | None = None,
               bias: bool = True, name: str | None = None) -> str:
        src = src or self.last
        n, c, h, w = self._shapes[src]
        in_features = c * h * w
        out = self._tid("t")
        self.nodes.append(OpNode(
            id=name or self._tid("matmul"), kind=OpKind.MATMUL,
            inputs=[src], outputs=[out],
            attrs={"in_features": in_features, "out_features": out_features,
                   "bias": bool(bias)},
            weights=self._init_weights((in_features, out_features), in_features),
            bias=self._init_weights((out_features,), out_features) if bias else None,
        ))
        self._shapes[out] = (n, out_features, 1, 1)
        self.last = out
        return out

    def softmax(self, src: str | None = None, name: str | None = None) -> str:
        src = src or self.last
        out = self._tid("t")
        self.nodes.append(OpNode(id=name or self._tid("softmax"),
                                 kind=OpKind.SOFTMAX, inputs=[src],
                                 outputs=[out]))
        self._shapes[out] = self._shapes[src]
        self.last = out
        return out

    def build(self, outputs: list[str] | None = None) -> Graph:
        g = Graph(
            nodes=list(self.nodes),
            inputs=[self.input_id],
            outputs=outputs or [self.last],
            input_shapes={self.input_id: self.input_shape},
        )
        _validate_structure(g)
        return infer_shapes(g)
