"""Operator graph, native model format, shape inference, and fusion.

Model container layout: 8-byte magic "NINF0001", 8-byte little-endian JSON
length, the UTF-8 JSON header, then a blob of little-endian float32 weights
addressed by byte offset/length from the header.  The JSON header is written
canonically (sorted keys, fixed separators) so generation and round trips
are byte-reproducible.  A header of another version, or with a field of
the wrong JSON type, is a ModelFormatError.

load_model and GraphBuilder.build end in infer_shapes, the one walk that
checks each node and then shapes its output, in node order, so a graph with
several faults reports the first; fuse keeps the shapes it is given.
OpNode.params gives a Conv2D's or Pool2D's window as one kernels.ConvParams.
"""

from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (
    GraphValidationError, ModelFormatError, ShapeInferenceError,
    ShapeMismatchError, UnknownOpError,
)
from .kernels import ConvParams
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
    a = b = value
    if isinstance(value, (list, tuple)) and len(value) == 2:
        a, b = value
    if type(a) is int and type(b) is int:  # so not a bool either
        return (a, b)
    raise GraphValidationError(f"attr {name}={value!r} is not an int or pair")


_REQUIRED_ATTRS = {
    OpKind.CONV2D: ("kernel", "in_c", "out_c"),
    OpKind.POOL2D: ("kernel",),
    OpKind.MATMUL: ("in_features", "out_features"),
    OpKind.RESHAPE: ("shape",),
}
_COUNT_MINIMUM = {"in_c": 0, "out_c": 0, "group": 1, "in_features": 0,
                  "out_features": 0}
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
        for name, least in _COUNT_MINIMUM.items():
            if name not in attrs:
                continue
            value = attrs[name]
            if type(value) is not int:
                raise GraphValidationError(
                    f"attr {name}={value!r} is not an integer")
            if value < least:
                raise GraphValidationError(
                    f"attr {name}={value!r} is below {least}")
        if kind is OpKind.RESHAPE and not (
                isinstance(attrs["shape"], (list, tuple))
                and all(type(d) is int for d in attrs["shape"])):
            raise GraphValidationError(
                f"attr shape={attrs['shape']!r} is not a list of integers")
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

    def params(self) -> ConvParams:
        """The window geometry of a Conv2D or a Pool2D; a pool's stride
        defaults to its window, and its channels and group are 1."""
        a = self.attrs
        if self.kind is OpKind.POOL2D:
            kernel = _pair(a["kernel"], "kernel")
            return ConvParams(*kernel,
                              *_pair(a.get("stride", kernel), "stride"),
                              *_pair(a.get("pad", 0), "pad"))
        (kh, kw), (sh, sw), (ph, pw) = self.conv_geometry()
        return ConvParams(kh, kw, sh, sw, ph, pw, int(a["in_c"]),
                          int(a["out_c"]), int(a.get("group", 1)),
                          a.get("activation", "none") == "relu")


@dataclass
class Graph:
    nodes: list[OpNode]
    inputs: list[str]
    outputs: list[str]
    input_shapes: dict[str, Shape]
    tensor_shapes: dict[str, Shape] = field(default_factory=dict)


def _weight_shape(node_id: str, kind: OpKind,
                  attrs: dict) -> tuple[int, ...] | None:
    """The weight array shape of a Conv2D, (out_c, in_c/group, kh, kw), or
    of a MatMul, (in_features, out_features); None for a kind without
    weights.  A group that does not divide the channels is rejected here."""
    if kind is OpKind.CONV2D:
        in_c, out_c = int(attrs["in_c"]), int(attrs["out_c"])
        group = int(attrs.get("group", 1))
        if in_c % group or out_c % group:
            raise GraphValidationError(
                f"node {node_id!r}: group {group} does not divide channels")
        return (out_c, in_c // group, *_pair(attrs["kernel"], "kernel"))
    if kind is OpKind.MATMUL:
        return (int(attrs["in_features"]), int(attrs["out_features"]))
    return None


def _output_shape(node: OpNode, ins: list[Shape]) -> Shape:
    """The shape of node's outputs, given its inputs' shapes."""
    if node.kind in (OpKind.CONV2D, OpKind.POOL2D):
        n, c, h, w = ins[0].dims
        p = node.params()
        if node.kind is OpKind.CONV2D:
            if c != p.in_c:
                raise ShapeInferenceError(
                    f"node {node.id!r}: input channels {c} != attr in_c "
                    f"{p.in_c}")
            c = p.out_c
        try:
            return Shape((n, c, *p.out_size(h, w)))
        except ShapeMismatchError as exc:
            raise ShapeInferenceError(f"node {node.id!r}: {exc}") from None
    if node.kind in (OpKind.RELU, OpKind.SOFTMAX):
        return ins[0]
    if node.kind is OpKind.ADD:
        if ins[0].dims != ins[1].dims:
            raise ShapeInferenceError(
                f"node {node.id!r}: operand shapes {ins[0].dims} != {ins[1].dims}"
            )
        return ins[0]
    if node.kind is OpKind.MATMUL:
        n, c, h, w = ins[0].dims
        if c * h * w != int(node.attrs["in_features"]):
            raise ShapeInferenceError(
                f"node {node.id!r}: flattened input {c * h * w} != "
                f"in_features {node.attrs['in_features']}"
            )
        return Shape((n, int(node.attrs["out_features"]), 1, 1))
    if node.kind is OpKind.RESHAPE:
        dims = tuple(int(d) for d in node.attrs["shape"])
        if len(dims) != 4:
            # every activation is stored NHWC4, which needs four dims
            raise ShapeInferenceError(
                f"node {node.id!r}: reshape target {dims} is not 4-d")
        target = Shape(dims)
        if target.element_count != ins[0].element_count:
            raise ShapeInferenceError(
                f"node {node.id!r}: reshape {ins[0].dims} -> {target.dims} "
                "changes element count"
            )
        return target
    raise ShapeInferenceError(  # pragma: no cover - enum is closed
        f"node {node.id!r}: kind {node.kind}")


def infer_shapes(g: Graph) -> Graph:
    """Check g and shape every tensor in one walk over its nodes, in order.

    Every graph input needs a shape.  Then, per node: its attributes, its
    id (not seen before), its count of inputs and outputs, its inputs (each
    a graph input or an earlier node's output), its output (not produced
    before), its weight shape (the group divides the channels) and length,
    and last its output shape.  Then every graph output must have been
    produced.  So a graph with several faults reports the first in node
    order, and within a node the first in that list.
    """
    shapes: dict[str, Shape] = {}
    for tid in g.inputs:
        if tid not in g.input_shapes:
            raise GraphValidationError(f"graph input {tid!r} has no shape")
        shapes[tid] = g.input_shapes[tid]
    seen_ids: set[str] = set()
    for node in g.nodes:
        _check_attrs(node.id, node.kind, node.attrs)
        if node.id in seen_ids:
            raise GraphValidationError(f"duplicate node id {node.id!r}")
        seen_ids.add(node.id)
        arity = 2 if node.kind is OpKind.ADD else 1
        if len(node.inputs) != arity or len(node.outputs) != 1:
            raise GraphValidationError(
                f"node {node.id!r}: {node.kind.value} takes {arity} input(s) "
                f"and 1 output, got {len(node.inputs)} and {len(node.outputs)}")
        for tid in node.inputs:
            if tid not in shapes:
                raise GraphValidationError(
                    f"dangling input {tid!r} consumed by node {node.id!r}")
        out = node.outputs[0]
        if out in shapes:
            raise GraphValidationError(
                f"tensor {out!r} produced more than once (node {node.id!r})")
        want = _weight_shape(node.id, node.kind, node.attrs)
        got = 0 if node.weights is None else node.weights.size
        if want is not None and got != math.prod(want):
            raise GraphValidationError(
                f"node {node.id!r}: weight length {got} != {math.prod(want)}, "
                f"the size of weight shape {want}")
        shapes[out] = _output_shape(node, [shapes[tid] for tid in node.inputs])
    for tid in g.outputs:
        if tid not in shapes:
            raise GraphValidationError(f"graph output {tid!r} is never produced")
    g.tensor_shapes = shapes
    return g


def _drop_identity_reshapes(g: Graph) -> list[OpNode]:
    """g's nodes without each Reshape whose target is its input's shape,
    with that Reshape's consumers reading its input instead.  A Reshape
    whose output is a graph output stays, so every output keeps its id."""
    shapes = g.tensor_shapes
    source: dict[str, str] = {}  # dropped Reshape output -> tensor it aliases
    nodes: list[OpNode] = []
    for node in g.nodes:
        inputs = [source.get(tid, tid) for tid in node.inputs]
        if (node.kind is OpKind.RESHAPE
                and node.outputs[0] not in g.outputs
                and shapes[node.outputs[0]].dims == shapes[inputs[0]].dims):
            source[node.outputs[0]] = inputs[0]
            continue
        nodes.append(node if inputs == node.inputs
                     else replace(node, inputs=inputs))
    return nodes


def sole_readers(nodes: list[OpNode],
                 outputs: list[str]) -> dict[str, OpNode]:
    """Tensor id -> its only reader, for each tensor that is read exactly
    once and is not a graph output: a tensor a rewrite may fold away."""
    reads = Counter(tid for node in nodes for tid in node.inputs)
    return {tid: node for node in nodes for tid in node.inputs
            if reads[tid] == 1 and tid not in outputs}


def fuse(g: Graph) -> Graph:
    """Drop identity Reshapes, then merge each Conv2D whose sole consumer is
    a ReLU into the convolution.

    A Reshape whose target equals its input's shape moves no data, since
    both tensors have the same NHWC4 bytes, so its consumers read its input
    directly.  ReLU runs after bias accumulation in both the separate and
    the fused form.  Outputs are unchanged bit for bit.  Neither rewrite
    changes a surviving tensor's shape, so the result keeps g's shapes (g is
    walked first if it has none), without the tensors that are gone.
    """
    if not g.tensor_shapes:
        g = infer_shapes(g)
    kept = _drop_identity_reshapes(g)
    readers = sole_readers(kept, g.outputs)
    removed: set[str] = set()
    nodes: list[OpNode] = []
    for node in kept:
        if node.id in removed:
            continue
        relu = readers.get(node.outputs[0])
        if (node.kind is OpKind.CONV2D
                and node.attrs.get("activation", "none") == "none"
                and relu is not None and relu.kind is OpKind.RELU):
            removed.add(relu.id)
            node = replace(node, outputs=list(relu.outputs),
                           attrs={**node.attrs, "activation": "relu"})
        nodes.append(node)
    live = [*g.inputs, *(node.outputs[0] for node in nodes)]
    return Graph(nodes=nodes, inputs=list(g.inputs), outputs=list(g.outputs),
                 input_shapes=dict(g.input_shapes),
                 tensor_shapes={tid: g.tensor_shapes[tid] for tid in live})


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
    shape = _weight_shape(node_id, node_kind, attrs)
    if shape is None:
        if raw.size:
            raise GraphValidationError(
                f"node {node_id!r}: kind {node_kind.value} carries weights")
        return None, None
    wlen = math.prod(shape)
    # one bias value per output channel: out_c or out_features
    out_axis = 0 if node_kind is OpKind.CONV2D else 1
    blen = shape[out_axis] if attrs.get("bias") else 0
    if raw.size != wlen + blen:
        raise GraphValidationError(
            f"node {node_id!r}: weight span holds {raw.size} floats, "
            f"expected {wlen + blen}")
    return raw[:wlen].reshape(shape).copy(), raw[wlen:].copy() if blen else None


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer"}


def _field(obj: dict, key: str, kind: type, where: str, default=None,
           each: type | None = None):
    """obj[key] (default if absent) when it is a kind and, for an array,
    when each entry is an `each`; otherwise a ModelFormatError naming
    where and key.  Types are JSON's, so a bool is no integer."""
    value = obj.get(key, default)
    if type(value) is kind and (
            each is None or all(type(v) is each for v in value)):
        return value
    want = (f"a JSON {_JSON_TYPES[kind]}" if each is None
            else f"an array of {_JSON_TYPES[each]}s")
    raise ModelFormatError(f"{where} field {key!r} is not {want}: {value!r}")


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

    if not isinstance(header, dict):
        raise ModelFormatError("header is not a JSON object")
    for key in ("version", "inputs", "nodes", "outputs"):
        if key not in header:
            raise ModelFormatError(f"header missing {key!r}")
    if header["version"] != FORMAT_VERSION:
        raise ModelFormatError(f"header version {header['version']!r} is not "
                               f"the supported version {FORMAT_VERSION}")
    nodes = []
    for i, spec in enumerate(_field(header, "nodes", list, "header",
                                    each=dict)):
        node_id = _field(spec, "id", str, f"node #{i}")
        where = f"node {node_id!r}"
        kind = _KIND_BY_NAME.get(_field(spec, "kind", str, where))
        if kind is None:
            raise UnknownOpError(f"unknown op kind {spec['kind']!r}")
        off = _field(spec, "weight_offset", int, where, 0)
        ln = _field(spec, "weight_len", int, where, 0)
        if off < 0 or ln < 0 or off + ln > len(blob) or ln % 4:
            raise ModelFormatError(
                f"{where}: weight span [{off}, {off + ln}) outside blob")
        raw = np.frombuffer(blob, dtype="<f4", count=ln // 4, offset=off)
        attrs = _field(spec, "attrs", dict, where, {})
        _check_attrs(node_id, kind, attrs)
        weights, bias = _split_weights(kind, attrs, raw, node_id)
        nodes.append(OpNode(
            id=node_id,
            kind=kind,
            inputs=_field(spec, "inputs", list, where, [], each=str),
            outputs=_field(spec, "outputs", list, where, [], each=str),
            attrs=attrs,
            weights=weights,
            bias=bias,
        ))
    input_shapes = {}
    for i, item in enumerate(_field(header, "inputs", list, "header",
                                    each=dict)):
        tid = _field(item, "id", str, f"graph input #{i}")
        dims = _field(item, "shape", list, f"graph input {tid!r}", each=int)
        if tid in input_shapes:
            raise ModelFormatError(f"graph input {tid!r} is listed twice")
        input_shapes[tid] = Shape(tuple(dims))
    g = Graph(
        nodes=nodes,
        inputs=list(input_shapes),
        outputs=_field(header, "outputs", list, "header", each=str),
        input_shapes=input_shapes,
    )
    for shape in g.input_shapes.values():
        if len(shape.dims) != 4:
            raise GraphValidationError(
                f"graph inputs must have concrete 4-d shapes, got {shape.dims}"
            )
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

    def _append(self, node: OpNode) -> str:
        """Add node, its output shaped as shape inference shapes it (so a
        bad node fails here, by name); returns that output."""
        out = node.outputs[0]
        self._shapes[out] = _output_shape(
            node, [Shape(self._shapes[t]) for t in node.inputs]).dims
        self.nodes.append(node)
        self.last = out
        return out

    def conv(self, src: str | None = None, *, kernel=3, stride=1, pad=0,
             out_c: int, group: int = 1, bias: bool = True,
             activation: str = "none", name: str | None = None) -> str:
        src = src or self.last
        c = self._shapes[src][1]
        kh, kw = _pair(kernel, "kernel")
        sh, sw = _pair(stride, "stride")
        ph, pw = _pair(pad, "pad")
        out = self._tid("t")
        return self._append(OpNode(
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
        ))

    def relu(self, src: str | None = None, name: str | None = None) -> str:
        out = self._tid("t")
        return self._append(OpNode(
            id=name or self._tid("relu"), kind=OpKind.RELU,
            inputs=[src or self.last], outputs=[out]))

    def add(self, a: str, b: str, name: str | None = None) -> str:
        out = self._tid("t")
        return self._append(OpNode(
            id=name or self._tid("add"), kind=OpKind.ADD,
            inputs=[a, b], outputs=[out]))

    def pool(self, src: str | None = None, *, kernel, stride=None, pad=0,
             mode: str = "max", name: str | None = None) -> str:
        kh, kw = _pair(kernel, "kernel")
        sh, sw = _pair(stride if stride is not None else kernel, "stride")
        ph, pw = _pair(pad, "pad")
        out = self._tid("t")
        return self._append(OpNode(
            id=name or self._tid("pool"), kind=OpKind.POOL2D,
            inputs=[src or self.last], outputs=[out],
            attrs={"kernel": [kh, kw], "stride": [sh, sw], "pad": [ph, pw],
                   "mode": mode},
        ))

    def reshape(self, shape: tuple[int, int, int, int],
                src: str | None = None, name: str | None = None) -> str:
        out = self._tid("t")
        return self._append(OpNode(
            id=name or self._tid("reshape"), kind=OpKind.RESHAPE,
            inputs=[src or self.last], outputs=[out],
            attrs={"shape": list(shape)}))

    def matmul(self, out_features: int, src: str | None = None,
               bias: bool = True, name: str | None = None) -> str:
        src = src or self.last
        _, c, h, w = self._shapes[src]
        in_features = c * h * w
        out = self._tid("t")
        return self._append(OpNode(
            id=name or self._tid("matmul"), kind=OpKind.MATMUL,
            inputs=[src], outputs=[out],
            attrs={"in_features": in_features, "out_features": out_features,
                   "bias": bool(bias)},
            weights=self._init_weights((in_features, out_features), in_features),
            bias=self._init_weights((out_features,), out_features) if bias else None,
        ))

    def softmax(self, src: str | None = None, name: str | None = None) -> str:
        out = self._tid("t")
        return self._append(OpNode(
            id=name or self._tid("softmax"), kind=OpKind.SOFTMAX,
            inputs=[src or self.last], outputs=[out]))

    def build(self, outputs: list[str] | None = None) -> Graph:
        g = Graph(
            nodes=list(self.nodes),
            inputs=[self.input_id],
            outputs=outputs or [self.last],
            input_shapes={self.input_id: self.input_shape},
        )
        return infer_shapes(g)
