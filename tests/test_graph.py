import json
import struct

import numpy as np
import pytest

from nanoinfer.errors import (
    GraphValidationError, ModelFormatError, ShapeInferenceError, UnknownOpError,
)
from nanoinfer.graph import (
    MAGIC, Graph, GraphBuilder, OpKind, OpNode, fuse, infer_shapes,
    load_model, save_model, sole_readers,
)
from nanoinfer.presets import PRESETS, build_preset
from nanoinfer.tensor import Shape


def single_conv_graph(kernel=3, stride=1, pad=1, in_c=3, out_c=16,
                      spatial=(224, 224)):
    b = GraphBuilder((1, in_c, *spatial), seed=7)
    b.conv(kernel=kernel, stride=stride, pad=pad, out_c=out_c)
    return b.build()


class TestLoadSave:
    def test_single_conv_shapes(self):
        g = load_model(save_model(single_conv_graph()))
        assert len(g.nodes) == 1
        out = g.tensor_shapes[g.outputs[0]]
        assert out.dims == (1, 16, 224, 224)

    def test_roundtrip_preserves_bytes(self):
        for preset in ("mobilenet-mini", "squeezenet-mini", "resnet-mini",
                       "inception-mini"):
            data = save_model(build_preset(preset))
            again = save_model(load_model(data))
            assert again == data, preset

    def test_same_seed_same_bytes(self):
        a = save_model(build_preset("mobilenet-mini", seed=3))
        b = save_model(build_preset("mobilenet-mini", seed=3))
        c = save_model(build_preset("mobilenet-mini", seed=4))
        assert a == b
        assert a != c

    def test_bad_magic(self):
        with pytest.raises(ModelFormatError):
            load_model(b"NOPE0001" + b"\x00" * 32)

    def test_truncated_header(self):
        data = save_model(single_conv_graph())
        with pytest.raises(ModelFormatError):
            load_model(data[:20])

    def test_bad_json(self):
        import struct
        payload = b"{not json"
        data = MAGIC + struct.pack("<Q", len(payload)) + payload
        with pytest.raises(ModelFormatError):
            load_model(data)

    def test_unknown_op_kind(self):
        data = save_model(single_conv_graph())
        broken = data.replace(b'"kind":"Conv2D"', b'"kind":"Conv3D"')
        with pytest.raises(UnknownOpError):
            load_model(broken)

    def test_dangling_input(self):
        g = single_conv_graph()
        g.nodes[0].inputs[0] = "ghost"
        with pytest.raises(GraphValidationError, match="dangling"):
            load_model(save_model(g))

    def test_weight_length_checked(self):
        g = single_conv_graph()
        g.nodes[0].weights = g.nodes[0].weights[:, :, :, :2]
        with pytest.raises(GraphValidationError):
            load_model(save_model(g))

    def test_graph_input_named_twice(self):
        # the second entry once replaced the first without a word
        b = GraphBuilder((1, 3, 4, 4), input_id="x", seed=0)
        b.relu()
        data = edit_header(save_model(b.build()), lambda h: h.update(inputs=[
            {"id": "x", "shape": [1, 3, 4, 4]},
            {"id": "x", "shape": [1, 5, 4, 4]}]))
        with pytest.raises(ModelFormatError, match="graph input 'x'"):
            load_model(data)


def edit_header(data: bytes, change) -> bytes:
    """The model bytes with change(header) applied to the parsed header."""
    (length,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + length])
    change(header)
    payload = json.dumps(header).encode()
    return MAGIC + struct.pack("<Q", len(payload)) + payload + data[16 + length:]


def edit_attrs(data: bytes, node_id: str, **changes) -> bytes:
    """The model bytes with one node's attrs changed; None drops an attr."""
    def change(header):
        node = next(n for n in header["nodes"] if n["id"] == node_id)
        for name, value in changes.items():
            if value is None:
                node["attrs"].pop(name)
            else:
                node["attrs"][name] = value
    return edit_header(data, change)


def layered_model() -> bytes:
    b = GraphBuilder((1, 4, 8, 8), seed=0)
    b.conv(kernel=3, pad=1, out_c=4, name="conv")
    b.pool(kernel=2, name="pool")
    b.reshape((1, 64, 1, 1), name="flat")
    b.matmul(3, name="fc")
    return save_model(b.build())


class TestAttrValidation:
    @pytest.mark.parametrize("node,changes,message", [
        ("conv", {"kernel": None}, "needs attr 'kernel'"),
        ("conv", {"in_c": None}, "needs attr 'in_c'"),
        ("conv", {"out_c": None}, "needs attr 'out_c'"),
        ("conv", {"kernel": [0, 3]}, "kernel=[0, 3] is below 1"),
        ("conv", {"stride": [0, 1]}, "stride=[0, 1] is below 1"),
        ("conv", {"stride": 0}, "stride=0 is below 1"),
        ("conv", {"pad": [1, -1]}, "pad=[1, -1] is below 0"),
        ("conv", {"group": 0}, "group=0 is below 1"),
        ("conv", {"stride": [1, 1, 1]}, "is not an int or pair"),
        ("pool", {"kernel": None}, "needs attr 'kernel'"),
        ("pool", {"kernel": 0}, "kernel=0 is below 1"),
        ("pool", {"stride": [2, 0]}, "stride=[2, 0] is below 1"),
        ("pool", {"pad": -1}, "pad=-1 is below 0"),
        ("pool", {"mode": "median"}, "pool mode 'median'"),
        ("flat", {"shape": None}, "needs attr 'shape'"),
        ("fc", {"in_features": None}, "needs attr 'in_features'"),
        ("fc", {"out_features": None}, "needs attr 'out_features'"),
        ("conv", {"activation": "sigmoid"}, "conv activation 'sigmoid'"),
        ("conv", {"in_c": "x"}, "attr in_c='x' is not an integer"),
        ("conv", {"group": "a"}, "attr group='a' is not an integer"),
        ("conv", {"out_c": 2.5}, "attr out_c=2.5 is not an integer"),
        ("fc", {"in_features": True}, "in_features=True is not an integer"),
        ("conv", {"kernel": ["a", 3]}, "kernel=['a', 3] is not an int or"),
        ("flat", {"shape": "abcd"}, "shape='abcd' is not a list of integers"),
        ("conv", {"group": 3}, "group 3 does not divide channels"),
    ])
    def test_malformed_attr_names_node(self, node, changes, message):
        data = edit_attrs(layered_model(), node, **changes)
        with pytest.raises(GraphValidationError) as err:
            load_model(data)
        assert str(err.value).startswith(f"node {node!r}: ")
        assert message in str(err.value)

    def test_well_formed_model_loads(self):
        g = load_model(edit_attrs(layered_model(), "pool", mode="avg"))
        assert g.nodes[1].attrs["mode"] == "avg"
        g = load_model(edit_attrs(layered_model(), "conv", activation="relu"))
        assert g.nodes[0].attrs["activation"] == "relu"

    def test_builder_rejects_unknown_pool_mode(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.pool(kernel=2, mode="median", name="p")
        with pytest.raises(GraphValidationError, match="node 'p': pool mode"):
            b.build()


def conv_node(header) -> dict:
    return header["nodes"][0]


class TestMalformedHeader:
    # each fault once ended in a Python exception other than an engine
    # error, or (the version) loaded silently
    @pytest.mark.parametrize("change,error,message", [
        (lambda h: conv_node(h).pop("id"), ModelFormatError,
         "node #0 field 'id' is not a JSON string: None"),
        (lambda h: conv_node(h).update(attrs=[1]), ModelFormatError,
         "node 'conv' field 'attrs' is not a JSON object: [1]"),
        (lambda h: h.update(nodes=5), ModelFormatError,
         "header field 'nodes' is not an array of objects: 5"),
        (lambda h: conv_node(h).update(inputs=5), ModelFormatError,
         "node 'conv' field 'inputs' is not an array of strings: 5"),
        (lambda h: h.update(outputs=5), ModelFormatError,
         "header field 'outputs' is not an array of strings: 5"),
        (lambda h: conv_node(h).update(kind=["Conv2D"]), ModelFormatError,
         "node 'conv' field 'kind' is not a JSON string"),
        (lambda h: conv_node(h).update(weight_offset="z"), ModelFormatError,
         "node 'conv' field 'weight_offset' is not a JSON integer: 'z'"),
        (lambda h: h.update(version=99), ModelFormatError,
         "header version 99 is not the supported version 1"),
        (lambda h: conv_node(h).update(inputs=[]), GraphValidationError,
         "node 'conv': Conv2D takes 1 input(s) and 1 output, got 0 and 1"),
        (lambda h: conv_node(h).update(outputs=["a", "b"]),
         GraphValidationError, "got 1 and 2"),
    ], ids=["no-id", "attrs", "nodes", "node-inputs", "outputs", "kind",
            "weight_offset", "version", "no-input", "two-outputs"])
    def test_fault_is_an_engine_error(self, change, error, message):
        with pytest.raises(error) as err:
            load_model(edit_header(layered_model(), change))
        assert type(err.value) is error
        assert message in str(err.value)


class TestOneWalk:
    def test_first_fault_in_node_order_is_reported(self):
        # node 'b' has a dangling input and node 'c' a short weight; the
        # walk reports b's fault, the first in node order
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.relu(name="a")
        b.relu(name="b")
        b.conv(kernel=3, pad=1, out_c=4, name="c")
        g = b.build()
        g.nodes[1].inputs = ["ghost"]
        g.nodes[2].weights = g.nodes[2].weights[:1]
        with pytest.raises(GraphValidationError,
                           match="dangling input 'ghost' consumed by node 'b'"):
            infer_shapes(g)

    def test_dangling_input_is_a_validation_error_without_load(self):
        from nanoinfer.backend import CpuBackend
        from nanoinfer.preinference import pre_infer

        g = single_conv_graph(spatial=(8, 8))
        g.nodes[0].inputs = ["ghost"]
        g.tensor_shapes = {}
        with pytest.raises(GraphValidationError, match="dangling"):
            infer_shapes(g)
        with pytest.raises(GraphValidationError, match="dangling"):
            pre_infer(g, [CpuBackend().spec()])


class TestShapeInference:
    def test_valid_conv_formula(self):
        g = single_conv_graph(kernel=3, stride=1, pad=0, in_c=1, out_c=2,
                              spatial=(5, 5))
        assert g.tensor_shapes[g.outputs[0]].dims == (1, 2, 3, 3)

    def test_stride2_pad3_k7(self):
        # floor((224 + 6 - 7) / 2) + 1 = 112
        g = single_conv_graph(kernel=7, stride=2, pad=3, in_c=3, out_c=8)
        assert g.tensor_shapes[g.outputs[0]].dims == (1, 8, 112, 112)

    @pytest.mark.parametrize("op,window", [
        ("conv", dict(kernel=4)), ("conv", dict(kernel=(1, 6), pad=1)),
        ("pool", dict(kernel=4)), ("pool", dict(kernel=(6, 1), pad=(1, 0))),
    ])
    def test_window_beyond_padded_input_fails_at_builder(self, op, window):
        # (h + 2p - k) // s + 1 is 0, not negative, for a window up to s
        # rows too tall, so the size formula alone does not catch these
        b = GraphBuilder((1, 4, 3, 3), seed=0)
        add = b.conv if op == "conv" else b.pool
        extra = dict(out_c=4) if op == "conv" else {}
        with pytest.raises(ShapeInferenceError,
                           match="node 'big': .* window exceeds its padded"):
            add(**window, **extra, name="big")
        assert not b.nodes
        add(kernel=3, **extra, name="fits")
        assert b.shape_of(b.last)[2:] == (1, 1)

    @pytest.mark.parametrize("stride,want", [
        (None, (2, 3)), (1, (1, 1)), ([2, 1], (2, 1))])
    def test_pool_params(self, stride, want):
        attrs = {"kernel": [2, 3], "pad": 1, "mode": "avg"}
        if stride is not None:
            attrs["stride"] = stride
        p = OpNode("p", OpKind.POOL2D, ["x"], ["y"], attrs).params()
        assert (p.kh, p.kw, p.pad_h, p.pad_w) == (2, 3, 1, 1)
        assert (p.stride_h, p.stride_w) == want
        assert (p.in_c, p.out_c, p.group, p.relu) == (1, 1, 1, False)

    def test_add_mismatch(self):
        n1 = OpNode("c1", OpKind.CONV2D, ["input"], ["a"],
                    attrs={"kernel": [1, 1], "stride": [1, 1], "pad": [0, 0],
                           "in_c": 3, "out_c": 4, "group": 1,
                           "activation": "none", "bias": False},
                    weights=np.zeros((4, 3, 1, 1), np.float32))
        n2 = OpNode("c2", OpKind.CONV2D, ["input"], ["b"],
                    attrs={"kernel": [3, 3], "stride": [1, 1], "pad": [0, 0],
                           "in_c": 3, "out_c": 4, "group": 1,
                           "activation": "none", "bias": False},
                    weights=np.zeros((4, 3, 3, 3), np.float32))
        add = OpNode("sum", OpKind.ADD, ["a", "b"], ["out"])
        g = Graph([n1, n2, add], ["input"], ["out"],
                  {"input": Shape((1, 3, 8, 8))})
        with pytest.raises(ShapeInferenceError):
            infer_shapes(g)

    @pytest.mark.parametrize("target", [(1, 16), (1, 4, 4), (16,)])
    def test_reshape_target_must_be_4d(self, target):
        b = GraphBuilder((1, 4, 2, 2), seed=0)
        with pytest.raises(ShapeInferenceError,
                           match="node 'flat': .* not 4-d"):
            b.reshape(target, name="flat")
        assert not b.nodes

    def test_reshape_changing_element_count_fails_at_builder(self):
        b = GraphBuilder((1, 4, 2, 2), seed=0)
        with pytest.raises(ShapeInferenceError,
                           match="node 'flat': .* changes element count"):
            b.reshape((1, 15, 1, 1), name="flat")
        assert not b.nodes
        b.reshape((1, 16, 1, 1), name="flat")
        assert b.shape_of(b.last) == (1, 16, 1, 1)

    def test_loaded_reshape_target_must_be_4d(self):
        data = edit_attrs(layered_model(), "flat", shape=[1, 64])
        with pytest.raises(ShapeInferenceError,
                           match="node 'flat': .* not 4-d"):
            load_model(data)

    def test_matmul_feature_check(self):
        b = GraphBuilder((1, 4, 2, 2), seed=0)
        b.matmul(5)
        g = b.build()
        g.nodes[0].attrs["in_features"] = 99
        with pytest.raises(GraphValidationError):
            load_model(save_model(g))


class TestFuse:
    def test_conv_relu_chain_fuses(self):
        b = GraphBuilder((1, 3, 8, 8), seed=1)
        b.conv(kernel=3, pad=1, out_c=4)
        b.relu()
        g = b.build()
        fused = fuse(g)
        assert len(fused.nodes) == 1
        assert fused.nodes[0].attrs["activation"] == "relu"
        assert fused.outputs == g.outputs

    def test_multi_consumer_blocks_fusion(self):
        b = GraphBuilder((1, 3, 8, 8), seed=1)
        conv = b.conv(kernel=3, pad=1, out_c=3)
        relu = b.relu(conv)
        b.add(relu, conv)
        g = b.build()
        fused = fuse(g)
        assert len(fused.nodes) == len(g.nodes)

    def test_sole_readers(self):
        # a tensor one node reads twice, or that is a graph output, has no
        # sole reader
        b = GraphBuilder((1, 3, 8, 8), seed=1)
        conv = b.conv(kernel=1, out_c=3, name="c")
        twice = b.add(conv, conv, name="a")
        g = b.build(outputs=[b.relu(twice, name="r"), twice])
        readers = sole_readers(g.nodes, g.outputs)
        assert {tid: n.id for tid, n in readers.items()} == {
            g.inputs[0]: "c"}

    def test_already_activated_not_refused(self):
        b = GraphBuilder((1, 3, 8, 8), seed=1)
        b.conv(kernel=3, pad=1, out_c=4, activation="relu")
        b.relu()
        g = b.build()
        fused = fuse(g)
        assert len(fused.nodes) == 2  # second relu must stay

    def test_fusion_preserves_outputs_bitwise(self):
        from nanoinfer.backend import CpuBackend, Session
        from nanoinfer.preinference import pre_infer
        from nanoinfer.tensor import from_nchw

        g = build_preset("resnet-mini", seed=9)
        fused = fuse(g)
        assert len(fused.nodes) < len(g.nodes)
        rng = np.random.default_rng(0)
        x = from_nchw(rng.uniform(-1, 1, size=(1, 3, 32, 32)).astype(np.float32))
        outs = []
        for graph in (g, fused):
            plan = pre_infer(graph, [CpuBackend().spec()])
            session = Session(plan, [CpuBackend()])
            outs.append(session.run(x))
            session.close()
        for tid in outs[0]:
            assert np.array_equal(outs[0][tid].data, outs[1][tid].data)

    def test_fusion_bitwise_on_random_graphs(self, rng):
        from nanoinfer.backend import CpuBackend, run_session
        from nanoinfer.preinference import pre_infer
        from nanoinfer.tensor import from_nchw

        for _ in range(20):
            b = GraphBuilder((1, int(rng.integers(1, 6)), 8, 8),
                             seed=int(rng.integers(0, 2 ** 31)))
            for _ in range(int(rng.integers(2, 8))):
                if rng.random() < 0.6:
                    b.conv(kernel=int(rng.choice([1, 3])),
                           pad=int(rng.integers(0, 2)),
                           out_c=int(rng.integers(1, 7)))
                if rng.random() < 0.7:
                    b.relu()
            g = b.build()
            fused = fuse(g)
            shape = tuple(g.tensor_shapes[g.inputs[0]].dims)
            x = from_nchw(rng.uniform(-1, 1, size=shape).astype(np.float32))
            out_a = run_session(pre_infer(g, [CpuBackend().spec()]), x)
            out_b = run_session(pre_infer(fused, [CpuBackend().spec()]), x)
            for tid in out_a:
                assert np.array_equal(out_a[tid].data, out_b[tid].data)

    def test_identity_reshape_dropped(self):
        # a Reshape to its input's own shape moves no data: fuse drops it,
        # a chain of them too, and their consumers read the input
        b = GraphBuilder((1, 8, 4, 4), seed=1)
        pooled = b.pool(kernel=4, mode="avg")
        b.reshape((1, 8, 1, 1))
        same = b.reshape((1, 8, 1, 1))
        fc = b.matmul(3, src=same)
        relu = b.relu(same)
        g = b.build(outputs=[fc, relu])
        fused = fuse(g)
        assert [n.kind for n in fused.nodes] == [
            OpKind.POOL2D, OpKind.MATMUL, OpKind.RELU]
        assert [n.inputs for n in fused.nodes[1:]] == [[pooled], [pooled]]
        assert fused.outputs == [fc, relu]

    def test_reshape_kept_if_it_changes_shape_or_is_an_output(self):
        b = GraphBuilder((1, 8, 2, 2), seed=1)
        flat = b.reshape((1, 32, 1, 1))
        fc = b.matmul(3, src=flat)
        same = b.reshape((1, 8, 2, 2), src=b.input_id)
        g = b.build(outputs=[fc, same])
        fused = fuse(g)
        assert [n.kind for n in fused.nodes] == [
            OpKind.RESHAPE, OpKind.MATMUL, OpKind.RESHAPE]
        assert fused.nodes[1].inputs == [flat]

    def test_identity_graph_output_unchanged(self):
        from nanoinfer.backend import CpuBackend, run_session
        from nanoinfer.preinference import pre_infer
        from nanoinfer.tensor import from_nchw

        # the test_identity_graph of test_backend, fused: its one Reshape
        # makes the graph output, so it stays
        b = GraphBuilder((1, 3, 4, 4), seed=0)
        b.reshape((1, 3, 4, 4))
        g = fuse(b.build())
        assert [n.kind for n in g.nodes] == [OpKind.RESHAPE]
        rng = np.random.default_rng(0)
        x = from_nchw(rng.uniform(-1, 1, size=(1, 3, 4, 4)).astype(np.float32))
        out = run_session(pre_infer(g, [CpuBackend().spec()]), x)
        assert np.array_equal(out[g.outputs[0]].data, x.data)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_dropped_reshapes_keep_outputs_and_pool(self, preset, monkeypatch):
        import nanoinfer.graph as graph_module
        from nanoinfer.backend import CpuBackend, run_session
        from nanoinfer.preinference import pre_infer
        from nanoinfer.tensor import from_nchw

        g = build_preset(preset)
        fused = fuse(g)
        assert OpKind.RESHAPE not in {n.kind for n in fused.nodes}
        # the same fusion with every Reshape kept
        monkeypatch.setattr(graph_module, "_drop_identity_reshapes",
                            lambda graph: list(graph.nodes))
        kept = fuse(g)
        shape = tuple(g.tensor_shapes[g.inputs[0]].dims)
        x = from_nchw(np.random.default_rng(0).uniform(
            -1, 1, size=shape).astype(np.float32))
        plans = [pre_infer(graph, [CpuBackend().spec()])
                 for graph in (fused, kept)]
        assert plans[0].dump()["pool_size"] <= plans[1].dump()["pool_size"]
        outs = [run_session(plan, x) for plan in plans]
        for tid in g.outputs:
            assert np.array_equal(outs[0][tid].data, outs[1][tid].data)

    def test_shaped_graph_is_not_walked_again(self, monkeypatch):
        import nanoinfer.graph as graph_module

        g = build_preset("resnet-mini")

        def walk(graph):
            raise AssertionError("fuse walked a shaped graph")
        monkeypatch.setattr(graph_module, "infer_shapes", walk)
        assert len(fuse(g).nodes) < len(g.nodes)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_shapes_equal_a_fresh_walk(self, preset):
        fused = fuse(build_preset(preset))
        fresh = infer_shapes(Graph(
            nodes=fused.nodes, inputs=list(fused.inputs),
            outputs=list(fused.outputs),
            input_shapes=dict(fused.input_shapes)))
        assert list(fused.tensor_shapes.items()) == list(
            fresh.tensor_shapes.items())


class TestTopology:
    def test_forward_reference_rejected(self):
        b = GraphBuilder((1, 3, 8, 8), seed=1)
        b.conv(kernel=1, out_c=3)
        b.relu()
        g = b.build()
        g.nodes.reverse()  # now the relu consumes a not-yet-produced tensor
        with pytest.raises(GraphValidationError):
            load_model(save_model(g))

    def test_node_order_is_declaration_order(self):
        g = build_preset("inception-mini")
        reloaded = load_model(save_model(g))
        assert [n.id for n in reloaded.nodes] == [n.id for n in g.nodes]
