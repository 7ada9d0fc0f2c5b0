import json
import struct

import numpy as np
import pytest

from nanoinfer.errors import (
    GraphValidationError, ModelFormatError, ShapeInferenceError, UnknownOpError,
)
from nanoinfer.graph import (
    MAGIC, Graph, GraphBuilder, OpKind, OpNode, fuse, infer_shapes,
    load_model, save_model,
)
from nanoinfer.presets import build_preset
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


def edit_attrs(data: bytes, node_id: str, **changes) -> bytes:
    """The model bytes with one node's attrs changed; None drops an attr."""
    (length,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + length])
    node = next(n for n in header["nodes"] if n["id"] == node_id)
    for name, value in changes.items():
        if value is None:
            node["attrs"].pop(name)
        else:
            node["attrs"][name] = value
    payload = json.dumps(header).encode()
    return MAGIC + struct.pack("<Q", len(payload)) + payload + data[16 + length:]


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

    def test_builder_rejects_unknown_pool_mode(self):
        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.pool(kernel=2, mode="median", name="p")
        with pytest.raises(GraphValidationError, match="node 'p': pool mode"):
            b.build()


class TestShapeInference:
    def test_valid_conv_formula(self):
        g = single_conv_graph(kernel=3, stride=1, pad=0, in_c=1, out_c=2,
                              spatial=(5, 5))
        assert g.tensor_shapes[g.outputs[0]].dims == (1, 2, 3, 3)

    def test_stride2_pad3_k7(self):
        # floor((224 + 6 - 7) / 2) + 1 = 112
        g = single_conv_graph(kernel=7, stride=2, pad=3, in_c=3, out_c=8)
        assert g.tensor_shapes[g.outputs[0]].dims == (1, 8, 112, 112)

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
