"""The residual Add fold: a dense conv's step runs the Add that is its
output's sole reader, and the ReLU after it, written over the skip."""

import numpy as np
import pytest

import nanoinfer.kernels as kernels
import nanoinfer.preinference as preinference
from conftest import assert_replayed
from nanoinfer.backend import CpuBackend
from nanoinfer.cli import with_scheme
from nanoinfer.errors import UnsupportedOpError
from nanoinfer.graph import GraphBuilder, OpKind, fuse
from nanoinfer.preinference import (
    ALIGNMENT, BackendSpec, CostModel, OpStep, SchemeChoice, SchemeKind,
    TransferStep, build_steps, conv_schemes, folds, pre_infer,
    select_schemes,
)
from nanoinfer.presets import PRESETS, build_preset
from nanoinfer.simbackend import SimBackend
from nanoinfer.tensor import from_nchw

CPU = BackendSpec("cpu", CostModel(flops=2e9))


def sim_lacking(*kinds):
    """A sim backend that runs every op kind but `kinds`."""
    return frozenset(set(OpKind) - set(kinds))


def residual_graph(conv=None, skip="conv", after="relu", extra=(),
                   images=1):
    """1x1 conv m, then conv c (3x3 at pad 1, or `conv`'s keywords) on m,
    added to a skip, then `after` on the sum: a ReLU, a max pool, or
    nothing (the sum is the graph output).

    The skip is a dense conv of c's window on the input ("conv"), the
    same made after c ("conv_after"), a 1x1 max pool of the input
    ("pool"), the graph input itself ("input") or c's own input, m
    ("own").
    `extra` adds a graph output: a ReLU of the skip after c
    ("skip_reader"), a ReLU of c's output ("conv_reader"), or the skip
    itself ("skip_output").
    """
    conv = {"kernel": 3, "pad": 1, "out_c": 8, **(conv or {})}
    window = {k: conv[k] for k in ("kernel", "stride", "pad") if k in conv}

    b = GraphBuilder((images, 8, 10, 9), seed=3)
    x = b.input_id
    skips = {"conv": lambda: b.conv(x, **window, out_c=8, name="s"),
             "pool": lambda: b.pool(x, kernel=1, name="s"),
             "input": lambda: x}
    s = skips[skip]() if skip in skips else None
    m = b.conv(x, kernel=1, out_c=8, name="m")
    y = b.conv(m, **conv, name="c")
    if skip == "own":
        s = m
    elif skip == "conv_after":
        s = b.conv(x, **window, out_c=8, name="s")
    total = b.add(y, s, name="add")
    out = {"relu": lambda: b.relu(total, name="relu"),
           "pool": lambda: b.pool(total, kernel=2, name="pool"),
           "none": lambda: total}[after]()
    outputs = [out]
    if "skip_reader" in extra:
        outputs.append(b.relu(s, name="skip_relu"))
    if "conv_reader" in extra:
        outputs.append(b.relu(y, name="conv_relu"))
    if "skip_output" in extra:
        outputs.append(s)
    return b.build(outputs=outputs)


def node(g, nid):
    return next(n for n in g.nodes if n.id == nid)


def fused(plan):
    """Conv id -> the ids of the Add and ReLU folded into its step."""
    return {s.node.id: tuple(n.id for n in s.folded) for s in plan.steps
            if isinstance(s, OpStep) and s.skip is not None}


def replayed(g, plan, backends, seed=0):
    """conftest.assert_replayed on a seeded uniform input."""
    rng = np.random.default_rng(seed)
    x = from_nchw(rng.uniform(-1, 1, size=g.tensor_shapes[g.inputs[0]].dims)
                  .astype(np.float32))
    assert_replayed(g, plan, backends, x)


def plan_with(g, *, sim=None, force=None):
    backends = [CpuBackend()] + ([SimBackend(supported=sim)]
                                 if force == "sim" else [])
    specs = [CPU] + ([BackendSpec("sim", CostModel(flops=1e12), sim)]
                     if force == "sim" else [])
    return pre_infer(g, specs, force_backend=force), backends


class TestFoldRule:
    @pytest.mark.parametrize("backend", ["cpu", "sim"])
    @pytest.mark.parametrize("name,want", [
        ("resnet-mini", {"res0b": ("add_10", "relu_12"),
                         "res1proj": ("add_19", "relu_21")}),
        ("squeezenet-mini", {"expand3x3_0": ("add_11", "relu_13"),
                             "expand3x3_1": ("add_20", "relu_22")}),
        ("inception-mini", {"conv7x1": ("add_14", "relu_16")}),
        ("mobilenet-mini", {})])
    def test_presets(self, name, want, backend):
        g = fuse(build_preset(name))
        plan, backends = plan_with(g, force=backend)
        assert fused(plan) == want
        # no Add or ReLU step is left; the graph keeps every node
        kinds = [s.node.kind for s in plan.steps if isinstance(s, OpStep)]
        assert OpKind.ADD not in kinds and OpKind.RELU not in kinds
        assert set(plan.assignment) == {n.id for n in g.nodes}
        replayed(g, plan, backends, seed=4)

    @pytest.mark.parametrize("case,want", [
        ({}, ("add", "relu")),
        ({"after": "pool"}, ("add",)),  # no ReLU after the Add
        ({"conv": {"activation": "relu"}}, ("add", "relu")),  # conv's own
        ({"conv": {"stride": 2}}, ("add", "relu")),  # strided
        ({"conv": {"kernel": (1, 3), "pad": (0, 1)}}, ("add", "relu")),
        ({"conv": {"kernel": 1, "stride": 2, "pad": 0}}, ("add", "relu")),
        ({"conv": {"group": 2}}, ("add", "relu")),  # grouped
        ({"images": 2}, ("add", "relu")),
        # the Add's output is a graph output: it folds alone
        ({"after": "none"}, ("add",)),
    ])
    def test_folds(self, case, want):
        g = residual_graph(**case)
        plan, backends = plan_with(g)
        assert fused(plan) == {"c": want}
        step = next(s for s in plan.steps if s.node.id == "c")
        skip = node(g, "s").outputs[0]
        assert step.skip == skip
        assert step.outputs == node(g, want[-1]).outputs
        mem = plan.memory["cpu"]
        # the output is written over the skip, which lives on to the
        # output's last read; neither the conv's output nor (with the ReLU
        # folded) the Add's is stored
        assert mem.aliases == {step.outputs[0]: skip}
        made = {*node(g, "c").outputs, *node(g, "add").outputs}
        assert not made & set(mem.offsets)
        last = (len(plan.steps) if step.outputs[0] in g.outputs else next(
            i for i, s in enumerate(plan.steps)
            if step.outputs[0] in s.node.inputs))
        assert mem.lifetimes[skip][1] == last
        # the scratch is one band of output rows, in the pool, aligned
        n, _, h, w = g.tensor_shapes[step.node.inputs[0]].dims
        band = 4 * kernels.fold_scratch_floats(step.node.params(), n, h, w)
        assert mem.sizes["c#scratch"] == -(-band // ALIGNMENT) * ALIGNMENT
        replayed(g, plan, backends)

    @pytest.mark.parametrize("band", [kernels.BAND_FLOATS, 512, 200])
    @pytest.mark.parametrize("conv", [{}, {"stride": 2},
                                      {"activation": "relu", "group": 2}])
    def test_bands_and_slabs_keep_the_bits(self, conv, band, monkeypatch):
        # many small bands, in several slabs: each band's epilogue is the
        # unfused steps' ops on its rows.  Sliding window is planned
        # whatever its cost, which small bands raise.
        monkeypatch.setattr(kernels, "BAND_FLOATS", band)
        monkeypatch.setattr(preinference, "select_scheme_for",
                            lambda node, shapes: SchemeChoice(
                                SchemeKind.SLIDING_WINDOW))
        g = residual_graph(conv=conv, images=2)
        plan, backends = plan_with(g)
        assert fused(plan) == {"c": ("add", "relu")}
        replayed(g, plan, backends, seed=9)

    @pytest.mark.parametrize("conv", [{}, {"kernel": (1, 7), "pad": (0, 3)},
                                      {"kernel": 1, "stride": 2, "pad": 0}])
    def test_one_row_chunks_keep_the_bits(self, conv, monkeypatch):
        # a chunk of one output row: strips and bordered rows run one GEMM
        # per output row whatever the chunk, and a 1xk conv, whose GEMMs
        # run per output column, gathers every row (a GEMV of one row, K =
        # 56 here, would differ in its last bits)
        monkeypatch.setattr(kernels, "EPILOGUE_FLOATS", 1)
        g = residual_graph(conv=conv, images=2)
        plan, backends = plan_with(g)
        assert fused(plan) == {"c": ("add", "relu")}
        replayed(g, plan, backends, seed=3)

    def test_skip_made_after_the_conv_folds_into_the_skip(self):
        # the Add's later producer is s: its step folds c's output as skip
        g = residual_graph(skip="conv_after")
        plan, backends = plan_with(g)
        assert fused(plan) == {"s": ("add", "relu")}
        assert plan.memory["cpu"].aliases == {
            g.outputs[0]: node(g, "c").outputs[0]}
        replayed(g, plan, backends)

    def test_skip_reaches_the_conv_by_a_transfer(self):
        # sim has no Pool2D: the skip is made on cpu and moved to sim,
        # before the fused step, which writes over the moved copy
        g = residual_graph(skip="pool")
        plan, backends = plan_with(g, sim=sim_lacking(OpKind.POOL2D),
                                   force="sim")
        assert plan.assignment["s"] == "cpu" and plan.assignment["c"] == "sim"
        assert fused(plan) == {"c": ("add", "relu")}
        step = next(s for s in plan.steps if getattr(s, "node", None)
                    and s.node.id == "c")
        skip = node(g, "s").outputs[0]
        moved = [s.tensor for s in plan.steps[:plan.steps.index(step)]
                 if not isinstance(s, OpStep)]
        assert skip in moved
        assert plan.memory["sim"].aliases == {g.outputs[0]: skip}
        replayed(g, plan, backends)

    def test_sim_output_is_moved_from_the_skip(self):
        # on sim, the folded Add's output is the graph output: its transfer
        # to cpu, the plan's last step, reads the skip's sim interval
        g = residual_graph(after="none")
        plan, backends = plan_with(g, force="sim")
        assert fused(plan) == {"c": ("add",)}
        skip, out = node(g, "s").outputs[0], g.outputs[0]
        last = plan.steps[-1]
        assert isinstance(last, TransferStep)
        assert (last.tensor, last.src, last.dst) == (out, "sim", "cpu")
        sim = plan.memory["sim"]
        assert sim.aliases == {out: skip}
        assert sim.lifetimes[skip][1] == len(plan.steps) - 1
        assert out in plan.memory["cpu"].offsets
        replayed(g, plan, backends)

    @pytest.mark.parametrize("case", [
        {"skip": "own"},  # conv(x) + x: it would overwrite rows it reads
        {"extra": ("skip_reader",)},  # the skip is read after the conv
        {"skip": "input"},  # the skip is a graph input
        {"extra": ("conv_reader",)},  # the conv's output has two readers
        {"conv": {"kernel": 1, "pad": 0}},  # pointwise
        {"conv": {"group": 8}},  # depthwise
        {"extra": ("skip_output",)},  # the skip is a graph output
    ])
    def test_does_not_fold(self, case):
        g = residual_graph(**case)
        plan, backends = plan_with(g)
        assert fused(plan) == {}
        assert not plan.memory["cpu"].aliases
        assert [s.node.kind for s in plan.steps].count(OpKind.ADD) == 1
        replayed(g, plan, backends)

    def test_winograd_planned_conv_does_not_fold(self):
        g = residual_graph()
        assign = {n.id: "cpu" for n in g.nodes}
        schemes = select_schemes(g)
        assert folds(g, assign, schemes) != {}
        schemes["c"] = SchemeChoice(SchemeKind.WINOGRAD, 4)
        assert folds(g, assign, schemes) == {}
        assert not any(s.folded for s in build_steps(g, assign, schemes,
                                                     "cpu"))

    def test_conv_and_add_on_different_backends_do_not_fold(self):
        # sim lacks Add: the Add runs on cpu, the conv on sim
        g = residual_graph()
        plan, backends = plan_with(g, sim=sim_lacking(OpKind.ADD),
                                   force="sim")
        assert (plan.assignment["c"], plan.assignment["add"]) == ("sim",
                                                                  "cpu")
        assert fused(plan) == {}
        replayed(g, plan, backends)

    def test_relu_on_another_backend_stays_a_step(self):
        # sim lacks ReLU: the Add folds alone, and the ReLU runs on cpu
        g = residual_graph()
        plan, backends = plan_with(g, sim=sim_lacking(OpKind.RELU),
                                   force="sim")
        assert plan.assignment["relu"] == "cpu"
        assert fused(plan) == {"c": ("add",)}
        assert [s.node.id for s in plan.steps
                if isinstance(s, OpStep)][-1] == "relu"
        replayed(g, plan, backends)

    @pytest.mark.parametrize("kind", [OpKind.ADD, OpKind.RELU])
    def test_sim_refuses_a_folded_node_it_lacks(self, kind):
        g = residual_graph()
        plan, _ = plan_with(g)
        step = next(s for s in plan.steps if s.folded)
        with pytest.raises(UnsupportedOpError, match=kind.value):
            SimBackend(supported=sim_lacking(kind)).create_execution(
                step, plan)

    def test_fused_step_billed_its_folded_nodes(self):
        g = fuse(build_preset("resnet-mini"))
        plan = pre_infer(g, [CPU])
        assert "add_10" not in plan.op_costs and "relu_12" not in plan.op_costs
        assert sum(plan.op_costs.values()) == pytest.approx(
            plan.total_cost_ms)


class TestUnfolded:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_with_scheme_runs_the_conv_alone(self, name):
        # under every scheme a fused conv runs as its own step, then each
        # folded node, on a pool planned again: the bits of replay_cpu
        g = fuse(build_preset(name))
        plan = pre_infer(g, [CPU])
        for step in [s for s in plan.steps if isinstance(s, OpStep)
                     and s.folded]:
            for scheme in conv_schemes(step.node.params()):
                alone = with_scheme(plan, step.node, scheme)
                ids = [s.node.id for s in alone.steps if isinstance(s, OpStep)]
                at = ids.index(step.node.id)
                assert ids[at:at + 1 + len(step.folded)] == [
                    step.node.id, *(n.id for n in step.folded)]
                assert alone.steps[alone.steps.index(next(
                    s for s in alone.steps if isinstance(s, OpStep)
                    and s.node is step.node))].scheme == scheme
                assert not any(isinstance(s, OpStep) and s.folded
                               and s.node is step.node for s in alone.steps)
                assert step.outputs[0] not in alone.memory["cpu"].aliases
                replayed(g, alone, [CpuBackend()])
