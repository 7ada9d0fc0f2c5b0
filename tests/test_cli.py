import json
import os
import statistics
import time

import numpy as np
import pytest

from nanoinfer import cli
from nanoinfer.backend import Session
from nanoinfer.cli import COMPARE_ROUNDS, main
from nanoinfer.graph import OpKind, fuse, load_model
from nanoinfer.preinference import conv_schemes
from nanoinfer.presets import PRESETS


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_smoke_and_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.ninf", tmp_path / "b.ninf"
        assert main(["gen", "mobilenet-mini", str(a), "--seed", "5"]) == 0
        assert main(["gen", "mobilenet-mini", str(b), "--seed", "5"]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        g = load_model(a.read_bytes())
        assert g.tensor_shapes  # loads and shape-infers

    def test_generated_file_roundtrips_bytes(self, tmp_path, capsys):
        from nanoinfer.graph import save_model
        path = tmp_path / "m.ninf"
        assert main(["gen", "mobilenet-mini", str(path)]) == 0
        capsys.readouterr()
        data = path.read_bytes()
        assert save_model(load_model(data)) == data

    def test_inception_has_asymmetric_kernels(self, tmp_path, capsys):
        path = tmp_path / "inc.ninf"
        assert main(["gen", "inception-mini", str(path)]) == 0
        capsys.readouterr()
        g = load_model(path.read_bytes())
        kernels = [tuple(n.attrs["kernel"]) for n in g.nodes
                   if n.kind is OpKind.CONV2D]
        assert (1, 7) in kernels
        assert (7, 1) in kernels

    def test_unknown_preset(self, tmp_path, capsys):
        assert main(["gen", "resnet-mini", str(tmp_path / "x")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["gen", "vgg-huge", str(tmp_path / "y")])


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "resnet.ninf"
    assert main(["gen", "resnet-mini", str(path)]) == 0
    return str(path)


class TestRun:
    def test_report_counts_runs_only(self, model_path, capsys):
        code, out = run_cli(capsys, "run", "--model", model_path,
                            "--runs", "10", "--warmup", "1",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        report = payload["report"]
        assert report["runs"] == 10
        assert len(report["latencies_ms"]) == 10
        assert report["warmup"] == 1
        assert report["mean_ms"] == pytest.approx(
            sum(report["latencies_ms"]) / 10)
        assert report["min_ms"] <= report["p50_ms"] <= report["p90_ms"] \
            <= report["max_ms"]
        assert all(v >= 0 for v in report["latencies_ms"])

    def test_auto_backend_matches_argmin(self, model_path, capsys):
        code, out = run_cli(capsys, "run", "--model", model_path,
                            "--backend", "auto", "--runs", "1",
                            "--format", "json", "--dump-plan")
        assert code == 0
        payload = json.loads(out)
        from nanoinfer.backend import CpuBackend, resolve_backend
        from nanoinfer.graph import fuse
        from nanoinfer.preinference import select_backend
        g = fuse(load_model(open(model_path, "rb").read()))
        specs = [CpuBackend().spec(), resolve_backend("sim").spec()]
        best = select_backend(g, specs)
        assert payload["report"]["backend"] == best.candidate
        backends = {op["backend"] for op in payload["plan"]["ops"]}
        assert backends == set(best.assignment.values())

    def test_missing_model_fails(self, capsys):
        code = main(["run", "--model", "/nonexistent.ninf"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err

    def test_zero_runs_rejected(self, model_path, capsys):
        code = main(["run", "--model", model_path, "--runs", "0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "--runs" in err

    def test_negative_warmup_rejected(self, model_path, capsys):
        code = main(["run", "--model", model_path, "--warmup", "-3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "--warmup" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["gen", "run", "compare"])
    def test_negative_seed_rejected(self, model_path, tmp_path, capsys,
                                    command):
        # NumPy's generators refuse a negative seed; the CLI says so first
        argv = ([command, "resnet-mini", str(tmp_path / "m.ninf")]
                if command == "gen" else [command, "--model", model_path])
        code = main([*argv, "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "--seed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "dump-plan"])
    @pytest.mark.parametrize("content,entry", [
        ("not json", None),
        ('["cpu"]', None),
        ('{"cpu": {"t_schedule_ms": 1}}', "'cpu'"),
        ('{"cpu": 5}', "'cpu'"),
        ('{"sim": {"flops": "fast"}}', "'sim'"),
        ('{"sim": {"flops": 1e9, "t_schedule_ms": -1}}', "'sim'"),
        # only finite JSON numbers: no strings, booleans, Infinity or NaN
        ('{"cpu": {"flops": "3e9"}}', "'cpu'"),
        ('{"sim": {"flops": true}}', "'sim'"),
        ('{"sim": {"flops": Infinity}}', "'sim'"),
        ('{"sim": {"flops": 1e9, "t_schedule_ms": NaN}}', "'sim'"),
        ('{"sim": {"flops": 1e9, "t_schedule_ms": Infinity}}', "'sim'"),
    ])
    def test_malformed_cost_model_reported(self, model_path, tmp_path,
                                           capsys, command, content, entry):
        # a bad cost file is a one-line error naming it, not a traceback
        cost = tmp_path / "cost.json"
        cost.write_text(content)
        code = main([command, "--model", model_path, "--backend", "auto",
                     "--cost-model", str(cost)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: cost model {cost}")
        if entry:
            assert f"entry {entry}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "compare", "dump-plan"])
    @pytest.mark.parametrize("spacing", ["-2", "0", "nan", "inf"])
    def test_nonpositive_spacing_rejected(self, model_path, capsys, command,
                                          spacing):
        # no preset conv plans a Winograd tile, so the spacing is checked
        # before planning, not when a transform is generated
        code = main([command, "--model", model_path, "--f", spacing])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: point spacing f=")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["run", "--backend", "sim"],
        ["dump-plan", "--backend", "auto"],
    ])
    def test_missing_sim_module_reported(self, model_path, capsys,
                                         monkeypatch, argv):
        # the engine runs without simbackend.py; naming sim is then an
        # engine error, not a traceback
        import sys
        monkeypatch.setitem(sys.modules, "nanoinfer.simbackend", None)
        code = main([*argv, "--model", model_path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: sim backend not available\n"
        assert captured.out == ""

    def test_unknown_cost_model_backend_rejected(self, model_path, tmp_path,
                                                 capsys):
        # a misspelt backend name is an error, not an entry left unread
        cost = tmp_path / "cost.json"
        cost.write_text(json.dumps({"gpu": {"flops": 1}, "CPU": {"flops": 1}}))
        code = main(["dump-plan", "--model", model_path,
                     "--cost-model", str(cost)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: cost model {cost}: entry "
                                       "'gpu' names no backend")
        assert "cpu, sim" in captured.err
        # a sim entry stays valid when only the CPU is planned
        cost.write_text(json.dumps({"sim": {"flops": 1}}))
        code, out = run_cli(capsys, "dump-plan", "--model", model_path,
                            "--cost-model", str(cost))
        assert code == 0
        assert {op["backend"] for op in json.loads(out)["ops"]} == {"cpu"}

    def test_no_thread_count(self, model_path, capsys):
        # kernels run on the calling thread: no option, no report field
        for command in ("run", "compare", "dump-plan"):
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert "--threads" not in capsys.readouterr().out
        code, out = run_cli(capsys, "run", "--model", model_path, "--runs", "1",
                            "--format", "json")
        assert code == 0
        assert "threads" not in json.loads(out)["report"]

    def test_malformed_attr_reported(self, model_path, tmp_path, capsys):
        # a bad attribute is a one-line error, not a traceback
        data = open(model_path, "rb").read()
        bad = tmp_path / "stride0.ninf"
        bad.write_bytes(data.replace(b'"stride":[1,1]', b'"stride":[0,1]', 1))
        code = main(["run", "--model", str(bad), "--runs", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: node ")
        assert "stride=[0, 1] is below 1" in captured.err
        assert captured.out == ""

    def test_bad_input_length(self, model_path, tmp_path, capsys):
        bad = tmp_path / "short.f32"
        bad.write_bytes(b"\x00" * 16)
        code = main(["run", "--model", model_path, "--input", str(bad)])
        assert code == 1

    def test_input_file_roundtrip(self, model_path, tmp_path, capsys):
        rng = np.random.default_rng(3)
        raw = rng.uniform(-1, 1, size=(1, 3, 32, 32)).astype("<f4")
        path = tmp_path / "input.f32"
        raw.tofile(path)
        code, out = run_cli(capsys, "run", "--model", model_path,
                            "--input", str(path), "--runs", "1",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["output_sha256"]

    def test_cost_model_overrides_flip_auto_choice(self, model_path,
                                                   tmp_path, capsys):
        # a sim backend with huge FLOPS and free dispatch wins the argmin
        cost = tmp_path / "cost.json"
        cost.write_text(json.dumps({
            "cpu": {"flops": 2e9, "t_schedule_ms": 0.0},
            "sim": {"flops": 1e15, "t_schedule_ms": 0.0},
        }))
        code, out = run_cli(capsys, "run", "--model", model_path,
                            "--backend", "auto", "--runs", "1",
                            "--cost-model", str(cost), "--format", "json")
        assert code == 0
        assert json.loads(out)["report"]["backend"] == "sim"

    def test_sim_latency_is_wall_time_plus_dispatch_charges(
            self, tmp_path, capsys, monkeypatch):
        # a run's time outside its steps (here a 20 ms sleep) and sim's
        # 5 ms dispatch charge both count toward its latency
        from nanoinfer.graph import GraphBuilder, save_model

        b = GraphBuilder((1, 4, 8, 8), seed=0)
        b.relu()
        model = tmp_path / "relu.ninf"
        model.write_bytes(save_model(b.build()))
        cost = tmp_path / "cost.json"
        cost.write_text(json.dumps({"sim": {"flops": 4e9,
                                            "t_schedule_ms": 5.0}}))
        run_timed = Session.run_timed

        def slow(self, inputs):
            time.sleep(0.02)
            return run_timed(self, inputs)

        monkeypatch.setattr(Session, "run_timed", slow)
        code, out = run_cli(capsys, "run", "--model", str(model),
                            "--backend", "sim", "--cost-model", str(cost),
                            "--runs", "2", "--warmup", "0",
                            "--format", "json")
        assert code == 0
        assert min(json.loads(out)["report"]["latencies_ms"]) >= 25.0

    def test_log_env_accepted(self, model_path, capsys, monkeypatch):
        monkeypatch.setenv("NANO_INFER_LOG", "debug")
        code, _ = run_cli(capsys, "run", "--model", model_path, "--runs", "1",
                          "--format", "json")
        assert code == 0

    def test_debug_log_shows_each_decision(self, model_path, capsys, caplog):
        # one line per conv: the chosen scheme, then every candidate
        with caplog.at_level("DEBUG", logger="nanoinfer"):
            code, out = run_cli(capsys, "dump-plan", "--model", model_path)
        assert code == 0
        plan = json.loads(out)
        convs = [op for op in plan["ops"] if op["kind"] == "Conv2D"]
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("plan ")]
        assert len(lines) == len(convs)
        for op, line in zip(convs, lines):
            assert line.startswith(f"plan {op['id']}: {op['scheme']} (")
            for label in op["candidates"]:
                assert f"{label} " in line

    def test_unknown_activation_reported(self, model_path, tmp_path, capsys):
        data = open(model_path, "rb").read()
        # same length, so the header's byte count still holds
        bad = tmp_path / "tanh.ninf"
        bad.write_bytes(data.replace(b'"activation":"none"',
                                     b'"activation":"tanh"', 1))
        code = main(["run", "--model", str(bad), "--runs", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: node ")
        assert "activation 'tanh'" in captured.err
        assert captured.out == ""


class TestCompare:
    def test_deviation_within_tolerance(self, model_path, capsys):
        code, out = run_cli(capsys, "compare", "--model", model_path,
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["max_rel_deviation"] <= 1e-3
        g = fuse(load_model(open(model_path, "rb").read()))
        runnable = {n.id: {s.label() for s in conv_schemes(n.params())}
                    for n in g.nodes if n.kind is OpKind.CONV2D}
        assert {row["layer"] for row in payload["layers"]} == set(runnable)
        for row in payload["layers"]:
            assert set(row["timings_ms"]) == runnable[row["layer"]]
            assert row["chosen"] in row["timings_ms"]

    def test_k1_layers_run_sliding(self, tmp_path, capsys):
        # a 1x1 conv has one scheme, sliding window; every candidate of
        # every layer is timed and estimated, and the estimate's argmin is
        # the planned scheme
        path = tmp_path / "sq.ninf"
        main(["gen", "squeezenet-mini", str(path)])
        capsys.readouterr()
        code, out = run_cli(capsys, "compare", "--model", str(path),
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        g = load_model(path.read_bytes())
        k1_layers = {n.id for n in g.nodes if n.kind is OpKind.CONV2D
                     and tuple(n.attrs["kernel"]) == (1, 1)}
        assert k1_layers
        for row in payload["layers"]:
            est = row["estimates_ms"]
            assert set(est) == set(row["timings_ms"])
            assert row["chosen"] == min(est, key=est.get)
            assert row["fastest"] == min(row["timings_ms"],
                                         key=row["timings_ms"].get)
            if row["layer"] in k1_layers:
                assert set(row["timings_ms"]) == {"sliding"}
                assert row["chosen"] == "sliding"

    def test_each_scheme_timed_over_rotated_rounds(self, model_path, capsys,
                                                   monkeypatch):
        # each scheme gets a session of the whole graph, which runs once to
        # warm up, then COMPARE_ROUNDS timed rounds, round r starting r
        # schemes further along the list; a timing is the median of its
        # scheme's step times in those rounds
        plans, inits, calls, step_ms = {}, [], [], {}
        with_scheme, init = cli.with_scheme, Session.__init__
        run_timed = Session.run_timed

        def labelled(plan, node, scheme):
            switched = with_scheme(plan, node, scheme)
            plans[id(switched)] = (switched, (node.id, scheme.label()))
            return switched

        def counting_init(self, plan, backends, *args):
            init(self, plan, backends, *args)
            self.label = plans[id(plan)][1]
            inits.append(self.label)

        def counting_run(self, x):
            calls.append(("run", self.label))
            return run_timed(self, x)[0]

        def counting_run_timed(self, x):
            calls.append(("run_timed", self.label))
            outputs, times = run_timed(self, x)
            step_ms.setdefault(self.label, []).append(
                dict(times)[self.label[0]])
            return outputs, times

        monkeypatch.setattr(cli, "with_scheme", labelled)
        monkeypatch.setattr(Session, "__init__", counting_init)
        monkeypatch.setattr(Session, "run", counting_run)
        monkeypatch.setattr(Session, "run_timed", counting_run_timed)
        code, out = run_cli(capsys, "compare", "--model", model_path,
                            "--format", "json")
        assert code == 0
        g = fuse(load_model(open(model_path, "rb").read()))
        nodes = {n.id: n for n in g.nodes}
        for row in json.loads(out)["layers"]:
            layer = row["layer"]
            schemes = [s.label()
                       for s in conv_schemes(nodes[layer].params())]
            m = len(schemes)
            assert [label for lay, label in inits if lay == layer] == schemes
            mine = [(kind, label) for kind, (lay, label) in calls
                    if lay == layer]
            assert len(mine) == m * (1 + COMPARE_ROUNDS)
            assert mine[:m] == [("run", label) for label in schemes]
            for r in range(COMPARE_ROUNDS):
                start = m * (r + 1)
                assert mine[start:start + m] == [
                    ("run_timed", label)
                    for label in schemes[r % m:] + schemes[:r % m]], r
            assert row["timings_ms"] == {
                label: statistics.median(step_ms[(layer, label)])
                for label in schemes}


    @pytest.mark.parametrize("option", [["--backend", "sim"],
                                        ["--cost-model", "/nonexistent.json"]])
    def test_planning_options_rejected(self, model_path, capsys, option):
        # compare always plans on the CPU with its own cost model
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--model", model_path, *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" \
            in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["compare", "--help"])
        assert option[0] not in capsys.readouterr().out


@pytest.fixture(scope="module")
def two_input_path(tmp_path_factory):
    """A model of two graph inputs, a and b: their sum, then a 1x1 conv."""
    from nanoinfer.graph import Graph, OpNode, Shape, infer_shapes, save_model

    rng = np.random.default_rng(0)
    conv = OpNode("conv", OpKind.CONV2D, ["s"], ["y"],
                  attrs={"kernel": [1, 1], "in_c": 3, "out_c": 4,
                         "bias": True},
                  weights=rng.standard_normal((4, 3, 1, 1)).astype(np.float32),
                  bias=rng.standard_normal(4).astype(np.float32))
    g = infer_shapes(Graph(
        [OpNode("add", OpKind.ADD, ["a", "b"], ["s"]), conv], ["a", "b"],
        ["y"], {"a": Shape((1, 3, 6, 5)), "b": Shape((1, 3, 6, 5))}))
    path = tmp_path_factory.mktemp("models") / "two.ninf"
    path.write_bytes(save_model(g))
    return str(path)


class TestTwoInputs:
    def test_run_and_compare_seed_every_input(self, two_input_path, capsys):
        code, out = run_cli(capsys, "run", "--model", two_input_path,
                            "--runs", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["output_sha256"]
        code, out = run_cli(capsys, "compare", "--model", two_input_path,
                            "--format", "json")
        assert code == 0
        assert [row["layer"] for row in json.loads(out)["layers"]] == ["conv"]

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_input_file_names_the_input_count(self, two_input_path,
                                              tmp_path, capsys, command):
        raw = tmp_path / "x.f32"
        np.zeros(90, "<f4").tofile(raw)
        code = main([command, "--model", two_input_path, "--input", str(raw)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:") and "2 inputs" in captured.err


class TestBlasThreads:
    @pytest.mark.parametrize("env,want", [
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"},
         "OPENBLAS_NUM_THREADS=1"),
        ({"OMP_NUM_THREADS": "3"}, "OMP_NUM_THREADS=3"),
        ({}, f"default ({os.cpu_count()} cpus)"),
    ])
    def test_run_and_compare_show_setting(self, model_path, capsys,
                                          monkeypatch, env, want):
        # OpenBLAS stalls GEMMs early in a process at its default thread
        # count, so both commands print the setting beside their times
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        for command in ("run", "compare"):
            argv = [command, "--model", model_path]
            if command == "run":
                argv += ["--runs", "1"]
            code, out = run_cli(capsys, *argv, "--format", "json")
            assert code == 0
            assert json.loads(out)["blas_threads"] == want
            code, out = run_cli(capsys, *argv)
            assert code == 0
            assert f"blas threads: {want}" in out.splitlines()


class TestWinogradDump:
    def test_matches_golden(self, capsys):
        import pathlib
        code, out = run_cli(capsys, "winograd-dump", "--n", "2", "--k", "3",
                            "--f", "0.5")
        assert code == 0
        golden = pathlib.Path(__file__).parent / "golden" / "winograd_n2_k3_f05.json"
        assert json.loads(out) == json.loads(golden.read_text())

    def test_unsupported_size_fails(self, capsys):
        assert main(["winograd-dump", "--n", "8", "--k", "7"]) == 1

    @pytest.mark.parametrize("spacing", ["inf", "1e100", "1e-100", "1e20",
                                         "1e-20"])
    def test_unrepresentable_spacing_fails(self, capsys, spacing):
        code = main(["winograd-dump", "--n", "4", "--k", "3", "--f", spacing])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: point spacing f=")
        assert captured.out == ""


class TestDumpPlan:
    def test_schema(self, model_path, capsys):
        code, out = run_cli(capsys, "dump-plan", "--model", model_path)
        assert code == 0
        plan = json.loads(out)
        assert set(plan) == {"ops", "transfers", "pool_size",
                             "pool_lower_bound", "total_cost_ms"}
        for op in plan["ops"]:
            # resnet-mini's res0b and res1proj each run an Add and a ReLU
            fused = ({"add", "relu", "scratch_bytes"}
                     if op["id"] in ("res0b", "res1proj") else set())
            assert set(op) == {"id", "kind", "scheme", "backend", "mul",
                               "cost_ms", "candidates", *fused}
            assert op["mul"] >= 0 and op["cost_ms"] >= 0
            if op["kind"] == "Conv2D":
                # the planned scheme is the cheapest candidate, billed as such
                est = op["candidates"]
                assert op["scheme"] == min(est, key=est.get)
                # a fused step is billed its Add's and ReLU's estimates too
                # (test_op_costs_sum_to_total)
                if fused:
                    assert op["cost_ms"] > est[op["scheme"]]
                else:
                    assert op["cost_ms"] == pytest.approx(est[op["scheme"]])
            else:
                assert op["candidates"] is None
        assert plan["pool_size"] > 0

    def test_folded_pool_on_its_conv_entry(self, tmp_path, capsys):
        # mobilenet-mini's 2x2 max pool runs in pw2's step: pw2's entry
        # names it and its scratch bytes, and the pool has no entry; next
        # comes the global average pool
        path = str(tmp_path / "mobilenet.ninf")
        assert main(["gen", "mobilenet-mini", path]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, "dump-plan", "--model", path)
        assert code == 0
        ops = json.loads(out)["ops"]
        ids = [op["id"] for op in ops]
        pw2 = ops[ids.index("pw2")]
        assert (pw2["pool"], pw2["scratch_bytes"]) == ("pool_24", 65536)
        assert "pool_24" not in ids
        after = ops[ids.index("pw2") + 1]
        assert (after["id"], after["kind"]) == ("pool_26", "Pool2D")
        assert sum("pool" in op for op in ops) == 1

    @pytest.mark.parametrize("backend", ["cpu", "sim", "auto"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_op_costs_sum_to_total(self, preset, backend, tmp_path, capsys):
        # a step with a folded pool is billed the pool's estimate too, so
        # no estimate is left on no entry
        path = str(tmp_path / "model.ninf")
        assert main(["gen", preset, path]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, "dump-plan", "--model", path,
                            "--backend", backend)
        assert code == 0
        plan = json.loads(out)
        assert sum(op["cost_ms"] for op in plan["ops"]) == pytest.approx(
            plan["total_cost_ms"], rel=1e-12)

    def test_schema_stable_across_runs(self, model_path, capsys):
        _, first = run_cli(capsys, "dump-plan", "--model", model_path)
        _, second = run_cli(capsys, "dump-plan", "--model", model_path)
        assert first == second

    @pytest.mark.parametrize("option", [["--input", "x.f32"], ["--seed", "3"],
                                        ["--format", "table"]])
    def test_run_options_rejected(self, model_path, capsys, option):
        # dump-plan runs nothing and always prints the plan as JSON
        with pytest.raises(SystemExit) as exc:
            main(["dump-plan", "--model", model_path, *option])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" \
            in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["dump-plan", "--help"])
        assert option[0] not in capsys.readouterr().out

    def test_forced_sim_plans_what_run_runs(self, model_path, tmp_path,
                                            capsys):
        # sim is too slow to win on cost, so only --backend sim puts the
        # ops there, in dump-plan as in run
        cost = tmp_path / "cost.json"
        cost.write_text(json.dumps({"sim": {"flops": 1e3}}))
        options = ["--model", model_path, "--backend", "sim",
                   "--cost-model", str(cost)]
        code, out = run_cli(capsys, "dump-plan", *options)
        assert code == 0
        plan = json.loads(out)
        assert {op["backend"] for op in plan["ops"]} == {"sim"}
        code, out = run_cli(capsys, "run", *options, "--runs", "1",
                            "--dump-plan", "--format", "json")
        assert code == 0
        assert json.loads(out)["plan"] == plan
