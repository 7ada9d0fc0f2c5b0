import json

import numpy as np
import pytest

from nanoinfer.backend import CpuBackend, Execution
from nanoinfer.cli import COMPARE_ROUNDS, main
from nanoinfer.graph import OpKind, fuse, load_model
from nanoinfer.preinference import _conv_params, conv_schemes


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
        runnable = {n.id: {s.label() for s in conv_schemes(_conv_params(n))}
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
        # each scheme's execution runs once to warm up, then COMPARE_ROUNDS
        # timed rounds, round r starting r schemes further along the list
        labels, runs = {}, []
        create, run = CpuBackend.create_execution, Execution.run

        def counting_create(self, step, plan, shapes):
            execution = create(self, step, plan, shapes)
            labels[execution] = (step.node.id,
                                 step.scheme.label() if step.scheme else None)
            return execution

        def counting_run(self, *args):
            runs.append(self)
            run(self, *args)

        monkeypatch.setattr(CpuBackend, "create_execution", counting_create)
        monkeypatch.setattr(Execution, "run", counting_run)
        code, out = run_cli(capsys, "compare", "--model", model_path,
                            "--format", "json")
        assert code == 0
        timed = 1 + COMPARE_ROUNDS
        for row in json.loads(out)["layers"]:
            schemes = list(row["timings_ms"])
            mine = [e for e in runs if labels[e][0] == row["layer"]]
            counts = {}
            for e in set(mine):
                counts.setdefault(labels[e][1], []).append(mine.count(e))
            # the planned scheme also ran once in the plan's replay
            assert {label: sorted(c) for label, c in counts.items()} == {
                label: [1, timed] if label == row["chosen"] else [timed]
                for label in schemes}
            order = [labels[e][1] for e in mine if mine.count(e) == timed]
            m = len(schemes)
            assert order[:m] == schemes  # the warm-up runs
            for r in range(COMPARE_ROUNDS):
                start = m * (r + 1)
                assert order[start:start + m] \
                    == schemes[r % m:] + schemes[:r % m], r


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


class TestDumpPlan:
    def test_schema(self, model_path, capsys):
        code, out = run_cli(capsys, "dump-plan", "--model", model_path)
        assert code == 0
        plan = json.loads(out)
        assert set(plan) == {"ops", "transfers", "pool_size", "total_cost_ms"}
        for op in plan["ops"]:
            assert set(op) == {"id", "kind", "scheme", "backend", "mul",
                               "cost_ms", "candidates"}
            assert op["mul"] >= 0 and op["cost_ms"] >= 0
            if op["kind"] == "Conv2D":
                # the planned scheme is the cheapest candidate, billed as such
                est = op["candidates"]
                assert op["scheme"] == min(est, key=est.get)
                assert op["cost_ms"] == pytest.approx(est[op["scheme"]])
            else:
                assert op["candidates"] is None
        assert plan["pool_size"] > 0

    def test_schema_stable_across_runs(self, model_path, capsys):
        _, first = run_cli(capsys, "dump-plan", "--model", model_path)
        _, second = run_cli(capsys, "dump-plan", "--model", model_path)
        assert first == second
