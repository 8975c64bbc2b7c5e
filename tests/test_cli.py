"""CLI surface: subcommand behaviour, exit codes, file outputs."""

import json

import numpy as np
import pytest

from instrujoule import SyntheticModel, load_trace
from instrujoule.cli import _build_parser, cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, name="model.json", **overrides):
    model = SyntheticModel(**overrides)
    path = tmp_path / name
    path.write_text(json.dumps(model.to_dict()))
    return path


class TestGen:
    def test_ptx_on_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--inst", "div.u32", "--variant", "total")
        assert code == 0
        assert ".visible .entry bench_div_u32" in out
        assert out.count("div.u32 \t%r") == 5

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "kernel.ptx"
        code, out, _ = run_cli(
            capsys, "gen", "--inst", "rsqrt.f32", "--variant", "overhead",
            "--iters", "1000", "--unroll", "3", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert "rsqrt.approx.f32" not in target.read_text().split("BB0_1:")[1]

    def test_recipe(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--inst", "div.u32", "--recipe")
        assert code == 0
        assert "ptxas" in out

    def test_catalog_listing(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--list")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 55
        assert {"opcode", "operand_type", "category", "ptx_mnemonic"} <= set(records[0])

    def test_unknown_instruction_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--inst", "warp9.u32")
        assert code == 1
        assert "UnsupportedInstruction" in err

    def test_malformed_inst_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--inst", "div")
        assert code == 2


class TestTopLevel:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_args_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2


class TestMeasure:
    def test_missing_replay_file_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "measure", "--strategy", "mtsm",
            "--provider", "replay:missing.csv", "--workload", "synth:1",
        )
        assert code == 1
        assert "MalformedTrace" in err

    def test_live_provider_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "measure", "--strategy", "papi", "--provider", "live",
        )
        assert code == 1
        assert "SensorUnavailable" in err

    @pytest.mark.parametrize("field", ["noise_stddev", "p_kernel", "sample_rate"])
    def test_nan_model_field_exits_1(self, capsys, tmp_path, field):
        model_path = write_model(tmp_path, **{field: float("nan")})  # written as NaN
        code, out, err = run_cli(
            capsys, "measure", "--strategy", "mtsm", "--provider", f"synth:{model_path}",
        )
        assert code == 1
        assert out == ""
        assert "InvalidModel" in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--strategy", "mtsm", "--read-cost", "nan"], "read_cost must be > 0"),
            (["--strategy", "sma", "--lead", "nan"], "lead and tail must be >= 0"),
            (["--strategy", "sma", "--tail", "nan"], "lead and tail must be >= 0"),
        ],
    )
    def test_nan_run_parameter_exits_1(self, capsys, tmp_path, extra, message):
        model_path = write_model(tmp_path, kernel_duration=0.1)
        code, out, err = run_cli(
            capsys, "measure", "--provider", f"synth:{model_path}", *extra,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: ValueError: {message}\n"

    def test_nan_workload_duration_is_a_usage_error(self, capsys, tmp_path):
        model_path = write_model(tmp_path)
        code, _, err = run_cli(
            capsys, "measure", "--strategy", "mtsm",
            "--provider", f"synth:{model_path}", "--workload", "synth:nan",
        )
        assert code == 2
        assert "workload duration must be > 0" in err

    def test_mtsm_synth_result_json(self, capsys, tmp_path):
        model_path = write_model(tmp_path, kernel_duration=0.5, noise_stddev=0.0)
        out_path = tmp_path / "result.json"
        code, _, _ = run_cli(
            capsys, "measure", "--strategy", "mtsm",
            "--provider", f"synth:{model_path}", "--out", str(out_path),
        )
        assert code == 0
        result = json.loads(out_path.read_text())
        assert result["strategy"] == "mtsm"
        assert result["n_samples"] == len(result["trace"]["t_s"])
        truth = SyntheticModel(kernel_duration=0.5).true_window_energy()
        assert result["energy_mj"] == pytest.approx(truth, rel=0.01)
        assert result["flag_set_s"] <= result["flag_clear_s"]

    def test_workload_seconds_override(self, capsys, tmp_path):
        model_path = write_model(tmp_path, kernel_duration=2.0, noise_stddev=0.0)
        code, out, _ = run_cli(
            capsys, "measure", "--strategy", "papi",
            "--provider", f"synth:{model_path}", "--workload", "synth:0.25",
        )
        assert code == 0
        result = json.loads(out)
        assert result["elapsed_s"] == pytest.approx(0.25 + 0.002)

    def test_replay_needs_duration(self, capsys, tmp_path):
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,power_mw\n0,100\n5,100\n")
        code, _, err = run_cli(
            capsys, "measure", "--strategy", "papi",
            "--provider", f"replay:{trace_path}",
        )
        assert code == 2

    def test_replay_papi(self, capsys, tmp_path):
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,power_mw\n0,100000\n5,100000\n")
        code, out, _ = run_cli(
            capsys, "measure", "--strategy", "papi",
            "--provider", f"replay:{trace_path}", "--workload", "synth:2",
        )
        assert code == 0
        assert json.loads(out)["energy_mj"] == pytest.approx(200_000.0)

    def test_sma_writes_trace_csv(self, capsys, tmp_path):
        model_path = write_model(tmp_path, kernel_duration=0.5, noise_stddev=0.0)
        out_path = tmp_path / "sma.csv"
        code, _, _ = run_cli(
            capsys, "measure", "--strategy", "sma",
            "--provider", f"synth:{model_path}",
            "--lead", "0.2", "--tail", "0.2", "--interval", "0.015",
            "--out", str(out_path),
        )
        assert code == 0
        trace = load_trace(out_path)
        assert trace.window is None
        assert len(trace) == pytest.approx((0.2 + 0.502 + 0.2) / 0.015, abs=2)

    def test_sma_stdout_bytes_equal_out_file(self, capsys, tmp_path):
        model_path = write_model(tmp_path, kernel_duration=0.5, noise_stddev=200.0, rng_seed=4)
        argv = ["measure", "--strategy", "sma", "--provider", f"synth:{model_path}",
                "--lead", "0.2", "--tail", "0.2", "--interval", "0.015"]
        out_path = tmp_path / "sma.csv"
        assert run_cli(capsys, *argv, "--out", str(out_path))[:2] == (0, "")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == out_path.read_bytes()


class TestAnalyzeHw:
    CSV = (
        "# r_s_ohm: 0.1\n"
        "t_s,v_s1,v_g1,v_s2,v_g2,i_clamp_a,v_dps\n"
        + "".join(f"{i * 0.001},12.1,12,3.4,3.3,10,12\n" for i in range(2001))
    )

    @pytest.fixture()
    def capture_path(self, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_text(self.CSV)
        return path

    def test_trace_output(self, capsys, capture_path, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(
            capsys, "analyze-hw", "--capture", str(capture_path), "--out", str(out_path),
        )
        assert code == 0
        trace = load_trace(out_path)
        assert len(trace) == 2001
        assert np.allclose(trace.powers, 135_300.0)

    def test_trace_stdout_bytes_equal_out_file(self, capsys, capture_path, tmp_path):
        out_path = tmp_path / "trace.csv"
        argv = ["analyze-hw", "--capture", str(capture_path)]
        assert run_cli(capsys, *argv, "--out", str(out_path))[:2] == (0, "")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out.encode("utf-8") == out_path.read_bytes()

    def test_energy_output(self, capsys, capture_path, tmp_path):
        out_path = tmp_path / "energy.json"
        code, _, _ = run_cli(
            capsys, "analyze-hw", "--capture", str(capture_path),
            "--window", "0,2", "--out", str(out_path),
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["energy_mj"] == pytest.approx(270_600.0, rel=1e-9)

    def test_energy_requires_window(self, capsys, capture_path, tmp_path):
        code, _, _ = run_cli(
            capsys, "analyze-hw", "--capture", str(capture_path),
            "--out", str(tmp_path / "energy.json"),
        )
        assert code == 2

    def test_missing_shunt_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_s,v_s1,v_g1,v_s2,v_g2,i_clamp_a,v_dps\n0,1,1,1,1,0,1\n")
        code, _, err = run_cli(capsys, "analyze-hw", "--capture", str(path))
        assert code == 1
        assert "MissingShunt" in err


class TestCompare:
    def test_stats_from_result_files(self, capsys, tmp_path):
        pred = tmp_path / "pred.json"
        ref = tmp_path / "ref.json"
        pred.write_text(json.dumps({"energies": {"a": 6.0, "b": 4.0}}))
        ref.write_text(json.dumps({"energies": {"a": 5.0, "b": 4.0}}))
        code, out, _ = run_cli(capsys, "compare", "--pred", str(pred), "--ref", str(ref))
        assert code == 0
        stats = json.loads(out)
        assert stats["mape_percent"] == pytest.approx(10.0)
        assert stats["n"] == 2

    def test_single_result_files(self, capsys, tmp_path):
        pred = tmp_path / "pred.json"
        ref = tmp_path / "ref.json"
        pred.write_text(json.dumps({"label": "k", "energy_mj": 6.0, "strategy": "mtsm"}))
        ref.write_text(json.dumps({"label": "k", "energy_mj": 5.0, "strategy": "papi"}))
        code, out, _ = run_cli(capsys, "compare", "--pred", str(pred), "--ref", str(ref))
        assert code == 0
        assert json.loads(out)["mape_percent"] == pytest.approx(20.0)

    def test_disjoint_labels_exit_1(self, capsys, tmp_path):
        pred = tmp_path / "pred.json"
        ref = tmp_path / "ref.json"
        pred.write_text(json.dumps({"energies": {"a": 1.0}}))
        ref.write_text(json.dumps({"energies": {"b": 1.0}}))
        code, _, err = run_cli(capsys, "compare", "--pred", str(pred), "--ref", str(ref))
        assert code == 1
        assert "LengthMismatch" in err


class TestReportAndFixtures:
    def test_report_text(self, capsys):
        code, out, _ = run_cli(capsys, "report")
        assert code == 0
        assert "(7) Special Mathematical Instructions" in out

    def test_report_csv_matches_fixtures_dump(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "report", "--format", "csv")
        code_b, out_b, _ = run_cli(capsys, "fixtures")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_report_plot_trace(self, capsys, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# window: 0,1\nt_s,power_mw\n0,10\n1,20\n")
        code, out, _ = run_cli(capsys, "report", "--plot-trace", str(path))
        assert code == 0
        assert out.splitlines()[0] == "# window-start 0"
        assert len(out.splitlines()) == 4

    def test_tampered_fixture_exit_1(self, capsys, tmp_path, monkeypatch):
        import shutil
        from instrujoule.report import FIXTURE_ENV_VAR, _fixture_path

        copy = tmp_path / "t.csv"
        shutil.copy(_fixture_path(), copy)
        copy.write_text(copy.read_text().replace("4.0660", "9.9999"))
        monkeypatch.setenv(FIXTURE_ENV_VAR, str(copy))
        code, _, err = run_cli(capsys, "fixtures")
        assert code == 1
        assert "FixtureCorrupt" in err


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_successive_calls_match_fresh_parsers(self, capsys, tmp_path):
        model = write_model(tmp_path, kernel_duration=0.2, idle_lead=0.1, idle_tail=0.1)
        calls = [
            ["gen", "--inst", "div.u32"],
            ["measure", "--provider", f"synth:{model}"],  # argparse: --strategy missing
            ["measure", "--strategy", "mtsm", "--provider", f"synth:{model}",
             "--read-cost", "0.001", "--label", "first"],
            ["gen", "--iters", "12"],  # usage error raised by the command
            ["fixtures"],
            ["gen", "--bogus"],
            ["measure", "--strategy", "papi", "--provider", f"synth:{model}"],
            ["gen", "--list"],
            ["--version"],
        ]
        reused = [run_cli(capsys, *argv) for argv in calls]
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        assert [r[0] for r in reused] == [0, 2, 0, 2, 0, 2, 0, 0, 0]
        assert reused == fresh
