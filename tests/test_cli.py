"""CLI surface: subcommand behaviour, exit codes, file outputs."""

import hashlib
import json

import numpy as np
import pytest

from instrujoule import KernelWindow, SyntheticDeviceProvider, SyntheticModel, cli, load_trace
from instrujoule.cli import _build_parser, cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_model(tmp_path, name="model.json", **overrides):
    # the overrides are written unchecked: a model checks its fields when it is
    # built, and a bad field must reach the CLI
    path = tmp_path / name
    path.write_text(json.dumps({**SyntheticModel().to_dict(), **overrides}))
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
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "841eb304bf0024f67e856e971eaa03df6b52126f61ddb99e51d926861daf06f4"
        )

    def test_unknown_instruction_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--inst", "warp9.u32")
        assert code == 1
        assert "UnsupportedInstruction" in err

    def test_loop_count_past_u32_exits_1(self, capsys):
        code, out, err = run_cli(capsys, "gen", "--inst", "add.u32", "--iters", "4294967296")
        assert (code, out) == (1, "")
        assert err == "error: ValueError: iterations must be <= 4294967295, got 4294967296\n"

    def test_malformed_inst_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--inst", "div")
        assert code == 2


class TestTopLevel:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_no_args_exits_2(self, capsys):
        assert run_cli(capsys)[0] == 2

    @pytest.mark.parametrize("code", [0, 3])
    def test_main_exits_with_cli_mains_code(self, code, monkeypatch):
        monkeypatch.setattr(cli, "cli_main", lambda: code)
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code


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

    @pytest.mark.parametrize("field", ["idle_tail", "kernel_duration", "p_kernel"])
    def test_infinite_model_field_exits_1(self, capsys, tmp_path, field):
        model_path = write_model(tmp_path, **{field: float("inf")})  # written as Infinity
        code, out, err = run_cli(
            capsys, "measure", "--strategy", "mtsm", "--provider", f"synth:{model_path}",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: InvalidModel: {field} must be finite, got inf\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # the ids keep the names these cases had before the integer fields shared one rule
            pytest.param("rng_seed", 1.5, "rng_seed must be an integer, got 1.5",
                         id="rng_seed-1.5-rng_seed must be a non-negative integer, got 1.5"),
            pytest.param("rng_seed", -1, "rng_seed must be >= 0, got -1",
                         id="rng_seed--1-rng_seed must be a non-negative integer, got -1"),
            pytest.param("rng_seed", True, "rng_seed must be an integer, got True",
                         id="rng_seed-True-rng_seed must be a number, got True"),
            ("p_idle", "5", "p_idle must be a number, got '5'"),
            pytest.param("p_idle", 10**400, "p_idle is too large for a float", id="p_idle-401-digits"),
            ("decay_steps", 2.5, "decay_steps must be an integer, got 2.5"),
        ],
    )
    def test_mistyped_model_field_exits_1(self, capsys, tmp_path, field, value, message):
        model_path = write_model(tmp_path, **{field: value})
        code, out, err = run_cli(
            capsys, "measure", "--strategy", "mtsm", "--provider", f"synth:{model_path}",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: InvalidModel: {message}\n"

    @pytest.mark.parametrize(
        "text, kind", [("[]", "array"), ("5", "number"), ("null", "null"), ('"abc"', "string")]
    )
    def test_non_object_model_json_exits_1(self, capsys, tmp_path, text, kind):
        model_path = tmp_path / "m.json"
        model_path.write_text(text)
        code, out, err = run_cli(
            capsys, "measure", "--strategy", "mtsm", "--provider", f"synth:{model_path}",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: InvalidModel: model JSON must be an object, got {kind}\n"

    def test_measure_builds_one_provider(self, capsys, tmp_path, monkeypatch):
        built = []

        def device(model):
            built.append(model)
            return SyntheticDeviceProvider(model)

        monkeypatch.setattr(cli, "SyntheticDeviceProvider", device)
        model_path = write_model(tmp_path, kernel_duration=2.0)
        code, _, _ = run_cli(
            capsys, "measure", "--strategy", "papi",
            "--provider", f"synth:{model_path}", "--workload", "synth:0.25",
        )
        assert code == 0
        assert [m.kernel_duration for m in built] == [0.25]

    @pytest.mark.parametrize(
        "provider, message",
        [
            ("replay:", "replay provider needs a file: replay:<trace.csv>"),
            ("synth:", "synthetic provider needs a model: synth:<model.json>"),
            ("foo:bar", "unknown provider 'foo:bar'; use replay:<file>, synth:<model.json>, or live"),
        ],
    )
    def test_provider_usage_error_exits_2(self, capsys, provider, message):
        code, out, err = run_cli(capsys, "measure", "--strategy", "mtsm", "--provider", provider)
        assert code == 2
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_header_only_replay_trace_exits_1(self, capsys, tmp_path):
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,power_mw\n")
        code, out, err = run_cli(
            capsys, "measure", "--strategy", "papi",
            "--provider", f"replay:{trace_path}", "--workload", "synth:1",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: MalformedTrace: replay trace {trace_path} has no samples\n"

    # the ids keep the case names from before the messages took the shared form
    @pytest.mark.parametrize(
        "extra, message",
        [
            pytest.param(["--strategy", "mtsm", "--read-cost", "nan"], "read_cost must be > 0, got nan",
                         id="extra0-read_cost must be > 0"),
            pytest.param(["--strategy", "sma", "--lead", "nan"], "lead must be >= 0, got nan",
                         id="extra1-lead and tail must be >= 0"),
            pytest.param(["--strategy", "sma", "--tail", "nan"], "tail must be >= 0, got nan",
                         id="extra2-lead and tail must be >= 0"),
            pytest.param(["--strategy", "sma", "--interval", "nan"], "interval must be > 0, got nan",
                         id="extra3-fixed-interval sampling needs interval > 0"),
            pytest.param(["--strategy", "sma", "--interval", "0"], "interval must be > 0, got 0.0",
                         id="extra4-fixed-interval sampling needs interval > 0"),
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

    # the ids keep the case names from before the messages took the shared form
    @pytest.mark.parametrize(
        "extra, message",
        [
            pytest.param(["--strategy", "mtsm", "--read-cost", "inf"], "read_cost must be finite, got inf",
                         id="extra0-read_cost must be finite"),
            pytest.param(["--strategy", "sma", "--interval", "inf"], "interval must be finite, got inf",
                         id="extra1-fixed-interval sampling needs a finite interval"),
            pytest.param(["--strategy", "sma", "--lead", "inf"], "lead must be finite, got inf",
                         id="extra2-lead and tail must be finite"),
            pytest.param(["--strategy", "sma", "--tail", "inf"], "tail must be finite, got inf",
                         id="extra3-lead and tail must be finite"),
        ],
    )
    def test_infinite_run_parameter_exits_1(self, capsys, tmp_path, extra, message):
        # one error line: no OverflowError traceback, no RuntimeWarning
        model_path = write_model(tmp_path, kernel_duration=0.1)
        code, out, err = run_cli(
            capsys, "measure", "--provider", f"synth:{model_path}", *extra,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: ValueError: {message}\n"

    def test_infinite_workload_duration_is_a_usage_error(self, capsys, tmp_path):
        model_path = write_model(tmp_path)
        code, _, err = run_cli(
            capsys, "measure", "--strategy", "mtsm",
            "--provider", f"synth:{model_path}", "--workload", "synth:inf",
        )
        assert code == 2
        assert err == "usage error: workload duration must be finite, got inf\n"

    def test_nan_workload_duration_is_a_usage_error(self, capsys, tmp_path):
        model_path = write_model(tmp_path)
        code, _, err = run_cli(
            capsys, "measure", "--strategy", "mtsm",
            "--provider", f"synth:{model_path}", "--workload", "synth:nan",
        )
        assert code == 2
        assert "workload duration must be > 0" in err

    @pytest.mark.parametrize("duration", ["abc", "", "1,5"])
    def test_unparsable_workload_duration_is_a_usage_error(self, capsys, tmp_path, duration):
        model_path = write_model(tmp_path)
        code, out, err = run_cli(
            capsys, "measure", "--strategy", "mtsm",
            "--provider", f"synth:{model_path}", "--workload", f"synth:{duration}",
        )
        assert (code, out) == (2, "")
        assert err == f"usage error: workload duration must be a number, got {duration!r}\n"

    @pytest.mark.parametrize("strategy, step", [("mtsm", "0.0005"), ("papi", "1"), ("sma", "1")])
    def test_replay_stamped_at_1e20_s_exits_1(self, capsys, tmp_path, strategy, step):
        # no step moves a clock there: the run fails instead of reporting 0 mJ over 0 s
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,power_mw\n1e20,100\n2e20,100\n")
        code, out, err = run_cli(
            capsys, "measure", "--strategy", strategy,
            "--provider", f"replay:{trace_path}", "--workload", "synth:1",
        )
        assert (code, out) == (1, "")
        assert err == f"error: ValueError: a step of {step} s does not move a clock at 1e+20 s\n"

    def test_replay_stamped_at_1e12_s_with_a_sub_ulp_read_cost_exits_1(self, capsys, tmp_path):
        # 0.1 ms reads move a clock at 1e12 s by whole ulps of 122 us, repeating times
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,power_mw\n1e12,100\n1.000000001e12,100\n")
        code, out, err = run_cli(
            capsys, "measure", "--strategy", "mtsm", "--provider", f"replay:{trace_path}",
            "--workload", "synth:1", "--read-cost", "1e-4",
        )
        assert (code, out) == (1, "")
        assert err == "error: ValueError: a step of 0.0001 s repeats read times on a clock at 1e+12 s\n"

    def test_workload_too_long_to_grid_exits_1(self, capsys, tmp_path):
        trace_path = tmp_path / "t.csv"
        trace_path.write_text("t_s,power_mw\n0,100\n5,100\n")
        code, out, err = run_cli(
            capsys, "measure", "--strategy", "mtsm",
            "--provider", f"replay:{trace_path}", "--workload", "synth:1e300",
        )
        assert (code, out) == (1, "")
        assert err == "error: ValueError: Maximum allowed size exceeded\n"

    def test_grid_too_large_for_memory_exits_1(self, capsys, tmp_path):
        # 2e15 reads, 14.2 PiB: one line, no traceback
        model_path = write_model(tmp_path)
        code, out, err = run_cli(
            capsys, "measure", "--strategy", "mtsm",
            "--provider", f"synth:{model_path}", "--workload", "synth:1e12",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "MemoryError: Unable to allocate" in err
        assert err.count("\n") == 1 and err.endswith("\n")

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

    def test_window_needs_two_bounds(self, capsys, capture_path):
        code, out, err = run_cli(
            capsys, "analyze-hw", "--capture", str(capture_path), "--window", "1,2,3",
        )
        assert code == 2
        assert out == ""
        assert err == "usage error: --window must be '<start>,<end>'\n"

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ("a,b", "window start must be a number, got 'a'"),
            ("0,b", "window end must be a number, got 'b'"),
            ("0, 2s", "window end must be a number, got ' 2s'"),
            (",1", "window start must be a number, got ''"),
        ],
    )
    def test_unparsable_window_is_a_usage_error(self, capsys, capture_path, tmp_path, bounds, message):
        out_path = tmp_path / "energy.json"
        code, out, err = run_cli(
            capsys, "analyze-hw", "--capture", str(capture_path),
            "--window", bounds, "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == f"usage error: {message}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "bounds, message",
        [("0,inf", "window end must be finite, got inf"), ("nan,1", "window start must be finite, got nan")],
    )
    def test_infinite_window_exits_1(self, capsys, capture_path, tmp_path, bounds, message):
        out_path = tmp_path / "energy.json"
        code, out, err = run_cli(
            capsys, "analyze-hw", "--capture", str(capture_path),
            "--window", bounds, "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == f"error: ValueError: {message}\n"
        assert not out_path.exists()

    def test_windowed_trace_output(self, capsys, capture_path, tmp_path):
        # a CSV out with a window is the whole trace, headed by the window comment
        plain_path, windowed_path = tmp_path / "plain.csv", tmp_path / "windowed.csv"
        argv = ["analyze-hw", "--capture", str(capture_path)]
        assert run_cli(capsys, *argv, "--out", str(plain_path))[:2] == (0, "")
        code, out, _ = run_cli(capsys, *argv, "--window", "1,2", "--out", str(windowed_path))
        assert (code, out) == (0, "")
        windowed = windowed_path.read_bytes()
        assert windowed.startswith(b"# window: 1,2\nt_s,power_mw\n0,135300\n0.001,135300\n")
        assert windowed == b"# window: 1,2\n" + plain_path.read_bytes()
        assert load_trace(windowed_path).window == KernelWindow(1.0, 2.0)

    @pytest.mark.parametrize("out", ["-", "p.csv"])
    def test_infinite_shunt_exits_1(self, capsys, tmp_path, out):
        path = tmp_path / "cap.csv"
        path.write_text(self.CSV.replace("r_s_ohm: 0.1", "r_s_ohm: inf"))
        code, stdout, err = run_cli(
            capsys, "analyze-hw", "--capture", str(path), "--window", "0,1",
            "--out", out if out == "-" else str(tmp_path / out),
        )
        assert (code, stdout) == (1, "")
        assert err == "error: MalformedCapture: shunt resistance must be finite, got inf\n"
        assert not (tmp_path / "p.csv").exists()

    def test_capture_that_is_not_utf8_exits_1(self, capsys, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_bytes(self.CSV.encode().replace(b"\n0.001,12.1,", b"\n0.001,\xff12.1,"))
        code, out, err = run_cli(capsys, "analyze-hw", "--capture", str(path))
        assert (code, out) == (1, "")
        assert err == "error: MalformedCapture: line 4: byte 0xff is not UTF-8\n"

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


    @pytest.mark.parametrize(
        "payload",
        [
            [6.0],
            {"label": "k"},
            {"results": [{"label": "k", "energy_mj": 6.0}]},  # a list of results is not read
            {"energies": [1, 2]},
            {"energies": None},
        ],
    )
    def test_unrecognised_shape_exits_1(self, capsys, tmp_path, payload):
        pred = tmp_path / "pred.json"
        ref = tmp_path / "ref.json"
        pred.write_text(json.dumps(payload))
        ref.write_text(json.dumps({"energies": {"k": 5.0}}))
        code, out, err = run_cli(capsys, "compare", "--pred", str(pred), "--ref", str(ref))
        assert code == 1
        assert out == ""
        assert err == (
            f"error: LengthMismatch: {pred}: expected an EnergyResult JSON, "
            "or an object with 'energies'\n"
        )

    @pytest.mark.parametrize(
        "payload, label, problem",
        [
            ({"energies": {"k": None}}, "k", "must be a number, got None"),
            ({"energies": {"k": float("nan")}}, "k", "must be finite, got nan"),  # written as NaN
            ({"energies": {"k": float("inf")}}, "k", "must be finite, got inf"),  # written as Infinity
            ({"energies": {"k": True}}, "k", "must be a number, got True"),
            ({"energies": {"k": "5.0"}}, "k", "must be a number, got '5.0'"),
            ({"energies": {"k": 10**400}}, "k", "is too large for a float"),
            ({"energy_mj": {"x": 1}}, "kernel", "must be a number, got {'x': 1}"),
            ({"label": "k", "energy_mj": float("-inf")}, "k", "must be finite, got -inf"),
        ],
        # the ids these cases had before the message named the check that failed
        ids=[f"payload{i}-k" for i in range(6)] + ["payload6-kernel", "payload7-k"],
    )
    def test_energy_that_is_not_a_finite_number_exits_1(self, capsys, tmp_path, payload, label, problem):
        pred = tmp_path / "pred.json"
        ref = tmp_path / "ref.json"
        pred.write_text(json.dumps(payload))
        ref.write_text(json.dumps({"energies": {"k": 5}}))
        code, out, err = run_cli(capsys, "compare", "--pred", str(pred), "--ref", str(ref))
        assert (code, out) == (1, "")
        assert err == f"error: LengthMismatch: {pred}: energy of '{label}' {problem}\n"

    def test_integer_energies_compare(self, capsys, tmp_path):
        pred = tmp_path / "pred.json"
        ref = tmp_path / "ref.json"
        pred.write_text(json.dumps({"energies": {"k": 6}}))
        ref.write_text(json.dumps({"energies": {"k": 5}}))
        code, out, _ = run_cli(capsys, "compare", "--pred", str(pred), "--ref", str(ref))
        assert code == 0
        assert json.loads(out)["mape_percent"] == pytest.approx(20.0)


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
        from instrujoule import report

        copy = tmp_path / "t.csv"
        shutil.copy(report._fixture_path(), copy)
        copy.write_text(copy.read_text().replace("4.0660", "9.9999"))
        monkeypatch.setattr(report, "_fixture_path", lambda: copy)
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
