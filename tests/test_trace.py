"""Trace data model and CSV round-trip behaviour."""

import io

import numpy as np
import pytest

from instrujoule import (
    ConstantPowerProvider,
    KernelWindow,
    MalformedTrace,
    PowerTrace,
    TimedWorkload,
    VirtualClock,
    load_trace,
    run_mtsm,
    save_trace,
)


class TestPowerTraceInvariants:
    def test_strictly_increasing_required(self):
        with pytest.raises(MalformedTrace):
            PowerTrace([0.0, 0.5, 0.4], [1.0, 1.0, 1.0])

    def test_negative_power_rejected(self):
        with pytest.raises(MalformedTrace):
            PowerTrace([0.0, 1.0], [1.0, -0.5])

    def test_nonfinite_time_rejected(self):
        with pytest.raises(MalformedTrace):
            PowerTrace([0.0, float("inf")], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_power_rejected(self, bad):
        with pytest.raises(MalformedTrace, match="non-finite power sample"):
            PowerTrace([0.0, 1.0], [1.0, bad])

    @pytest.mark.parametrize(
        "times, powers",
        [([0.0, 1.0], [1.0]), ([0.0], [1.0, 2.0]), ([[0.0, 1.0]], [[1.0, 1.0]]), (0.0, 1.0)],
    )
    def test_times_and_powers_of_different_shapes_rejected(self, times, powers):
        with pytest.raises(MalformedTrace) as exc:
            PowerTrace(times, powers)
        assert str(exc.value) == "times and powers must be 1-d arrays of equal length"

    @pytest.mark.parametrize("start, end, message", [
        (np.False_, 1.0, "window start must be a number, got np.False_"),
        (0.0, True, "window end must be a number, got True"),
        ("0", 1.0, "window start must be a number, got '0'"),
    ])
    def test_non_number_window_bound_rejected(self, start, end, message):
        # a bool would pass as 0 or 1
        with pytest.raises(ValueError) as exc:
            KernelWindow(start, end)
        assert str(exc.value) == message

    def test_window_must_lie_within_span(self):
        with pytest.raises(MalformedTrace) as exc:
            PowerTrace([0.0, 1.0], [1.0, 1.0], KernelWindow(0.5, 1.5))
        assert str(exc.value) == "window [0.5, 1.5] outside sampled span [0.0, 1.0]"

    def test_window_on_empty_trace_rejected(self):
        with pytest.raises(MalformedTrace) as exc:
            PowerTrace([], [], KernelWindow(0.0, 1.0))
        assert str(exc.value) == "window annotation on an empty trace"

    def test_immutable(self):
        trace = PowerTrace([0.0], [1.0])
        with pytest.raises(AttributeError):
            trace.window = None
        with pytest.raises(ValueError):
            trace.times[0] = 5.0

    def test_equality_with_other_types(self):
        trace = PowerTrace([0.0], [1.0])
        assert trace.__eq__((trace.times, trace.powers)) is NotImplemented
        assert trace != "PowerTrace(1 samples)"
        assert trace == PowerTrace([0.0], [1.0])

    def test_repr(self):
        trace = PowerTrace([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        assert repr(trace) == "PowerTrace(3 samples)"
        assert repr(trace.with_window(KernelWindow(0.25, 0.75))) == "PowerTrace(3 samples, window=[0.25, 0.75])"

    def test_window_end_must_exceed_start(self):
        with pytest.raises(ValueError):
            KernelWindow(1.0, 1.0)


class TestLoadTrace:
    def test_minimal(self):
        trace = load_trace(b"t_s,power_mw\n0.0,100\n1.0,100\n")
        assert len(trace) == 2
        assert trace.window is None
        assert trace.powers.tolist() == [100.0, 100.0]

    def test_window_comment(self):
        trace = load_trace(b"# window: 0.0,1.0\nt_s,power_mw\n0.0,100\n1.0,100\n")
        assert trace.window == KernelWindow(0.0, 1.0)

    def test_non_monotonic_reports_line(self):
        with pytest.raises(MalformedTrace) as exc:
            load_trace(b"t_s,power_mw\n0.5,100\n0.4,100\n")
        assert exc.value.line == 3

    def test_bad_header(self):
        with pytest.raises(MalformedTrace):
            load_trace(b"time,power\n0.0,100\n")

    def test_unparsable_number_reports_line(self):
        with pytest.raises(MalformedTrace) as exc:
            load_trace(b"t_s,power_mw\n0.0,100\nabc,100\n")
        assert exc.value.line == 3

    def test_negative_power_reports_line(self):
        with pytest.raises(MalformedTrace) as exc:
            load_trace(b"t_s,power_mw\n0.0,-1\n")
        assert exc.value.line == 2

    def test_missing_file(self):
        with pytest.raises(MalformedTrace):
            load_trace("/nonexistent/trace.csv")

    @pytest.mark.parametrize(
        "comment, message",
        [
            ("# window: 1.0", "window comment needs 'start,end', got '1.0'"),
            ("# window: a,1.0", "unparsable window bounds 'a,1.0'"),
            ("# window: 1.0,1.0", "window end 1.0 must exceed start 1.0"),
            ("# window: 2.0,1.0", "window end 1.0 must exceed start 2.0"),
            ("# window: 0,inf", "window end must be finite, got inf"),
            ("# window: nan,1", "window start must be finite, got nan"),
        ],
    )
    def test_bad_window_comment_reports_line(self, comment, message):
        with pytest.raises(MalformedTrace) as exc:
            load_trace(f"{comment}\nt_s,power_mw\n0.0,100\n".encode())
        assert exc.value.line == 1
        assert str(exc.value) == f"line 1: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# window: 0,5\nt_s,power_mw\n0,1\n1,1\n", "window [0.0, 5.0] outside sampled span [0.0, 1.0]"),
            # numpy cannot parse 1_0, so the scan's columns are built
            ("# window: 0,5\nt_s,power_mw\n0,1_0\n1,1\n", "window [0.0, 5.0] outside sampled span [0.0, 1.0]"),
            ("# window: -1,0.5\nt_s,power_mw\n0,1\n1,1\n", "window [-1.0, 0.5] outside sampled span [0.0, 1.0]"),
            ("# window: 0,1\nt_s,power_mw\n", "window annotation on an empty trace"),
            ("# window: 0,1\nt_s,power_mw\n\n  \n", "window annotation on an empty trace"),
        ],
        ids=["past the end", "past the end, scanned", "before the start", "header only", "blank lines only"],
    )
    def test_window_outside_the_rows_has_no_line(self, text, message):
        # the rows are well formed: the trace rejects them, and the scan finds no line to name
        with pytest.raises(MalformedTrace) as exc:
            load_trace(text.encode())
        assert (type(exc.value), str(exc.value), exc.value.line) == (MalformedTrace, message, None)

    def test_header_only_is_empty_trace(self):
        trace = load_trace(b"t_s,power_mw\n")
        assert len(trace) == 0


class TestSaveTrace:
    def test_header_and_rows(self):
        buf = io.StringIO()
        save_trace(PowerTrace([0.0, 1.0], [100.0, 100.0]), buf)
        assert buf.getvalue() == "t_s,power_mw\n0,100\n1,100\n"

    def test_window_comment_first(self):
        buf = io.StringIO()
        save_trace(PowerTrace([0.0, 1.0], [1.0, 2.0], KernelWindow(0.25, 0.75)), buf)
        assert buf.getvalue().splitlines()[0] == "# window: 0.25,0.75"

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_trace(PowerTrace([], []), path)
        assert load_trace(path) == PowerTrace([], [])

    def test_binary_sink(self):
        buf = io.BytesIO()
        save_trace(PowerTrace([0.5], [12.5]), buf)
        assert buf.getvalue() == b"t_s,power_mw\n0.5,12.5\n"


class TestRoundTrip:
    def test_formatting_has_nine_significant_digits(self):
        buf = io.StringIO()
        save_trace(PowerTrace([1.0 / 3.0], [200000.0 / 3.0]), buf)
        assert "0.333333333" in buf.getvalue()
        assert "66666.6667" in buf.getvalue()

    def test_random_traces_round_trip(self):
        rng = np.random.default_rng(42)
        for case in range(25):
            n = int(rng.integers(0, 50))
            times = np.cumsum(rng.uniform(1e-4, 0.5, n))
            powers = rng.uniform(0, 3e5, n)
            window = None
            if n >= 2 and case % 2 == 0:
                window = KernelWindow(float(times[0]), float(times[-1]))
            # quantize through one save/load so the comparison is exact
            first = io.StringIO()
            save_trace(PowerTrace(times, powers, window), first)
            canonical = load_trace(first.getvalue().encode())
            second = io.StringIO()
            save_trace(canonical, second)
            assert load_trace(second.getvalue().encode()) == canonical
            # and the quantized values stay within %.9g of the originals
            if n:
                assert np.allclose(canonical.times, times, rtol=1e-8, atol=0)
                assert np.allclose(canonical.powers, powers, rtol=1e-8, atol=1e-12)


class TestClockOrigin:
    # %.9g keeps nine digits: from 1e5 s on, one 0.1 ms read step is below the last one
    @staticmethod
    def _trace(origin):
        clock = VirtualClock(start=origin, read_cost=1e-4)
        return run_mtsm(ConstantPowerProvider(5.0), TimedWorkload(0.01), clock=clock).trace

    @pytest.mark.parametrize("origin", [0.0, 1e3, 1e4])
    def test_saved_trace_reloads(self, tmp_path, origin):
        trace = self._trace(origin)
        save_trace(trace, tmp_path / "t.csv")
        back = load_trace(tmp_path / "t.csv")
        assert back.times.tolist() == [float("%.9g" % t) for t in trace.times.tolist()]
        assert back.powers.tolist() == trace.powers.tolist()

    @pytest.mark.parametrize("origin", [1e5, 1e6])
    def test_trace_that_would_not_reload_is_refused(self, tmp_path, origin):
        trace, path, sink = self._trace(origin), tmp_path / "t.csv", io.StringIO()
        for target in (sink, path):
            with pytest.raises(MalformedTrace) as exc:
                save_trace(trace, target)
            assert str(exc.value) == f"times at rows 0 and 1 both print as {origin:.9g}; the CSV would not read back"
        assert sink.getvalue() == ""
        assert not path.exists()

    def test_window_that_would_not_reload_is_refused(self, tmp_path):
        # both bounds print as 1, and a window must end after it starts
        trace = PowerTrace([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], KernelWindow(1.0000000001, 1.0000000004))
        path, sink = tmp_path / "t.csv", io.StringIO()
        for target in (sink, path):
            with pytest.raises(MalformedTrace) as exc:
                save_trace(trace, target)
            assert str(exc.value) == "window start and end both print as 1; the CSV would not read back"
        assert sink.getvalue() == ""
        assert not path.exists()

    def test_window_a_print_apart_reloads(self):
        trace = PowerTrace([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], KernelWindow(1.0, 1.00000001))
        sink = io.StringIO()
        save_trace(trace, sink)
        assert load_trace(sink.getvalue().encode()).window == KernelWindow(1.0, 1.00000001)
