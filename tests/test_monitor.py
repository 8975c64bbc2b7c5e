"""Measurement strategies under the virtual clock, plus threaded smoke tests."""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from instrujoule import (
    CallableWorkload,
    ConstantPowerProvider,
    KernelLaunchWorkload,
    MalformedTrace,
    PowerProvider,
    PowerTrace,
    ProviderExhausted,
    RealClock,
    ReplayProvider,
    SamplerConfig,
    SamplerStalled,
    SamplerStartupFailure,
    Strategy,
    SyntheticDeviceProvider,
    SyntheticModel,
    TimedWorkload,
    VirtualClock,
    Workload,
    energy_from_readings,
    measure_instruction,
    run_mtsm,
    run_papi_style,
    run_sma,
    synthesize,
)

from oracles import integrate_energy_trapezoid


def synth_run(model, runner, read_cost=0.0005):
    provider = SyntheticDeviceProvider(model)
    return runner(provider, KernelLaunchWorkload(), clock=VirtualClock(read_cost=read_cost))


class TestRunSma:
    def test_sample_count_over_lead_kernel_tail(self):
        model = SyntheticModel(kernel_duration=2.0, noise_stddev=0.0)
        provider = SyntheticDeviceProvider(model)
        trace = run_sma(
            provider, KernelLaunchWorkload(), SamplerConfig.fixed_interval(0.015),
            lead=1.0, tail=1.0,
        )
        # span = 1 + (0.002 + 2.0) + 1 seconds at one sample per 15 ms
        expected = int((1.0 + 2.002 + 1.0) / 0.015) + 1
        assert abs(len(trace) - expected) <= 1
        assert len(trace) == pytest.approx(267, abs=2)

    def test_constant_values(self):
        provider = ConstantPowerProvider(100.0)
        trace = run_sma(
            provider, TimedWorkload(1.0), SamplerConfig.fixed_interval(0.5),
            lead=0.5, tail=0.5,
        )
        assert np.all(trace.powers == 100.0)

    def test_zero_tail_ends_at_completion(self):
        provider = ConstantPowerProvider(1.0)
        trace = run_sma(
            provider, TimedWorkload(1.0), SamplerConfig.fixed_interval(0.25),
            lead=0.0, tail=0.0,
        )
        assert trace.times[-1] <= 1.0 + 1e-12

    def test_no_window_and_no_energy(self):
        provider = ConstantPowerProvider(1.0)
        trace = run_sma(provider, TimedWorkload(0.5), lead=0.1, tail=0.1)
        assert isinstance(trace, PowerTrace)
        assert trace.window is None

    def test_provider_exhaustion_propagates(self):
        provider = ReplayProvider(PowerTrace([0.0, 0.5], [10.0, 10.0]))
        with pytest.raises(ProviderExhausted):
            run_sma(provider, TimedWorkload(2.0), SamplerConfig.fixed_interval(0.1),
                    lead=0.0, tail=0.0)


class TestRunPapiStyle:
    def test_constant_power_energy(self):
        result = run_papi_style(ConstantPowerProvider(100_000.0), TimedWorkload(2.0))
        assert result.energy == 200_000.0
        assert result.n_samples == 1
        assert result.elapsed == 2.0
        assert result.strategy == Strategy.PAPI_STYLE

    def test_quarter_second_at_100w(self):
        # 0.28 s at a constant 100 W reads 28 J
        result = run_papi_style(ConstantPowerProvider(100_000.0), TimedWorkload(0.28))
        assert result.energy == pytest.approx(28_000.0)

    def test_reading_taken_at_completion_not_start(self):
        trace = PowerTrace([0.0, 1.0, 2.0], [100.0, 100.0, 300.0])
        result = run_papi_style(ReplayProvider(trace), TimedWorkload(2.0))
        assert result.energy == pytest.approx(600.0)

    def test_exceeds_mtsm_when_trace_peaks_at_end(self):
        model = SyntheticModel(
            p_kernel=60_000.0, ramp_mw=12_000.0, kernel_duration=1.0, noise_stddev=0.0
        )
        papi = synth_run(model, run_papi_style)
        mtsm = synth_run(model, run_mtsm)
        assert papi.energy >= mtsm.energy


class TestRunMtsm:
    def test_constant_power_within_quantum(self):
        result = run_mtsm(ConstantPowerProvider(100_000.0), TimedWorkload(2.0))
        quantum = result.elapsed / result.n_samples * 100_000.0
        assert abs(result.energy - 200_000.0) <= quantum
        assert result.energy == pytest.approx(200_000.0)

    def test_matches_synthetic_truth(self):
        model = SyntheticModel(noise_stddev=0.0)
        _, truth = synthesize(model)
        result = synth_run(model, run_mtsm)
        assert result.energy == pytest.approx(truth.true_energy, rel=5e-3)

    def test_agrees_with_trapezoid_cross_check(self):
        result = run_mtsm(ConstantPowerProvider(50_000.0), TimedWorkload(2.0))
        trap = integrate_energy_trapezoid(result.trace, result.trace.window)
        quantum = result.trace.window.span / result.n_samples * 50_000.0
        assert abs(result.energy - trap) <= 1.5 * quantum

    def test_flag_ordering_invariants(self):
        model = SyntheticModel(kernel_duration=0.25, noise_stddev=300.0, rng_seed=3)
        provider = SyntheticDeviceProvider(model)
        clock = VirtualClock()
        flag_set_before = clock.now
        result = run_mtsm(provider, KernelLaunchWorkload(), clock=clock)
        flag_set, flag_clear = result.flag_timeline
        workload_start = flag_set + 0.0005
        workload_end = workload_start + model.pre_rise_lead + model.kernel_duration
        assert flag_set == flag_set_before
        assert flag_set <= workload_start < workload_end <= flag_clear
        assert np.all(result.trace.times >= flag_set)
        assert np.all(result.trace.times <= flag_clear)

    def test_recorded_window_equals_flag_timeline(self):
        result = run_mtsm(ConstantPowerProvider(10.0), TimedWorkload(0.1))
        assert (result.trace.window.start, result.trace.window.end) == result.flag_timeline

    def test_bit_reproducible_given_seed(self):
        model = SyntheticModel(noise_stddev=700.0, rng_seed=21, kernel_duration=0.5)
        r1 = synth_run(model, run_mtsm)
        r2 = synth_run(model, run_mtsm)
        assert r1.energy == r2.energy
        assert np.array_equal(r1.trace.powers, r2.trace.powers)
        assert r1.flag_timeline == r2.flag_timeline

    def test_at_least_one_sample_guaranteed(self):
        result = run_mtsm(ConstantPowerProvider(5.0), TimedWorkload(0.0001))
        assert result.n_samples >= 1
        assert result.trace.times[0] == result.flag_timeline[0]

    def test_startup_failure_on_dead_provider(self):
        # a virtual run reads its flag-set time with the rest of its grid
        provider = ReplayProvider(PowerTrace([], []))
        with pytest.raises(ProviderExhausted, match="^replay trace is empty$"):
            run_mtsm(provider, TimedWorkload(1.0))

    def test_midrun_exhaustion_propagates(self):
        provider = ReplayProvider(PowerTrace([0.0, 0.5], [10.0, 10.0]))
        with pytest.raises(ProviderExhausted):
            run_mtsm(provider, TimedWorkload(2.0))

    def test_unthrottled_rate_follows_read_cost(self):
        result = run_mtsm(
            ConstantPowerProvider(10.0), TimedWorkload(1.0),
            clock=VirtualClock(read_cost=0.001),
        )
        assert result.n_samples == pytest.approx(1000, abs=3)


def loop_read_times(t0, step, t_end, back_to_back):
    """The virtual sampler's grid as its reference loops define it."""
    if back_to_back:
        times = [t0]
        while times[-1] < t_end:
            times.append(t0 + len(times) * step)
        return times
    times = []
    while (t := t0 + len(times) * step) <= t_end + 1e-12:
        times.append(t)
    return times


class RecordingProvider(ConstantPowerProvider):
    def __init__(self):
        super().__init__(5.0)
        self.calls = []

    def next_sample(self, t):
        self.calls.append(("next_sample", t))
        return super().next_sample(t)

    def sample_grid(self, times):
        self.calls.append(("sample_grid", len(times)))
        return super().sample_grid(times)


class TestVirtualGrid:
    def test_closed_form_matches_the_loops(self):
        from instrujoule.monitor import _read_times

        rng = np.random.default_rng(2027)
        checked = refused = 0
        for _ in range(250):
            t0 = float(rng.choice(
                [0.0, -0.0, rng.uniform(0.0, 10.0), rng.uniform(0.0, 1e4), 10.0 ** rng.uniform(4.0, 12.0)]
            ))
            step = float(10.0 ** rng.uniform(-5.0, -1.0))
            k = int(rng.integers(0, 300))
            on_grid = t0 + k * step
            ends = [t0 + float(rng.uniform(-2.0, 300.0)) * step, t0]
            # on a grid point and one ulp either side, for both loops' bounds
            for point in (on_grid, on_grid - 1e-12):
                ends += [point, np.nextafter(point, -np.inf), np.nextafter(point, np.inf)]
            for t_end in ends:
                for back_to_back in (True, False):
                    case = (t0, step, float(t_end), back_to_back)
                    want = loop_read_times(*case)
                    try:
                        got = _read_times(*case)
                    except ValueError as exc:
                        # only where the loops' times repeat, as at 1e12 s with steps
                        # under 122 us; a step under 61 us cannot move the clock at all
                        assert np.any(np.diff(want) == 0), case
                        if "does not move" in str(exc):
                            assert float(t_end) + step == float(t_end), case
                            assert str(exc).startswith(f"a step of {step:g} s does not move a clock")
                        else:
                            assert str(exc) == f"a step of {step:g} s repeats read times on a clock at {t0:g} s"
                        refused += 1
                        continue
                    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes(), case
                    checked += 1
        assert checked + refused == 250 * 8 * 2
        assert refused < checked / 100

    def test_a_step_too_fine_for_the_clock_is_refused(self):
        from instrujoule.monitor import _read_times

        # at 1e12 s doubles are 122 us apart: the loops' times repeat, and a
        # fixed-interval grid runs past its estimate before it passes the end
        want = loop_read_times(1e12, 1e-5, 1e12 + 0.01, False)
        assert np.any(np.diff(want) == 0)
        with pytest.raises(ValueError, match=r"^a step of 1e-05 s does not move a clock at 1e\+12 s$"):
            _read_times(1e12, 1e-5, 1e12 + 0.01, False)
        # reads back to back stop at the first time at or after the end, within
        # the grid, but its times repeat there too
        assert np.any(np.diff(loop_read_times(1e12, 1e-5, 1e12 + 0.01, True)) == 0)
        with pytest.raises(ValueError, match=r"^a step of 1e-05 s repeats read times on a clock at 1e\+12 s$"):
            _read_times(1e12, 1e-5, 1e12 + 0.01, True)

    def test_a_clock_started_at_negative_zero(self):
        # the flag-set read is at t0 itself; a fixed-interval grid starts at t0 + 0*step
        mtsm = run_mtsm(ConstantPowerProvider(1.0), TimedWorkload(0.01), clock=VirtualClock(start=-0.0))
        sma = run_sma(ConstantPowerProvider(1.0), TimedWorkload(0.01), lead=0.0, tail=0.0,
                      clock=VirtualClock(start=-0.0))
        assert math.copysign(1.0, mtsm.trace.times[0]) == -1.0
        assert math.copysign(1.0, mtsm.flag_timeline[0]) == -1.0
        assert math.copysign(1.0, sma.times[0]) == 1.0

    def test_mtsm_reads_one_grid(self):
        provider = RecordingProvider()
        result = run_mtsm(provider, TimedWorkload(0.05), clock=VirtualClock(start=3.0))
        assert provider.calls == [("sample_grid", result.n_samples)]

    def test_sma_reads_one_grid(self):
        provider = RecordingProvider()
        trace = run_sma(provider, TimedWorkload(0.05), lead=0.01, tail=0.01)
        assert provider.calls == [("sample_grid", len(trace))]

    @pytest.mark.parametrize("strategy", ["mtsm", "sma"])
    def test_a_workload_that_raises_leaves_the_provider_unread(self, strategy):
        class Fails(Workload):
            def run(self, clock, provider):
                clock.advance(0.01)
                raise RuntimeError("kernel failed")

        provider = RecordingProvider()
        with pytest.raises(RuntimeError, match="^kernel failed$"):
            RUNNERS[strategy](provider, Fails(), clock=VirtualClock())
        assert provider.calls == []

    def test_a_long_run_holds_two_grid_length_arrays(self):
        # a noisy, ramped 200k-point run: its times and its readings
        model = SyntheticModel(p_idle=20e3, p_kernel=60e3, ramp_mw=10e3, kernel_duration=19.998,
                               noise_stddev=1_000.0, rng_seed=3)

        def run():
            return run_mtsm(SyntheticDeviceProvider(model), KernelLaunchWorkload(), VirtualClock(read_cost=1e-4))

        run()
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grid_bytes = 8 * result.n_samples
        assert result.n_samples > 200_000
        assert peak <= 2.2 * grid_bytes, f"{peak / grid_bytes:.2f} grid-length arrays"


class TestClockAfterVirtualRun:
    def test_mtsm_leaves_the_clock_at_the_flag_clear(self):
        # the workload ends 0.0002 s before the next read, and the clock must
        # move on from its completion to the read that saw it
        clock = VirtualClock(start=0.0004, read_cost=0.0007)
        result = run_mtsm(ConstantPowerProvider(1.0), TimedWorkload(0.0103), clock=clock)
        completion = result.flag_timeline[0] + clock.read_cost + result.elapsed
        assert clock.now - completion == pytest.approx(0.0002)
        assert clock.now == result.flag_timeline[1] == result.trace.times[-1]
        assert type(clock.now) is float

    def test_mtsm_on_a_synthetic_device(self):
        model = SyntheticModel(kernel_duration=0.0302, noise_stddev=50.0, rng_seed=4)
        clock = VirtualClock(read_cost=0.0003)
        result = run_mtsm(SyntheticDeviceProvider(model), KernelLaunchWorkload(), clock=clock)
        assert clock.now == result.flag_timeline[1] == result.trace.times[-1]

    def test_sma_leaves_the_clock_at_the_end_of_the_tail(self):
        clock = VirtualClock(start=0.25)
        trace = run_sma(
            ConstantPowerProvider(1.0), TimedWorkload(0.5), SamplerConfig.fixed_interval(0.015),
            lead=0.3, tail=0.2, clock=clock,
        )
        assert clock.now == 0.25 + 0.3 + 0.5 + 0.2
        assert trace.times[-1] <= clock.now


class TestNanRunParameters:
    # NaN fails every comparison, so each guard must be written to fail on it
    def test_read_cost(self):
        with pytest.raises(ValueError, match="read_cost must be > 0"):
            VirtualClock(read_cost=float("nan"))

    def test_advance(self):
        clock = VirtualClock(start=1.0)
        with pytest.raises(ValueError, match="^clock step must be >= 0, got nan$"):
            clock.advance(float("nan"))
        assert clock.now == 1.0

    @pytest.mark.parametrize("interval", [0.0, -0.015, float("nan")])
    def test_sampler_interval(self, interval):
        with pytest.raises(ValueError, match=f"^interval must be > 0, got {interval}$"):
            SamplerConfig(interval)

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan")])
    def test_workload_duration(self, seconds):
        with pytest.raises(ValueError, match=f"^seconds must be > 0, got {seconds}$"):
            TimedWorkload(seconds)

    @pytest.mark.parametrize("lead, tail", [(float("nan"), 0.1), (0.1, float("nan"))])
    def test_sma_lead_and_tail(self, lead, tail):
        name = "lead" if math.isnan(lead) else "tail"
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got nan$"):
            run_sma(ConstantPowerProvider(1.0), TimedWorkload(0.1), lead=lead, tail=tail)


INF = float("inf")


class TestInfiniteRunParameters:
    # each must fail at its guard: past it, _read_times would size its grid
    # from an infinite or NaN time and fail with numpy's message instead
    @pytest.mark.parametrize("start", [float("nan"), INF, -INF])
    def test_clock_start(self, start):
        with pytest.raises(ValueError, match=f"^start must be finite, got {start}$"):
            VirtualClock(start=start)

    def test_read_cost(self):
        with pytest.raises(ValueError, match="read_cost must be finite"):
            VirtualClock(read_cost=INF)

    def test_advance(self):
        clock = VirtualClock(start=1.0)
        with pytest.raises(ValueError, match="^clock step must be finite, got inf$"):
            clock.advance(INF)
        assert clock.now == 1.0

    def test_sampler_interval(self):
        with pytest.raises(ValueError, match="^interval must be finite, got inf$"):
            SamplerConfig(INF)

    def test_workload_duration(self):
        with pytest.raises(ValueError, match="^seconds must be finite, got inf$"):
            TimedWorkload(INF)

    @pytest.mark.parametrize("lead, tail", [(INF, 0.1), (0.1, INF)])
    def test_sma_lead_and_tail(self, lead, tail):
        name = "lead" if lead == INF else "tail"
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            run_sma(ConstantPowerProvider(1.0), TimedWorkload(0.1), lead=lead, tail=tail)


class TestBoolRunParameters:
    # a bool, numpy's too, would pass the finite and positive checks as 0 or
    # 1, and a string used to meet a bare TypeError in them
    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_, "1"])
    @pytest.mark.parametrize("name, build", [
        ("read_cost", lambda v: VirtualClock(read_cost=v)),
        ("interval", SamplerConfig),
        ("seconds", TimedWorkload),
        ("power_mw", ConstantPowerProvider),
        ("elapsed", lambda v: energy_from_readings([1.0], v)),
        ("start", lambda v: VirtualClock(start=v)),
        ("lead", lambda v: run_sma(ConstantPowerProvider(1.0), TimedWorkload(0.1), lead=v)),
        ("tail", lambda v: run_sma(ConstantPowerProvider(1.0), TimedWorkload(0.1), tail=v)),
    ])
    def test_rejected(self, name, build, value):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
            build(value)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_, "1"])
    def test_clock_step_rejected(self, value):
        clock = VirtualClock(start=2.0)
        with pytest.raises(ValueError, match=f"^clock step must be a number, got {value!r}$"):
            clock.advance(value)
        assert clock.now == 2.0


RUNNERS = {"sma": run_sma, "papi": run_papi_style, "mtsm": run_mtsm}


class TestWorkloadGuards:
    # every strategy meets the workload's guard when it runs the workload
    @pytest.mark.parametrize("strategy", RUNNERS)
    def test_wall_time_workload_on_virtual_clock(self, strategy):
        calls = []
        workload = CallableWorkload(lambda: calls.append(1), label="x")
        with pytest.raises(ValueError) as exc:
            RUNNERS[strategy](ConstantPowerProvider(100.0), workload, clock=VirtualClock())
        assert str(exc.value) == (
            "workload 'x' runs in wall time; "
            "simulated runs need TimedWorkload or KernelLaunchWorkload"
        )
        assert calls == []

    @pytest.mark.parametrize("strategy", RUNNERS)
    def test_kernel_launch_needs_a_synthetic_provider(self, strategy):
        with pytest.raises(ValueError, match="^KernelLaunchWorkload needs a synthetic provider$"):
            RUNNERS[strategy](ConstantPowerProvider(100.0), KernelLaunchWorkload(), clock=VirtualClock())

    @pytest.mark.parametrize("strategy", RUNNERS)
    def test_abstract_workload_is_not_run(self, strategy):
        with pytest.raises(NotImplementedError):
            RUNNERS[strategy](ConstantPowerProvider(100.0), Workload(), clock=VirtualClock())

    def test_kernel_launch_guard_under_threaded_mtsm(self):
        # the sampler thread is joined on the way out (see conftest)
        with pytest.raises(ValueError, match="KernelLaunchWorkload needs a synthetic provider"):
            run_mtsm(ConstantPowerProvider(100.0), KernelLaunchWorkload(), clock=RealClock())


class TestClockThatCannotMove:
    # every run fails at once where its clock cannot move or its grid cannot
    # be held, instead of walking to the end or reporting a 0 s run
    def test_advance(self):
        clock = VirtualClock(start=1e20)
        clock.advance(0.0)
        with pytest.raises(ValueError, match=r"^a step of 0.0005 s does not move a clock at 1e\+20 s$"):
            clock.advance(0.0005)
        assert clock.now == 1e20
        clock.advance(1e5)
        assert clock.now == 1e20 + 1e5

    @pytest.mark.parametrize("strategy, step", [("mtsm", "0.0005"), ("papi", "1"), ("sma", "1")])
    def test_a_run_at_1e20_s(self, strategy, step):
        # the MTSM handshake's read cost, or the 1 s workload and SMA lead
        with pytest.raises(ValueError, match=rf"^a step of {step} s does not move a clock at 1e\+20 s$"):
            RUNNERS[strategy](ConstantPowerProvider(1.0), TimedWorkload(1.0), clock=VirtualClock(start=1e20))

    @pytest.mark.parametrize("run", [
        lambda p: run_mtsm(p, TimedWorkload(1.0), clock=VirtualClock(start=1e12, read_cost=1e-4)),
        lambda p: run_sma(p, TimedWorkload(1.0), SamplerConfig(1e-4), clock=VirtualClock(start=1e12)),
    ], ids=["mtsm", "sma"])
    def test_a_step_under_one_ulp_of_the_grid(self, run):
        # 1e-4 s moves a clock at 1e12 s by whole ulps of 122 us, so two reads
        # share a time: the run names the step instead of blaming a trace
        with pytest.raises(ValueError, match=r"^a step of 0.0001 s repeats read times on a clock at 1e\+12 s$"):
            run(ConstantPowerProvider(1.0))

    @pytest.mark.parametrize(
        "run, error, message",
        [
            pytest.param(lambda p: run_mtsm(p, TimedWorkload(1e300)), ValueError,
                         "^Maximum allowed size exceeded$", id="mtsm-1e300-s"),
            pytest.param(lambda p: run_mtsm(SyntheticDeviceProvider(SyntheticModel(kernel_duration=1e300)),
                                            KernelLaunchWorkload()), ValueError,
                         "^Maximum allowed size exceeded$", id="mtsm-1e300-s-kernel-launch"),
            pytest.param(lambda p: run_sma(p, TimedWorkload(1e300), lead=1e300, tail=0.0), ValueError,
                         "^Maximum allowed size exceeded$", id="sma-1e300-s-lead"),
            # the 1 s workload after the lead cannot move the clock
            pytest.param(lambda p: run_sma(p, TimedWorkload(1.0), lead=1e300), ValueError,
                         r"^a step of 1 s does not move a clock at 1e\+300 s$", id="sma-1e300-s-lead-then-1-s"),
            # 2e15 reads, 14.2 PiB: numpy refuses the allocation at once
            pytest.param(lambda p: run_mtsm(p, TimedWorkload(1e12)), MemoryError,
                         "^Unable to allocate", id="mtsm-1e12-s"),
        ],
    )
    def test_a_grid_too_large_to_hold(self, run, error, message):
        began = time.perf_counter()
        with pytest.raises(error, match=message):
            run(ConstantPowerProvider(1.0))
        assert time.perf_counter() - began < 1.0


class TestResultFieldsArePythonFloats:
    """Results hold Python floats, never numpy scalars, whose repr differs."""

    def check(self, result):
        assert type(result.energy) is float
        assert type(result.elapsed) is float
        assert [type(v) for v in result.flag_timeline] == [float, float]
        if result.trace.window is not None:
            window = result.trace.window
            assert [type(window.start), type(window.end)] == [float, float]

    def test_virtual_mtsm(self):
        model = SyntheticModel(noise_stddev=300.0, rng_seed=4, kernel_duration=0.05)
        result = synth_run(model, run_mtsm)
        assert result.trace.window is not None
        self.check(result)
        replayed = run_mtsm(ReplayProvider(result.trace), TimedWorkload(0.02), clock=VirtualClock())
        self.check(replayed)

    def test_threaded_mtsm(self):
        result = run_mtsm(
            ConstantPowerProvider(100.0), CallableWorkload(lambda: time.sleep(0.01)), clock=RealClock()
        )
        self.check(result)

    def test_papi_and_extraction(self):
        self.check(run_papi_style(ConstantPowerProvider(10.0), TimedWorkload(0.1)))
        ie = measure_instruction(
            lambda: ConstantPowerProvider(100.0), TimedWorkload(0.2), TimedWorkload(0.1), 10, Strategy.MTSM
        )
        assert [type(ie.energy_per_instruction), type(ie.e_total), type(ie.e_overhead)] == [float] * 3
        self.check(ie.total_result)


class TestConstantAgreement:
    def test_all_strategies_same_windowed_mean_power(self):
        # constant provider: all three strategies see the same mean power
        p = 42_000.0
        sma_trace = run_sma(
            ConstantPowerProvider(p), TimedWorkload(1.0),
            SamplerConfig.fixed_interval(0.05), lead=0.2, tail=0.2,
        )
        papi = run_papi_style(ConstantPowerProvider(p), TimedWorkload(1.0))
        mtsm = run_mtsm(ConstantPowerProvider(p), TimedWorkload(1.0))
        assert float(np.mean(sma_trace.powers)) == p
        assert papi.energy / papi.elapsed == p
        assert mtsm.energy / mtsm.elapsed == p


class TestMeasureInstruction:
    def test_extracts_one_microjoule(self):
        # total 10 J, overhead 5 J, 5e6 instructions -> 1 uJ
        factories = (
            lambda: ConstantPowerProvider(5_000.0),
            lambda: ConstantPowerProvider(2_500.0),
        )
        result = measure_instruction(
            factories, TimedWorkload(2.0), TimedWorkload(2.0), 5_000_000, Strategy.MTSM
        )
        assert result.e_total == pytest.approx(10_000.0)
        assert result.e_overhead == pytest.approx(5_000.0)
        assert result.energy_per_instruction == pytest.approx(1.0)
        assert not result.negative_net
        assert result.total_result is not None and result.overhead_result is not None

    def test_identical_runs_give_zero(self):
        factory = lambda: ConstantPowerProvider(3_000.0)
        result = measure_instruction(
            factory, TimedWorkload(1.0), TimedWorkload(1.0), 12345, Strategy.PAPI_STYLE
        )
        assert result.energy_per_instruction == 0.0
        assert not result.negative_net

    def test_negative_net_flagged_not_clamped(self):
        factories = (
            lambda: ConstantPowerProvider(1_000.0),
            lambda: ConstantPowerProvider(2_000.0),
        )
        result = measure_instruction(
            factories, TimedWorkload(1.0), TimedWorkload(1.0), 1_000, Strategy.MTSM
        )
        assert result.negative_net
        assert result.energy_per_instruction < 0.0

    def test_rejects_sma(self):
        with pytest.raises(ValueError):
            measure_instruction(
                lambda: ConstantPowerProvider(1.0),
                TimedWorkload(1.0), TimedWorkload(1.0), 10, Strategy.SMA,
            )

    def test_rejects_zero_instructions(self):
        from instrujoule import ZeroInstructions

        with pytest.raises(ZeroInstructions):
            measure_instruction(
                lambda: ConstantPowerProvider(1.0),
                TimedWorkload(1.0), TimedWorkload(1.0), 0, Strategy.MTSM,
            )

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_bad_count_rejected_before_any_run(self, n):
        from instrujoule import ZeroInstructions

        calls = []

        def factory():
            calls.append(1)
            return ConstantPowerProvider(1.0)

        problem = "an integer" if isinstance(n, float) else ">= 1"
        with pytest.raises(ZeroInstructions, match=f"^n_instructions must be {problem}, got {n}$"):
            measure_instruction(
                (factory, factory), TimedWorkload(20.0), TimedWorkload(20.0), n, Strategy.MTSM,
                clock_factory=lambda: VirtualClock(read_cost=1e-4),
            )
        assert calls == []


class PerTimeProvider(PowerProvider):
    """Answers one time at a time, records each read as (run, reading thread)
    in ``seen`` and raises ``error`` instead of answering, when one is given."""

    def __init__(self, run, seen, error=None):
        self.run, self.seen, self.error = run, seen, error

    def next_sample(self, t):
        return self._answer(1)[0]

    def _answer(self, n):
        self.seen.append((self.run, threading.current_thread().name))
        if self.error is not None:
            raise self.error
        return np.full(n, 5.0)


class GridProvider(PerTimeProvider):
    """The same, answering a whole grid at once."""

    def sample_grid(self, times):
        return self._answer(len(times))


class RecordingDevice(SyntheticDeviceProvider):
    def __init__(self, model, run, seen):
        super().__init__(model)
        self.run, self.seen = run, seen

    def sample_grid(self, times):
        self.seen.append((self.run, threading.current_thread().name))
        return super().sample_grid(times)


def fine_clock():
    return VirtualClock(read_cost=1e-4)


def measure_pair(providers, seconds, strategy=Strategy.MTSM, clock_factory=fine_clock):
    """A pair on ``providers`` (total, overhead) over two timed workloads."""
    total, overhead = providers
    return measure_instruction(
        (lambda: total, lambda: overhead), TimedWorkload(seconds), TimedWorkload(seconds),
        1_000, strategy, clock_factory=clock_factory,
    )


def assert_same_result(got, want):
    for name in ("strategy", "energy", "elapsed", "n_samples", "flag_timeline", "label"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("times", "powers"):
        assert getattr(got.trace, name).tobytes() == getattr(want.trace, name).tobytes(), name
    assert got.trace.window == want.trace.window


class TestPairReadOnTwoThreads:
    # 7 s at 0.1 ms a read: 70k reads a run, above _PAIR_MIN_READS; 0.5 s is below
    LARGE, SMALL = 7.0, 0.5

    def test_a_large_pair_equals_each_run_alone(self):
        from instrujoule.monitor import _PAIR_MIN_READS

        models = [
            SyntheticModel(p_idle=20e3, p_kernel=p, ramp_mw=8e3, kernel_duration=7.0, decay_steps=3,
                           noise_stddev=900.0, rng_seed=seed)
            for p, seed in ((70e3, 31), (60e3, 32))
        ]
        seen, clocks = [], []

        def clock_factory():
            clocks.append(fine_clock())
            return clocks[-1]

        devices = iter([RecordingDevice(m, run, seen) for m, run in zip(models, ("total", "overhead"))])
        got = measure_instruction(
            (lambda: next(devices), lambda: next(devices)), KernelLaunchWorkload(), KernelLaunchWorkload(),
            1_000, Strategy.MTSM, clock_factory=clock_factory,
        )
        assert sorted(name for _, name in seen) == ["MainThread", "mtsm-pair-reader"]
        for result, model, clock in zip((got.total_result, got.overhead_result), models, clocks):
            alone_clock = fine_clock()
            alone = run_mtsm(SyntheticDeviceProvider(model), KernelLaunchWorkload(), alone_clock)
            assert alone.n_samples > _PAIR_MIN_READS
            assert_same_result(result, alone)
            assert clock.now == alone_clock.now
        assert got.e_total == got.total_result.energy and got.e_overhead == got.overhead_result.energy

    def test_a_large_pair_is_read_on_two_threads(self):
        seen = []
        measure_pair([GridProvider(run, seen) for run in ("total", "overhead")], self.LARGE)
        assert sorted(seen) == [("overhead", "mtsm-pair-reader"), ("total", "MainThread")]

    @pytest.mark.parametrize(
        "case", ["small", "per-time provider", "shared clock", "shared provider", "RealClock", "papi"]
    )
    def test_read_on_one_thread(self, case):
        seen = []
        provider, seconds = GridProvider, self.LARGE
        strategy, clock_factory = Strategy.MTSM, fine_clock
        if case == "shared provider":
            shared = GridProvider("total", seen)
            provider = lambda run, seen: shared
        elif case == "small":
            seconds = self.SMALL
        elif case == "per-time provider":
            provider = PerTimeProvider
        elif case == "shared clock":
            clock = fine_clock()
            clock_factory = lambda: clock
        elif case == "RealClock":
            seconds, clock_factory = 0.01, RealClock
        else:
            strategy = Strategy.PAPI_STYLE
        result = measure_pair([provider(run, seen) for run in ("total", "overhead")], seconds, strategy,
                              clock_factory)
        runs = [run for run, _ in seen]
        assert len(runs) >= 2 and len({name for _, name in seen}) == 1, case
        # one run after the other: every read of the total run comes first
        assert runs == sorted(runs, key=["total", "overhead"].index)
        if case == "shared clock":  # the overhead run starts where the total run's clear left the clock
            assert result.overhead_result.flag_timeline[0] == result.total_result.flag_timeline[1]

    @pytest.mark.parametrize("overhead_fails_at", ["read", "drive"])
    def test_both_runs_fail_raises_the_total_runs_error(self, overhead_fails_at):
        seen = []
        total = GridProvider("total", seen, ProviderExhausted("total run failed"))
        overhead = GridProvider("overhead", seen, ProviderExhausted("overhead run failed"))
        overhead_kernel = TimedWorkload(self.LARGE)
        if overhead_fails_at == "drive":
            class Fails(Workload):
                def run(self, clock, provider):
                    raise RuntimeError("overhead kernel failed")

            overhead_kernel = Fails()
        with pytest.raises(ProviderExhausted, match="^total run failed$"):
            measure_instruction(
                (lambda: total, lambda: overhead), TimedWorkload(self.LARGE), overhead_kernel,
                1_000, Strategy.MTSM, clock_factory=fine_clock,
            )

    def test_only_the_overhead_run_fails_raises_its_error(self):
        seen = []
        providers = [GridProvider("total", seen), GridProvider("overhead", seen, ProviderExhausted("overhead"))]
        with pytest.raises(ProviderExhausted, match="^overhead$"):
            measure_pair(providers, self.LARGE)
        assert sorted(seen) == [("overhead", "mtsm-pair-reader"), ("total", "MainThread")]


class TestThreadedMode:
    def test_mtsm_real_clock_smoke(self):
        provider = ConstantPowerProvider(100_000.0)
        workload = CallableWorkload(lambda: time.sleep(0.05), label="sleep")
        result = run_mtsm(provider, workload, clock=RealClock())
        assert result.n_samples >= 1
        assert result.energy == pytest.approx(100_000.0 * result.elapsed, rel=1e-6)
        flag_set, flag_clear = result.flag_timeline
        assert flag_set <= flag_clear
        assert result.trace.times[0] >= flag_set
        assert result.trace.times[-1] <= flag_clear
        assert result.elapsed >= 0.05

    def test_sma_real_clock_smoke(self):
        provider = ConstantPowerProvider(250.0)
        workload = CallableWorkload(lambda: time.sleep(0.03))
        trace = run_sma(
            provider, workload, SamplerConfig.fixed_interval(0.005),
            lead=0.02, tail=0.02, clock=RealClock(),
        )
        assert len(trace) >= 3
        assert np.all(trace.powers == 250.0)

    def test_threaded_startup_failure(self):
        with pytest.raises(SamplerStartupFailure):
            run_mtsm(DeadSensor(), CallableWorkload(lambda: time.sleep(0.01)), clock=RealClock())

    @pytest.mark.parametrize("strategy", ["mtsm", "sma"])
    def test_no_reading_before_the_startup_timeout(self, strategy, monkeypatch):
        from instrujoule.monitor import _ThreadedSampler

        class SlowFirstRead:
            def next_sample(self, t):
                time.sleep(0.2)
                return 100.0

        monkeypatch.setattr(_ThreadedSampler, "startup_timeout", 0.05)
        before = sys.getswitchinterval()
        with pytest.raises(SamplerStartupFailure) as exc:
            run_threaded(strategy, SlowFirstRead(), CallableWorkload(lambda: None))
        assert str(exc.value) == "sampler produced no reading before startup timeout"
        assert sys.getswitchinterval() == before
        assert sampler_threads() == []

    def test_sma_startup_failure_on_dead_provider(self):
        with pytest.raises(SamplerStartupFailure):
            run_threaded("sma", DeadSensor(), CallableWorkload(lambda: time.sleep(0.01)))

    @pytest.mark.parametrize("strategy", ["mtsm", "sma"])
    def test_raising_workload_stops_the_sampler(self, strategy):
        def boom():
            time.sleep(0.01)
            raise RuntimeError("kernel fault")

        provider = ConstantPowerProvider(100.0)
        with pytest.raises(RuntimeError, match="kernel fault"):
            run_threaded(strategy, provider, CallableWorkload(boom))
        assert sampler_threads() == []

    @pytest.mark.parametrize("strategy", ["mtsm", "sma"])
    def test_midrun_provider_error_propagates(self, strategy):
        class SensorFault(Exception):
            pass

        class FailsOnThirdRead:
            reads = 0

            def next_sample(self, t):
                self.reads += 1
                if self.reads == 3:
                    raise SensorFault("read 3 failed")
                return 100.0

        with pytest.raises(SensorFault, match="read 3 failed"):
            run_threaded(strategy, FailsOnThirdRead(), CallableWorkload(lambda: time.sleep(0.03)))
        assert sampler_threads() == []

    @pytest.mark.parametrize("strategy", ["mtsm", "sma"])
    @pytest.mark.parametrize("kernel_fault", [False, True])
    def test_stalled_provider_raises_sampler_stalled(self, strategy, kernel_fault, monkeypatch):
        from instrujoule.monitor import _ThreadedSampler

        release = threading.Event()

        class StallsAfterFirstRead:
            reads = 0

            def next_sample(self, t):
                self.reads += 1
                if self.reads > 1:
                    release.wait()
                return 100.0

        def kernel():
            time.sleep(0.01)
            if kernel_fault:
                raise RuntimeError("kernel fault")

        monkeypatch.setattr(_ThreadedSampler, "stop_timeout", 0.2)
        before = sys.getswitchinterval()
        started = time.monotonic()
        try:
            with pytest.raises(SamplerStalled) as raised:
                run_threaded(strategy, StallsAfterFirstRead(), CallableWorkload(kernel))
            assert time.monotonic() - started < 2.0
            assert sys.getswitchinterval() == before
            cause = raised.value.__cause__
            assert isinstance(cause, RuntimeError) if kernel_fault else cause is None
        finally:
            release.set()
            for th in threading.enumerate():
                if th.name.endswith("-sampler"):
                    th.join(timeout=5.0)
        assert sampler_threads() == []

    @pytest.mark.parametrize("strategy", ["mtsm", "sma"])
    def test_coarse_clock_yields_strictly_increasing_trace(self, strategy):
        class CoarseClock(RealClock):
            @property
            def now(self):
                return round(super().now, 4)  # 0.1 ms ticks

        class Counting:
            reads = 0

            def next_sample(self, t):
                self.reads += 1
                return 100.0

        provider = Counting()
        out = run_threaded(strategy, provider, CallableWorkload(lambda: time.sleep(0.02)), CoarseClock())
        trace = out if strategy == "sma" else out.trace
        assert len(trace) >= 1
        assert np.all(np.diff(trace.times) > 0)
        if strategy == "mtsm":
            # back-to-back reads repeat 0.1 ms timestamps; the repeats are dropped
            assert out.n_samples == len(trace) < provider.reads

    def test_mtsm_on_a_noisy_synthetic_device(self):
        # the sampler thread reads the device one time at a time, each read a next_sample call
        model = SyntheticModel(
            p_idle=20_000.0, p_kernel=60_000.0, ramp_mw=10_000.0, noise_stddev=5_000.0,
            pre_rise_lead=0.002, kernel_duration=0.018, rng_seed=13,
        )
        result = run_mtsm(SyntheticDeviceProvider(model), KernelLaunchWorkload(), clock=RealClock())
        powers = result.trace.powers
        assert np.all(np.isfinite(powers)) and np.all(powers >= 0.0)
        assert result.energy == energy_from_readings(powers, result.elapsed)
        assert result.elapsed >= 0.02
        assert sampler_threads() == []


class NanAtRead(PowerProvider):
    """A faulty sensor: returns ``bad`` (NaN unless given) at read ``k``
    (counting from 1), 100 mW otherwise."""

    def __init__(self, k, bad=math.nan):
        self.k, self.bad, self.reads = k, bad, 0

    def next_sample(self, t):
        self.reads += 1
        return self.bad if self.reads == self.k else 100.0


class TestNanReading:
    """A NaN or infinite reading fails the run with MalformedTrace; no energy is nan."""

    @pytest.mark.parametrize("k", [1, 2, 15])
    def test_virtual_mtsm(self, k):
        provider = NanAtRead(k)
        with pytest.raises(MalformedTrace):
            run_mtsm(provider, TimedWorkload(0.01), clock=VirtualClock())
        assert provider.reads >= k

    @pytest.mark.parametrize("k", [1, 3])
    def test_threaded_mtsm(self, k):
        provider = NanAtRead(k)
        with pytest.raises(MalformedTrace):
            run_mtsm(provider, CallableWorkload(lambda: time.sleep(0.02)), clock=RealClock())
        assert provider.reads >= k
        assert sampler_threads() == []

    @pytest.mark.parametrize("clock", [VirtualClock, RealClock])
    def test_papi_style(self, clock):
        if clock is VirtualClock:
            workload = TimedWorkload(0.01)
        else:
            workload = CallableWorkload(lambda: time.sleep(0.01))
        # the one reading fails at the energy sum, before a trace is built
        for bad in (math.nan, math.inf):
            with pytest.raises(MalformedTrace, match="^non-finite power reading$"):
                run_papi_style(NanAtRead(1, bad), workload, clock=clock())
        assert sampler_threads() == []


class TestSwitchInterval:
    """Threaded samplers lower the interpreter's switch interval while they
    run, so a kernel's end is read promptly, and restore it on
    every way out."""

    def test_short_kernel_end_is_read_promptly(self):
        excess = []
        for _ in range(10):
            result = run_mtsm(
                ConstantPowerProvider(100.0), CallableWorkload(lambda: time.sleep(0.02)), clock=RealClock()
            )
            excess.append(result.elapsed - 0.02)
        # a 5 ms switch interval overstates this kernel by about 5 ms
        assert np.median(excess) < 2e-3, excess

    @pytest.mark.parametrize("strategy", ["mtsm", "sma"])
    def test_lowered_while_sampling(self, strategy):
        before = sys.getswitchinterval()
        seen = []
        run_threaded(strategy, ConstantPowerProvider(1.0), CallableWorkload(lambda: seen.append(sys.getswitchinterval())))
        assert seen == [pytest.approx(1e-4)]
        assert sys.getswitchinterval() == before

    @pytest.mark.parametrize("strategy", ["mtsm", "sma"])
    def test_restored_after_raising_workload(self, strategy):
        before = sys.getswitchinterval()

        def boom():
            raise RuntimeError("kernel fault")

        with pytest.raises(RuntimeError, match="kernel fault"):
            run_threaded(strategy, ConstantPowerProvider(1.0), CallableWorkload(boom))
        assert sys.getswitchinterval() == before

    @pytest.mark.parametrize("strategy", ["mtsm", "sma"])
    def test_restored_after_startup_failure(self, strategy):
        before = sys.getswitchinterval()
        with pytest.raises(SamplerStartupFailure):
            run_threaded(strategy, DeadSensor(), CallableWorkload(lambda: time.sleep(0.01)))
        assert sys.getswitchinterval() == before

    def test_overlapping_runs_restore_the_callers_value(self):
        before = sys.getswitchinterval()
        long_started, short_done = threading.Event(), threading.Event()
        seen, errors = [], []

        def long_kernel():
            long_started.set()
            short_done.wait(timeout=5.0)
            seen.append(sys.getswitchinterval())  # the short run has ended; this one still samples

        def short_kernel():
            long_started.wait(timeout=5.0)
            time.sleep(0.01)

        def run(kernel):
            try:
                run_mtsm(ConstantPowerProvider(1.0), CallableWorkload(kernel), clock=RealClock())
            except BaseException as exc:
                errors.append(exc)

        long_run = threading.Thread(target=run, args=(long_kernel,))
        long_run.start()
        run(short_kernel)
        short_done.set()
        long_run.join(timeout=10.0)
        assert errors == [] and seen == [pytest.approx(1e-4)]
        assert sys.getswitchinterval() == before


class DeadSensor:
    def next_sample(self, t):
        raise RuntimeError("sensor fell off")


def sampler_threads():
    return [th.name for th in threading.enumerate() if th.name.endswith("-sampler")]


def run_threaded(strategy, provider, workload, clock=None):
    clock = clock or RealClock()
    if strategy == "sma":
        return run_sma(
            provider, workload, SamplerConfig.fixed_interval(0.001),
            lead=0.005, tail=0.005, clock=clock,
        )
    return run_mtsm(provider, workload, clock=clock)


def test_monotonic_filter_matches_the_loop():
    from instrujoule.monitor import _monotonic

    rng = np.random.default_rng(5)
    steps = rng.choice([-2e-4, 0.0, 1e-4, 3e-4], size=20_000, p=[0.1, 0.3, 0.4, 0.2])
    times = np.round(np.cumsum(steps), 4).tolist()
    powers = rng.uniform(0.0, 1e3, size=len(times)).tolist()
    kept_t, kept_p = [], []
    for t, p in zip(times, powers):  # reference: keep a reading that advances time
        if not kept_t or t > kept_t[-1]:
            kept_t.append(t)
            kept_p.append(p)
    got_t, got_p = _monotonic(times, powers)
    assert (got_t.tolist(), got_p.tolist()) == (kept_t, kept_p)
    assert [a.size for a in _monotonic([], [])] == [0, 0]
