"""Measurement strategies under the virtual clock, plus threaded smoke tests."""

import math
import sys
import threading
import time

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
        provider = ReplayProvider(PowerTrace([], []))
        with pytest.raises(SamplerStartupFailure):
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
        checked = 0
        for _ in range(250):
            t0 = float(rng.choice([0.0, rng.uniform(0.0, 10.0), rng.uniform(0.0, 1e4)]))
            step = float(10.0 ** rng.uniform(-5.0, -1.0))
            k = int(rng.integers(0, 300))
            on_grid = t0 + k * step
            ends = [t0 + float(rng.uniform(-2.0, 300.0)) * step, t0]
            # on a grid point and one ulp either side, for both loops' bounds
            for point in (on_grid, on_grid - 1e-12):
                ends += [point, np.nextafter(point, -np.inf), np.nextafter(point, np.inf)]
            for t_end in ends:
                for back_to_back in (True, False):
                    want = loop_read_times(t0, step, float(t_end), back_to_back)
                    got = _read_times(t0, step, float(t_end), back_to_back)
                    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes(), (
                        t0, step, float(t_end), back_to_back,
                    )
                    checked += 1
        assert checked == 250 * 8 * 2

    def test_mtsm_reads_the_handshake_then_one_grid(self):
        provider = RecordingProvider()
        result = run_mtsm(provider, TimedWorkload(0.05), clock=VirtualClock(start=3.0))
        assert provider.calls == [("next_sample", 3.0), ("sample_grid", result.n_samples - 1)]

    def test_sma_reads_one_grid(self):
        provider = RecordingProvider()
        trace = run_sma(provider, TimedWorkload(0.05), lead=0.01, tail=0.01)
        assert provider.calls == [("sample_grid", len(trace))]


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
        with pytest.raises(ValueError, match="cannot advance a clock backwards"):
            clock.advance(float("nan"))
        assert clock.now == 1.0

    @pytest.mark.parametrize("lead, tail", [(float("nan"), 0.1), (0.1, float("nan"))])
    def test_sma_lead_and_tail(self, lead, tail):
        with pytest.raises(ValueError, match="lead and tail must be >= 0"):
            run_sma(ConstantPowerProvider(1.0), TimedWorkload(0.1), lead=lead, tail=tail)


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
        # the sampler thread reads the noise stream and draws its blocks
        model = SyntheticModel(
            p_idle=20_000.0, p_kernel=60_000.0, ramp_mw=10_000.0, noise_stddev=5_000.0,
            pre_rise_lead=0.002, kernel_duration=0.018, rng_seed=13,
        )
        result = run_mtsm(SyntheticDeviceProvider(model), KernelLaunchWorkload(), clock=RealClock())
        powers = result.trace.powers
        assert len(powers) > SyntheticDeviceProvider._first_block  # at least one refill
        assert np.all(np.isfinite(powers)) and np.all(powers >= 0.0)
        assert result.energy == energy_from_readings(powers, result.elapsed)
        assert result.elapsed >= 0.02
        assert sampler_threads() == []


class NanAtRead(PowerProvider):
    """A faulty sensor: returns NaN at read ``k`` (counting from 1), 100 mW otherwise."""

    def __init__(self, k):
        self.k, self.reads = k, 0

    def next_sample(self, t):
        self.reads += 1
        return math.nan if self.reads == self.k else 100.0


class TestNanReading:
    """A NaN reading fails the run with MalformedTrace; no energy is nan."""

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
        with pytest.raises(MalformedTrace):
            run_papi_style(NanAtRead(1), workload, clock=clock())
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
