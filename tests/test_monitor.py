"""Measurement strategies under the virtual clock, plus threaded smoke tests."""

import threading
import time

import numpy as np
import pytest

from instrujoule import (
    CallableWorkload,
    ConstantPowerProvider,
    KernelLaunchWorkload,
    PowerTrace,
    ProviderExhausted,
    RealClock,
    ReplayProvider,
    SamplerConfig,
    SamplerStartupFailure,
    Strategy,
    SyntheticDeviceProvider,
    SyntheticModel,
    TimedWorkload,
    VirtualClock,
    integrate_energy_trapezoid,
    measure_instruction,
    run_mtsm,
    run_papi_style,
    run_sma,
    synthesize,
)


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
        class Broken:
            def next_sample(self, t):
                raise RuntimeError("sensor fell off")

        with pytest.raises(SamplerStartupFailure):
            run_mtsm(Broken(), CallableWorkload(lambda: time.sleep(0.01)), clock=RealClock())

    def test_raising_workload_stops_the_sampler(self):
        def boom():
            time.sleep(0.01)
            raise RuntimeError("kernel fault")

        provider = ConstantPowerProvider(100.0)
        with pytest.raises(RuntimeError, match="kernel fault"):
            run_mtsm(provider, CallableWorkload(boom), clock=RealClock())
        alive = [th for th in threading.enumerate() if th.name == "mtsm-sampler"]
        assert alive == []
