"""Exact relations between virtual runs: properties that hold with no oracle.

The goldens show that results did not change; these show that they move as
the paper's formulas say when the input moves. A virtual run's energy is the
sample mean of its readings times the timed elapsed, so:

* scaling every replayed power by a power of two scales the MTSM and PAPI
  energies, the extracted per-instruction energy and the SMA readings by the
  same factor, bit for bit (the scaling is exact in binary floating point);
* identical total and overhead runs extract exactly 0 uJ, not flagged
  negative;
* adding a constant c to every replayed power adds c * elapsed to the MTSM
  and PAPI energies, up to the rounding of the sum;
* moving the virtual clock's origin keeps an MTSM run's sample count, and
  moves its energy on a simulated device by less than one sample's weight:
  the profile is anchored at launch, so only rounding can move a read
  across a piece edge.
"""

import dataclasses

import numpy as np
import pytest

from instrujoule import (
    KernelLaunchWorkload,
    PowerTrace,
    ReplayProvider,
    SamplerConfig,
    Strategy,
    SyntheticDeviceProvider,
    SyntheticModel,
    TimedWorkload,
    VirtualClock,
    measure_instruction,
    run_mtsm,
    run_papi_style,
    run_sma,
    synthesize,
)

# a noisy ramped kernel: every reading differs from its neighbours
MODEL = SyntheticModel(kernel_duration=0.4, ramp_mw=15_000.0, noise_stddev=800.0, sample_rate=20_000.0,
                       rng_seed=11, idle_lead=0.2, idle_tail=0.3)
TRACE, _ = synthesize(MODEL)
OVERHEAD_TRACE, _ = synthesize(dataclasses.replace(MODEL, p_kernel=60_000.0, rng_seed=12))
# runs start inside the replayed trace and end well before it does
START = 0.15
KERNEL = TimedWorkload(0.45)
READ_COSTS = [1e-4, 5e-4, 3e-3]


def random_model(rng):
    # about half the models have a flat plateau, and about half no noise
    return SyntheticModel(
        p_idle=rng.uniform(5e3, 4e4), p_kernel=rng.uniform(1e4, 1e5),
        ramp_mw=rng.choice([0.0, rng.uniform(0, 2e4)]), noise_stddev=rng.choice([0.0, rng.uniform(0, 5e3)]),
        pre_rise_lead=rng.uniform(1e-3, 5e-3), kernel_duration=rng.uniform(0.05, 0.4),
        decay_steps=int(rng.integers(0, 7)), decay_step_duration=rng.uniform(0.005, 0.05),
        rng_seed=int(rng.integers(2**31)),
    )


def replay(trace, scale=1.0, offset=0.0):
    return ReplayProvider(PowerTrace(trace.times, trace.powers * scale + offset))


def clock(read_cost):
    return VirtualClock(start=START, read_cost=read_cost)


class TestScale:
    @pytest.mark.parametrize("factor", [2.0, 0.25])
    @pytest.mark.parametrize("read_cost", READ_COSTS)
    @pytest.mark.parametrize("runner", [run_mtsm, run_papi_style])
    def test_energy_scales_exactly(self, runner, read_cost, factor):
        base = runner(replay(TRACE), KERNEL, clock=clock(read_cost))
        scaled = runner(replay(TRACE, scale=factor), KERNEL, clock=clock(read_cost))
        assert scaled.energy == factor * base.energy
        assert scaled.elapsed == base.elapsed and scaled.n_samples == base.n_samples
        np.testing.assert_array_equal(scaled.trace.times, base.trace.times)
        np.testing.assert_array_equal(scaled.trace.powers, factor * base.trace.powers)

    @pytest.mark.parametrize("interval", [0.001, 0.015])
    def test_sma_readings_scale_exactly(self, interval):
        def sma(scale):
            return run_sma(replay(TRACE, scale=scale), KERNEL, SamplerConfig(interval), lead=0.02, tail=0.05,
                           clock=clock(5e-4))

        base, doubled = sma(1.0), sma(2.0)
        np.testing.assert_array_equal(doubled.times, base.times)
        np.testing.assert_array_equal(doubled.powers, 2.0 * base.powers)

    @pytest.mark.parametrize("strategy", [Strategy.MTSM, Strategy.PAPI_STYLE])
    def test_extraction_scales_exactly(self, strategy):
        def extract(scale):
            return measure_instruction(
                (lambda: replay(TRACE, scale=scale), lambda: replay(OVERHEAD_TRACE, scale=scale)),
                KERNEL, KERNEL, 1_000_000, strategy, clock_factory=lambda: clock(5e-4),
            )

        base, doubled = extract(1.0), extract(2.0)
        assert doubled.e_total == 2.0 * base.e_total
        assert doubled.e_overhead == 2.0 * base.e_overhead
        assert doubled.energy_per_instruction == 2.0 * base.energy_per_instruction
        assert base.energy_per_instruction > 0 and not doubled.negative_net


class TestIdenticalPair:
    @pytest.mark.parametrize("read_cost", READ_COSTS)
    def test_noisy_device_extracts_zero(self, read_cost):
        # a fresh device per run: the same seed draws the same noise in each
        result = measure_instruction(
            lambda: SyntheticDeviceProvider(MODEL), KernelLaunchWorkload(), KernelLaunchWorkload(),
            1_000_000, Strategy.MTSM, clock_factory=lambda: VirtualClock(read_cost=read_cost),
        )
        assert result.energy_per_instruction == 0.0
        assert result.negative_net is False
        assert result.e_total == result.e_overhead > 0

    def test_replay_extracts_zero(self):
        result = measure_instruction(
            (lambda: replay(TRACE), lambda: replay(TRACE)), KERNEL, KERNEL, 1_000_000, Strategy.MTSM,
            clock_factory=lambda: clock(5e-4),
        )
        assert result.energy_per_instruction == 0.0
        assert result.negative_net is False


class TestOffset:
    @pytest.mark.parametrize("offset", [1234.5, 25_000.0])
    @pytest.mark.parametrize("read_cost", READ_COSTS)
    @pytest.mark.parametrize("runner", [run_mtsm, run_papi_style])
    def test_energy_grows_by_offset_times_elapsed(self, runner, read_cost, offset):
        base = runner(replay(TRACE), KERNEL, clock=clock(read_cost))
        shifted = runner(replay(TRACE, offset=offset), KERNEL, clock=clock(read_cost))
        assert shifted.elapsed == base.elapsed and shifted.n_samples == base.n_samples
        assert shifted.energy == pytest.approx(base.energy + offset * base.elapsed, rel=1e-12, abs=0)


class TestClockOrigin:
    @pytest.mark.parametrize("origin", [0.1, 1e3, 1e6])
    def test_mtsm_moves_less_than_one_sample(self, origin):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            model, read_cost = random_model(rng), rng.uniform(2e-4, 2e-3)

            def mtsm(start):
                return run_mtsm(SyntheticDeviceProvider(model), KernelLaunchWorkload(),
                                clock=VirtualClock(start=start, read_cost=read_cost))

            base, shifted = mtsm(0.0), mtsm(origin)
            assert shifted.n_samples == base.n_samples
            # one sample's weight: a read that rounding moves across a piece edge
            # changes by at most the profile's height, since the same read draws
            # the same noise and clipping at zero only narrows a gap
            peak = model.p_idle + model.p_kernel + model.ramp_mw + 8 * model.noise_stddev
            assert abs(shifted.energy - base.energy) <= peak * base.elapsed / base.n_samples
