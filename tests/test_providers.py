"""Provider semantics: step-hold replay, constants, simulated devices, and
whole-grid reads that match reading time by time."""

import math

import numpy as np
import pytest

from instrujoule import (
    ConstantPowerProvider,
    PowerProvider,
    PowerTrace,
    ProviderExhausted,
    ReplayProvider,
    SyntheticDeviceProvider,
    SyntheticModel,
    noise_free_power,
)
from instrujoule.synthetic import _scalar_power


class TestReplayProvider:
    def setup_method(self):
        self.provider = ReplayProvider(PowerTrace([0.0, 1.0], [100.0, 200.0]))

    def test_step_hold_between_samples(self):
        assert self.provider.next_sample(0.5) == 100.0

    def test_exact_timestamps(self):
        assert self.provider.next_sample(0.0) == 100.0
        assert self.provider.next_sample(1.0) == 200.0

    def test_past_end_exhausted(self):
        with pytest.raises(ProviderExhausted):
            self.provider.next_sample(1.0001)

    def test_before_start_exhausted(self):
        with pytest.raises(ProviderExhausted):
            self.provider.next_sample(-0.1)

    def test_empty_trace_exhausted(self):
        provider = ReplayProvider(PowerTrace([], []))
        with pytest.raises(ProviderExhausted):
            provider.next_sample(0.0)


class TestConstantProvider:
    def test_constant(self):
        provider = ConstantPowerProvider(5_000.0)
        for t in (0.0, 1.5, 99.0):
            assert provider.next_sample(t) == 5_000.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantPowerProvider(-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="power must be >= 0"):
            ConstantPowerProvider(float("nan"))


class TestSyntheticDeviceProvider:
    def test_idle_until_launch(self):
        model = SyntheticModel(p_idle=7_000.0, noise_stddev=0.0)
        provider = SyntheticDeviceProvider(model)
        assert provider.next_sample(100.0) == 7_000.0

    def test_plateau_after_launch(self):
        model = SyntheticModel(p_idle=7_000.0, p_kernel=3_000.0, noise_stddev=0.0)
        provider = SyntheticDeviceProvider(model)
        provider.launch(10.0)
        mid = 10.0 + model.pre_rise_lead + model.kernel_duration / 2
        assert provider.next_sample(mid) == 10_000.0

    def test_double_launch_rejected(self):
        provider = SyntheticDeviceProvider(SyntheticModel())
        provider.launch(0.0)
        with pytest.raises(RuntimeError):
            provider.launch(1.0)

    def test_noise_deterministic_per_seed(self):
        model = SyntheticModel(noise_stddev=800.0, rng_seed=5)
        readings = []
        for _ in range(2):
            provider = SyntheticDeviceProvider(model)
            provider.launch(0.0)
            readings.append([provider.next_sample(t) for t in np.linspace(0, 3, 50)])
        assert readings[0] == readings[1]

    def test_noise_clamped_non_negative(self):
        model = SyntheticModel(p_idle=1.0, p_kernel=1.0, noise_stddev=1e6, rng_seed=0)
        provider = SyntheticDeviceProvider(model)
        assert all(
            provider.next_sample(t) >= 0.0 for t in np.linspace(0, 2, 200)
        )


class PerReadNoise:
    """The simulated device read by read: the noise-free profile plus one
    scalar draw from the seeded generator for every reading."""

    def __init__(self, model):
        self.model, self.rng, self.t_launch = model, np.random.default_rng(model.rng_seed), None

    def launch(self, t):
        self.t_launch = float(t)

    def next_sample(self, t):
        if self.t_launch is None:
            p = float(self.model.p_idle)
        else:
            p = float(noise_free_power(self.model, t, self.t_launch))
        if self.model.noise_stddev > 0:
            p = max(p + float(self.rng.normal(0.0, self.model.noise_stddev)), 0.0)
        return p


class CountingRng:
    """Wraps a generator and counts its draw calls and the values they draw."""

    def __init__(self, rng):
        self.rng, self.calls, self.drawn = rng, 0, 0

    def normal(self, loc, scale, size):
        self.calls += 1
        self.drawn += size
        return self.rng.normal(loc, scale, size)

    def standard_normal(self):
        self.calls += 1
        self.drawn += 1
        return self.rng.standard_normal()


def counted(provider):
    provider._rng = CountingRng(provider._rng)
    return provider._rng


class TestBlockNoise:
    """Noise drawn a grid at a time is the stream of one draw per read."""

    MODEL = SyntheticModel(noise_stddev=800.0, ramp_mw=5_000.0, kernel_duration=0.5, rng_seed=21)

    def reads(self, provider, idle_times, times):
        out = [provider.next_sample(t) for t in idle_times]
        provider.launch(0.25)
        return out + [provider.next_sample(t) for t in times]

    def assert_bits_equal(self, got, want):
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_matches_one_draw_per_read(self):
        idle = np.linspace(0.0, 0.2, 10).tolist()
        times = np.linspace(0.2, 1.9, 9_000)
        got = self.reads(SyntheticDeviceProvider(self.MODEL), idle, times.tolist())
        want = self.reads(PerReadNoise(self.MODEL), idle, times.tolist())
        self.assert_bits_equal(got, want)
        numpy_times = list(times)  # np.float64 times read as Python floats do
        assert type(numpy_times[0]) is np.float64
        self.assert_bits_equal(self.reads(SyntheticDeviceProvider(self.MODEL), idle, numpy_times), want)
        # as a virtual MTSM run reads: a handshake read, then one grid
        device = SyntheticDeviceProvider(self.MODEL)
        handshake = [device.next_sample(t) for t in idle]
        device.launch(0.25)
        grid = device.sample_grid(times)
        self.assert_bits_equal(handshake + grid.tolist(), want)

    def test_clamped_reads_match(self):
        model = SyntheticModel(p_idle=1.0, p_kernel=1.0, noise_stddev=1e3, rng_seed=4)
        times = np.linspace(0.0, 3.0, 500).tolist()
        got = self.reads(SyntheticDeviceProvider(model), times[:50], times)
        want = self.reads(PerReadNoise(model), times[:50], times)
        assert 0.0 in got
        self.assert_bits_equal(got, want)

    def test_noise_free_model_draws_nothing(self):
        model = SyntheticModel(noise_stddev=0.0)
        provider = SyntheticDeviceProvider(model)
        rng = counted(provider)
        times = np.linspace(0.2, 3.0, 1_000).tolist()
        got = self.reads(provider, [0.0, 0.1], times)
        assert rng.calls == 0
        self.assert_bits_equal(got, self.reads(PerReadNoise(model), [0.0, 0.1], times))

    def test_one_read_draws_one_scalar(self):
        provider = SyntheticDeviceProvider(self.MODEL)
        rng = counted(provider)
        read = provider.next_sample(0.0)
        assert type(read) is float
        assert read == PerReadNoise(self.MODEL).next_sample(0.0)
        assert (rng.calls, rng.drawn) == (1, 1)

    @pytest.mark.parametrize("n", [1, 17, 1_000, 100_000])
    def test_one_generator_call_per_grid(self, n):
        provider = SyntheticDeviceProvider(self.MODEL)
        rng = counted(provider)
        provider.launch(0.0)
        assert provider.sample_grid(np.linspace(0.0, 1.0, n)).shape == (n,)
        assert (rng.calls, rng.drawn) == (1, n)


def scalar_reads(provider, times):
    """What reading ``times`` one by one returns: the values, or the error."""
    try:
        return [provider.next_sample(t) for t in np.asarray(times).tolist()]
    except Exception as exc:
        return exc


def grid_reads(provider, times):
    try:
        return provider.sample_grid(np.asarray(times, dtype=np.float64))
    except Exception as exc:
        return exc


class CountingProvider(PowerProvider):
    """Defines only ``next_sample``, so ``sample_grid`` is the default."""

    def __init__(self):
        self.seen = []

    def next_sample(self, t):
        self.seen.append(t)
        return 2.0 * t + 1.0


class TestSampleGrid:
    TRACE = PowerTrace([0.5, 1.0, 1.25, 3.0], [10.0, 20.0, 0.1 + 0.2, 40.0])

    def assert_parity(self, provider, times):
        want, got = scalar_reads(provider, times), grid_reads(provider, times)
        assert not isinstance(want, Exception), want
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        assert got.shape == (len(want),)
        assert got.tobytes() == np.array(want, dtype=np.float64).tobytes()

    def test_replay_matches_reads_time_by_time(self):
        provider = ReplayProvider(self.TRACE)
        hits = self.TRACE.times.tolist()  # the first and last sample included
        between = [0.75, 1.0000001, 1.2499999, 2.9, np.nextafter(1.25, 0.0), np.nextafter(3.0, 0.0)]
        self.assert_parity(provider, hits)
        self.assert_parity(provider, between)
        self.assert_parity(provider, sorted(hits + between))
        self.assert_parity(provider, [3.0, 0.5, 1.25, 1.25])  # any order, repeats
        self.assert_parity(provider, [])

    def test_replay_seeded_grids(self):
        rng = np.random.default_rng(11)
        times = np.cumsum(rng.uniform(1e-4, 1e-2, 2_000))
        provider = ReplayProvider(PowerTrace(times, rng.uniform(0.0, 9e4, times.size)))
        grid = times[0] + np.arange(1_500) * 7.3e-3
        grid = grid[grid <= times[-1]]
        self.assert_parity(provider, grid)
        self.assert_parity(provider, np.concatenate([grid, times]))

    @pytest.mark.parametrize(
        "times",
        [
            [0.4999999, 1.0],  # before the start
            [1.0, 3.0000001, 0.1],  # past the end, then before the start
            [0.7, 0.1, 4.0],  # before the start, then past the end
            [0.5, 3.0, 3.0, np.nextafter(3.0, 4.0)],  # one ulp past the end
        ],
    )
    def test_replay_out_of_range_raises_the_first_failing_read(self, times):
        provider = ReplayProvider(self.TRACE)
        want, got = scalar_reads(provider, times), grid_reads(provider, times)
        assert isinstance(want, ProviderExhausted)
        assert type(got) is type(want) and str(got) == str(want)

    def test_replay_empty_trace(self):
        provider = ReplayProvider(PowerTrace([], []))
        want, got = scalar_reads(provider, [0.0, 1.0]), grid_reads(provider, [0.0, 1.0])
        assert type(got) is ProviderExhausted and str(got) == str(want) == "replay trace is empty"
        assert grid_reads(provider, []).size == 0  # nothing read, nothing raised

    def test_constant(self):
        provider = ConstantPowerProvider(1234.5)
        self.assert_parity(provider, [0.0, 1e-9, 7.5, 1e6])
        self.assert_parity(provider, [])

    def test_default_reads_each_time_in_order(self):
        times = np.array([0.25, 3.0, 0.1, 0.1, 1e-12])
        self.assert_parity(CountingProvider(), times)
        provider = CountingProvider()
        provider.sample_grid(times)
        assert provider.seen == times.tolist()
        assert all(type(t) is float for t in provider.seen)

    def test_default_raises_what_the_read_raises(self):
        class FailsAtTwo(CountingProvider):
            def next_sample(self, t):
                if t >= 2.0:
                    raise ProviderExhausted(f"no reading at {t}")
                return super().next_sample(t)

        provider = FailsAtTwo()
        with pytest.raises(ProviderExhausted, match="no reading at 2.5"):
            provider.sample_grid(np.array([0.0, 1.0, 2.5, 3.0]))
        assert provider.seen == [0.0, 1.0]

    def test_synthetic_device_reads_a_grid_time_by_time(self):
        model = SyntheticModel(noise_stddev=800.0, rng_seed=9)
        times = np.linspace(0.0, 2.0, 300)
        a, b = SyntheticDeviceProvider(model), SyntheticDeviceProvider(model)
        a.launch(0.1)
        b.launch(0.1)
        assert a.sample_grid(times).tolist() == [b.next_sample(t) for t in times.tolist()]


def random_model(rng):
    """A valid model with every profile segment's length, height and step
    count drawn at random; half the models ramp, and the noise is often
    large enough to clamp idle readings at zero."""
    return SyntheticModel(
        p_idle=float(rng.choice([0.0, rng.uniform(0.0, 3e4)])),
        p_kernel=float(rng.uniform(0.0, 1e5)),
        pre_rise_lead=float(rng.uniform(1e-6, 0.05)),
        kernel_duration=float(rng.uniform(1e-4, 3.0)),
        decay_steps=int(rng.integers(0, 7)),
        decay_step_duration=float(rng.uniform(1e-5, 0.5)),
        noise_stddev=float(rng.choice([0.0, rng.uniform(0.0, 5e4)])),
        rng_seed=int(rng.integers(2**32)),
        ramp_mw=float(rng.choice([0.0, rng.uniform(0.0, 2e4)])),
    )


def profile_times(model, t_launch, rng):
    """Random times around the profile plus every segment boundary, computed
    as the profile computes it, and its two float neighbours."""
    exec_start = t_launch + model.pre_rise_lead
    exec_end = exec_start + model.kernel_duration
    edges = [t_launch, exec_start, exec_end]
    # step k ends at exec_end + k * decay_step_duration; the last step ends the decay
    edges += [exec_end + k * model.decay_step_duration for k in range(1, model.decay_steps + 1)]
    edges = np.array(edges)
    span = edges[-1] - t_launch
    spread = rng.uniform(t_launch - 0.2 * span, edges[-1] + 0.2 * span, 64)
    times = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), spread])
    rng.shuffle(times)
    return times


class TestTwoFormsOfTheProfile:
    """The profile's scalar form (single reads) and array form (grids) agree
    bit for bit, boundaries, unlaunched devices and clamped noise included."""

    MODELS = 300

    def cases(self):
        rng = np.random.default_rng(16)
        for _ in range(self.MODELS):
            model = random_model(rng)
            t_launch = float(rng.uniform(0.0, 1e3))
            yield model, t_launch, profile_times(model, t_launch, rng)

    def test_array_form_matches_scalar_form(self):
        for model, t_launch, times in self.cases():
            for launch in (t_launch, math.inf):
                got = noise_free_power(model, times, launch)
                want = [_scalar_power(model, t, launch) for t in times.tolist()]
                assert got.tobytes() == np.array(want).tobytes(), (model, launch)

    def test_reads_match_grids(self):
        clamped = 0
        for model, t_launch, times in self.cases():
            before = times[times < t_launch]
            reader, gridder = SyntheticDeviceProvider(model), SyntheticDeviceProvider(model)
            reads = [reader.next_sample(t) for t in before.tolist()]
            reader.launch(t_launch)
            reads += [reader.next_sample(t) for t in times.tolist()]
            grid = gridder.sample_grid(before)
            gridder.launch(t_launch)
            grid = np.concatenate([grid, gridder.sample_grid(times)])
            assert np.array(reads).tobytes() == grid.tobytes(), model
            clamped += model.noise_stddev > 0 and 0.0 in reads
        assert clamped >= 5
