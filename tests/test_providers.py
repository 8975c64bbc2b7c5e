"""Provider semantics: step-hold replay, constants, simulated devices, and
whole-grid reads that match reading time by time."""

import hashlib
import math
from dataclasses import replace

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
        with pytest.raises(ValueError, match="^power_mw must be >= 0, got nan$"):
            ConstantPowerProvider(float("nan"))

    def test_infinite_rejected(self):
        with pytest.raises(ValueError, match="^power_mw must be finite, got inf$"):
            ConstantPowerProvider(math.inf)


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

    @pytest.mark.parametrize("t, message", [
        (math.nan, "launch time must be finite, got nan"),
        (math.inf, "launch time must be finite, got inf"),
        (-math.inf, "launch time must be finite, got -inf"),
        (True, "launch time must be a number, got True"),
        ("1.0", "launch time must be a number, got '1.0'"),
    ], ids=["nan", "inf", "-inf", "bool", "str"])
    def test_launch_time_must_be_a_finite_number(self, t, message):
        # inf would leave the device unlaunched, open to a second launch
        model = SyntheticModel(p_idle=7_000.0, noise_stddev=0.0)
        provider = SyntheticDeviceProvider(model)
        with pytest.raises(ValueError) as exc:
            provider.launch(t)
        assert str(exc.value) == message
        assert provider.next_sample(1.0) == 7_000.0  # still idle, and still launchable
        provider.launch(0.0)
        assert provider.next_sample(1.0) == 7_000.0 + model.p_kernel
        with pytest.raises(RuntimeError, match="^provider already launched"):
            provider.launch(2.0)

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
    """The simulated device read by read: the noise-free profile, a one-point
    grid of a noise-free device, plus one scalar draw from the seeded
    generator for every reading."""

    def __init__(self, model):
        self.model, self.rng = model, np.random.default_rng(model.rng_seed)
        self.profile = _device(replace(model, noise_stddev=0.0))

    def launch(self, t):
        self.profile.launch(t)

    def next_sample(self, t):
        p = float(self.profile.sample_grid(np.array([t]))[0])
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

    def standard_normal(self, out=None):
        self.calls += 1
        self.drawn += 1 if out is None else out.size
        return self.rng.standard_normal(out=out)


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
        # reads before the launch, then one grid
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

    def test_signed_zero_reads_match_one_grid(self):
        # an idle of -0.0 under noise that underflows to a signed zero
        rng = np.random.default_rng(52)
        times = np.linspace(0.0, 1.0, 200)
        for p_idle in (0.0, -0.0, 3_000.0):
            for sd in (5e-324, 1e-300, 800.0):
                for launch in (None, 0.5) * 5:
                    model = SyntheticModel(p_idle=p_idle, noise_stddev=sd, rng_seed=int(rng.integers(2**32)))
                    reader, gridder = _device(model, launch), _device(model, launch)
                    reads = [reader.next_sample(t) for t in times.tolist()]
                    self.assert_bits_equal(reads, gridder.sample_grid(times))


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
            [0.5, math.nan],  # NaN fails both range tests, and would sort past the end
            [1.0, math.nan, 0.1],  # NaN, then before the start
            [4.0, math.nan],  # past the end, then NaN
        ],
    )
    def test_replay_out_of_range_raises_the_first_failing_read(self, times):
        provider = ReplayProvider(self.TRACE)
        want, got = scalar_reads(provider, times), grid_reads(provider, times)
        assert isinstance(want, ProviderExhausted)
        assert type(got) is type(want) and str(got) == str(want)

    def test_replay_nan_time_is_refused(self):
        provider = ReplayProvider(PowerTrace([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]))
        with pytest.raises(ProviderExhausted, match="^replay queried at nan, which is not a time$"):
            provider.next_sample(math.nan)
        with pytest.raises(ProviderExhausted, match="^replay queried at nan, which is not a time$"):
            provider.sample_grid([0.5, math.nan])

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


def _device(model, launch=None):
    device = SyntheticDeviceProvider(model)
    if launch is not None:
        device.launch(launch)
    return device


def noise_free_grid(model, times, launch):
    """The profile's array form at ``times``: the grid that a noise-free
    device of ``model`` reads, launched at ``launch``, or never launched
    when ``launch`` is ``math.inf``."""
    device = _device(replace(model, noise_stddev=0.0), None if launch == math.inf else launch)
    return device.sample_grid(times)


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
                got = noise_free_grid(model, times, launch)
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



def assert_profile_matches_scalar(model, times, launch):
    got = noise_free_grid(model, times, launch)
    want = [_scalar_power(model, t, launch) for t in np.asarray(times).tolist()]
    assert got.tobytes() == np.array(want, dtype=np.float64).tobytes(), (model, launch)


class TestAscendingGrids:
    """An ascending grid, which the profile evaluates piece by piece without
    reordering it, reads what the scalar form reads time by time."""

    MODEL = SyntheticModel(
        p_idle=3_000.0, p_kernel=50_000.0, ramp_mw=8_000.0, pre_rise_lead=0.004,
        kernel_duration=0.3, decay_steps=5, decay_step_duration=0.02,
    )
    LAUNCH = 1.5

    def test_random_models_sorted(self):
        for model, t_launch, times in TestTwoFormsOfTheProfile().cases():
            times = np.sort(times)  # the edges and their neighbours among them
            assert (times[1:] >= times[:-1]).all()
            for launch in (t_launch, math.inf):
                assert_profile_matches_scalar(model, times, launch)

    @pytest.mark.parametrize(
        "change",
        [{}, {"decay_steps": 0}, {"ramp_mw": 0.0}, {"decay_steps": 0, "ramp_mw": 0.0}, {"decay_steps": 1}],
    )
    def test_special_models(self, change):
        model = replace(self.MODEL, **change)
        times = np.sort(profile_times(model, self.LAUNCH, np.random.default_rng(3)))
        for launch in (self.LAUNCH, math.inf):
            assert_profile_matches_scalar(model, times, launch)

    def test_grid_wholly_before_launch(self):
        times = np.linspace(0.0, np.nextafter(self.LAUNCH, 0.0), 1_000)
        assert (noise_free_grid(self.MODEL, times, self.LAUNCH) == self.MODEL.p_idle).all()
        assert_profile_matches_scalar(self.MODEL, times, self.LAUNCH)

    def test_grid_wholly_after_the_decay(self):
        m = self.MODEL
        decay_end = self.LAUNCH + m.pre_rise_lead + m.kernel_duration + m.decay_steps * m.decay_step_duration
        times = np.linspace(np.nextafter(decay_end, np.inf), decay_end + 5.0, 1_000)
        assert (noise_free_grid(m, times, self.LAUNCH) == m.p_idle).all()
        assert_profile_matches_scalar(m, times, self.LAUNCH)

    @pytest.mark.parametrize("times", [[], [1.6], [1.0], [1.9], [1.6, 1.6, 1.6], [1.0, 1.5, 1.5, 1.6, 1.6, 1.82]])
    def test_short_grids_and_repeated_times(self, times):
        assert noise_free_grid(self.MODEL, np.array(times), self.LAUNCH).shape == (len(times),)
        assert_profile_matches_scalar(self.MODEL, np.array(times), self.LAUNCH)

    def test_scalar_and_shaped_arrays(self):
        times = np.linspace(1.4, 2.0, 12)
        flat = noise_free_grid(self.MODEL, times, self.LAUNCH)
        assert noise_free_grid(self.MODEL, times.reshape(3, 4), self.LAUNCH).tobytes() == flat.tobytes()
        assert noise_free_grid(self.MODEL, times.reshape(3, 4).T, self.LAUNCH).shape == (4, 3)
        device = _device(self.MODEL, self.LAUNCH)
        for t, p in zip(times.tolist(), flat.tolist()):
            got = noise_free_grid(self.MODEL, t, self.LAUNCH)
            assert got.shape == () and got == p
            got = device.next_sample(t)  # the noise-free model's single read
            assert type(got) is float and got == p

    def test_negative_zero_idle_keeps_its_sign(self):
        model = SyntheticModel(p_idle=-0.0, p_kernel=5_000.0, ramp_mw=1_000.0, noise_stddev=0.0, decay_steps=2)
        times = np.linspace(0.0, 5.0, 2_001)
        for launch in (None, 1.0):
            want = np.array([_scalar_power(model, t, math.inf if launch is None else launch)
                             for t in times.tolist()])
            assert np.signbit(want[0]) and np.signbit(want[-1])  # idle before the launch and after the decay
            got = _device(model, launch).sample_grid(times)
            assert got.tobytes() == want.tobytes()
            if launch is not None:
                assert noise_free_grid(model, times, launch).tobytes() == want.tobytes()
                assert noise_free_grid(model, times[::-1], launch).tobytes() == want[::-1].tobytes()

    def test_a_time_past_the_end_is_at_least_the_first_decay_step(self):
        # the execution ends at 0.0, and the smallest subnormal past it, over a
        # 2 s step, rounds to 0 steps: it still reads the first step
        model = SyntheticModel(
            p_idle=1_000.0, p_kernel=6_000.0, pre_rise_lead=0.5, kernel_duration=0.5,
            decay_steps=3, decay_step_duration=2.0,
        )
        times = np.array([0.0, 5e-324, 1e-300, 1.0, 2.0, 2.5])
        assert math.nextafter(0.0, 1.0) / model.decay_step_duration == 0.0
        assert noise_free_grid(model, times, -1.0).tolist() == [7_000.0, 5_500.0, 5_500.0, 5_500.0, 5_500.0, 4_000.0]
        assert_profile_matches_scalar(model, times, -1.0)


class TestProviderContract:
    def test_next_sample_is_abstract(self):
        with pytest.raises(NotImplementedError):
            PowerProvider().next_sample(0.0)

    def test_default_grid_raises_what_next_sample_raises(self):
        with pytest.raises(NotImplementedError):
            PowerProvider().sample_grid(np.array([0.0, 1.0]))
        assert PowerProvider().sample_grid(np.array([])).size == 0  # nothing read

def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestGridGolden:
    """SHA-256 of the readings a simulated device returns for one long
    ascending grid, as a virtual run at a 1 µs read cost asks for it: a
    ramped model with six decay steps whose noise clamps idle readings at
    zero, launched mid-grid, and the same grid on a device never launched."""

    MODEL = SyntheticModel(
        p_idle=1_500.0, p_kernel=40_000.0, ramp_mw=12_000.0, pre_rise_lead=0.003,
        kernel_duration=0.08, decay_steps=6, decay_step_duration=0.007,
        noise_stddev=2_500.0, rng_seed=21,
    )
    TIMES = 0.25 + np.arange(200_000) * 1e-6  # 0.25 s to 0.45 s; the decay ends at 0.425 s
    LAUNCH = 0.3

    def test_launched_mid_grid(self):
        device = SyntheticDeviceProvider(self.MODEL)
        device.launch(self.LAUNCH)
        got = device.sample_grid(self.TIMES)
        assert (got == 0.0).sum() > 1_000  # idle readings clamped
        assert _sha(got) == "72a4acf2ccdaf707f8b36884236ccc26c9f315fdd6f48c33e5ce4ebc8bff610d"

    def test_unlaunched(self):
        got = SyntheticDeviceProvider(self.MODEL).sample_grid(self.TIMES)
        assert (got == 0.0).sum() > 10_000
        assert _sha(got) == "c06208934fad4228e0c7c704d5f19e58d8e9ed1563dae3cc7a003a70cf320b1c"


class TestNonFiniteTimes:
    """The profile's value at NaN and infinite times, shuffled among finite
    ones or at the ends of an ascending grid, pinned by hash."""

    def outputs(self):
        rng = np.random.default_rng(21)
        odd = np.array([np.nan, np.inf, -np.inf, np.nan, np.inf])
        for _ in range(100):
            model = random_model(rng)
            t_launch = float(rng.uniform(0.0, 1e3))
            times = profile_times(model, t_launch, rng)
            mixed = np.concatenate([times, odd])
            rng.shuffle(mixed)
            ascending = np.concatenate([[-np.inf, -np.inf], np.sort(times), [np.inf, np.inf]])
            for launch in (t_launch, math.inf):
                # an unlaunched ramp reads inf - inf at t = inf
                with np.errstate(invalid="ignore"):
                    for grid in (mixed, ascending, odd[:1], odd[1:2], odd[2:3]):
                        yield noise_free_grid(model, grid, launch)

    def test_pinned(self):
        digest = hashlib.sha256()
        for out in self.outputs():
            digest.update(out.tobytes())
        assert digest.hexdigest() == "1ec802440188a993c4946e27c9f4d49ad53a95e42cc025033369c7159c0c873a"
