"""Provider semantics: step-hold replay, constants, simulated devices."""

import numpy as np
import pytest

from instrujoule import (
    ConstantPowerProvider,
    PowerTrace,
    ProviderExhausted,
    ReplayProvider,
    SyntheticDeviceProvider,
    SyntheticModel,
)


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
