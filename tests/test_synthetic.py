"""Synthetic profile shape, determinism, and its ground-truth oracle."""

import numpy as np
import pytest

from instrujoule import (
    InvalidModel,
    KernelWindow,
    SyntheticModel,
    integrate_energy,
    noise_free_power,
    synthesize,
)


class TestModelValidation:
    def test_defaults_valid(self):
        SyntheticModel().validate()

    def test_zero_duration_rejected(self):
        with pytest.raises(InvalidModel):
            SyntheticModel(kernel_duration=0.0).validate()

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidModel):
            SyntheticModel(noise_stddev=-1.0).validate()

    def test_zero_sample_rate_rejected(self):
        with pytest.raises(InvalidModel):
            SyntheticModel(sample_rate=0.0).validate()

    def test_synthesize_raises_on_invalid(self):
        with pytest.raises(InvalidModel):
            synthesize(SyntheticModel(decay_step_duration=-1.0))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("noise_stddev", "noise_stddev must be >= 0, got nan"),
            ("sample_rate", "sample_rate must be > 0, got nan"),
            ("p_idle", "power levels must be >= 0"),
            ("p_kernel", "power levels must be >= 0"),
            ("ramp_mw", "power levels must be >= 0"),
            ("kernel_duration", "kernel_duration must be > 0, got nan"),
        ],
    )
    def test_nan_rejected(self, field, message):
        # NaN fails every comparison, so each check must be written to fail on it
        with pytest.raises(InvalidModel) as exc:
            SyntheticModel(**{field: float("nan")}).validate()
        assert str(exc.value) == message

    def test_synthesize_rejects_nan_sample_rate(self):
        with pytest.raises(InvalidModel):
            synthesize(SyntheticModel(sample_rate=float("nan")))

    def test_dict_round_trip(self):
        model = SyntheticModel(p_idle=1.0, rng_seed=9)
        assert SyntheticModel.from_dict(model.to_dict()) == model

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidModel):
            SyntheticModel.from_dict({"p_idl": 3.0})


class TestTruth:
    def test_plateau_closed_form(self):
        # 100,000 mW plateau for 2 s -> 200,000 mJ (200 J)
        model = SyntheticModel(
            p_idle=20_000.0, p_kernel=80_000.0, kernel_duration=2.0, noise_stddev=0.0
        )
        _, truth = synthesize(model)
        assert truth.true_energy == 200_000.0
        assert truth.window.span == pytest.approx(2.0)

    def test_ramp_adds_half_height(self):
        model = SyntheticModel(
            p_idle=0.0, p_kernel=100.0, ramp_mw=50.0, kernel_duration=4.0
        )
        assert model.true_window_energy() == pytest.approx((100.0 + 25.0) * 4.0)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        model = SyntheticModel(noise_stddev=500.0, rng_seed=42)
        t1, _ = synthesize(model)
        t2, _ = synthesize(model)
        assert np.array_equal(t1.times, t2.times)
        assert np.array_equal(t1.powers, t2.powers)

    def test_different_seed_differs(self):
        base = SyntheticModel(noise_stddev=500.0, rng_seed=1)
        other = SyntheticModel(noise_stddev=500.0, rng_seed=2)
        assert not np.array_equal(synthesize(base)[0].powers, synthesize(other)[0].powers)


class TestShape:
    def test_decay_steps_distinct_plateaus(self):
        model = SyntheticModel(
            p_idle=10_000.0,
            p_kernel=40_000.0,
            decay_steps=3,
            decay_step_duration=0.5,
            noise_stddev=0.0,
        )
        trace, truth = synthesize(model)
        after = trace.powers[trace.times > truth.window.end]
        descending = [p for p in after if p > model.p_idle]
        levels = sorted(set(descending), reverse=True)
        assert len(levels) == 3
        drops = np.diff([model.p_idle + model.p_kernel] + levels + [model.p_idle])
        assert np.allclose(drops, drops[0])  # equal-height steps

    def test_idle_before_launch(self):
        model = SyntheticModel(noise_stddev=0.0)
        trace, _ = synthesize(model)
        before = trace.powers[trace.times < model.idle_lead]
        assert np.all(before == model.p_idle)

    def test_rise_precedes_window(self):
        model = SyntheticModel(noise_stddev=0.0, pre_rise_lead=0.01)
        trace, truth = synthesize(model)
        pre_window = (trace.times >= model.idle_lead) & (trace.times < truth.window.start)
        assert np.all(trace.powers[pre_window] == model.p_idle + model.p_kernel)

    def test_noise_free_power_scalar(self):
        model = SyntheticModel(p_idle=5.0, p_kernel=10.0, noise_stddev=0.0)
        assert noise_free_power(model, 0.0, t_launch=1.0) == 5.0
        assert noise_free_power(model, 1.5, t_launch=1.0) == 15.0

    def test_scalar_and_vectorized_paths_agree(self):
        model = SyntheticModel(
            p_idle=1_000.0, p_kernel=9_000.0, ramp_mw=2_000.0,
            pre_rise_lead=0.05, kernel_duration=0.7,
            decay_steps=3, decay_step_duration=0.2, noise_stddev=0.0,
        )
        grid = np.linspace(-0.5, 3.0, 5000)
        vec = noise_free_power(model, grid, t_launch=0.3)
        scal = [noise_free_power(model, float(t), t_launch=0.3) for t in grid]
        assert np.array_equal(vec, np.array(scal))

    def test_ramp_peaks_at_window_end(self):
        model = SyntheticModel(
            p_idle=0.0, p_kernel=100.0, ramp_mw=40.0, kernel_duration=1.0, noise_stddev=0.0
        )
        w = model.window_for_launch(0.0)
        assert noise_free_power(model, w.end, 0.0) == pytest.approx(140.0)
        assert noise_free_power(model, (w.start + w.end) / 2, 0.0) == pytest.approx(120.0)
        # just past the end the decay has begun
        assert noise_free_power(model, w.end + 1e-6, 0.0) < 140.0


class TestTraceLevelOracle:
    def test_sample_mean_integration_converges_to_truth(self):
        # at 2 kHz over a >= 1 s plateau the discretization error stays
        # within 0.2 percent
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = SyntheticModel(
                p_idle=float(rng.uniform(5e3, 4e4)),
                p_kernel=float(rng.uniform(2e4, 2e5)),
                kernel_duration=float(rng.uniform(1.0, 3.0)),
                noise_stddev=0.0,
                sample_rate=2000.0,
            )
            trace, truth = synthesize(model)
            measured = integrate_energy(trace, truth.window)
            assert measured == pytest.approx(truth.true_energy, rel=2e-3)

    def test_error_shrinks_with_rate(self):
        model_lo = SyntheticModel(noise_stddev=0.0, sample_rate=100.0)
        model_hi = SyntheticModel(noise_stddev=0.0, sample_rate=20_000.0)
        errs = []
        for model in (model_lo, model_hi):
            trace, truth = synthesize(model)
            errs.append(abs(integrate_energy(trace, truth.window) - truth.true_energy))
        assert errs[1] <= errs[0]

    def test_window_annotation_matches_truth(self):
        trace, truth = synthesize(SyntheticModel())
        assert trace.window == truth.window
        assert isinstance(truth.window, KernelWindow)
