"""Synthetic profile shape, determinism, and its ground-truth oracle."""

import dataclasses
import sys

import numpy as np
import pytest

from instrujoule import (
    InvalidModel,
    KernelWindow,
    SyntheticDeviceProvider,
    SyntheticModel,
    integrate_energy,
    synthesize,
)


# every model field but rng_seed, which takes an integer of any size
NON_SEED_FIELDS = [
    "p_idle", "p_kernel", "pre_rise_lead", "kernel_duration", "decay_steps",
    "decay_step_duration", "noise_stddev", "sample_rate", "idle_lead", "idle_tail", "ramp_mw",
]
# the ones of them that count, and so are checked as integers
INTEGER_FIELDS = ["decay_steps"]


def launched(model, t_launch):
    device = SyntheticDeviceProvider(model)
    device.launch(t_launch)
    return device


class TestModelValidation:
    def test_defaults_valid(self):
        SyntheticModel()

    def test_defaults(self):
        # what a synth:<model.json> that leaves a field out runs with
        assert SyntheticModel.from_dict({}).to_dict() == {
            "p_idle": 20_000.0, "p_kernel": 80_000.0, "pre_rise_lead": 0.002,
            "kernel_duration": 2.0, "decay_steps": 4, "decay_step_duration": 0.25,
            "noise_stddev": 0.0, "sample_rate": 2000.0, "rng_seed": 0,
            "idle_lead": 1.0, "idle_tail": 1.0, "ramp_mw": 0.0,
        }

    def test_zero_duration_rejected(self):
        with pytest.raises(InvalidModel):
            SyntheticModel(kernel_duration=0.0)

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidModel):
            SyntheticModel(noise_stddev=-1.0)

    def test_negative_decay_steps_rejected(self):
        with pytest.raises(InvalidModel, match="^decay_steps must be >= 0, got -1$"):
            SyntheticModel(decay_steps=-1)

    def test_zero_sample_rate_rejected(self):
        with pytest.raises(InvalidModel):
            SyntheticModel(sample_rate=0.0)

    def test_synthesize_raises_on_invalid(self):
        with pytest.raises(InvalidModel):
            synthesize(SyntheticModel(decay_step_duration=-1.0))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("noise_stddev", "noise_stddev must be >= 0, got nan"),
            ("sample_rate", "sample_rate must be > 0, got nan"),
            # the ids keep the names these cases had when the power levels shared one message
            pytest.param("p_idle", "p_idle must be >= 0, got nan", id="p_idle-power levels must be >= 0"),
            pytest.param("p_kernel", "p_kernel must be >= 0, got nan", id="p_kernel-power levels must be >= 0"),
            pytest.param("ramp_mw", "ramp_mw must be >= 0, got nan", id="ramp_mw-power levels must be >= 0"),
            ("kernel_duration", "kernel_duration must be > 0, got nan"),
            pytest.param("decay_steps", "decay_steps must be an integer, got nan",
                         id="decay_steps-decay_steps must be >= 0, got nan"),
        ],
    )
    def test_nan_rejected(self, field, message):
        # NaN fails every comparison, so each check must be written to fail on it
        with pytest.raises(InvalidModel) as exc:
            SyntheticModel(**{field: float("nan")})
        assert str(exc.value) == message

    @pytest.mark.parametrize("field", NON_SEED_FIELDS)
    def test_infinity_rejected(self, field):
        # infinity passes every `> 0` and `>= 0` check, so finiteness is its own
        with pytest.raises(InvalidModel) as exc:
            SyntheticModel(**{field: float("inf")})
        problem = "an integer" if field in INTEGER_FIELDS else "finite"
        assert str(exc.value) == f"{field} must be {problem}, got inf"

    @pytest.mark.parametrize(
        "seed, message",
        [
            # the ids keep the names these cases had before the integer fields shared one rule
            pytest.param(1.5, "rng_seed must be an integer, got 1.5",
                         id="1.5-rng_seed must be a non-negative integer, got 1.5"),
            pytest.param(1.0, "rng_seed must be an integer, got 1.0",
                         id="1.0-rng_seed must be a non-negative integer, got 1.0"),
            pytest.param(float("inf"), "rng_seed must be an integer, got inf",
                         id="inf-rng_seed must be a non-negative integer, got inf"),
            pytest.param(-1, "rng_seed must be >= 0, got -1", id="-1-rng_seed must be a non-negative integer, got -1"),
            pytest.param(True, "rng_seed must be an integer, got True", id="True-rng_seed must be a number, got True"),
            pytest.param("3", "rng_seed must be an integer, got '3'", id="3-rng_seed must be a number, got '3'"),
        ],
    )
    def test_bad_seed_rejected(self, seed, message):
        with pytest.raises(InvalidModel) as exc:
            SyntheticModel(rng_seed=seed)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field", ["p_idle", "kernel_duration", "decay_steps", "ramp_mw"])
    @pytest.mark.parametrize("value", ["5", None, False, np.True_])
    def test_non_number_rejected(self, field, value):
        # a string would meet a bare TypeError in the range checks, and a bool pass them
        with pytest.raises(InvalidModel) as exc:
            SyntheticModel(**{field: value})
        kind = "an integer" if field in INTEGER_FIELDS else "a number"
        assert str(exc.value) == f"{field} must be {kind}, got {value!r}"

    @pytest.mark.parametrize("field", NON_SEED_FIELDS)
    def test_int_too_large_for_a_float_rejected(self, field):
        # math.isfinite raises OverflowError on such an int
        with pytest.raises(InvalidModel) as exc:
            SyntheticModel(**{field: 10**400})
        if field in INTEGER_FIELDS:  # an integer count is checked as an integer, not as a float
            assert str(exc.value) == f"{field} must be <= {sys.float_info.max}, got {10**400}"
        else:
            assert str(exc.value) == f"{field} is too large for a float"

    def test_seed_of_any_size_accepted(self):
        # np.random.default_rng takes any non-negative int
        trace, _ = synthesize(SyntheticModel(rng_seed=10**400, kernel_duration=0.01, noise_stddev=5.0))
        assert np.isfinite(trace.powers).all()

    @pytest.mark.parametrize("steps", [2.5, 2.0, np.float64(3.0)])
    def test_fractional_decay_steps_rejected(self, steps):
        with pytest.raises(InvalidModel) as exc:
            SyntheticModel(decay_steps=steps)
        assert str(exc.value) == f"decay_steps must be an integer, got {steps!r}"

    def test_numpy_numbers_accepted(self):
        SyntheticModel(rng_seed=np.int64(3), decay_steps=np.int64(2), p_idle=np.float64(1.0))

    def test_synthesize_rejects_infinite_idle_tail(self):
        # past the check, the grid size overflows
        with pytest.raises(InvalidModel, match="idle_tail must be finite"):
            synthesize(SyntheticModel(idle_tail=float("inf")))

    def test_synthesize_rejects_nan_sample_rate(self):
        with pytest.raises(InvalidModel):
            synthesize(SyntheticModel(sample_rate=float("nan")))

    def test_dict_round_trip(self):
        model = SyntheticModel(p_idle=1.0, rng_seed=9)
        assert SyntheticModel.from_dict(model.to_dict()) == model

    def test_unknown_field_rejected(self):
        with pytest.raises(InvalidModel):
            SyntheticModel.from_dict({"p_idl": 3.0})

    @pytest.mark.parametrize(
        "data, kind",
        [([], "array"), (5, "number"), (1.5, "number"), (None, "null"), ("abc", "string"), (True, "boolean")],
    )
    def test_non_object_json_rejected(self, data, kind):
        with pytest.raises(InvalidModel) as exc:
            SyntheticModel.from_dict(data)
        assert str(exc.value) == f"model JSON must be an object, got {kind}"

    def test_replace_checks_the_new_model(self):
        with pytest.raises(InvalidModel) as exc:
            dataclasses.replace(SyntheticModel(), kernel_duration=-1.0)
        assert str(exc.value) == "kernel_duration must be > 0, got -1.0"

    def test_synthesize_rejects_a_grid_that_ends_inside_the_window(self):
        # one sample a second ends the grid at 3 s, before the window's end at 3.002 s
        model = SyntheticModel(sample_rate=1.0, decay_steps=0, idle_tail=0.1)
        with pytest.raises(InvalidModel) as exc:
            synthesize(model)
        assert str(exc.value) == (
            "sample grid does not cover the kernel window; increase idle_tail or sample_rate"
        )


    def test_synthesize_accepts_a_grid_that_ends_at_the_window_end(self):
        # 1000 samples a second end the grid at 1.0 s, the window's end itself
        model = SyntheticModel(idle_lead=0.5, pre_rise_lead=0.25, kernel_duration=0.25,
                               decay_steps=0, sample_rate=1000.0, idle_tail=0.0005)
        trace, truth = synthesize(model)
        assert trace.times[-1] == truth.window.end == 1.0


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
        assert launched(model, 1.0).sample_grid(np.array([0.0, 1.5])).tolist() == [5.0, 15.0]

    def test_scalar_and_vectorized_paths_agree(self):
        model = SyntheticModel(
            p_idle=1_000.0, p_kernel=9_000.0, ramp_mw=2_000.0,
            pre_rise_lead=0.05, kernel_duration=0.7,
            decay_steps=3, decay_step_duration=0.2, noise_stddev=0.0,
        )
        grid = np.linspace(-0.5, 3.0, 5000)
        device = launched(model, 0.3)
        vec = device.sample_grid(grid)
        scal = [device.next_sample(float(t)) for t in grid]
        assert np.array_equal(vec, np.array(scal))

    @pytest.mark.parametrize("ramp_mw", [0.5, 1.0])
    def test_a_ramp_of_at_most_1_mw_climbs(self, ramp_mw):
        # launched at 0 s, the window is [0.25, 1.25] s: half the ramp at its
        # middle, all of it at its end, read one at a time and as a grid
        model = SyntheticModel(p_idle=0.0, p_kernel=100.0, ramp_mw=ramp_mw,
                               pre_rise_lead=0.25, kernel_duration=1.0)
        times, want = [0.75, 1.25], [100.0 + ramp_mw / 2, 100.0 + ramp_mw]
        one_at_a_time, grid = SyntheticDeviceProvider(model), SyntheticDeviceProvider(model)
        one_at_a_time.launch(0.0)
        grid.launch(0.0)
        assert [one_at_a_time.next_sample(t) for t in times] == want
        assert grid.sample_grid(np.array(times)).tolist() == want

    def test_ramp_peaks_at_window_end(self):
        model = SyntheticModel(
            p_idle=0.0, p_kernel=100.0, ramp_mw=40.0, kernel_duration=1.0, noise_stddev=0.0
        )
        w = model.window_for_launch(0.0)
        end, mid, past = launched(model, 0.0).sample_grid(np.array([w.end, (w.start + w.end) / 2, w.end + 1e-6]))
        assert end == pytest.approx(140.0)
        assert mid == pytest.approx(120.0)
        # just past the end the decay has begun
        assert past < 140.0


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
