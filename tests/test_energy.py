"""Energy arithmetic against hand-computed and exact-arithmetic oracles."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from instrujoule import (
    EmptyWindow,
    KernelWindow,
    MalformedTrace,
    PowerTrace,
    ZeroInstructions,
    energy_from_readings,
    instruction_energy,
    integrate_energy,
)

from oracles import integrate_energy_trapezoid


def uniform_trace(start, end, n, powers, window=None):
    times = np.linspace(start, end, n)
    return PowerTrace(times, powers, window)


class TestIntegrateEnergy:
    def test_constant_four_samples(self):
        # elapsed 2 s, four 100 mW samples -> (2/4) * 400 = 200 mJ
        trace = uniform_trace(0.0, 2.0, 4, [100.0] * 4)
        assert integrate_energy(trace, KernelWindow(0.0, 2.0)) == 200.0

    def test_two_sample_mean(self):
        # elapsed 1 s, samples 0 and 200 mW -> mean 100 mW -> 100 mJ
        trace = PowerTrace([0.0, 1.0], [0.0, 200.0])
        assert integrate_energy(trace, KernelWindow(0.0, 1.0)) == 100.0

    def test_boundary_samples_included(self):
        trace = PowerTrace([0.0, 1.0, 2.0], [100.0, 100.0, 100.0])
        # closed interval: the samples at exactly 1.0 and 2.0 both count
        assert integrate_energy(trace, KernelWindow(1.0, 2.0)) == 100.0

    def test_single_sample_window(self):
        trace = PowerTrace([0.0, 1.0, 2.0], [50.0, 80.0, 50.0])
        assert integrate_energy(trace, KernelWindow(0.5, 1.5)) == pytest.approx(80.0)

    def test_empty_window(self):
        trace = PowerTrace([0.0, 1.0], [100.0, 100.0])
        with pytest.raises(EmptyWindow):
            integrate_energy(trace, KernelWindow(0.4, 0.6))

    def test_linearity_in_power(self):
        rng = np.random.default_rng(7)
        times = np.sort(rng.uniform(0, 10, 200))
        times += np.arange(200) * 1e-9  # enforce strictly increasing
        powers = rng.uniform(0, 5e5, 200)
        window = KernelWindow(2.0, 8.0)
        base = integrate_energy(PowerTrace(times, powers), window)
        for alpha in (0.0, 0.5, 3.0):
            scaled = integrate_energy(PowerTrace(times, alpha * powers), window)
            assert scaled == pytest.approx(alpha * base, rel=1e-12, abs=1e-9)

    def test_window_additivity_uniform_sampling(self):
        # split a uniformly sampled window into halves with equal counts
        n = 1000
        times = np.arange(n) * 0.001
        rng = np.random.default_rng(11)
        powers = rng.uniform(1e4, 1e5, n)
        full = KernelWindow(0.0, 0.999)
        left = KernelWindow(0.0, 0.4995)
        right = KernelWindow(0.4996, 0.999)
        e_full = integrate_energy(PowerTrace(times, powers), full)
        e_sum = integrate_energy(PowerTrace(times, powers), left) + integrate_energy(
            PowerTrace(times, powers), right
        )
        quantum = full.span / n * powers.max()
        assert abs(e_full - e_sum) <= quantum

    def test_compensated_path_large_trace(self):
        n = 1_200_000
        times = np.arange(n) * 1e-3
        powers = np.full(n, 123.25)
        window = KernelWindow(0.0, float(times[-1]))
        expected = window.span / n * (123.25 * n)
        assert integrate_energy(PowerTrace(times, powers), window) == pytest.approx(
            expected, rel=1e-12
        )


class TestTrapezoidOracle:
    def test_constant_equals_sample_mean_exactly(self):
        trace = uniform_trace(0.0, 2.0, 5, [250.0] * 5)
        w = KernelWindow(0.0, 2.0)
        assert integrate_energy_trapezoid(trace, w) == integrate_energy(trace, w)

    def test_linear_ramp_analytic(self):
        # 0 -> 200 mW over 1 s integrates to 100 mJ; trapezoid is exact on a ramp
        times = np.linspace(0.0, 1.0, 101)
        powers = 200.0 * times
        trace = PowerTrace(times, powers)
        assert integrate_energy_trapezoid(trace, KernelWindow(0.0, 1.0)) == pytest.approx(
            100.0, rel=1e-12
        )

    def test_agrees_with_sample_mean_on_plateau(self):
        from instrujoule import SyntheticModel, synthesize

        trace, truth = synthesize(SyntheticModel(noise_stddev=0.0))
        w = truth.window
        e_mean = integrate_energy(trace, w)
        e_trap = integrate_energy_trapezoid(trace, w)
        n = np.count_nonzero((trace.times >= w.start) & (trace.times <= w.end))
        quantum = w.span / n * trace.powers.max()
        assert abs(e_mean - e_trap) <= quantum

    def test_empty_window(self):
        trace = PowerTrace([0.0, 1.0], [100.0, 100.0])
        with pytest.raises(EmptyWindow):
            integrate_energy_trapezoid(trace, KernelWindow(0.2, 0.8))


class TestInstructionEnergy:
    def test_basic_extraction(self):
        # (10,000 - 5,000) mJ over 5e6 instructions -> 1 uJ each
        assert instruction_energy(10_000.0, 5_000.0, 5_000_000) == pytest.approx(1.0)

    def test_identity_zero(self):
        assert instruction_energy(123.456, 123.456, 42) == 0.0

    def test_reference_value_backsolved(self):
        # 19,353 mJ net over 5e6 instructions reproduces the 3.8706 uJ
        # unsigned-div reference cell
        overhead = 5_000.0
        value = instruction_energy(19_353.0 + overhead, overhead, 5_000_000)
        assert value == pytest.approx(3.8706, rel=1e-12)

    def test_negative_net_propagates(self):
        assert instruction_energy(5.0, 10.0, 1000) < 0

    @pytest.mark.parametrize("n, problem", [
        (0, "must be >= 1, got 0"),
        (-3, "must be >= 1, got -3"),
        (np.int64(0), "must be >= 1, got 0"),
        (float("nan"), "must be an integer, got nan"),
        (float("inf"), "must be an integer, got inf"),
        (2.5, "must be an integer, got 2.5"),
        (1.0, "must be an integer, got 1.0"),
        (True, "must be an integer, got True"),
        (np.bool_(True), f"must be an integer, got {np.True_!r}"),
        ("3", "must be an integer, got '3'"),
        (10**400, f"must be <= {sys.float_info.max}, got {10**400}"),
        (np.False_, f"must be an integer, got {np.False_!r}"),
    ], ids=["0", "-3", "int64-0", "nan", "inf", "2.5", "1.0", "True", "bool_-True", "str", "10**400", "bool_-False"])
    def test_zero_instructions(self, n, problem):
        # a count is an int or a numpy integer, not a bool, from 1 to the largest float
        with pytest.raises(ZeroInstructions) as exc:
            instruction_energy(10.0, 5.0, n)
        assert str(exc.value) == f"n_instructions {problem}"

    @pytest.mark.parametrize("n", [1, np.int64(7), np.uint8(255), int(sys.float_info.max)],
                             ids=["1", "int64-7", "uint8-255", "float-max"])
    def test_integer_counts(self, n):
        assert instruction_energy(10.0, 5.0, n) == 5.0 / float(n) * 1000.0

    def test_exactness_against_fraction_oracle(self):
        # acceptance-grade check lives in test_acceptance; keep a smaller
        # randomized version close to the unit under test
        rng = np.random.default_rng(3)
        for _ in range(200):
            e_total = float(rng.uniform(0, 1e6))
            e_overhead = float(rng.uniform(0, e_total))
            n = int(rng.integers(1, 10_000_000))
            got = instruction_energy(e_total, e_overhead, n)
            exact = (Fraction(e_total) - Fraction(e_overhead)) / n * 1000
            if exact == 0:
                assert got == 0.0
            else:
                rel = abs(Fraction(got) - exact) / abs(exact)
                assert rel <= Fraction(1, 10**12)


class TestEnergyFromReadings:
    def test_matches_formula(self):
        powers = [10.0, 20.0, 30.0]
        assert energy_from_readings(powers, 3.0) == pytest.approx(3.0 / 3 * 60.0)

    def test_no_readings(self):
        with pytest.raises(EmptyWindow):
            energy_from_readings([], 1.0)

    @pytest.mark.parametrize("bad", [[1.0, math.nan], [1.0, math.inf], [-math.inf, 2.0]])
    def test_nonfinite_reading_rejected(self, bad):
        with pytest.raises(MalformedTrace, match="non-finite power reading"):
            energy_from_readings(bad, 1.0)

    @pytest.mark.parametrize("elapsed", [math.nan, math.inf, -math.inf, -2.0, -5e-324])
    def test_bad_elapsed_rejected(self, elapsed):
        rule = "finite" if elapsed == math.inf else ">= 0"
        with pytest.raises(ValueError, match=f"^elapsed must be {rule}, got {elapsed}$"):
            energy_from_readings([1.0], elapsed)

    @pytest.mark.parametrize("elapsed", [0.0, -0.0, 5e-324, sys.float_info.max])
    def test_edge_elapsed_accepted(self, elapsed):
        assert energy_from_readings([1.0], elapsed) == elapsed

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 4097])
    def test_sum_is_np_sum_bit_for_bit(self, n):
        # sizes around numpy's pairwise-summation blocks of 8 and 128
        powers = np.random.default_rng(n).uniform(0.0, 1e5, n)
        want = 2.5 / n * float(np.sum(powers))
        assert energy_from_readings(powers, 2.5).hex() == want.hex()
        assert energy_from_readings(powers.tolist(), 2.5).hex() == want.hex()

    def test_fsum_kicks_in(self):
        n = 1_000_001
        powers = np.full(n, 0.1)
        expected = 1.0 / n * math.fsum([0.1] * 3) / 3 * n  # = mean 0.1 * 1s
        assert energy_from_readings(powers, 1.0) == pytest.approx(expected, rel=1e-12)
