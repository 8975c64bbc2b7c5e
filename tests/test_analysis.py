"""MAPE/RMSE statistics and strategy comparison."""

from fractions import Fraction

import numpy as np
import pytest

from instrujoule import (
    LengthMismatch,
    ZeroReference,
    compare_strategies,
    load_reference_table,
    mape,
    rmse,
)


class TestMape:
    def test_ten_percent(self):
        assert mape([110.0], [100.0]) == 10.0

    def test_identity_zero(self):
        assert mape([4.0, 5.0], [4.0, 5.0]) == 0.0

    def test_hand_arithmetic(self):
        # (100/2) * (0.1/4 + 0.2/4) = 3.75
        assert mape([3.9, 4.2], [4.0, 4.0]) == pytest.approx(3.75, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ZeroReference):
            mape([1.0], [0.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mape([1.0, 2.0], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatch):
            mape([], [])

    @pytest.mark.parametrize(
        "pred, truth", [([[1.0, 2.0]], [[1.0, 2.0]]), ([1.0, 2.0], [[1.0, 2.0]]), (1.0, 1.0)]
    )
    def test_not_a_1d_series_rejected(self, pred, truth):
        with pytest.raises(LengthMismatch) as exc:
            mape(pred, truth)
        assert str(exc.value) == "inputs must be 1-d series"

    def test_not_symmetric(self):
        # concrete asymmetry: swapping roles changes the answer
        assert mape([2.0], [1.0]) == 100.0
        assert mape([1.0], [2.0]) == 50.0


class TestRmse:
    def test_hand_case(self):
        assert rmse([3.0, 4.0], [0.0, 0.0]) == pytest.approx(
            np.sqrt(12.5), rel=1e-12
        )

    def test_identity_zero(self):
        assert rmse([1.5, 2.5], [1.5, 2.5]) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(17)
        a, b = rng.uniform(0, 10, 20), rng.uniform(0, 10, 20)
        assert rmse(a, b) == rmse(b, a)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(23)
        a = rng.uniform(0, 10, 30)
        b = a.copy()
        b[7] += 1e-6
        assert rmse(a, a) == 0.0
        assert rmse(a, b) > 0.0

    def test_against_exact_fraction_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            pred = [float(x) for x in rng.uniform(-100, 100, n)]
            truth = [float(x) for x in rng.uniform(-100, 100, n)]
            exact_ms = sum(
                (Fraction(p) - Fraction(t)) ** 2 for p, t in zip(pred, truth)
            ) / n
            got = rmse(pred, truth)
            assert got == pytest.approx(float(exact_ms) ** 0.5, rel=1e-12)


class TestPermutationInvariance:
    def test_both_stats_invariant_under_shuffles(self):
        rng = np.random.default_rng(41)
        pred = rng.uniform(1, 50, 25)
        truth = rng.uniform(1, 50, 25)
        base = (mape(pred, truth), rmse(pred, truth))
        for _ in range(20):
            order = rng.permutation(25)
            assert mape(pred[order], truth[order]) == pytest.approx(base[0], rel=1e-12)
            assert rmse(pred[order], truth[order]) == pytest.approx(base[1], rel=1e-12)


class TestCompareStrategies:
    def test_single_pair(self):
        comparison = compare_strategies([("x", 6.0, 5.0)])
        assert comparison.stats.mape == pytest.approx(20.0, rel=1e-12)
        assert comparison.stats.rmse == pytest.approx(1.0, rel=1e-12)
        assert comparison.stats.n == 1
        assert comparison.items[0].relative_error == pytest.approx(20.0)

    def test_composition_matches_direct_calls(self):
        rng = np.random.default_rng(47)
        triples = [(f"i{i}", float(p), float(t))
                   for i, (p, t) in enumerate(zip(rng.uniform(1, 9, 12), rng.uniform(1, 9, 12)))]
        comparison = compare_strategies(triples)
        pred = [t[1] for t in triples]
        ref = [t[2] for t in triples]
        assert comparison.stats.mape == mape(pred, ref)
        assert comparison.stats.rmse == rmse(pred, ref)

    def test_empty_rejected(self):
        with pytest.raises(LengthMismatch):
            compare_strategies([])

    def test_fixture_papi_vs_mtsm_regression_constant(self):
        # computed once over the bundled Volta optimized column by an
        # independent exact-arithmetic script and frozen here
        table = load_reference_table()
        pairs = []
        for row in table.rows:
            cell = row.cell("Volta", True)
            if cell is not None:
                pairs.append((row.label, cell.papi, cell.mtsm))
        comparison = compare_strategies(pairs)
        assert comparison.stats.n == 32
        assert comparison.stats.mape == pytest.approx(80.74839734075975, rel=1e-12)
