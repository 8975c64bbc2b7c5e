"""Two-rail sensing rig arithmetic against an independently coded oracle."""

import io
import math

import numpy as np
import pytest

from instrujoule import (
    HwCapture,
    HwSample,
    KernelWindow,
    MalformedCapture,
    MalformedTrace,
    MissingShunt,
    PowerTrace,
    hw_energy,
    hw_power,
    hw_power_trace,
    integrate_energy,
    load_hw_capture,
    save_hw_capture,
)
from instrujoule import _csv

CHANNELS = ("v_s1", "v_g1", "v_s2", "v_g2", "i_clamp", "v_dps")


def oracle_total_watts(v_s1, v_g1, v_s2, v_g2, i_clamp, v_dps, r_s):
    """Separately written scalar evaluation of the rig power equation."""
    i_12v = (v_s1 - v_g1) / r_s
    i_3v3 = (v_s2 - v_g2) / r_s
    return i_12v * v_g1 + i_3v3 * v_g2 + i_clamp * v_dps


def ulp_distance(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def make_capture(n=4, r_s=0.1, seed=0):
    rng = np.random.default_rng(seed)
    times = np.arange(n) * 0.001
    channels = {
        "v_s1": rng.uniform(11.9, 12.3, n),
        "v_g1": rng.uniform(11.7, 11.9, n),
        "v_s2": rng.uniform(3.3, 3.5, n),
        "v_g2": rng.uniform(3.1, 3.3, n),
        "i_clamp": rng.uniform(0.0, 25.0, n),
        "v_dps": rng.uniform(11.8, 12.2, n),
    }
    return HwCapture(times, channels, r_s)


class TestHwPower:
    def test_worked_example(self):
        # 12.1/12.0 V and 3.4/3.3 V across 0.1 ohm, 10 A at 12 V
        # -> 12.0 + 3.3 + 120.0 = 135.3 W
        point = hw_power(HwSample(0.0, 12.1, 12.0, 3.4, 3.3, 10.0, 12.0), r_s=0.1)
        assert point.p_pcie_12v == pytest.approx(12.0)
        assert point.p_pcie_3v3 == pytest.approx(3.3)
        assert point.p_dps == pytest.approx(120.0)
        assert point.p_total == pytest.approx(135.3, rel=1e-12)

    def test_identity_zero(self):
        point = hw_power(HwSample(0.0, 12.0, 12.0, 3.3, 3.3, 0.0, 12.0), r_s=0.05)
        assert point.p_total == 0.0

    def test_total_is_component_sum(self):
        point = hw_power(HwSample(0.0, 12.2, 11.9, 3.42, 3.31, 7.5, 12.04), r_s=0.02)
        assert point.p_total == point.p_pcie_12v + point.p_pcie_3v3 + point.p_dps

    def test_random_samples_match_oracle_to_one_ulp(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            args = (
                float(rng.uniform(10, 13)),
                float(rng.uniform(10, 13)),
                float(rng.uniform(3, 4)),
                float(rng.uniform(3, 4)),
                float(rng.uniform(0, 30)),
                float(rng.uniform(11, 13)),
            )
            r_s = float(rng.uniform(0.01, 0.5))
            got = hw_power(HwSample(0.0, *args), r_s).p_total
            want = oracle_total_watts(*args, r_s)
            assert ulp_distance(got, want) <= 1.0

    def test_rail_swap_leaves_total_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.uniform(3, 13, 4)
            i_clamp, v_dps = float(rng.uniform(0, 20)), float(rng.uniform(11, 13))
            r_s = 0.1
            a = hw_power(HwSample(0.0, v[0], v[1], v[2], v[3], i_clamp, v_dps), r_s).p_total
            b = hw_power(HwSample(0.0, v[2], v[3], v[0], v[1], i_clamp, v_dps), r_s).p_total
            assert a == pytest.approx(b, rel=1e-12)

    def test_shunt_terms_scale_quadratically(self):
        # scaling all voltages and the clamp current by alpha scales every
        # term by alpha^2 (the clamp term because v_dps scales too)
        alpha = 3.0
        base = HwSample(0.0, 12.1, 12.0, 3.4, 3.3, 10.0, 12.0)
        scaled = HwSample(
            0.0, alpha * 12.1, alpha * 12.0, alpha * 3.4, alpha * 3.3,
            alpha * 10.0, alpha * 12.0,
        )
        p0 = hw_power(base, 0.1)
        p1 = hw_power(scaled, 0.1)
        assert p1.p_pcie_12v == pytest.approx(alpha**2 * p0.p_pcie_12v, rel=1e-12)
        assert p1.p_pcie_3v3 == pytest.approx(alpha**2 * p0.p_pcie_3v3, rel=1e-12)
        assert p1.p_dps == pytest.approx(alpha**2 * p0.p_dps, rel=1e-12)
        assert p1.p_total == pytest.approx(alpha**2 * p0.p_total, rel=1e-12)

    def test_bad_shunt_rejected(self):
        with pytest.raises(ValueError, match="^shunt resistance must be > 0, got 0.0$"):
            hw_power(HwSample(0.0, 12, 12, 3, 3, 0, 12), r_s=0.0)

    @pytest.mark.parametrize("r_s", [np.True_, "0.1"])
    def test_non_number_shunt_rejected(self, r_s):
        with pytest.raises(ValueError) as exc:
            hw_power(HwSample(0.0, 12, 12, 3, 3, 0, 12), r_s=r_s)
        assert str(exc.value) == f"shunt resistance must be a number, got {r_s!r}"

    @pytest.mark.parametrize("r_s", [-0.1, float("nan"), float("inf")])
    def test_negative_or_non_finite_shunt_rejected(self, r_s):
        rule = "finite" if r_s == float("inf") else "> 0"
        with pytest.raises(ValueError, match=f"^shunt resistance must be {rule}, got {r_s}$"):
            hw_power(HwSample(0.0, 12, 12, 3, 3, 0, 12), r_s=r_s)


class TestCaptureIO:
    CSV = (
        "# r_s_ohm: 0.1\n"
        "t_s,v_s1,v_g1,v_s2,v_g2,i_clamp_a,v_dps\n"
        "0,12.1,12,3.4,3.3,10,12\n"
        "0.001,12.1,12,3.4,3.3,10,12\n"
        "0.002,12.1,12,3.4,3.3,10,12\n"
    )

    def test_well_formed(self):
        capture = load_hw_capture(self.CSV.encode())
        assert len(capture) == 3
        assert capture.r_s == 0.1
        assert capture.channels["v_s1"][0] == 12.1

    def test_missing_shunt(self):
        body = "\n".join(self.CSV.splitlines()[1:]) + "\n"
        with pytest.raises(MissingShunt):
            load_hw_capture(body.encode())

    def test_non_monotonic_rejected(self):
        bad = self.CSV.replace("0.002,", "0.0005,")
        with pytest.raises(MalformedCapture):
            load_hw_capture(bad.encode())

    def test_nan_rejected(self):
        bad = self.CSV.replace("0.001,12.1", "0.001,nan")
        with pytest.raises(MalformedCapture):
            load_hw_capture(bad.encode())

    def test_wrong_field_count_reports_line(self):
        bad = self.CSV + "0.003,1,2\n"
        with pytest.raises(MalformedCapture) as exc:
            load_hw_capture(bad.encode())
        assert exc.value.line == 6

    def test_round_trip(self, tmp_path):
        capture = make_capture(n=6, seed=2)
        path = tmp_path / "cap.csv"
        save_hw_capture(capture, path)
        back = load_hw_capture(path)
        assert back.r_s == capture.r_s
        assert np.allclose(back.times, capture.times, rtol=1e-8)
        for name in capture.channels:
            assert np.allclose(back.channels[name], capture.channels[name], rtol=1e-8)


class TestCaptureValidation:
    @pytest.mark.parametrize("r_s", [0.0, -0.1, float("nan")])
    def test_non_positive_shunt(self, r_s):
        with pytest.raises(MalformedCapture, match="shunt resistance must be > 0"):
            make_capture(r_s=r_s)

    def test_infinite_shunt(self):
        with pytest.raises(MalformedCapture, match="^shunt resistance must be finite, got inf$"):
            make_capture(r_s=float("inf"))

    def test_capture_that_would_not_reload_is_refused(self, tmp_path):
        capture = make_capture()
        late = HwCapture(1e5 + capture.times / 10, capture.channels, capture.r_s)
        with pytest.raises(MalformedCapture) as exc:
            save_hw_capture(late, tmp_path / "c.csv")
        assert str(exc.value) == "times at rows 0 and 1 both print as 100000; the CSV would not read back"
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("r_s", [True, "0.1"])
    def test_non_number_shunt(self, r_s):
        with pytest.raises(MalformedCapture) as exc:
            make_capture(r_s=r_s)
        assert str(exc.value) == f"shunt resistance must be a number, got {r_s!r}"

    def test_infinite_shunt_comment(self):
        # both shunt rails would read zero, leaving the clamp rail alone
        bad = TestCaptureIO.CSV.replace("r_s_ohm: 0.1", "r_s_ohm: inf")
        with pytest.raises(MalformedCapture, match="^shunt resistance must be finite, got inf$"):
            load_hw_capture(bad.encode())

    @pytest.mark.parametrize("r_s", ["0", "-1", "nan", "inf"])
    def test_bad_shunt_comment_refused_before_the_body_is_parsed(self, r_s, monkeypatch):
        def parse(*args):
            raise AssertionError("the body was parsed")

        monkeypatch.setattr(_csv.Reader, "_loadtxt", parse)
        monkeypatch.setattr(_csv.Reader, "_scan", parse)
        with pytest.raises(MalformedCapture) as want:
            make_capture(r_s=float(r_s))
        bad = TestCaptureIO.CSV.replace("r_s_ohm: 0.1", f"r_s_ohm: {r_s}")
        with pytest.raises(MalformedCapture) as exc:
            load_hw_capture(bad.encode())
        assert str(exc.value) == str(want.value)

    def test_immutable(self):
        capture = make_capture()
        with pytest.raises(AttributeError, match="^HwCapture is immutable$"):
            capture.r_s = 1.0
        assert capture.r_s != 1.0

    def test_channel_length_differs_from_timestamps(self):
        capture = make_capture()
        channels = dict(capture.channels, v_g2=capture.channels["v_g2"][:-1])
        with pytest.raises(MalformedCapture, match="channel v_g2 length differs from timestamps"):
            HwCapture(capture.times, channels, capture.r_s)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_channel_value(self, bad):
        capture = make_capture()
        i_clamp = capture.channels["i_clamp"].copy()
        i_clamp[2] = bad
        with pytest.raises(MalformedCapture, match="non-finite value in channel i_clamp"):
            HwCapture(capture.times, dict(capture.channels, i_clamp=i_clamp), capture.r_s)


class TestPowerTrace:
    def test_constant_capture_milliwatts(self):
        capture = load_hw_capture(TestCaptureIO.CSV.encode())
        trace = hw_power_trace(capture)
        assert np.allclose(trace.powers, 135_300.0, rtol=1e-12)

    def test_empty_capture_empty_trace(self):
        capture = HwCapture([], {name: [] for name in
                                  ("v_s1", "v_g1", "v_s2", "v_g2", "i_clamp", "v_dps")}, 0.1)
        assert len(hw_power_trace(capture)) == 0

    def test_channel_construction_inverts_to_target_profile(self):
        # build channels that should produce a chosen power profile, then
        # check the rig arithmetic recovers it
        rng = np.random.default_rng(9)
        n = 50
        times = np.arange(n) * 0.01
        target_w = rng.uniform(50.0, 250.0, n)
        # put a fixed 30 W on each shunt rail and the remainder on the clamp
        r_s = 0.1
        v_g1 = np.full(n, 12.0)
        v_s1 = v_g1 + (30.0 / v_g1) * r_s
        v_g2 = np.full(n, 3.3)
        v_s2 = v_g2 + (30.0 / v_g2) * r_s
        v_dps = np.full(n, 12.0)
        i_clamp = (target_w - 60.0) / v_dps
        capture = HwCapture(
            times,
            {"v_s1": v_s1, "v_g1": v_g1, "v_s2": v_s2, "v_g2": v_g2,
             "i_clamp": i_clamp, "v_dps": v_dps},
            r_s,
        )
        trace = hw_power_trace(capture)
        assert np.allclose(trace.powers, target_w * 1000.0, rtol=1e-9)

    def test_matches_scalar_hw_power_pointwise(self):
        capture = make_capture(n=20, seed=4)
        trace = hw_power_trace(capture)
        for i in range(len(capture)):
            row = (float(capture.channels[name][i]) for name in CHANNELS)
            point = hw_power(HwSample(float(capture.times[i]), *row), capture.r_s)
            assert trace.powers[i] == pytest.approx(point.p_total * 1000.0, rel=1e-12)


class TestTimestampsMatchTraces:
    @pytest.mark.parametrize(
        "times, message",
        [
            ([0.0, float("nan"), 2.0], "non-finite timestamp"),
            ([0.0, 1.0, float("inf")], "non-finite timestamp"),
            ([0.0, 1.0, 1.0], "timestamps not strictly increasing at index 2"),
            ([0.0, 2.0, 1.0, 3.0], "timestamps not strictly increasing at index 2"),
            ([3.0, 1.0], "timestamps not strictly increasing at index 1"),
            # a non-finite time is named before an order fault around it
            ([0.0, 2.0, float("nan"), 1.0], "non-finite timestamp"),
            ([0.0, float("nan"), 0.0], "non-finite timestamp"),
            ([-float("inf"), 0.0, 1.0], "non-finite timestamp"),
            ([-float("inf"), -float("inf")], "non-finite timestamp"),
            ([1.0, 0.0, float("inf")], "non-finite timestamp"),
            ([float("inf"), 0.0], "non-finite timestamp"),
            ([float("nan")], "non-finite timestamp"),
        ],
    )
    def test_same_message_own_error_class(self, times, message):
        ones = [1.0] * len(times)
        with pytest.raises(MalformedTrace) as trace_error:
            PowerTrace(times, ones)
        with pytest.raises(MalformedCapture) as capture_error:
            HwCapture(times, dict.fromkeys(CHANNELS, ones), 0.1)
        assert type(trace_error.value) is MalformedTrace
        assert type(capture_error.value) is MalformedCapture
        assert str(trace_error.value) == str(capture_error.value) == message




NAN, INF = float("nan"), float("inf")


class TestCheckPrecedence:
    """Times and powers are checked in one pass each, and the full checks run
    only to pick the message, so edge values keep their outcome."""

    @pytest.mark.parametrize("t", [0.0, -1e300, 5e-324])
    def test_one_sample_accepted(self, t):
        assert len(PowerTrace([t], [1.0])) == 1
        assert len(HwCapture([t], dict.fromkeys(CHANNELS, [1.0]), 0.1)) == 1

    @pytest.mark.parametrize("powers", [[-0.0], [-0.0, 0.0], [0.0, -0.0]])
    def test_negative_zero_power_accepted(self, powers):
        trace = PowerTrace(np.arange(len(powers)), powers)
        assert np.array_equal(np.signbit(trace.powers), np.signbit(powers))

    @pytest.mark.parametrize(
        "powers, message",
        [
            ([-1.0, NAN], "non-finite power sample"),
            ([NAN, -1.0], "non-finite power sample"),
            ([-INF, 1.0], "non-finite power sample"),
            ([-1.0, INF], "non-finite power sample"),
            ([1.0, 2.0, -INF], "non-finite power sample"),
            ([-1.0], "negative power sample"),
            ([1.0, -5e-324], "negative power sample"),
        ],
    )
    def test_non_finite_power_named_before_negative(self, powers, message):
        with pytest.raises(MalformedTrace) as exc:
            PowerTrace(np.arange(len(powers)), powers)
        assert str(exc.value) == message

    def test_time_fault_named_before_power_fault(self):
        with pytest.raises(MalformedTrace) as exc:
            PowerTrace([1.0, 0.0], [NAN, -1.0])
        assert str(exc.value) == "timestamps not strictly increasing at index 1"

class TestHwEnergy:
    def test_constant_135w_over_2s(self):
        n = 2001
        times = np.arange(n) * 0.001
        channels = {
            "v_s1": np.full(n, 12.1), "v_g1": np.full(n, 12.0),
            "v_s2": np.full(n, 3.4), "v_g2": np.full(n, 3.3),
            "i_clamp": np.full(n, 10.0), "v_dps": np.full(n, 12.0),
        }
        capture = HwCapture(times, channels, 0.1)
        energy = hw_energy(capture, KernelWindow(0.0, 2.0))
        assert energy == pytest.approx(270_600.0, rel=1e-12)  # 135.3 W * 2 s in mJ

    def test_zero_power_capture(self):
        n = 11
        times = np.arange(n) * 0.1
        channels = {
            "v_s1": np.full(n, 12.0), "v_g1": np.full(n, 12.0),
            "v_s2": np.full(n, 3.3), "v_g2": np.full(n, 3.3),
            "i_clamp": np.zeros(n), "v_dps": np.full(n, 12.0),
        }
        capture = HwCapture(times, channels, 0.1)
        assert hw_energy(capture, KernelWindow(0.0, 1.0)) == 0.0

    def test_same_integration_as_software_path(self):
        capture = make_capture(n=100, seed=7)
        window = KernelWindow(0.01, 0.08)
        assert hw_energy(capture, window) == integrate_energy(hw_power_trace(capture), window)

    def test_concatenated_capture_energy_is_additive(self):
        capture = make_capture(n=200, seed=8)
        t_mid = float(capture.times[100])
        full = KernelWindow(float(capture.times[0]), float(capture.times[-1]))
        left = KernelWindow(full.start, t_mid)
        right = KernelWindow(t_mid + 1e-9, full.end)
        e_full = hw_energy(capture, full)
        e_parts = hw_energy(capture, left) + hw_energy(capture, right)
        trace = hw_power_trace(capture)
        quantum = full.span / len(capture) * float(trace.powers.max())
        assert abs(e_full - e_parts) <= quantum

    def test_paired_sw_hw_fixtures_agree(self):
        # equal profiles measured by the rig and by a software trace agree
        from instrujoule import PowerTrace

        rng = np.random.default_rng(11)
        n = 400
        times = np.arange(n) * 0.005
        profile_w = rng.uniform(80.0, 220.0, n)
        v_g1 = np.full(n, 12.0)
        v_dps = np.full(n, 12.0)
        i_clamp = profile_w / v_dps
        capture = HwCapture(
            times,
            {"v_s1": v_g1, "v_g1": v_g1, "v_s2": np.full(n, 3.3), "v_g2": np.full(n, 3.3),
             "i_clamp": i_clamp, "v_dps": v_dps},
            0.1,
        )
        sw_trace = PowerTrace(times, profile_w * 1000.0)
        window = KernelWindow(0.1, 1.9)
        hw = hw_energy(capture, window)
        sw = integrate_energy(sw_trace, window)
        assert hw == pytest.approx(sw, rel=1e-3)
