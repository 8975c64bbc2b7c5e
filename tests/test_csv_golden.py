"""Golden SHA-256 hashes pinning the trace and capture CSV formats.

Each case is a seeded input. The test hashes the bytes that ``save_trace``
or ``save_hw_capture`` write, and the arrays that ``load_trace`` or
``load_hw_capture`` return when they read those bytes back. Any change to
the written text, or to the values parsed from it, changes a hash.
"""

import hashlib
import io

import numpy as np
import pytest

from instrujoule import (
    HwCapture,
    PowerTrace,
    SyntheticModel,
    load_hw_capture,
    load_trace,
    save_hw_capture,
    save_trace,
    synthesize,
)

_CHANNELS = ("v_s1", "v_g1", "v_s2", "v_g2", "i_clamp", "v_dps")

_SHORT = dict(
    kernel_duration=0.5, idle_lead=0.2, idle_tail=0.2, decay_step_duration=0.05,
    sample_rate=2000.0,
)


def _noise_free() -> PowerTrace:
    return synthesize(SyntheticModel(**_SHORT))[0]


def _noisy() -> PowerTrace:
    model = SyntheticModel(noise_stddev=750.0, rng_seed=11, ramp_mw=5000.0, **_SHORT)
    return synthesize(model)[0]


def _wide_range() -> PowerTrace:
    rng = np.random.default_rng(5)
    times = np.cumsum(rng.exponential(1e-3, 400))
    powers = 10.0 ** rng.uniform(-12.0, 12.0, 400)
    return PowerTrace(times, powers)


def _quantized_capture() -> HwCapture:
    # the rig's scope channels, rounded to 1 uV/uA as a real capture is
    rng = np.random.default_rng(17)
    profile = _noisy()
    n = len(profile)
    watts = profile.powers / 1000.0
    r_s = round(rng.uniform(0.005, 0.02), 6)
    v_g1 = np.round(12.0 + rng.normal(0.0, 0.01, n), 6)
    v_g2 = np.round(3.3 + rng.normal(0.0, 0.005, n), 6)
    v_dps = np.round(12.0 + rng.normal(0.0, 0.01, n), 6)
    channels = {
        "v_s1": np.round(v_g1 + watts * 0.4 / v_g1 * r_s, 6),
        "v_g1": v_g1,
        "v_s2": np.round(v_g2 + watts * 0.04 / v_g2 * r_s, 6),
        "v_g2": v_g2,
        "i_clamp": np.round(watts * 0.56 / v_dps, 6),
        "v_dps": v_dps,
    }
    return HwCapture(profile.times, channels, r_s)


def _raw_capture() -> HwCapture:
    rng = np.random.default_rng(23)
    n = 300
    channels = {name: rng.uniform(0.0, 25.0, n) for name in _CHANNELS}
    return HwCapture(np.arange(n) * 2e-4, channels, 0.0125)


TRACES = {
    "noise-free, window": lambda: _noise_free(),
    "noise-free, no window": lambda: _noise_free().with_window(None),
    "noisy, window": lambda: _noisy(),
    "noisy, no window": lambda: _noisy().with_window(None),
    "wide range": _wide_range,
    "empty": lambda: PowerTrace([], []),
}

CAPTURES = {
    "quantized 6-channel": _quantized_capture,
    "unrounded 6-channel": _raw_capture,
}

# (SHA-256 of the written CSV, SHA-256 of the arrays read back from it)
TRACE_HASHES = {
    "noise-free, window": (
        "df5e5accaab55d951d570d3883917c4ec9fa7615b39333ffb4aee138b171e6b1",
        "a1ea37dbbe80d9ac1889778eeafaf2b2cf9cb6e86c742d8495803cc304769a63",
    ),
    "noise-free, no window": (
        "126c3bf0286397736e0db6251c601ba65dacf908cbdbe60bc97d73847d20a26b",
        "b2161934adc46371ac27673358d30c9d1c9d3ee52da51109346c49d11f95a16b",
    ),
    "noisy, window": (
        "c46c1ce85951cb5e326fb61fc43319bd0452d383f93c8860e00b58d7554005cc",
        "b98e53b59cd579d292a0830cc288a964d10c0338ecf47466eeee0e049fc2a1c7",
    ),
    "noisy, no window": (
        "a08c51d146bf04287e4387c0b76fe8d624307f17ceaee6de4334cbb74a55a337",
        "83ea2778a269c336fedae5d751bc4b7df85ff60497647f3eff4120c7d34a0d5f",
    ),
    "wide range": (
        "3b51f3a99482bfd4e32dae93cf3c0cb6a028e14880f229ddca28a24cce7339ec",
        "9e2208f5a03d56ae17dd6e8247c87ec75fb3c3f2b168f6951d582c6929fd6dc1",
    ),
    "empty": (
        "81564fad3ba5b03e92585c31b00023af415b92ebb96a5c62d6c4e561f00df935",
        "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
    ),
}

CAPTURE_HASHES = {
    "quantized 6-channel": (
        "dbdd66dfe05ab3ee7eaacbb4f4243745415c2918e61b9737ceac3d5649ee465e",
        "649302fc412dfabf36b6b647969dbc7600672b3a2bd00775c64e428958523a94",
    ),
    "unrounded 6-channel": (
        "feca633a276c7fd1a3d00cdcac5ec83ed71dd5b002bccd8d25ec7d4790f8ca15",
        "fb8c05807d1aa3e66f6ac566f84bdd25ab0161c29ff33b016e162eab6e985c7f",
    ),
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _trace_hashes(trace: PowerTrace) -> tuple[str, str]:
    buf = io.BytesIO()
    save_trace(trace, buf)
    back = load_trace(buf.getvalue())
    window = None if back.window is None else (back.window.start, back.window.end)
    return _sha(buf.getvalue()), _sha(back.times.tobytes(), back.powers.tobytes(), window)


def _capture_hashes(capture: HwCapture) -> tuple[str, str]:
    buf = io.BytesIO()
    save_hw_capture(capture, buf)
    back = load_hw_capture(buf.getvalue())
    arrays = [back.times.tobytes()] + [back.channels[name].tobytes() for name in _CHANNELS]
    return _sha(buf.getvalue()), _sha(*arrays, back.r_s)


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_csv_golden(name):
    assert _trace_hashes(TRACES[name]()) == TRACE_HASHES[name]


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_capture_csv_golden(name):
    assert _capture_hashes(CAPTURES[name]()) == CAPTURE_HASHES[name]

