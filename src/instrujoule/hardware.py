"""Ground-truth power from oscilloscope captures of a two-rail sensing rig.

The rig senses the three supplies feeding a GPU: the two PCI-E slot rails
(12 V and 3.3 V) each through a series shunt resistor, and the direct
supply cable through a current clamp. Per capture row:

    p_12v  = (v_s1 - v_g1) / r_s * v_g1    (shunt drop -> current, times rail voltage)
    p_3v3  = (v_s2 - v_g2) / r_s * v_g2
    p_dps  = i_clamp * v_dps
    p_total = p_12v + p_3v3 + p_dps        (watts)

The total is symmetric in the two shunt terms, so swapping which rail is
wired to which shunt pair cannot change it. Capture rows are assumed
time-aligned (all channels acquired by one oscilloscope). The shunt value
and capture rate are properties of the rig and must come with the data;
there are no defaults.

CSV format: a ``# r_s_ohm: <value>`` comment line, the header
``t_s,v_s1,v_g1,v_s2,v_g2,i_clamp_a,v_dps``, then one row per sample. Captures
and power traces share one CSV codec: values are written with ``%.9g``, and a
malformed file raises MalformedCapture naming the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _csv
from .energy import integrate_energy
from .errors import MalformedCapture, MissingShunt
from .trace import KernelWindow, PowerTrace, _check_times

_HEADER = "t_s,v_s1,v_g1,v_s2,v_g2,i_clamp_a,v_dps"
_CHANNELS = ("v_s1", "v_g1", "v_s2", "v_g2", "i_clamp", "v_dps")


@dataclass(frozen=True)
class HwSample:
    t: float
    v_s1: float
    v_g1: float
    v_s2: float
    v_g2: float
    i_clamp: float
    v_dps: float


@dataclass(frozen=True)
class HwPowerPoint:
    t: float
    p_pcie_12v: float  # W
    p_pcie_3v3: float  # W
    p_dps: float       # W
    p_total: float     # W


class HwCapture:
    """Immutable six-channel capture plus the shunt resistance (ohms)."""

    __slots__ = ("times", "channels", "r_s")

    def __init__(self, times, channels: dict, r_s: float):
        if not r_s > 0:
            raise MalformedCapture(f"shunt resistance must be > 0, got {r_s}")
        t = np.asarray(times, dtype=np.float64)
        _check_times(t, MalformedCapture)
        chans = {}
        for name in _CHANNELS:
            arr = np.asarray(channels[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise MalformedCapture(f"channel {name} length differs from timestamps")
            if arr.size and not np.all(np.isfinite(arr)):
                raise MalformedCapture(f"non-finite value in channel {name}")
            arr.setflags(write=False)
            chans[name] = arr
        t.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "channels", chans)
        object.__setattr__(self, "r_s", float(r_s))

    def __setattr__(self, name, value):
        raise AttributeError("HwCapture is immutable")

    def __len__(self) -> int:
        return int(self.times.size)


def _rails(v_s1, v_g1, v_s2, v_g2, i_clamp, v_dps, r_s):
    """The rig power equation on floats or arrays alike: the 12 V, 3.3 V and
    direct-supply powers and their total, in watts."""
    p_12v = (v_s1 - v_g1) / r_s * v_g1
    p_3v3 = (v_s2 - v_g2) / r_s * v_g2
    p_dps = i_clamp * v_dps
    return p_12v, p_3v3, p_dps, p_12v + p_3v3 + p_dps


def hw_power(sample: HwSample, r_s: float) -> HwPowerPoint:
    """Evaluate the rig power equation for one capture row (watts)."""
    if not r_s > 0:
        raise ValueError("shunt resistance must be > 0")
    channels = (getattr(sample, name) for name in _CHANNELS)
    return HwPowerPoint(sample.t, *_rails(*channels, r_s))


def hw_power_trace(capture: HwCapture) -> PowerTrace:
    """Per-row power evaluation as a milliwatt trace for energy integration."""
    channels = (capture.channels[name] for name in _CHANNELS)
    return PowerTrace(capture.times, _rails(*channels, capture.r_s)[-1] * 1000.0)


def hw_energy(capture: HwCapture, window: KernelWindow) -> float:
    """Window energy (mJ) of the capture, using the same sample-mean
    integration as the software strategies so comparisons are like for like."""
    return integrate_energy(hw_power_trace(capture), window)


def save_hw_capture(capture: HwCapture, sink) -> None:
    head = [f"# r_s_ohm: {capture.r_s:.9g}", _HEADER]
    _csv.write(sink, head, [capture.times] + [capture.channels[name] for name in _CHANNELS])


def load_hw_capture(source) -> HwCapture:
    """Parse a capture CSV. MissingShunt if the r_s comment is absent;
    MalformedCapture (with line number) for format or invariant violations."""
    reader = _csv.Reader(source, MalformedCapture)
    r_s = None
    for line_no, line in enumerate(reader.comments(), 1):
        body = line.lstrip("#").strip()
        if body.startswith("r_s_ohm:"):
            payload = body[len("r_s_ohm:"):].strip()
            try:
                r_s = float(payload)
            except ValueError:
                raise MalformedCapture(f"unparsable shunt value '{payload}'", line_no) from None
    if r_s is None:
        raise MissingShunt("capture has no '# r_s_ohm: <value>' comment")
    times, *cols = reader.rows(_HEADER, 7, "expected 7 fields, got {fields}")
    return HwCapture(times, dict(zip(_CHANNELS, cols)), r_s)
