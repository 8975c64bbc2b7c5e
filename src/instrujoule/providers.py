"""Power providers: the sensor abstraction read by the measurement strategies.

A provider answers one question: what is the instantaneous board power at
time ``t``? ``next_sample(t)`` returns that power in mW. The caller owns the
clock and passes its reading; providers never see a clock. Virtual runs read
their whole time grid at once through ``sample_grid(times)``, whose default
reads the times one by one with ``next_sample``, in order; a provider
overrides it only when it can answer a whole grid faster with the same
results. Three implementations ship with the toolkit:

* ReplayProvider      plays back a recorded trace, step-hold interpolated
                      (each reading holds until the next), because sensors
                      report instantaneous values, not averages; a grid is
                      one ``searchsorted``;
* ConstantPowerProvider  fixed power, handy for exact-arithmetic tests; a
                      grid is one ``np.full``;
* SyntheticDeviceProvider  evaluates a synthetic model as a simulated
                      device: idle until a kernel launch anchors the
                      profile, then plateau / ramp / stepped decay. A grid
                      reads the profile's array form, which writes each
                      piece of an ascending grid as one slice, and draws
                      its noise in one call; a single read, the scalar form
                      and one draw.

A live sensor adapter (e.g. over a vendor management library) implements the
same contract but is not bundled; the CLI reports ``SensorUnavailable`` for
``--provider live``.

Providers are stateful and single-consumer: exactly one sampling activity
may drive an instance. Create a fresh provider per measurement run.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ProviderExhausted
from .synthetic import SyntheticModel, _scalar_power, noise_free_power
from .trace import PowerTrace


class PowerProvider:
    """Contract: ``next_sample(t)`` returns the power (mW) at time ``t`` (s)."""

    def next_sample(self, t: float) -> float:
        raise NotImplementedError

    def sample_grid(self, times: np.ndarray) -> np.ndarray:
        """The power (mW) at every time of ``times``, read in order: what
        ``next_sample`` returns, or raises, time by time."""
        read = self.next_sample
        return np.array([read(t) for t in np.asarray(times).tolist()], dtype=np.float64)


class ReplayProvider(PowerProvider):
    """Replays a recorded trace with step-hold (last sample holds) semantics."""

    def __init__(self, trace: PowerTrace):
        self._trace = trace

    def next_sample(self, t: float) -> float:
        times = self._trace.times
        if times.size == 0:
            raise ProviderExhausted("replay trace is empty")
        if t < times[0]:
            raise ProviderExhausted(f"replay queried at {t:.9g}s, before trace start {times[0]:.9g}s")
        if t > times[-1]:
            raise ProviderExhausted(f"replay queried at {t:.9g}s, past trace end {times[-1]:.9g}s")
        idx = int(np.searchsorted(times, t, side="right")) - 1
        return float(self._trace.powers[idx])

    def sample_grid(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        trace_times = self._trace.times
        if times.size:
            # raise what the first time outside the trace raises time by time
            outside = (times < trace_times[0]) | (times > trace_times[-1]) if trace_times.size else True
            if np.any(outside):
                self.next_sample(float(times[np.argmax(outside)]))
        return self._trace.powers[np.searchsorted(trace_times, times, side="right") - 1]


class ConstantPowerProvider(PowerProvider):
    def __init__(self, power_mw: float):
        if not power_mw >= 0:
            raise ValueError("power must be >= 0")
        self.power_mw = float(power_mw)

    def next_sample(self, t: float) -> float:
        return self.power_mw

    def sample_grid(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.power_mw)


class SyntheticDeviceProvider(PowerProvider):
    """Simulated device following a synthetic model.

    Reads idle power until ``launch`` anchors the profile at the launch
    instant; afterwards the profile is a pure function of time, so sampling
    order does not matter. Per-reading Gaussian noise is one stream from a
    generator seeded by the model, making any deterministic sampling
    schedule bit-reproducible: a grid of n times draws n values in one call,
    which equal n single draws; a read scales one standard draw by the
    stddev, as ``normal`` does, at two thirds of its cost.
    """

    def __init__(self, model: SyntheticModel):
        self.model = model
        self._rng = np.random.default_rng(model.rng_seed)
        self._t_launch = math.inf

    def launch(self, t: float) -> None:
        if self._t_launch != math.inf:
            raise RuntimeError("provider already launched; use a fresh instance per run")
        self._t_launch = float(t)

    def next_sample(self, t: float) -> float:
        p, sd = _scalar_power(self.model, t, self._t_launch), self.model.noise_stddev
        return max(p + sd * self._rng.standard_normal(), 0.0) if sd > 0 else p

    def sample_grid(self, times: np.ndarray) -> np.ndarray:
        powers = noise_free_power(self.model, times, self._t_launch)
        if (sd := self.model.noise_stddev) > 0:
            # the noise array becomes the readings: no other temporary of the grid's length
            noise = self._rng.normal(0.0, sd, powers.size)
            noise += powers
            powers = np.maximum(noise, 0.0, out=noise)
        return powers
