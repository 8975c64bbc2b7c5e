"""Power providers: the sensor abstraction read by the measurement strategies.

A provider answers one question: what is the instantaneous board power at
time ``t``? ``next_sample(t)`` returns that power in mW. The caller owns the
clock and passes its reading; providers never see a clock. Virtual runs read
their whole time grid at once, flag-set time included, through
``sample_grid(times)``, which returns the readings as one new array. The
default reads the times one by one with ``next_sample``, in order; a provider
overrides it only when it can answer a whole grid faster with the same
results. Three implementations ship with the toolkit:

* ReplayProvider      plays back a recorded trace, step-hold interpolated
                      (each reading holds until the next), because sensors
                      report instantaneous values, not averages; a grid is
                      one ``searchsorted`` and one ``np.take``;
* ConstantPowerProvider  fixed power, handy for exact-arithmetic tests; a
                      grid is one ``fill``;
* SyntheticDeviceProvider  evaluates a synthetic model as a simulated
                      device: idle until a kernel launch anchors the
                      profile, then plateau / ramp / stepped decay. A grid
                      draws its noise into its readings in one call and adds
                      the profile's array form onto them piece by piece; a
                      single read, the scalar form and one draw.

A live sensor adapter (e.g. over a vendor management library) implements the
same contract but is not bundled; the CLI reports ``SensorUnavailable`` for
``--provider live``.

Providers are stateful and single-consumer: exactly one sampling activity
may drive an instance. Create a fresh provider per measurement run.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import check_number
from .errors import ProviderExhausted
from .synthetic import SyntheticModel, _add_power, _scalar_power
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
        if math.isnan(t):  # it fails both range tests, and searchsorted places it past the end
            raise ProviderExhausted(f"replay queried at {t}, which is not a time")
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
            # raise what the first time outside the trace, or NaN, raises time by time
            outside = ~((times >= trace_times[0]) & (times <= trace_times[-1])) if trace_times.size else True
            if np.any(outside):
                self.next_sample(float(times[np.argmax(outside)]))
        return self._trace.powers[np.searchsorted(trace_times, times, side="right") - 1]


class ConstantPowerProvider(PowerProvider):
    def __init__(self, power_mw: float):
        check_number("power_mw", power_mw, ">= 0")
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
        """Anchor the profile at the finite launch time ``t``; until then the
        launch time is ``math.inf``, which means not launched."""
        if self._t_launch != math.inf:
            raise RuntimeError("provider already launched; use a fresh instance per run")
        check_number("launch time", t)
        self._t_launch = float(t)

    def next_sample(self, t: float) -> float:
        p, sd = _scalar_power(self.model, t, self._t_launch), self.model.noise_stddev
        return max(0.0, p + sd * self._rng.standard_normal()) if sd > 0 else p

    def sample_grid(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=np.float64)
        powers = np.empty(times.shape)
        if (sd := self.model.noise_stddev) > 0:
            # the noise is drawn into the readings and the profile added onto it:
            # 0.0 + sd * z is what normal(0.0, sd) computes, signed zeros included
            self._rng.standard_normal(out=powers)
            powers *= sd
            powers += 0.0
        else:
            powers.fill(-0.0)  # the exact additive identity
        _add_power(self.model, times.ravel(), self._t_launch, powers.reshape(-1))
        if sd > 0:
            np.maximum(powers, 0.0, out=powers)
        return powers
