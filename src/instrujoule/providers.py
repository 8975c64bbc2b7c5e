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
                      profile, then plateau / ramp / stepped decay. Each
                      read takes the next value of one seeded noise stream,
                      drawn from the generator in blocks; it reads a grid
                      time by time.

A live sensor adapter (e.g. over a vendor management library) implements the
same contract but is not bundled; the CLI reports ``SensorUnavailable`` for
``--provider live``.

Providers are stateful and single-consumer: exactly one sampling activity
may drive an instance. Create a fresh provider per measurement run.
"""

from __future__ import annotations

import numpy as np

from .errors import ProviderExhausted
from .synthetic import SyntheticModel, _scalar_power
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
    schedule bit-reproducible. The stream is drawn in blocks that double
    from 16 to 4096 values, and reads take its values in order: a block of
    n draws equals n single draws, so each reading is what drawing its noise
    alone would give.
    """

    _first_block = 16
    _max_block = 4096

    def __init__(self, model: SyntheticModel):
        model.validate()
        self.model = model
        self._rng = np.random.default_rng(model.rng_seed)
        self._t_launch: float | None = None
        self._noise: list[float] = []  # drawn, not yet read; the next one is last
        self._block = self._first_block

    def launch(self, t: float) -> None:
        if self._t_launch is not None:
            raise RuntimeError("provider already launched; use a fresh instance per run")
        self._t_launch = float(t)

    def next_sample(self, t: float) -> float:
        if self._t_launch is None:
            p = float(self.model.p_idle)
        else:
            p = _scalar_power(self.model, t, self._t_launch)
        if self.model.noise_stddev > 0:
            noise = self._noise
            p = max(p + (noise.pop() if noise else self._draw()), 0.0)
        return p

    def _draw(self) -> float:
        """Draw the next block of the noise stream and return its first value."""
        size, self._block = self._block, min(2 * self._block, self._max_block)
        self._noise = self._rng.normal(0.0, self.model.noise_stddev, size).tolist()[::-1]
        return self._noise.pop()
