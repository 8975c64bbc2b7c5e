"""Power providers: the sensor abstraction read by the measurement strategies.

A provider answers one question: what is the instantaneous board power at
time ``t``? ``next_sample(t)`` returns that power in mW. The caller owns the
clock and passes its reading; providers never see a clock. Three
implementations ship with the toolkit:

* ReplayProvider      plays back a recorded trace, step-hold interpolated
                      (each reading holds until the next), because sensors
                      report instantaneous values, not averages;
* ConstantPowerProvider  fixed power, handy for exact-arithmetic tests;
* SyntheticDeviceProvider  evaluates a synthetic model as a simulated
                      device: idle until a kernel launch anchors the
                      profile, then plateau / ramp / stepped decay.

A live sensor adapter (e.g. over a vendor management library) implements the
same contract but is not bundled; the CLI reports ``SensorUnavailable`` for
``--provider live``.

Providers are stateful and single-consumer: exactly one sampling activity
may drive an instance. Create a fresh provider per measurement run.
"""

from __future__ import annotations

import numpy as np

from .errors import ProviderExhausted
from .synthetic import SyntheticModel, noise_free_power
from .trace import PowerTrace


class PowerProvider:
    """Contract: ``next_sample(t)`` returns the power (mW) at time ``t`` (s)."""

    def next_sample(self, t: float) -> float:
        raise NotImplementedError


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


class ConstantPowerProvider(PowerProvider):
    def __init__(self, power_mw: float):
        if power_mw < 0:
            raise ValueError("power must be >= 0")
        self.power_mw = float(power_mw)

    def next_sample(self, t: float) -> float:
        return self.power_mw


class SyntheticDeviceProvider(PowerProvider):
    """Simulated device following a synthetic model.

    Reads idle power until ``launch`` anchors the profile at the launch
    instant; afterwards the profile is a pure function of time, so sampling
    order does not matter. Per-reading Gaussian noise is drawn from a
    generator seeded by the model, making any deterministic sampling
    schedule bit-reproducible.
    """

    def __init__(self, model: SyntheticModel):
        model.validate()
        self.model = model
        self._rng = np.random.default_rng(model.rng_seed)
        self._t_launch: float | None = None

    def launch(self, t: float) -> None:
        if self._t_launch is not None:
            raise RuntimeError("provider already launched; use a fresh instance per run")
        self._t_launch = float(t)

    def next_sample(self, t: float) -> float:
        if self._t_launch is None:
            p = float(self.model.p_idle)
        else:
            p = float(noise_free_power(self.model, t, self._t_launch))
        if self.model.noise_stddev > 0:
            p = max(p + float(self._rng.normal(0.0, self.model.noise_stddev)), 0.0)
        return p
