"""Parametric synthetic power profiles with known ground truth.

The profile reproduces the canonical shape of a GPU board-power trace around
a one-kernel run: an idle plateau, a sudden rise when the kernel is
launched, a short lead (the kernel starts executing a moment after the
rise), a high plateau while the kernel runs (optionally climbing linearly to
a peak at kernel completion), a stepped descent back toward idle after
completion, and idle again.

Because the shape is closed-form, the exact noise-free energy over the
kernel execution window is known, which makes these models the ground-truth
oracle for the measurement strategies. A model checks its fields when it is
built, so an invalid one never reaches ``synthesize`` or a simulated device.

The profile has two forms, pinned bit-equal by tests: a scalar one for a
single read, and an array one for a grid. Only the simulated device
(``providers.SyntheticDeviceProvider``) reads them; on a noise-free model it
reads the bare profile. The array form splits an ascending grid into the
five pieces by searching it for the piece edges and adds each piece onto its
slice of an array it is given, so a simulated device adds the profile onto
its noise where it lies: idle and plateau are constants, and the ramp and
decay steps are computed in blocks of at most 8192 points, so no temporary
is as long as the grid. Any other array is sorted first and its powers put
back in its order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from ._checks import check_integer, check_number
from .errors import InvalidModel
from .trace import KernelWindow, PowerTrace

# the real fields that must be above zero; the others but the two integer counts must be >= 0
_POSITIVE = ("pre_rise_lead", "kernel_duration", "decay_step_duration", "idle_lead", "idle_tail",
             "sample_rate")
# what json.loads gives for each JSON type, named as JSON names it
_JSON_TYPES = {
    list: "array", str: "string", int: "number", float: "number", bool: "boolean", type(None): "null"
}


@dataclass(frozen=True)
class SyntheticModel:
    """Piecewise power profile parameters. Powers in mW, durations in seconds.

    ``p_kernel`` is the plateau height above idle; ``ramp_mw`` adds a linear
    climb across the execution window peaking at kernel completion (0 keeps
    the plateau flat). ``pre_rise_lead`` is the gap between the power rise at
    launch and the true start of kernel execution. A model is checked when it
    is built, ``dataclasses.replace`` included: bad fields raise InvalidModel.
    """

    p_idle: float = 20_000.0
    p_kernel: float = 80_000.0
    pre_rise_lead: float = 0.002
    kernel_duration: float = 2.0
    decay_steps: int = 4
    decay_step_duration: float = 0.25
    noise_stddev: float = 0.0
    sample_rate: float = 2000.0
    rng_seed: int = 0
    idle_lead: float = 1.0
    idle_tail: float = 1.0
    ramp_mw: float = 0.0

    def __post_init__(self) -> None:
        # getattr, not vars(self): materializing the instance dict slows every
        # later attribute read, and the per-sample profile reads the model
        for name in self.__dataclass_fields__:
            if name not in ("decay_steps", "rng_seed"):
                check_number(name, getattr(self, name), "> 0" if name in _POSITIVE else ">= 0", InvalidModel)
        check_integer("decay_steps", self.decay_steps, 0, sys.float_info.max, InvalidModel)
        # numpy takes a seed of any size, so it is not held to a float's range
        check_integer("rng_seed", self.rng_seed, 0, error=InvalidModel)

    def window_for_launch(self, t_launch: float) -> KernelWindow:
        start = t_launch + self.pre_rise_lead
        return KernelWindow(start, start + self.kernel_duration)

    def true_window_energy(self) -> float:
        """Exact noise-free energy (mJ) over the kernel execution window, which
        starts ``pre_rise_lead`` after the launch that a timed run includes.

        Plateau contributes (p_idle + p_kernel) * duration; a ramp adds its
        mean height ramp_mw / 2 over the same span.
        """
        return (self.p_idle + self.p_kernel + self.ramp_mw / 2.0) * self.kernel_duration

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticModel":
        if not isinstance(data, dict):
            kind = _JSON_TYPES.get(type(data), type(data).__name__)
            raise InvalidModel(f"model JSON must be an object, got {kind}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidModel(f"unknown model fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth for one synthesized trace: window and exact energy (mJ)."""

    window: KernelWindow
    true_energy: float


def _scalar_power(model: SyntheticModel, t: float, t_launch: float) -> float:
    # plain-float twin of the array form (_add_power) for the simulated device's
    # single read, which a one-point array slows about 100 times; tests pin the
    # two bit-equal. A launch at math.inf (none yet) reads idle at every finite time.
    exec_start = t_launch + model.pre_rise_lead
    exec_end = exec_start + model.kernel_duration
    if t < t_launch:
        return float(model.p_idle)
    if t <= exec_end:
        p = model.p_idle + model.p_kernel
        if model.ramp_mw > 0 and t >= exec_start:
            frac = (t - exec_start) / model.kernel_duration
            p += model.ramp_mw * (frac if frac < 1.0 else 1.0)
        return float(p)
    decay_end = exec_end + model.decay_steps * model.decay_step_duration
    if model.decay_steps > 0 and t <= decay_end:
        k = min(max(math.ceil((t - exec_end) / model.decay_step_duration), 1), model.decay_steps)
        height = model.p_kernel + model.ramp_mw
        return float(model.p_idle + height * (1.0 - k / (model.decay_steps + 1)))
    return float(model.p_idle)


def _add_power(model: SyntheticModel, t: np.ndarray, t_launch: float, out: np.ndarray) -> np.ndarray:
    """Add the profile at the 1-d times ``t`` onto ``out``, in place, and return ``out``."""
    if not (t[1:] >= t[:-1]).all():  # NaN fails the test, and sorts last
        order = np.argsort(t, kind="stable")
        out[order] += _ascending_power(model, t[order], t_launch, np.full(t.size, -0.0))
        return out
    return _ascending_power(model, t, t_launch, out)


_BLOCK = 8192  # points per block of a piece computed through temporaries: 64 KiB each


def _ascending_power(model: SyntheticModel, t: np.ndarray, t_launch: float, out: np.ndarray) -> np.ndarray:
    # the pieces: [0, rise) idle, [rise, start) the lead at plateau,
    # [start, end] the execution window, (end, decay] the steps, then idle;
    # each piece's power is computed whole, then added onto its slice of out
    exec_start = t_launch + model.pre_rise_lead
    exec_end = exec_start + model.kernel_duration
    decay_end = exec_end + model.decay_steps * model.decay_step_duration
    # the array's own searchsorted and the ufuncs, not np.searchsorted and np.clip,
    # whose Python wrappers cost a small grid more than its arithmetic does
    rise, start = t.searchsorted((t_launch, exec_start), "left")
    end, decay = t.searchsorted((exec_end, decay_end), "right")
    idle, plateau = float(model.p_idle), float(model.p_idle + model.p_kernel)
    ramp_start = start if model.ramp_mw > 0 else end  # a flat plateau is one piece with the lead
    for a, b, p in ((0, rise, idle), (rise, ramp_start, plateau), (decay, t.size, idle)):
        if a < b:  # an empty slice's add costs as much as a short one's
            out[a:b] += p
    # the ramp and the decay steps, a block at a time, so no temporary is as long as the grid
    for a in range(ramp_start, end, _BLOCK):
        b = min(a + _BLOCK, end)
        # no time here is before exec_start, so frac is clipped only at 1
        frac = np.minimum((t[a:b] - exec_start) / model.kernel_duration, 1.0)
        out[a:b] += plateau + model.ramp_mw * frac
    height = model.p_kernel + model.ramp_mw
    for a in range(end, decay, _BLOCK):
        b = min(a + _BLOCK, decay)
        k = np.maximum(np.ceil((t[a:b] - exec_end) / model.decay_step_duration), 1.0)
        k = np.minimum(k, model.decay_steps)
        out[a:b] += idle + height * (1.0 - k / (model.decay_steps + 1))
    return out


def synthesize(model: SyntheticModel) -> tuple[PowerTrace, SyntheticTruth]:
    """Sample the model on a uniform grid and return the trace with its truth.

    The launch happens ``idle_lead`` seconds into the trace. Gaussian noise
    (seeded, reproducible) is added to every sample and clamped at zero; the
    returned truth is always the noise-free window energy.
    """
    t_launch = model.idle_lead
    window = model.window_for_launch(t_launch)
    total = (
        model.idle_lead
        + model.pre_rise_lead
        + model.kernel_duration
        + model.decay_steps * model.decay_step_duration
        + model.idle_tail
    )
    n = int(np.floor(total * model.sample_rate)) + 1
    times = np.arange(n, dtype=np.float64) / model.sample_rate
    from .providers import SyntheticDeviceProvider  # providers imports this module
    device = SyntheticDeviceProvider(model)
    device.launch(t_launch)
    powers = device.sample_grid(times)
    if times[-1] < window.end:
        raise InvalidModel(
            "sample grid does not cover the kernel window; "
            "increase idle_tail or sample_rate"
        )
    trace = PowerTrace(times, powers, window)
    return trace, SyntheticTruth(window, model.true_window_energy())
