"""Parametric synthetic power profiles with known ground truth.

The profile reproduces the canonical shape of a GPU board-power trace around
a one-kernel run: an idle plateau, a sudden rise when the kernel is
launched, a short lead (the kernel starts executing a moment after the
rise), a high plateau while the kernel runs (optionally climbing linearly to
a peak at kernel completion), a stepped descent back toward idle after
completion, and idle again.

Because the shape is closed-form, the exact noise-free energy over the
kernel execution window is known, which makes these models the ground-truth
oracle for the measurement strategies.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidModel
from .trace import KernelWindow, PowerTrace


@dataclass(frozen=True)
class SyntheticModel:
    """Piecewise power profile parameters. Powers in mW, durations in seconds.

    ``p_kernel`` is the plateau height above idle; ``ramp_mw`` adds a linear
    climb across the execution window peaking at kernel completion (0 keeps
    the plateau flat). ``pre_rise_lead`` is the gap between the power rise at
    launch and the true start of kernel execution.
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

    def validate(self) -> None:
        durations = {
            "pre_rise_lead": self.pre_rise_lead,
            "kernel_duration": self.kernel_duration,
            "decay_step_duration": self.decay_step_duration,
            "idle_lead": self.idle_lead,
            "idle_tail": self.idle_tail,
        }
        for name, value in durations.items():
            if not value > 0:
                raise InvalidModel(f"{name} must be > 0, got {value}")
        if not self.sample_rate > 0:
            raise InvalidModel(f"sample_rate must be > 0, got {self.sample_rate}")
        if not self.noise_stddev >= 0:
            raise InvalidModel(f"noise_stddev must be >= 0, got {self.noise_stddev}")
        if not self.decay_steps >= 0:
            raise InvalidModel(f"decay_steps must be >= 0, got {self.decay_steps}")
        if not (self.p_idle >= 0 and self.p_kernel >= 0 and self.ramp_mw >= 0):
            raise InvalidModel("power levels must be >= 0")

    def window_for_launch(self, t_launch: float) -> KernelWindow:
        start = t_launch + self.pre_rise_lead
        return KernelWindow(start, start + self.kernel_duration)

    def true_window_energy(self) -> float:
        """Exact noise-free energy (mJ) over the kernel execution window.

        Plateau contributes (p_idle + p_kernel) * duration; a ramp adds its
        mean height ramp_mw / 2 over the same span.
        """
        return (self.p_idle + self.p_kernel + self.ramp_mw / 2.0) * self.kernel_duration

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticModel":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise InvalidModel(f"unknown model fields: {sorted(unknown)}")
        model = cls(**data)
        model.validate()
        return model


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground truth for one synthesized trace: window and exact energy (mJ)."""

    window: KernelWindow
    true_energy: float


def _scalar_power(model: SyntheticModel, t: float, t_launch: float) -> float:
    # plain-float twin of the vectorized path; sampling loops call this per
    # reading, so it must stay cheap
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


def noise_free_power(model: SyntheticModel, t, t_launch: float):
    """Evaluate the noise-free profile at time(s) ``t`` for a launch at ``t_launch``.

    Vectorized over numpy arrays; scalars return a float. Power jumps to the
    kernel plateau at the launch instant, holds (plus optional ramp) through
    the end of execution, then descends in ``decay_steps`` equal-height
    plateaus back to idle.
    """
    if np.ndim(t) == 0:
        return _scalar_power(model, float(t), t_launch)
    t = np.asarray(t, dtype=np.float64)
    exec_start = t_launch + model.pre_rise_lead
    exec_end = exec_start + model.kernel_duration
    height = model.p_kernel + model.ramp_mw
    decay_end = exec_end + model.decay_steps * model.decay_step_duration

    p = np.full(t.shape, float(model.p_idle))
    plateau = (t >= t_launch) & (t <= exec_end)
    p = np.where(plateau, model.p_idle + model.p_kernel, p)
    if model.ramp_mw > 0:
        in_exec = (t >= exec_start) & (t <= exec_end)
        frac = np.clip((t - exec_start) / model.kernel_duration, 0.0, 1.0)
        p = np.where(in_exec, model.p_idle + model.p_kernel + model.ramp_mw * frac, p)
    if model.decay_steps > 0:
        in_decay = (t > exec_end) & (t <= decay_end)
        step = np.clip(np.ceil((t - exec_end) / model.decay_step_duration), 1, model.decay_steps)
        p = np.where(in_decay, model.p_idle + height * (1.0 - step / (model.decay_steps + 1)), p)
    return p if p.ndim else float(p)


def synthesize(model: SyntheticModel) -> tuple[PowerTrace, SyntheticTruth]:
    """Sample the model on a uniform grid and return the trace with its truth.

    The launch happens ``idle_lead`` seconds into the trace. Gaussian noise
    (seeded, reproducible) is added to every sample and clamped at zero; the
    returned truth is always the noise-free window energy.
    """
    model.validate()
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
    powers = np.asarray(noise_free_power(model, times, t_launch), dtype=np.float64)
    if model.noise_stddev > 0:
        rng = np.random.default_rng(model.rng_seed)
        powers = np.maximum(powers + rng.normal(0.0, model.noise_stddev, n), 0.0)
    if times[-1] < window.end:
        raise InvalidModel(
            "sample grid does not cover the kernel window; "
            "increase idle_tail or sample_rate"
        )
    trace = PowerTrace(times, powers, window)
    return trace, SyntheticTruth(window, model.true_window_energy())
