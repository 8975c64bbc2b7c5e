"""Energy arithmetic: area-under-curve kernel energy and per-instruction extraction.

Kernel energy is the sample mean of the recorded power readings times the
elapsed time:

    E (mJ) = elapsed (s) / N * sum(power_i (mW))

This sample-mean form (not a trapezoidal rule) is the canonical energy
everywhere in the toolkit; the trapezoid variant exists only as a
cross-check oracle for tests. Per-instruction energy divides the difference
between a total and an overhead run by the instruction count:

    E_instruction (uJ) = (E_total - E_overhead) (mJ) / n_instructions * 1000
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyWindow, ZeroInstructions
from .trace import KernelWindow, PowerTrace

if TYPE_CHECKING:  # avoid a circular import; monitor builds these results
    from .catalog import InstructionSpec
    from .monitor import EnergyResult

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def energy_from_readings(powers, elapsed: float) -> float:
    """Sample-mean energy (mJ) of ``powers`` (mW) over ``elapsed`` seconds."""
    powers = np.asarray(powers, dtype=np.float64)
    if powers.size == 0:
        raise EmptyWindow("no power readings")
    return elapsed / powers.size * float(np.sum(powers))


def _window_slice(trace: PowerTrace, window: KernelWindow):
    # Samples exactly on the boundary are included (closed interval), so a
    # single-sample window is non-empty.
    mask = (trace.times >= window.start) & (trace.times <= window.end)
    if not bool(np.any(mask)):
        raise EmptyWindow(
            f"no samples inside window [{window.start:.9g}, {window.end:.9g}]"
        )
    return trace.times[mask], trace.powers[mask]


def integrate_energy(trace: PowerTrace, window: KernelWindow) -> float:
    """Kernel energy (mJ): window span times the mean in-window power."""
    _, powers = _window_slice(trace, window)
    return energy_from_readings(powers, window.span)


def integrate_energy_trapezoid(trace: PowerTrace, window: KernelWindow) -> float:
    """Trapezoidal-rule energy (mJ) over the in-window samples.

    Test-only cross-check: integrates the sampled sub-span, so it equals the
    sample-mean form exactly on constant traces and within one sample
    quantum elsewhere.
    """
    times, powers = _window_slice(trace, window)
    if times.size == 1:
        return 0.0
    return float(_trapezoid(powers, times))


def instruction_energy(e_total: float, e_overhead: float, n_instructions: int) -> float:
    """Per-instruction energy in microjoules from paired run energies in mJ.

    A negative result (overhead exceeded total: noise swamped the signal) is
    returned as-is; callers flag it rather than clamping.
    """
    if n_instructions < 1:
        raise ZeroInstructions(f"n_instructions must be >= 1, got {n_instructions}")
    return (e_total - e_overhead) / n_instructions * 1000.0


@dataclass(frozen=True)
class InstructionEnergy:
    """Per-instruction extraction result with its two raw runs for audit."""

    spec: "InstructionSpec | None"
    optimized: bool
    strategy: str
    energy_per_instruction: float  # uJ
    e_total: float                 # mJ
    e_overhead: float              # mJ
    n_instructions: int
    negative_net: bool
    total_result: "EnergyResult | None" = None
    overhead_result: "EnergyResult | None" = None
