"""Energy arithmetic: area-under-curve kernel energy and per-instruction extraction.

Kernel energy is the sample mean of the recorded power readings times the
elapsed time:

    E (mJ) = elapsed (s) / N * sum(power_i (mW))

This sample-mean form (not a trapezoidal rule) is the canonical energy
everywhere in the toolkit. Per-instruction energy divides the difference
between a total and an overhead run by the instruction count:

    E_instruction (uJ) = (E_total - E_overhead) (mJ) / n_instructions * 1000
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ._checks import check_integer, check_number
from .errors import EmptyWindow, MalformedTrace, ZeroInstructions
from .trace import KernelWindow, PowerTrace


def energy_from_readings(powers, elapsed: float) -> float:
    """Sample-mean energy (mJ) of ``powers`` (mW) over ``elapsed`` seconds.

    Raises MalformedTrace on a NaN or infinite reading, and ValueError unless
    ``elapsed`` is a finite number >= 0, not a bool."""
    check_number("elapsed", elapsed, ">= 0")
    powers = np.asarray(powers, dtype=np.float64)
    if powers.size == 0:
        raise EmptyWindow("no power readings")
    total = float(np.add.reduce(powers, axis=None))  # np.sum's reduction, without its dispatch
    if not math.isfinite(total):  # a NaN or inf reading propagates into the sum
        raise MalformedTrace("non-finite power reading")
    return elapsed / powers.size * total


def integrate_energy(trace: PowerTrace, window: KernelWindow) -> float:
    """Kernel energy (mJ): window span times the mean in-window power.

    Samples exactly on the boundary are included (closed interval), so a
    single-sample window is non-empty."""
    mask = (trace.times >= window.start) & (trace.times <= window.end)
    if not bool(np.any(mask)):
        raise EmptyWindow(
            f"no samples inside window [{window.start:.9g}, {window.end:.9g}]"
        )
    return energy_from_readings(trace.powers[mask], window.span)


def instruction_energy(e_total: float, e_overhead: float, n_instructions: int) -> float:
    """Per-instruction energy in microjoules from paired run energies in mJ.

    A negative result (overhead exceeded total: noise swamped the signal) is
    returned as-is; callers flag it rather than clamping.
    """
    check_integer("n_instructions", n_instructions, 1, sys.float_info.max, ZeroInstructions)
    return (e_total - e_overhead) / n_instructions * 1000.0

