"""Reference computations the tests check the package against."""

import numpy as np

from instrujoule import EmptyWindow, KernelWindow, PowerTrace

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def integrate_energy_trapezoid(trace: PowerTrace, window: KernelWindow) -> float:
    """Trapezoidal-rule energy (mJ) over the in-window samples.

    A cross-check of ``integrate_energy``: it integrates the sampled
    sub-span, so it equals the sample-mean form exactly on constant traces
    and within one sample quantum elsewhere.
    """
    mask = (trace.times >= window.start) & (trace.times <= window.end)
    if not bool(np.any(mask)):
        raise EmptyWindow(
            f"no samples inside window [{window.start:.9g}, {window.end:.9g}]"
        )
    if np.count_nonzero(mask) == 1:
        return 0.0
    return float(_trapezoid(trace.powers[mask], trace.times[mask]))
