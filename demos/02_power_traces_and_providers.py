#!/usr/bin/env python3
"""Synthesize a power trace with known ground truth and replay it.

The synthetic profile mimics a board-power recording around one kernel run:
idle, a jump at launch, a high plateau during execution, then a stepped
descent back to idle. Because the shape is closed form, the exact window
energy is known and every measurement strategy can be checked against it.
"""

import io

from instrujoule import (
    ReplayProvider,
    SyntheticModel,
    emit_plot_data,
    integrate_energy,
    load_trace,
    save_trace,
    synthesize,
)

model = SyntheticModel(
    p_idle=25_000.0,       # mW
    p_kernel=95_000.0,     # plateau height above idle
    kernel_duration=1.5,   # s
    decay_steps=4,
    noise_stddev=750.0,    # sensor noise, mW
    rng_seed=7,
)
trace, truth = synthesize(model)
print(f"synthesized {len(trace)} samples at {model.sample_rate:.0f} Hz")
print(f"kernel window: [{truth.window.start:.3f}, {truth.window.end:.3f}] s")
print(f"ground-truth window energy: {truth.true_energy / 1000:.1f} J")

measured = integrate_energy(trace, truth.window)
print(f"sample-mean integration over the window: {measured / 1000:.1f} J "
      f"({100 * abs(measured - truth.true_energy) / truth.true_energy:.3f}% off, noise included)")

# round-trip through the CSV form
buf = io.StringIO()
save_trace(trace, buf)
reloaded = load_trace(buf.getvalue().encode())
print(f"csv round trip: {len(reloaded)} samples, window preserved: {reloaded.window == trace.window}")

# replay the recording as a provider: readings hold until the next sample
provider = ReplayProvider(reloaded)
for t in (0.5, truth.window.start + 0.2, truth.window.end + 0.3):
    power = provider.next_sample(t)
    print(f"replayed power at t={t:>6.3f} s: {power / 1000:7.2f} W")

plot = emit_plot_data(trace)
head = "\n".join(plot.splitlines()[:5])
print(f"\nplot data (first lines):\n{head}\n... ({len(plot.splitlines())} lines total)")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(9, 3.5))
    ax.plot(trace.times, trace.powers / 1000.0, lw=0.7)
    ax.axvline(truth.window.start, color="tab:red", ls="--", label="kernel start")
    ax.axvline(truth.window.end, color="tab:red", ls=":", label="kernel end")
    ax.set_xlabel("time (s)")
    ax.set_ylabel("power (W)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("synthetic_trace.png", dpi=120)
    print("wrote synthetic_trace.png")
except ImportError:
    print("matplotlib not installed; skipped the png")
