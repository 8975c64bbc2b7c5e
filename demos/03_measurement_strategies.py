#!/usr/bin/env python3
"""Run the three measurement strategies against the same simulated device.

* sma: fixed-interval background sampling. Produces a trace but no energy;
  nothing in a free-running recording says where the kernel started.
* papi: one instantaneous reading at kernel completion times elapsed time.
* mtsm: flag-gated max-rate sampling synchronized to the kernel, energy as
  sample mean times timed elapsed.

The simulated device peaks at kernel completion (a mild ramp), the case
where the single-reading strategy systematically overshoots.
"""

from instrujoule import (
    KernelLaunchWorkload,
    SamplerConfig,
    SyntheticDeviceProvider,
    SyntheticModel,
    VirtualClock,
    run_mtsm,
    run_papi_style,
    run_sma,
)

model = SyntheticModel(
    p_idle=30_000.0,
    p_kernel=90_000.0,
    ramp_mw=15_000.0,      # climbs to a peak at kernel completion
    kernel_duration=2.0,
    noise_stddev=500.0,
    rng_seed=11,
)
truth = model.true_window_energy()
print(f"ground truth window energy: {truth / 1000:.2f} J\n")

# sma: trace only, at the classic 15 ms polling interval
trace = run_sma(
    SyntheticDeviceProvider(model),
    KernelLaunchWorkload(),
    SamplerConfig(0.015),
    lead=1.0,
    tail=1.0,
)
print(f"sma    : {len(trace):4d} samples over {trace.times[-1]:.2f} s, "
      "no energy (kernel window unknown in a free-running trace)")

papi = run_papi_style(SyntheticDeviceProvider(model), KernelLaunchWorkload(),
                      clock=VirtualClock())
print(f"papi   : {papi.energy / 1000:7.2f} J from {papi.n_samples} reading, "
      f"{100 * (papi.energy - truth) / truth:+.2f}% vs truth")

mtsm = run_mtsm(SyntheticDeviceProvider(model), KernelLaunchWorkload(),
                clock=VirtualClock())
rate = mtsm.n_samples / (mtsm.flag_timeline[1] - mtsm.flag_timeline[0])
print(f"mtsm   : {mtsm.energy / 1000:7.2f} J from {mtsm.n_samples} readings "
      f"(~{rate / 1000:.1f} kHz), {100 * (mtsm.energy - truth) / truth:+.2f}% vs truth")

print(f"\nsingle reading lands on the peak, so papi >= mtsm here: "
      f"{papi.energy >= mtsm.energy}")
print(f"mtsm flag window: [{mtsm.flag_timeline[0]:.4f}, {mtsm.flag_timeline[1]:.4f}] s, "
      f"timed elapsed {mtsm.elapsed:.4f} s")
