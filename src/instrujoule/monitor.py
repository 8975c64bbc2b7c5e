"""Measurement strategies: fixed-interval sampling, single-reading, flag-gated.

Three ways to turn a power provider plus a workload into data:

* ``run_sma``        samples the provider at a fixed interval in the
                     background across lead + workload + tail and returns
                     the raw trace only. Nothing in the trace says where
                     the kernel started or stopped, so this strategy
                     deliberately produces no energy number.
* ``run_papi_style`` times the workload and takes exactly one reading at
                     completion; energy is that single power times the
                     elapsed time.
* ``run_mtsm``       multi-threaded synchronized monitoring: a sampler
                     reads the provider in a tight unthrottled loop while
                     a shared atomic flag is set; the driver sets the
                     flag, times the workload, synchronizes, clears the
                     flag and joins. Energy is the sample mean of the
                     recorded readings times the timed elapsed, so only
                     readings from the kernel window contribute.

Both a real threaded mode (RealClock) and a deterministic single-threaded
simulation (VirtualClock) are provided. Runners own the clock: each read
passes the time of the read to ``provider.next_sample(t)`` and records the
(time, power) pair. Under the virtual clock, time advances only at provider
reads (a configurable per-read cost, default 0.5 ms, i.e. a ~2 kHz
effective sampling rate) and at workload boundaries, which makes every run
bit-reproducible; a virtual runner builds its whole time grid first and then
reads it in one pass. The flag-clear instant is defined as the sampler's
first read at or after workload completion, so the flag interval coincides
exactly with the recorded sample span.

Strategy runners are not reentrant per provider instance; create one
provider (and one clock) per measurement.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

from .energy import InstructionEnergy, energy_from_readings, instruction_energy
from .errors import SamplerStartupFailure
from .providers import PowerProvider
from .trace import KernelWindow, PowerTrace

DEFAULT_READ_COST = 0.0005  # seconds per simulated sensor read (~2 kHz)
DEFAULT_SMA_INTERVAL = 0.015  # seconds between fixed-interval reads


class Strategy(str, Enum):
    SMA = "sma"
    PAPI_STYLE = "papi"
    MTSM = "mtsm"


class VirtualClock:
    """Deterministic simulation clock.

    ``read_cost`` models the latency of one sensor read; the sampling loops
    advance the clock by it after every reading.
    """

    def __init__(self, start: float = 0.0, read_cost: float = DEFAULT_READ_COST):
        if read_cost <= 0:
            raise ValueError("read_cost must be > 0")
        self.now = float(start)
        self.read_cost = float(read_cost)

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError("cannot advance a clock backwards")
        self.now += dt

    def jump_to(self, t: float) -> None:
        if t < self.now:
            raise ValueError("cannot jump a clock backwards")
        self.now = float(t)

    @property
    def is_virtual(self) -> bool:
        return True


class RealClock:
    """Wall-clock time for live runs, relative to clock creation."""

    def __init__(self):
        self._epoch = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    def advance(self, dt: float) -> None:
        time.sleep(dt)

    @property
    def is_virtual(self) -> bool:
        return False


@dataclass(frozen=True)
class SamplerConfig:
    """Fixed-interval sampling: ``interval`` seconds between reads."""

    interval: float = DEFAULT_SMA_INTERVAL

    def __post_init__(self):
        if not self.interval > 0:
            raise ValueError("fixed-interval sampling needs interval > 0")

    @classmethod
    def fixed_interval(cls, interval: float = DEFAULT_SMA_INTERVAL) -> "SamplerConfig":
        return cls(interval)


class Workload:
    """A kernel stand-in: something the driver can run to completion.

    ``run`` must block until the workload is fully complete (the simulated
    equivalent of a device synchronize). ``bind`` lets provider-coupled
    workloads attach to the provider a strategy is using.
    """

    label: str = "kernel"

    @property
    def duration(self) -> float | None:
        return None

    def bind(self, provider: PowerProvider) -> "Workload":
        return self

    def run(self, clock) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class TimedWorkload(Workload):
    """Simulated kernel of a fixed duration (seconds)."""

    seconds: float
    label: str = "kernel"

    def __post_init__(self):
        if not self.seconds > 0:
            raise ValueError("workload duration must be > 0")

    @property
    def duration(self) -> float:
        return self.seconds

    def run(self, clock) -> None:
        clock.advance(self.seconds)


@dataclass(frozen=True)
class CallableWorkload(Workload):
    """Live workload wrapping an opaque blocking callable."""

    fn: Callable[[], None] = field(repr=False)
    label: str = "kernel"

    def run(self, clock) -> None:
        self.fn()


@dataclass(frozen=True)
class KernelLaunchWorkload(Workload):
    """Synthetic-device kernel: launching it anchors the provider's profile.

    Completion takes ``pre_rise_lead + kernel_duration`` (launch overhead
    plus execution), matching what a driver-side timer around a launch and
    synchronize would observe.
    """

    provider: PowerProvider | None = None
    label: str = "kernel"

    @property
    def duration(self) -> float:
        model = self._model()
        return model.pre_rise_lead + model.kernel_duration

    def _model(self):
        if self.provider is None or not hasattr(self.provider, "model"):
            raise ValueError("KernelLaunchWorkload must be bound to a synthetic provider")
        return self.provider.model

    def bind(self, provider: PowerProvider) -> "KernelLaunchWorkload":
        return replace(self, provider=provider)

    def run(self, clock) -> None:
        self.provider.launch(clock.now)
        clock.advance(self.duration)


@dataclass(frozen=True)
class EnergyResult:
    """Outcome of one measured run."""

    strategy: Strategy
    energy: float                     # mJ
    elapsed: float                    # s
    n_samples: int
    trace: PowerTrace                 # the recorded readings
    flag_timeline: tuple[float, float]  # (set_time, clear_time), seconds
    label: str = "kernel"


def _require_duration(workload: Workload) -> float:
    d = workload.duration
    if d is None:
        raise ValueError(
            f"workload {workload.label!r} has no fixed duration; "
            "simulated runs need TimedWorkload or KernelLaunchWorkload"
        )
    return d


def _first_reading(provider: PowerProvider, t: float) -> float:
    try:
        return provider.next_sample(t)
    except Exception as exc:
        raise SamplerStartupFailure(
            f"could not take a reading before the workload started: {exc}"
        ) from exc


def run_sma(
    provider: PowerProvider,
    workload: Workload,
    config: SamplerConfig | None = None,
    lead: float = 1.0,
    tail: float = 1.0,
    clock=None,
) -> PowerTrace:
    """Fixed-interval background sampling across lead + workload + tail.

    Returns the full unwindowed trace. No energy number is produced: with
    free-running sampling there is no reliable way to delimit the kernel
    inside the trace, so callers get the raw recording only.
    """
    config = config or SamplerConfig.fixed_interval()
    if lead < 0 or tail < 0:
        raise ValueError("lead and tail must be >= 0")
    clock = clock or VirtualClock()
    workload = workload.bind(provider)
    if clock.is_virtual:
        return _sma_virtual(provider, workload, config.interval, lead, tail, clock)
    return _sma_threaded(provider, workload, config.interval, lead, tail, clock)


def _sma_virtual(provider, workload, interval, lead, tail, clock) -> PowerTrace:
    t0 = clock.now
    duration = _require_duration(workload)
    # The workload's future is fully determined, so anchor it first; the
    # provider is a pure function of time afterwards and the sample grid can
    # be evaluated in order.
    clock.jump_to(t0 + lead)
    workload.run(clock)
    t_end = t0 + lead + duration + tail
    times = []
    while (t := t0 + len(times) * interval) <= t_end + 1e-12:
        times.append(t)
    powers = [provider.next_sample(t) for t in times]
    clock.jump_to(max(t_end, clock.now))
    return PowerTrace(times, powers)


def _sma_threaded(provider, workload, interval, lead, tail, clock) -> PowerTrace:
    times: list[float] = []
    powers: list[float] = []
    errors: list[BaseException] = []
    stop = threading.Event()

    def sampler():
        try:
            while not stop.is_set():
                t = clock.now
                powers.append(provider.next_sample(t))
                times.append(t)
                stop.wait(interval)
        except BaseException as exc:
            errors.append(exc)

    th = threading.Thread(target=sampler, name="sma-sampler", daemon=True)
    th.start()
    try:
        if lead:
            time.sleep(lead)
        workload.run(clock)
        if tail:
            time.sleep(tail)
    finally:
        stop.set()
        th.join()
    if errors:
        raise errors[0]
    return PowerTrace(*_monotonic(times, powers))


def _monotonic(times: list[float], powers: list[float]) -> tuple[list[float], list[float]]:
    # Coarse wall clocks can repeat a timestamp between consecutive reads;
    # drop readings that do not advance so trace invariants hold.
    kept_t: list[float] = []
    kept_p: list[float] = []
    for t, p in zip(times, powers):
        if not kept_t or t > kept_t[-1]:
            kept_t.append(t)
            kept_p.append(p)
    return kept_t, kept_p


def run_papi_style(
    provider: PowerProvider,
    workload: Workload,
    clock=None,
    label: str | None = None,
) -> EnergyResult:
    """Time the workload and take one reading at completion.

    Energy is that single instantaneous power (mW) times the elapsed time
    (s), in mJ. The reading happens after the completion barrier, never
    before.
    """
    clock = clock or VirtualClock()
    workload = workload.bind(provider)
    t_start = clock.now
    workload.run(clock)
    t_end = clock.now
    t_read = clock.now
    power = provider.next_sample(t_read)
    elapsed = t_end - t_start
    energy = power * elapsed
    return EnergyResult(
        strategy=Strategy.PAPI_STYLE,
        energy=energy,
        elapsed=elapsed,
        n_samples=1,
        trace=PowerTrace([t_read], [power]),
        flag_timeline=(t_start, t_end),
        label=label or workload.label,
    )


def run_mtsm(
    provider: PowerProvider,
    workload: Workload,
    clock=None,
    label: str | None = None,
) -> EnergyResult:
    """Flag-gated max-rate sampling synchronized to the workload.

    Driver sequence: start the sampler, set the flag, start timing, run the
    workload, synchronize, stop timing, clear the flag, join the sampler.
    The sampler guarantees at least one reading before the workload starts
    (SamplerStartupFailure otherwise) and owns the sample buffer until the
    join hands it to the caller. Energy is the sample mean of all recorded
    readings times the timed elapsed.
    """
    clock = clock or VirtualClock()
    workload = workload.bind(provider)
    if clock.is_virtual:
        return _mtsm_virtual(provider, workload, clock, label)
    return _mtsm_threaded(provider, workload, clock, label)


def _mtsm_virtual(provider, workload, clock: VirtualClock, label) -> EnergyResult:
    _require_duration(workload)
    cost = clock.read_cost
    flag_set = clock.now

    first = _first_reading(provider, flag_set)
    clock.advance(cost)

    t_start = clock.now
    workload.run(clock)
    t_end = clock.now
    elapsed = t_end - t_start

    # Sampler grid continues from the handshake read; the flag clear is
    # observed at the first grid point at or after workload completion, so
    # that point is both the last sample and the clear time.
    times = [flag_set]
    while times[-1] < t_end:
        times.append(flag_set + len(times) * cost)
    flag_clear = times[-1]
    powers = [first] + [provider.next_sample(t) for t in times[1:]]
    clock.jump_to(max(flag_clear, clock.now))

    energy = energy_from_readings(powers, elapsed)
    trace = PowerTrace(times, powers, KernelWindow(flag_set, flag_clear))
    return EnergyResult(
        strategy=Strategy.MTSM,
        energy=energy,
        elapsed=elapsed,
        n_samples=len(times),
        trace=trace,
        flag_timeline=(flag_set, flag_clear),
        label=label or workload.label,
    )


def _mtsm_threaded(provider, workload, clock, label, startup_timeout=5.0) -> EnergyResult:
    flag = threading.Event()
    ready = threading.Event()
    times: list[float] = []
    powers: list[float] = []
    errors: list[BaseException] = []

    def sampler():
        try:
            flag.wait()
            while flag.is_set():
                t = clock.now
                powers.append(provider.next_sample(t))
                times.append(t)
                if not ready.is_set():
                    ready.set()
        except BaseException as exc:
            errors.append(exc)
        finally:
            ready.set()

    th = threading.Thread(target=sampler, name="mtsm-sampler", daemon=True)
    th.start()
    flag_set = clock.now
    flag.set()
    ready.wait(timeout=startup_timeout)
    if errors or not times:
        flag.clear()
        th.join()
        if errors:
            raise SamplerStartupFailure(
                f"sampler failed before the workload started: {errors[0]}"
            ) from errors[0]
        raise SamplerStartupFailure("sampler produced no reading before startup timeout")

    t_start = clock.now
    try:
        workload.run(clock)
        t_end = clock.now
    finally:
        flag.clear()
        th.join()
    elapsed = t_end - t_start
    flag_clear = clock.now
    if errors:
        raise errors[0]

    kept_t, kept_p = _monotonic(times, powers)
    energy = energy_from_readings(kept_p, elapsed)
    window = KernelWindow(kept_t[0], kept_t[-1]) if len(kept_t) > 1 else None
    trace = PowerTrace(kept_t, kept_p, window)
    return EnergyResult(
        strategy=Strategy.MTSM,
        energy=energy,
        elapsed=elapsed,
        n_samples=len(kept_t),
        trace=trace,
        flag_timeline=(flag_set, flag_clear),
        label=label or workload.label,
    )


_RUNNERS = {
    Strategy.PAPI_STYLE: run_papi_style,
    Strategy.MTSM: run_mtsm,
}


def measure_instruction(
    provider_factory,
    total_kernel: Workload,
    overhead_kernel: Workload,
    n_instructions: int,
    strategy: Strategy,
    clock_factory: Callable[[], object] | None = None,
    spec=None,
    optimized: bool = False,
) -> InstructionEnergy:
    """Run a strategy on the paired total and overhead kernels and extract
    the per-instruction energy.

    ``provider_factory`` is either one zero-argument callable used for both
    runs (a live sensor reads whatever kernel is executing) or a
    (total_factory, overhead_factory) pair for simulated devices whose power
    profile depends on the kernel variant. Each run gets a fresh provider
    and clock. A net-negative extraction (overhead energy above total) is
    flagged on the result, never clamped.
    """
    strategy = Strategy(strategy)
    if strategy not in _RUNNERS:
        raise ValueError(f"per-instruction extraction needs papi or mtsm, not {strategy.value}")
    clock_factory = clock_factory or VirtualClock
    runner = _RUNNERS[strategy]
    if isinstance(provider_factory, (tuple, list)):
        total_factory, overhead_factory = provider_factory
    else:
        total_factory = overhead_factory = provider_factory

    total_result = runner(total_factory(), total_kernel, clock=clock_factory())
    overhead_result = runner(overhead_factory(), overhead_kernel, clock=clock_factory())
    per_instruction = instruction_energy(
        total_result.energy, overhead_result.energy, n_instructions
    )
    return InstructionEnergy(
        spec=spec,
        optimized=optimized,
        strategy=strategy.value,
        energy_per_instruction=per_instruction,
        e_total=total_result.energy,
        e_overhead=overhead_result.energy,
        n_instructions=n_instructions,
        negative_net=total_result.energy < overhead_result.energy,
        total_result=total_result,
        overhead_result=overhead_result,
    )
