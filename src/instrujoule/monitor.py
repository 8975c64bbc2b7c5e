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

Each strategy is one driver sequence run inside a sampler, and the clock
picks the sampler. Under RealClock, or any clock that is not a
VirtualClock, a thread reads ``clock.now`` and then
``provider.next_sample(t)`` until stopped: every ``interval`` seconds for
SMA, back to back for MTSM. While it runs, the interpreter's switch interval
is lowered to 0.1 ms, so the timing thread reads the end of a kernel within
about that much of its return instead of up to 5 ms late. Under
VirtualClock time advances only at provider reads (a configurable per-read
cost, default 0.5 ms, i.e. a ~2 kHz effective sampling rate) and at
workload boundaries; once the block has run, the sampler builds its whole
time grid in closed form and reads it with one
``provider.sample_grid(times)`` call, which makes every run
bit-reproducible. The MTSM handshake stays one ``next_sample``
read at flag set, before the workload launches. The flag-clear instant is
defined as the sampler's first read at or after workload completion, so the
flag interval coincides exactly with the recorded sample span.

Strategy runners are not reentrant per provider instance; create one
provider (and one clock) per measurement.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from .energy import InstructionEnergy, energy_from_readings, instruction_energy
from .errors import SamplerStalled, SamplerStartupFailure
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
        if not read_cost > 0:
            raise ValueError("read_cost must be > 0")
        self.now = float(start)
        self.read_cost = float(read_cost)

    def advance(self, dt: float) -> None:
        if not dt >= 0:
            raise ValueError("cannot advance a clock backwards")
        self.now += dt


class RealClock:
    """Wall-clock time for live runs, relative to clock creation."""

    def __init__(self):
        self._epoch = time.monotonic()

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    def advance(self, dt: float) -> None:
        time.sleep(dt)


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


def _sampler(provider: PowerProvider, workload: Workload, clock, interval: float | None = None):
    """The sampler a driver runs its block inside: reads every ``interval``
    seconds (SMA) or back to back (MTSM, ``interval=None``), virtual or
    threaded as the clock is."""
    if isinstance(clock, VirtualClock):
        if workload.duration is None:
            raise ValueError(
                f"workload {workload.label!r} has no fixed duration; "
                "simulated runs need TimedWorkload or KernelLaunchWorkload"
            )
        return _VirtualSampler(provider, clock, interval)
    return _ThreadedSampler(provider, clock, interval)


class _VirtualSampler:
    """Reads its time grid after the block: once the workload has run under a
    virtual clock, the provider is a pure function of time, and one
    ``sample_grid`` call reads the whole grid.

    Fixed interval: ``t0 + k*interval`` up to the end of the block. Back to
    back: a handshake read at flag set, before the workload launches, then
    ``t0 + k*read_cost`` up to the first point at or after completion, where
    the flag clear is observed.
    """

    def __init__(self, provider, clock: VirtualClock, interval):
        self.provider, self.clock, self.interval = provider, clock, interval

    def __enter__(self):
        self.flag_set = self.clock.now
        if self.interval is None:  # the handshake read
            try:
                self._handshake = self.provider.next_sample(self.flag_set)
            except Exception as exc:
                raise SamplerStartupFailure(
                    f"could not take a reading before the workload started: {exc}"
                ) from exc
            self.clock.advance(self.clock.read_cost)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return
        back_to_back = self.interval is None
        step = self.clock.read_cost if back_to_back else self.interval
        self.times = _read_times(self.flag_set, step, self.clock.now, back_to_back)
        if back_to_back:
            grid = self.provider.sample_grid(self.times[1:])
            self.powers = np.concatenate(([self._handshake], grid))
            self.clock.now = float(self.times[-1])  # the clear is observed at the last read
        else:
            self.powers = self.provider.sample_grid(self.times)
        self.flag_clear = float(self.times[-1])


def _read_times(t0: float, step: float, t_end: float, back_to_back: bool) -> np.ndarray:
    """The virtual sampler's read times ``t0 + k*step``, bit for bit as Python
    computes them. Back to back: from k = 0 (the handshake) up to the first k
    whose time is at or after ``t_end``. At a fixed interval: every k whose
    time is at most ``t_end`` (plus 1e-12)."""
    if back_to_back:
        n = _first_k(t0, step, t_end, operator.ge)
        return np.concatenate(([t0], t0 + np.arange(1, n + 1) * step))
    return t0 + np.arange(_first_k(t0, step, t_end + 1e-12, operator.gt)) * step


def _first_k(t0: float, step: float, bound: float, reached) -> int:
    """The first k >= 0 with ``reached(t0 + k*step, bound)``."""
    k = max(math.ceil((bound - t0) / step), 0)
    # the estimate can miss by a rounding; t0 + k*step never decreases as k
    # grows, so walking from it to the first k that holds is exact
    while k > 0 and reached(t0 + (k - 1) * step, bound):
        k -= 1
    while not reached(t0 + k * step, bound):
        k += 1
    return k


class _SwitchInterval:
    """The interpreter's switch interval, lowered while any threaded sampler
    runs.

    A sampler reading back to back holds the interpreter lock, so the timing
    thread, woken by the end of a kernel, waits up to one switch interval
    (5 ms by default) before it can read the end time, and short kernels come
    out that much longer. The interval is process-wide: the first sampler in
    lowers it and the last one out restores the value the first one found.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._lock = threading.Lock()
        self._users = 0
        self._saved = 0.0

    def lower(self) -> None:
        with self._lock:
            if self._users == 0:
                self._saved = sys.getswitchinterval()
                sys.setswitchinterval(self.seconds)
            self._users += 1

    def restore(self) -> None:
        with self._lock:
            self._users -= 1
            if self._users == 0:
                sys.setswitchinterval(self._saved)


_SWITCH_INTERVAL = _SwitchInterval(1e-4)


class _ThreadedSampler:
    """A thread that reads ``clock.now`` and then the provider until stopped,
    waiting ``interval`` seconds between reads when one is given.

    Entering lowers the interpreter's switch interval to 0.1 ms (see
    ``_SwitchInterval``), starts the thread, sets the flag and returns after
    the first reading (SamplerStartupFailure if none comes). Exiting stops
    and joins the thread, even when the block raised; if the block did not,
    it then raises the sampler's error. A thread still inside a provider read
    ``stop_timeout`` seconds after the stop raises SamplerStalled, chained to
    the block's error if there is one, and is left to finish as a daemon.
    The switch interval is restored on every way out.
    """

    startup_timeout = 5.0
    stop_timeout = 5.0

    def __init__(self, provider, clock, interval):
        self.provider, self.clock, self.interval = provider, clock, interval
        self.times: list[float] = []
        self.powers: list[float] = []
        self._errors: list[BaseException] = []
        self._flag, self._ready, self._stop = threading.Event(), threading.Event(), threading.Event()
        name = "mtsm-sampler" if interval is None else "sma-sampler"
        self._thread = threading.Thread(target=self._sample, name=name, daemon=True)

    def _sample(self):
        clock, read, times, powers = self.clock, self.provider.next_sample, self.times, self.powers
        ready, stop = self._ready, self._stop
        stopped = stop.is_set if self.interval is None else partial(stop.wait, self.interval)
        try:
            self._flag.wait()
            while True:
                t = clock.now
                powers.append(read(t))
                times.append(t)
                if not ready.is_set():
                    ready.set()
                if stopped():
                    break
        except BaseException as exc:
            self._errors.append(exc)
        finally:
            ready.set()

    def _join(self, exc: BaseException | None = None) -> None:
        self._stop.set()
        self._thread.join(timeout=self.stop_timeout)
        if self._thread.is_alive():
            raise SamplerStalled(
                f"provider read still running {self.stop_timeout:g} s after the sampler was stopped"
            ) from exc
        # read before filtering: the flag span covers the sampling, not the filter
        self.flag_clear = self.clock.now

    def __enter__(self):
        _SWITCH_INTERVAL.lower()
        try:
            self._start()
        except BaseException:
            _SWITCH_INTERVAL.restore()
            raise
        return self

    def _start(self):
        self._thread.start()
        # read once the thread is up, so its start-up is not in the handshake
        self.flag_set = self.clock.now
        self._flag.set()
        self._ready.wait(timeout=self.startup_timeout)
        if not self.times:
            self._join()
            if self._errors:
                raise SamplerStartupFailure(
                    f"sampler failed before the workload started: {self._errors[0]}"
                ) from self._errors[0]
            raise SamplerStartupFailure("sampler produced no reading before startup timeout")

    def __exit__(self, exc_type, exc, tb):
        try:
            self._join(exc)
        finally:
            _SWITCH_INTERVAL.restore()
        if self._errors and exc_type is None:
            raise self._errors[0]
        self.times, self.powers = _monotonic(self.times, self.powers)


def _monotonic(times, powers) -> tuple[np.ndarray, np.ndarray]:
    # Coarse wall clocks can repeat a timestamp between consecutive reads;
    # keep a reading only if it is later than every earlier one, so trace
    # invariants hold.
    t, p = np.asarray(times, dtype=np.float64), np.asarray(powers, dtype=np.float64)
    keep = np.ones(t.size, dtype=bool)
    keep[1:] = t[1:] > np.maximum.accumulate(t)[:-1]
    return t[keep], p[keep]


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
    if not (lead >= 0 and tail >= 0):
        raise ValueError("lead and tail must be >= 0")
    clock = clock or VirtualClock()
    workload = workload.bind(provider)
    with _sampler(provider, workload, clock, config.interval) as sampler:
        clock.advance(lead)
        workload.run(clock)
        clock.advance(tail)
    return PowerTrace(sampler.times, sampler.powers)


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
    with _sampler(provider, workload, clock) as sampler:
        t_start = clock.now
        workload.run(clock)
        t_end = clock.now
    times, powers = sampler.times, sampler.powers
    elapsed = t_end - t_start
    window = KernelWindow(float(times[0]), float(times[-1])) if len(times) > 1 else None
    return EnergyResult(
        strategy=Strategy.MTSM,
        energy=energy_from_readings(powers, elapsed),
        elapsed=elapsed,
        n_samples=len(times),
        trace=PowerTrace(times, powers, window),
        flag_timeline=(sampler.flag_set, sampler.flag_clear),
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
