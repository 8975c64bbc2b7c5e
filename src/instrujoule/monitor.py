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
time grid in closed form, the MTSM flag-set read at ``t0`` included, and
reads it with one ``provider.sample_grid(times)`` call, which makes every run
bit-reproducible. The flag-clear instant is defined as the sampler's first
read at or after workload completion, so the flag interval coincides exactly
with the recorded sample span.

A virtual run thus has two steps: drive the workload on the clock, then read
the grid. A standalone run reads as soon as it has driven. A large simulated
MTSM pair in ``measure_instruction`` drives both runs, then reads the two
grids on two threads, as numpy's generator fills and large array loops
release the interpreter lock; so the factories of such a pair must not hand
out providers that share mutable state.

Strategy runners are not reentrant per provider instance; create one
provider (and one clock) per measurement.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from ._checks import check_integer, check_number
from .catalog import InstructionSpec
from .energy import energy_from_readings, instruction_energy
from .errors import SamplerStalled, SamplerStartupFailure, ZeroInstructions
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
    advance the clock by it after every reading. A positive step too small
    to change ``now`` raises ValueError instead of leaving time standing.
    """

    def __init__(self, start: float = 0.0, read_cost: float = DEFAULT_READ_COST):
        check_number("read_cost", read_cost, "> 0")
        check_number("start", start)
        self.now = float(start)
        self.read_cost = float(read_cost)

    def advance(self, dt: float) -> None:
        check_number("clock step", dt, ">= 0")
        if dt > 0 and self.now + dt == self.now:
            raise ValueError(f"a step of {dt:g} s does not move a clock at {self.now:g} s")
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
        check_number("interval", self.interval, "> 0")

    @classmethod
    def fixed_interval(cls, interval: float = DEFAULT_SMA_INTERVAL) -> "SamplerConfig":
        return cls(interval)


class Workload:
    """A kernel stand-in: something the driver can run to completion.

    ``run(clock, provider)`` must block until the workload is fully complete
    (the simulated equivalent of a device synchronize). ``provider`` is the
    sensor of the device it runs on, so a workload that launches on a
    simulated device meets its provider there.
    """

    label: str = "kernel"

    def run(self, clock, provider: PowerProvider) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class TimedWorkload(Workload):
    """Simulated kernel of a fixed duration (seconds)."""

    seconds: float
    label: str = "kernel"

    def __post_init__(self):
        check_number("seconds", self.seconds, "> 0")

    def run(self, clock, provider: PowerProvider) -> None:
        clock.advance(self.seconds)


@dataclass(frozen=True)
class CallableWorkload(Workload):
    """Live workload wrapping an opaque blocking callable."""

    fn: Callable[[], None] = field(repr=False)
    label: str = "kernel"

    def run(self, clock, provider: PowerProvider) -> None:
        if isinstance(clock, VirtualClock):
            raise ValueError(
                f"workload {self.label!r} runs in wall time; "
                "simulated runs need TimedWorkload or KernelLaunchWorkload"
            )
        self.fn()


@dataclass(frozen=True)
class KernelLaunchWorkload(Workload):
    """Synthetic-device kernel: launching it anchors the provider's profile.

    Completion takes ``pre_rise_lead + kernel_duration``, as a timer around a
    launch and synchronize would see. The lead runs at plateau power, so MTSM
    converges to ``true_window_energy() + (p_idle + p_kernel) * pre_rise_lead``
    (+0.5% for a 0.4 s kernel with a 2 ms lead).
    """

    label: str = "kernel"

    def run(self, clock, provider: PowerProvider) -> None:
        model = getattr(provider, "model", None)
        if model is None:
            raise ValueError("KernelLaunchWorkload needs a synthetic provider")
        provider.launch(clock.now)
        clock.advance(model.pre_rise_lead + model.kernel_duration)


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


@dataclass(frozen=True)
class InstructionEnergy:
    """Per-instruction extraction result with its two raw runs for audit."""

    spec: InstructionSpec | None
    optimized: bool
    strategy: str
    energy_per_instruction: float  # uJ
    e_total: float                 # mJ
    e_overhead: float              # mJ
    n_instructions: int
    negative_net: bool
    total_result: EnergyResult | None = None
    overhead_result: EnergyResult | None = None


def _sampler(provider: PowerProvider, clock, interval: float | None = None):
    """The sampler a driver runs its block inside: reads every ``interval``
    seconds (SMA) or back to back (MTSM, ``interval=None``), virtual or
    threaded as the clock is."""
    if isinstance(clock, VirtualClock):
        return _VirtualSampler(provider, clock, interval)
    return _ThreadedSampler(provider, clock, interval)


class _VirtualSampler:
    """Reads its time grid after the block: once the workload has run under a
    virtual clock, the provider is a pure function of time, and one
    ``sample_grid`` call reads the whole grid.

    The block is the flag span: entering marks the flag set, exiting marks
    the end of the block. ``read()`` then builds the grid and reads it, at
    once in a standalone run, or later, beside another run's read, in a
    large simulated pair. Fixed interval: ``t0 + k*interval`` up to the end
    of the block. Back to back: ``t0 + k*read_cost`` from the flag-set read
    at ``t0``, which comes before the workload launches, up to the first
    point at or after completion, where the flag clear is observed. A
    workload that raises leaves the provider unread.
    """

    def __init__(self, provider, clock: VirtualClock, interval):
        self.provider, self.clock, self.interval = provider, clock, interval

    def __enter__(self):
        self.flag_set = self.clock.now
        if self.interval is None:  # the flag-set read's cost
            self.clock.advance(self.clock.read_cost)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.block_end = self.clock.now

    def read(self) -> tuple[np.ndarray, np.ndarray]:
        back_to_back = self.interval is None
        step = self.clock.read_cost if back_to_back else self.interval
        times = _read_times(self.flag_set, step, self.block_end, back_to_back)
        powers = self.provider.sample_grid(times)
        self.flag_clear = float(times[-1])
        if back_to_back:
            self.clock.now = self.flag_clear  # the clear is observed at the last read
        return times, powers


def _read_times(t0: float, step: float, t_end: float, back_to_back: bool) -> np.ndarray:
    """The virtual sampler's read times ``t0 + k*step``, bit for bit as Python
    computes them. Back to back: from k = 0 (the flag-set read, at ``t0``
    itself) up to the first k whose time is at or after ``t_end``. At a fixed
    interval: every k whose time is at most ``t_end`` (plus 1e-12)."""
    bound = t_end if back_to_back else t_end + 1e-12
    # the estimate's roundings move a time by a few ulps of the span, less than
    # a step on any grid that fits in memory; so where a step moves a clock at
    # the bound, the first time past it has k <= estimate + 1, and where it
    # cannot, the run fails instead. A grid too large to hold fails in arange.
    grid = np.arange(max(np.ceil((bound - t0) / step), 0) + 2, dtype=np.float64)
    grid *= step
    grid += t0  # in place: t0 + k*step, bit for bit
    k = grid.searchsorted(bound, "left" if back_to_back else "right")
    if k == grid.size:
        raise ValueError(f"a step of {step:g} s does not move a clock at {bound:g} s")
    if back_to_back:
        grid[0] = t0  # the flag-set read's time: -0.0 + 0.0 is +0.0
    times = grid[: k + back_to_back]
    # a step under one ulp of the times moves the clock by whole ulps, two reads to one time
    if not (times[1:] > times[:-1]).all():
        raise ValueError(f"a step of {step:g} s repeats read times on a clock at {t0:g} s")
    return times


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
    The switch interval is restored on every way out. ``read()`` returns the
    readings with repeated timestamps filtered out.
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

    def read(self) -> tuple[np.ndarray, np.ndarray]:
        return _monotonic(self.times, self.powers)


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
    config = config or SamplerConfig()
    check_number("lead", lead, ">= 0")
    check_number("tail", tail, ">= 0")
    clock = clock or VirtualClock()
    with _sampler(provider, clock, config.interval) as sampler:
        clock.advance(lead)
        workload.run(clock, provider)
        clock.advance(tail)
    return PowerTrace(*sampler.read())


def run_papi_style(
    provider: PowerProvider,
    workload: Workload,
    clock=None,
) -> EnergyResult:
    """Time the workload and take one reading at completion.

    Energy is that single instantaneous power (mW) times the elapsed time
    (s), in mJ. The reading happens after the completion barrier, never
    before.
    """
    clock = clock or VirtualClock()
    t_start = clock.now
    workload.run(clock, provider)
    t_end = clock.now
    t_read = clock.now
    power = provider.next_sample(t_read)
    elapsed = t_end - t_start
    return EnergyResult(
        strategy=Strategy.PAPI_STYLE,
        energy=energy_from_readings([power], elapsed),
        elapsed=elapsed,
        n_samples=1,
        trace=PowerTrace([t_read], [power]),
        flag_timeline=(t_start, t_end),
        label=workload.label,
    )


def run_mtsm(
    provider: PowerProvider,
    workload: Workload,
    clock=None,
) -> EnergyResult:
    """Flag-gated max-rate sampling synchronized to the workload.

    Driver sequence: start the sampler, set the flag, start timing, run the
    workload, synchronize, stop timing, clear the flag, join the sampler.
    The sampler's first reading is at flag set, before the workload starts,
    and the sampler owns the sample buffer until the join hands it to the
    caller. The threaded sampler raises SamplerStartupFailure when no
    reading comes before the workload would start; a virtual run reads its
    whole grid after the workload, so a provider that cannot answer at flag
    set raises its own error there. Energy is the sample mean of all
    recorded readings times the timed elapsed.
    """
    return _MtsmRun(provider, workload, clock or VirtualClock()).read()


class _MtsmRun:
    """One MTSM run in two steps. Building it drives the workload inside the
    sampler; ``read()`` takes the readings, which a virtual run does only
    then, and builds the result."""

    def __init__(self, provider: PowerProvider, workload: Workload, clock):
        with _sampler(provider, clock) as sampler:
            t_start = clock.now
            workload.run(clock, provider)
            t_end = clock.now
        self.sampler, self.elapsed, self.label = sampler, t_end - t_start, workload.label

    def read(self) -> EnergyResult:
        sampler = self.sampler
        times, powers = sampler.read()
        window = KernelWindow(float(times[0]), float(times[-1])) if len(times) > 1 else None
        return EnergyResult(
            strategy=Strategy.MTSM,
            energy=energy_from_readings(powers, self.elapsed),
            elapsed=self.elapsed,
            n_samples=len(times),
            trace=PowerTrace(times, powers, window),
            flag_timeline=(sampler.flag_set, sampler.flag_clear),
            label=self.label,
        )

    def reads_beside(self) -> bool:
        """Whether the read may run beside another run's on a second thread:
        a virtual run whose provider reads a grid with its own ``sample_grid``
        (the default's per-time loop holds the interpreter lock throughout)
        and whose grid holds at least ``_PAIR_MIN_READS`` reads."""
        sampler, default = self.sampler, PowerProvider.sample_grid
        return (
            isinstance(sampler, _VirtualSampler)
            and getattr(type(sampler.provider), "sample_grid", default) is not default
            and sampler.block_end - sampler.flag_set >= _PAIR_MIN_READS * sampler.clock.read_cost
        )


# Reads each grid must hold before a pair's two reads go on two threads. On a
# shared 2-vCPU x86-64 host (Python 3.11, numpy 2.4), the read steps of two
# noisy, ramped simulated devices at 0.1 ms a read took, on two threads
# against one after the other (medians of 15-41 repeats, three runs): x1.85-2.03
# at 4k reads, x1.10-1.28 at 16k, x1.01-1.06 at 32k, x0.89-0.91 at 48k,
# x0.69-0.82 at 64k and x0.68-0.70 at 200k. Below the crossover the thread's
# start, join and lock hand-offs cost more than the overlap saves.
_PAIR_MIN_READS = 1 << 16


def _mtsm_pair(total_factory, total_kernel, overhead_factory, overhead_kernel, clock_factory):
    """The total and the overhead MTSM run of a pair, results in that order.

    Runs go one after the other, each read before the next is driven, unless
    both read beside another run (``_MtsmRun.reads_beside``) on a provider
    and a clock of their own. Then both are driven first and read on two
    threads. Either way, when both runs fail the total run's error is raised.
    """
    total = _MtsmRun(total_factory(), total_kernel, clock_factory())
    provider, clock = overhead_factory(), clock_factory()
    if not total.reads_beside() or provider is total.sampler.provider or clock is total.sampler.clock:
        return total.read(), run_mtsm(provider, overhead_kernel, clock)
    try:
        overhead = _MtsmRun(provider, overhead_kernel, clock)
    except BaseException:
        total.read()  # a total run that fails too raises its own error first
        raise
    if not overhead.reads_beside():
        return total.read(), overhead.read()
    return _read_beside(total, overhead)


def _read_beside(total: _MtsmRun, overhead: _MtsmRun) -> tuple[EnergyResult, EnergyResult]:
    """Read the overhead run on a short-lived second thread while this one
    reads the total run. The thread is joined on every way out, and its
    error is raised here unless the total run's read raised first."""
    outcome: list = []

    def read_overhead():
        try:
            outcome.append(overhead.read())
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=read_overhead, name="mtsm-pair-reader")
    thread.start()
    try:
        total_result = total.read()
    finally:
        thread.join()
    (overhead_result,) = outcome
    if isinstance(overhead_result, BaseException):
        raise overhead_result
    return total_result, overhead_result


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

    A large simulated MTSM pair (two virtual clocks, two providers with their
    own ``sample_grid``, at least ``_PAIR_MIN_READS`` reads a run) runs both
    workloads and then reads the two grids on two threads, with results equal
    to those of one run after the other; so the factories must not hand out
    providers that share mutable state. Live pairs, PAPI pairs, per-time
    providers, a clock or provider shared by both runs and small grids run
    one after the other. When both runs fail, the total run's error is raised.
    """
    strategy = Strategy(strategy)
    if strategy not in (Strategy.PAPI_STYLE, Strategy.MTSM):
        raise ValueError(f"per-instruction extraction needs papi or mtsm, not {strategy.value}")
    check_integer("n_instructions", n_instructions, 1, sys.float_info.max, ZeroInstructions)  # before either run
    clock_factory = clock_factory or VirtualClock
    if isinstance(provider_factory, (tuple, list)):
        total_factory, overhead_factory = provider_factory
    else:
        total_factory = overhead_factory = provider_factory

    if strategy is Strategy.MTSM:
        total_result, overhead_result = _mtsm_pair(
            total_factory, total_kernel, overhead_factory, overhead_kernel, clock_factory
        )
    else:
        total_result = run_papi_style(total_factory(), total_kernel, clock=clock_factory())
        overhead_result = run_papi_style(overhead_factory(), overhead_kernel, clock=clock_factory())
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
