"""The four benchmark workloads.

Each workload is built from a seed and a tracer (its set-up), then runs
operations one at a time:

* ``inputs(i)`` derives operation i's inputs from the seed;
* ``op(i, inputs, tr, rec)`` runs it, and is what the benchmark times. It
  returns the outputs, with ``blocking_s`` for any deliberate sleep;
* ``check(i, inputs, out, full, ck)`` returns the problems found in the
  outputs. ``full`` adds the costly round-trip checks, run on the first
  operations only;
* ``digest_parts(out)`` yields the bytes the determinism digest covers. The
  digest spans the first ``unit`` operations; ``unit == 0`` means none.

``warmup`` operations run before the measured loop. ``rec`` collects raw
measurements as lists keyed by name: the samples each extraction or
pipeline produced (``samples``) and the seconds they took (``sample_s``),
plus workload-specific ones. ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import dataclasses
import io
import json
import time
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from instrujoule import analysis, catalog, codegen, energy, hardware, report, synthetic, trace
from instrujoule.cli import cli_main
from instrujoule.codegen import KernelVariant
from instrujoule.monitor import (
    CallableWorkload,
    KernelLaunchWorkload,
    RealClock,
    SamplerConfig,
    Strategy,
    VirtualClock,
    measure_instruction,
    run_mtsm,
    run_sma,
)
from instrujoule.providers import ConstantPowerProvider, SyntheticDeviceProvider
from spans import NullTracer

# Acceptance-test tolerances: c9 recovers an injected per-instruction energy
# within 1%; c1 integrates a known profile's window energy within 0.5%.
INSTRUCTION_TOL = 0.01
WINDOW_ENERGY_TOL = 0.005

GENERATION = "Volta"  # the codegen target is sm_70


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def _csv(tr: trace.PowerTrace) -> bytes:
    buf = io.StringIO()
    trace.save_trace(tr, buf)
    return buf.getvalue().encode()


def _check_result(result, label: str, ck) -> list[str]:
    with ck.span("energy.from_readings"):
        again = energy.energy_from_readings(result.trace.powers, result.elapsed)
    if again != result.energy:
        return [f"{label}: energy_from_readings gives {again!r}, result has {result.energy!r}"]
    return []


def _check_round_trip(tr: trace.PowerTrace, label: str) -> list[str]:
    text = _csv(tr)
    if _csv(trace.load_trace(text)) != text:
        return [f"{label}: trace CSV changes on a save/load round trip"]
    return []


def _check_extraction(ie, label: str, ck) -> list[str]:
    problems = []
    for result in (ie.total_result, ie.overhead_result):
        problems += _check_result(result, label, ck)
    with ck.span("energy.instruction_energy"):
        again = energy.instruction_energy(ie.e_total, ie.e_overhead, ie.n_instructions)
    if again != ie.energy_per_instruction:
        problems.append(f"{label}: instruction_energy disagrees with the extraction")
    return problems


def _check_recovered(ie, pair: "Pair") -> list[str]:
    err = pair.error(ie)
    if err <= INSTRUCTION_TOL:
        return []
    return [f"{pair.label}: MTSM recovered energy is {err:.3%} off the injected one"]


def _generate_pair(spec, iterations: int, tr):
    kernels = []
    for variant in KernelVariant:
        with tr.span("codegen.generate"):
            kernel = codegen.generate_kernel(spec, variant, iterations)
        with tr.span("codegen.validate"):
            report_ = codegen.validate_kernel(kernel)
        tr.count("codegen.ptx_bytes", len(kernel.ptx_text))
        kernels.append((kernel, report_))
    return kernels


def _check_kernels(kernels, label: str) -> list[str]:
    return [
        f"{label}: {k.variant.value} kernel fails validation: {r.summary()}"
        for k, r in kernels
        if not r.all_pass
    ]


def _kernel_parts(kernels):
    for kernel, _ in kernels:
        yield kernel.ptx_text.encode()


def _extraction_parts(ie):
    yield repr((ie.energy_per_instruction, ie.e_total, ie.e_overhead)).encode()
    yield _csv(ie.total_result.trace)
    yield _csv(ie.overhead_result.trace)


@dataclasses.dataclass(frozen=True)
class Pair:
    """Paired synthetic devices whose total kernel draws a known extra energy."""

    spec: catalog.InstructionSpec
    optimized: bool
    iterations: int
    overhead: synthetic.SyntheticModel
    total: synthetic.SyntheticModel
    injected_uj: float

    @property
    def label(self) -> str:
        return f"{self.spec.opcode}.{self.spec.operand_type.value}/{'O3' if self.optimized else 'O0'}"

    def error(self, ie) -> float:
        """Relative error of an extraction against the injected energy."""
        return abs(ie.energy_per_instruction - self.injected_uj) / self.injected_uj


def _pair(rng, spec, optimized, iterations, extra_mw, **model) -> Pair:
    overhead = synthetic.SyntheticModel(rng_seed=int(rng.integers(2**31)), **model)
    total = dataclasses.replace(
        overhead, p_kernel=overhead.p_kernel + extra_mw, rng_seed=int(rng.integers(2**31))
    )
    n = iterations * codegen.DEFAULT_UNROLL
    # the extra power over the execution window, spread over n instructions
    injected_uj = extra_mw * overhead.kernel_duration * 1000.0 / n
    return Pair(spec, optimized, iterations, overhead, total, injected_uj)


def _factories(pair: Pair, tr):
    return (
        lambda: tr.provider(SyntheticDeviceProvider(pair.total)),
        lambda: tr.provider(SyntheticDeviceProvider(pair.overhead)),
    )


class CatalogSweep:
    """Every catalog instruction in both optimization settings, repeated.

    One operation is one (instruction, setting): generate and validate the
    total and overhead PTX, then a paired MTSM and a paired PAPI extraction
    on short noisy kernels at the default read cost. The operation that
    completes a sweep also assembles and renders the results table and
    scores the sweep's MTSM energies against the injected ones. Each sweep
    draws fresh models and loop counts, so no sweep repeats another's work.
    """

    name = "catalog-sweep"

    def __init__(self, seed: int, tr=NullTracer()):
        self.seed = seed
        self.specs = catalog.list_catalog()
        self.unit = self.warmup = 2 * len(self.specs)
        self.block = 1
        self._entries: list = []
        self._scored: list = []
        self._sweep_inputs = {0: self._build_sweep(0)}

    def _build_sweep(self, sweep: int) -> list[Pair]:
        pairs = []
        for s, spec in enumerate(self.specs):
            rng = _rng(self.seed, sweep, s)
            iterations = int(rng.integers(200_000, 2_000_001))
            model = dict(
                p_idle=rng.uniform(15e3, 30e3),
                p_kernel=rng.uniform(30e3, 120e3),
                pre_rise_lead=rng.uniform(5e-4, 1e-3),
                kernel_duration=rng.uniform(0.2, 0.5),
                decay_steps=int(rng.integers(1, 5)),
                noise_stddev=rng.uniform(100.0, 300.0),
            )
            extra_o3 = rng.uniform(20e3, 60e3)
            extra_o0 = extra_o3 * rng.uniform(1.05, 1.5)  # O0 costs more per instruction
            pairs.append(_pair(rng, spec, True, iterations, extra_o3, **model))
            pairs.append(_pair(rng, spec, False, iterations, extra_o0, **model))
        return pairs

    def inputs(self, i: int) -> Pair:
        sweep, entry = divmod(i, self.unit)
        if sweep not in self._sweep_inputs:
            self._sweep_inputs = {sweep: self._build_sweep(sweep)}
        return self._sweep_inputs[sweep][entry]

    def op(self, i: int, pair: Pair, tr, rec) -> dict:
        if i % self.unit == 0:
            self._entries, self._scored = [], []
        with tr.span("catalog.lookup"):
            spec = catalog.find_instruction(pair.spec.opcode, pair.spec.operand_type)
        kernels = _generate_pair(spec, pair.iterations, tr)
        n = kernels[0][0].n_instructions
        factories = _factories(pair, tr)
        out = {"kernels": kernels}
        for strategy, span in ((Strategy.MTSM, "monitor.mtsm"), (Strategy.PAPI_STYLE, "monitor.papi")):
            start = perf_counter()
            with tr.span(span):
                ie = measure_instruction(
                    factories, KernelLaunchWorkload(), KernelLaunchWorkload(), n, strategy,
                    spec=spec, optimized=pair.optimized,
                )
            took = perf_counter() - start
            if strategy is Strategy.MTSM:  # a PAPI extraction is two reads
                rec["extraction_s"].append(took)
            rec["samples"].append(ie.total_result.n_samples + ie.overhead_result.n_samples)
            rec["sample_s"].append(took)
            out[strategy.value] = ie
        recovered = out["mtsm"].energy_per_instruction
        rec["energy_err"].append(pair.error(out["mtsm"]))
        self._entries.append(
            (spec, GENERATION, pair.optimized, out["papi"].energy_per_instruction, recovered)
        )
        self._scored.append((pair.label, recovered, pair.injected_uj))
        if i % self.unit == self.unit - 1:
            with tr.span("report.build_table"):
                table = report.build_results_table(self._entries)
            out["rows"] = len(table)
            with tr.span("report.render"):
                out["table"] = report.render_table(table)
            with tr.span("analysis.compare"):
                out["scores"] = analysis.compare_strategies(self._scored)
        return out

    def check(self, i: int, pair: Pair, out: dict, full: bool, ck) -> list[str]:
        problems = _check_kernels(out["kernels"], pair.label) + _check_recovered(out["mtsm"], pair)
        for strategy in ("mtsm", "papi"):
            problems += _check_extraction(out[strategy], pair.label, ck)
        if out.get("rows", len(catalog.catalog_rows())) != len(catalog.catalog_rows()):
            problems.append(f"results table has {out['rows']} rows, the catalog {len(catalog.catalog_rows())}")
        if full:
            for strategy in ("mtsm", "papi"):
                for result in (out[strategy].total_result, out[strategy].overhead_result):
                    problems += _check_round_trip(result.trace, pair.label)
        return problems

    def digest_parts(self, out: dict):
        yield from _kernel_parts(out["kernels"])
        yield from _extraction_parts(out["mtsm"])
        yield from _extraction_parts(out["papi"])
        if "table" in out:
            yield out["table"].encode()
            yield repr(out["scores"].stats).encode()


class LongKernel:
    """Paired MTSM extractions on 20 s noisy kernels with ramp and decay,
    sampled every 0.1 ms: about 200k provider reads per run."""

    name = "long-kernel"
    read_cost = 1e-4
    unit = warmup = block = 1

    def __init__(self, seed: int, tr=NullTracer()):
        self.seed = seed
        self.specs = catalog.list_catalog()

    def inputs(self, i: int) -> Pair:
        rng = _rng(self.seed, i)
        spec = self.specs[int(rng.integers(len(self.specs)))]
        optimized = bool(rng.integers(2))
        return _pair(
            rng, spec, optimized, int(rng.integers(1_000_000, 10_000_001)), rng.uniform(20e3, 60e3),
            p_idle=rng.uniform(15e3, 30e3),
            p_kernel=rng.uniform(30e3, 120e3),
            ramp_mw=rng.uniform(5e3, 30e3),
            pre_rise_lead=rng.uniform(1e-3, 3e-3),
            kernel_duration=rng.uniform(19.8, 20.0),
            decay_steps=int(rng.integers(2, 7)),
            noise_stddev=rng.uniform(500.0, 2000.0),
        )

    def op(self, i: int, pair: Pair, tr, rec) -> dict:
        with tr.span("catalog.lookup"):
            spec = catalog.find_instruction(pair.spec.opcode, pair.spec.operand_type)
        kernels = _generate_pair(spec, pair.iterations, tr)
        start = perf_counter()
        with tr.span("monitor.mtsm"):
            ie = measure_instruction(
                _factories(pair, tr), KernelLaunchWorkload(), KernelLaunchWorkload(),
                kernels[0][0].n_instructions, Strategy.MTSM,
                clock_factory=partial(VirtualClock, read_cost=self.read_cost),
                spec=spec, optimized=pair.optimized,
            )
        took = perf_counter() - start
        rec["extraction_s"].append(took)
        rec["samples"].append(ie.total_result.n_samples + ie.overhead_result.n_samples)
        rec["sample_s"].append(took)
        rec["energy_err"].append(pair.error(ie))
        return {"kernels": kernels, "mtsm": ie}

    def check(self, i: int, pair: Pair, out: dict, full: bool, ck) -> list[str]:
        ie = out["mtsm"]
        problems = _check_kernels(out["kernels"], pair.label) + _check_recovered(ie, pair)
        problems += _check_extraction(ie, pair.label, ck)
        if full:
            problems += _check_round_trip(ie.total_result.trace, pair.label)
            problems += _check_round_trip(ie.overhead_result.trace, pair.label)
        return problems

    def digest_parts(self, out: dict):
        yield from _kernel_parts(out["kernels"])
        yield from _extraction_parts(out["mtsm"])


class RigVerify:
    """The paper's verification flow through ``cli_main``, in-process.

    Set-up synthesizes a seeded noisy profile of about 100k rows and turns it
    into a two-shunt plus clamp oscilloscope capture whose channels are
    quantized to 1 uV / 1 uA, so the capture CSV stores them exactly. One
    operation: ``gen`` the kernel pair, write the capture with
    ``save_hw_capture``, ``analyze-hw`` it into a power-trace CSV and a
    window-energy JSON, ``measure`` MTSM on a replay of that trace, and
    ``compare`` the replayed energy with the rig energy.
    """

    name = "rig-verify"
    read_cost = 1e-3  # replay sampling: monitor stays a small share
    sample_rate = 5_000.0
    unit = warmup = block = 1

    def __init__(self, seed: int, tr=NullTracer()):
        self.workdir: Path | None = None
        rng = _rng(seed)
        specs = catalog.list_catalog()
        self.spec = specs[int(rng.integers(len(specs)))]
        lead = 2e-4
        # launch so that execution starts one replay read after the trace
        # start, where the replayed MTSM workload starts
        self.model = synthetic.SyntheticModel(
            p_idle=rng.uniform(15e3, 30e3),
            p_kernel=rng.uniform(30e3, 120e3),
            ramp_mw=rng.uniform(5e3, 30e3),
            pre_rise_lead=lead,
            idle_lead=self.read_cost - lead,
            kernel_duration=round(rng.uniform(17.5, 18.0), 3),
            decay_steps=4,
            idle_tail=1.0,
            noise_stddev=rng.uniform(500.0, 2000.0),
            sample_rate=self.sample_rate,
            rng_seed=int(rng.integers(2**31)),
        )
        with tr.span("synthetic.synthesize"):
            profile, self.truth = synthetic.synthesize(self.model)
        tr.count("synthetic.rows", len(profile))
        self.capture = _capture_from(profile, rng)
        self.power = hardware.hw_power_trace(self.capture)

    def inputs(self, i: int) -> None:
        return None

    def _paths(self) -> dict[str, Path]:
        names = ("total.ptx", "overhead.ptx", "capture.csv", "trace.csv", "rig.json",
                 "measured.json", "compare.json")
        return {n.split(".")[0]: self.workdir / n for n in names}

    def op(self, i: int, _, tr, rec) -> dict:
        p = self._paths()
        w = self.truth.window
        window = f"{w.start!r},{w.end!r}"
        inst = f"{self.spec.opcode}.{self.spec.operand_type.value}"
        start = perf_counter()
        with tr.patch_cli():
            for variant in ("total", "overhead"):
                _cli(tr, "cli.gen", ["gen", "--inst", inst, "--variant", variant, "--out", str(p[variant])])
            with tr.span("hardware.save_capture"):
                hardware.save_hw_capture(self.capture, p["capture"])
            _cli(tr, "cli.analyze_hw", ["analyze-hw", "--capture", str(p["capture"]),
                                        "--window", window, "--out", str(p["trace"])])
            _cli(tr, "cli.analyze_hw", ["analyze-hw", "--capture", str(p["capture"]),
                                        "--window", window, "--out", str(p["rig"])])
            _cli(tr, "cli.measure", ["measure", "--strategy", "mtsm",
                                     "--provider", f"replay:{p['trace']}",
                                     "--workload", f"synth:{self.model.kernel_duration!r}",
                                     "--read-cost", repr(self.read_cost), "--out", str(p["measured"])])
            _cli(tr, "cli.compare", ["compare", "--pred", str(p["measured"]), "--ref", str(p["rig"]),
                                     "--out", str(p["compare"])])
        took = perf_counter() - start
        rows = len(self.capture)
        rec["samples"].append(rows)
        rec["sample_s"].append(took)
        trace_bytes = p["trace"].stat().st_size
        tr.count("trace.rows", 2 * rows)  # written by analyze-hw, read back by measure
        tr.count("trace.bytes", 2 * trace_bytes)
        tr.count("cli.json_bytes", sum(p[k].stat().st_size for k in ("rig", "measured", "compare")))
        outputs = {k: p[k].read_bytes() for k in ("total", "overhead", "trace", "rig", "measured", "compare")}
        measured = json.loads(outputs["measured"])
        rig = json.loads(outputs["rig"])
        rec["energy_err"].append(abs(measured["energy_mj"] - rig["energy_mj"]) / rig["energy_mj"])
        return outputs

    def check(self, i: int, _, out: dict, full: bool, ck) -> list[str]:
        problems = []
        measured = json.loads(out["measured"])
        rig = json.loads(out["rig"])
        scores = json.loads(out["compare"])
        powers = np.asarray(measured["trace"]["power_mw"])
        with ck.span("energy.from_readings"):
            again = energy.energy_from_readings(powers, measured["elapsed_s"])
        if again != measured["energy_mj"]:
            problems.append("measure: energy_from_readings does not reproduce energy_mj")
        with ck.span("energy.integrate"):
            window_energy = energy.integrate_energy(self.power, self.truth.window)
        if window_energy != rig["energy_mj"]:
            problems.append("analyze-hw energy differs from the capture's window energy")
        truth = self.truth.true_energy
        if not abs(rig["energy_mj"] - truth) <= WINDOW_ENERGY_TOL * truth:
            problems.append(f"rig window energy {rig['energy_mj']!r} is off the profile's {truth!r}")
        if not scores["mape_percent"] <= 100 * INSTRUCTION_TOL:
            problems.append(f"replayed MTSM is {scores['mape_percent']:.4f}% off the rig energy")
        for kernel in ("total", "overhead"):
            parsed = codegen.BenchmarkKernel(
                out[kernel].decode(), self.spec, KernelVariant(kernel), codegen.DEFAULT_ITERATIONS,
                codegen.DEFAULT_UNROLL, codegen.entry_name_for(self.spec), 0,
            )
            if not codegen.validate_kernel(parsed).all_pass:
                problems.append(f"gen: {kernel} kernel fails validation")
        if full:
            problems += self._check_files(out, rig)
        return problems

    def _check_files(self, out: dict, rig: dict) -> list[str]:
        problems = []
        p = self._paths()
        loaded = hardware.load_hw_capture(p["capture"])
        same = loaded.r_s == self.capture.r_s and np.array_equal(loaded.times, self.capture.times) and all(
            np.array_equal(loaded.channels[c], self.capture.channels[c]) for c in self.capture.channels
        )
        if not same:
            problems.append("capture changes on a save/load round trip")
        tr = trace.load_trace(out["trace"])
        if _csv(tr) != out["trace"]:
            problems.append("power trace CSV changes on a save/load round trip")
        from_csv = energy.integrate_energy(tr, tr.window)
        if not abs(from_csv - rig["energy_mj"]) <= 1e-6 * rig["energy_mj"]:
            problems.append("energy of the trace CSV window differs from the rig energy")
        return problems

    def digest_parts(self, out: dict):
        for key in ("total", "overhead", "trace", "rig", "measured", "compare"):
            yield out[key]


def _capture_from(profile: trace.PowerTrace, rng) -> hardware.HwCapture:
    """Split a milliwatt profile over the rig's three supplies as scope channels."""
    n = len(profile)
    watts = profile.powers / 1000.0
    f12, f33 = rng.uniform(0.35, 0.5), rng.uniform(0.02, 0.06)
    r_s = round(rng.uniform(0.005, 0.02), 6)

    def q(x):
        return np.round(x, 6)

    v_g1 = q(12.0 + rng.normal(0.0, 0.01, n))
    v_g2 = q(3.3 + rng.normal(0.0, 0.005, n))
    v_dps = q(12.0 + rng.normal(0.0, 0.01, n))
    channels = {
        "v_s1": q(v_g1 + watts * f12 / v_g1 * r_s),
        "v_g1": v_g1,
        "v_s2": q(v_g2 + watts * f33 / v_g2 * r_s),
        "v_g2": v_g2,
        "i_clamp": q(watts * (1.0 - f12 - f33) / v_dps),
        "v_dps": v_dps,
    }
    return hardware.HwCapture(profile.times, channels, r_s)


class CliFailed(RuntimeError):
    pass


def _cli(tr, span: str, argv: list[str]) -> None:
    with tr.span(span):
        code = cli_main(argv)
    if code != 0:
        raise CliFailed(f"instrujoule {argv[0]} exited with {code}")


class LiveThreaded:
    """Threaded runners on the real clock against an in-process provider.

    Operations come in blocks of ten: nine ``run_mtsm`` runs and one short
    fixed-interval ``run_sma``. The kernel is a ``CallableWorkload`` that
    sleeps for a known duration, which releases the interpreter lock the way
    a device synchronize does. Every block holds the same durations in a
    seeded order, so the median per-run cost falls inside the 20 ms group,
    never on a jump between groups.
    """

    name = "live-threaded"
    durations = (0.002, 0.002, 0.02, 0.02, 0.02, 0.02, 0.1, 0.2, 0.2)
    sma_seconds = 0.02
    sma_interval = 0.002
    sma_pad = 0.005  # lead and tail of each SMA run
    unit = 0
    warmup = 5
    block = len(durations) + 1  # windows of whole blocks keep the duration mix

    def __init__(self, seed: int, tr=NullTracer()):
        self.seed = seed

    def inputs(self, i: int) -> tuple[float, float, bool]:
        block, k = divmod(i, len(self.durations) + 1)
        rng = _rng(self.seed, block)
        order = rng.permutation(len(self.durations) + 1)[k]
        power_mw = rng.uniform(50e3, 300e3, len(self.durations) + 1)[k]
        if order == len(self.durations):
            return self.sma_seconds, power_mw, True
        return self.durations[order], power_mw, False

    def op(self, i: int, inp, tr, rec) -> dict:
        seconds, power_mw, sma = inp
        kernel = CallableWorkload(partial(time.sleep, seconds))
        if sma:
            with tr.span("monitor.sma"):
                tr_ = run_sma(
                    tr.provider(ConstantPowerProvider(power_mw)), kernel,
                    SamplerConfig.fixed_interval(self.sma_interval),
                    lead=self.sma_pad, tail=self.sma_pad, clock=RealClock(),
                )
            gaps = np.diff(tr_.times)
            rec["interval_err_s"].append(float(np.median(np.abs(gaps - self.sma_interval))))
            return {"sma": tr_, "blocking_s": seconds + 2 * self.sma_pad}
        with tr.span("monitor.mtsm"):
            # made inside the span: the sampler thread's reads hang under it
            provider = tr.provider(ConstantPowerProvider(power_mw))
            result = run_mtsm(provider, kernel, clock=RealClock())
        times = result.trace.times
        flag_set, flag_clear = result.flag_timeline
        span = flag_clear - flag_set
        rec["samples"].append(result.n_samples)
        rec["sample_s"].append(span)
        rec["handshake_s"].append(times[0] - flag_set)
        rec["excess_s"].append(result.elapsed - seconds)
        rec["clear_lag_s"].append(flag_clear - times[-1])
        rec["max_gap_s"].append(float(np.max(np.diff(times))) if times.size > 1 else span)
        rec["energy_err"].append(abs(result.energy - power_mw * seconds) / (power_mw * seconds))
        reads = getattr(provider, "reads", None)
        if reads is not None:
            rec["dropped"].append(reads - result.n_samples)
        return {"mtsm": result, "blocking_s": seconds}

    def check(self, i: int, inp, out: dict, full: bool, ck) -> list[str]:
        seconds, power_mw, _ = inp
        if "sma" in out:
            return [] if len(out["sma"]) else ["run_sma recorded no samples"]
        result = out["mtsm"]
        problems = _check_result(result, f"live run {i}", ck)
        if result.elapsed < seconds:
            problems.append(f"live run {i}: elapsed {result.elapsed:.6f}s is below the kernel's {seconds}s")
        if full:
            problems += _check_round_trip(result.trace, f"live run {i}")
        return problems

    def digest_parts(self, out: dict):
        return ()


WORKLOADS = {w.name: w for w in (CatalogSweep, LongKernel, RigVerify, LiveThreaded)}
