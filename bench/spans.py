"""Span recording for the traced run, and the per-layer metrics built from it.

A span is one call into an instrujoule layer, opened by the benchmark's own
code: (id, parent id, name, start, end). Spans stay in memory, packed five
floats per span in one ``array('d')``, until the run ends. Provider reads
inside the strategy runners are reached through ``TimedProvider``, a
delegating provider that records each ``next_sample`` as a span; it is
used only in the traced run.

The layer of a span is the part of its name before the first dot
(``providers.next_sample`` belongs to ``providers``). Self time is a span's
duration minus the time its child spans cover. Children of one span never
overlap here: the main thread opens no span while a threaded runner's
sampler is reading, and there is one sampler per run.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from instrujoule import cli
from instrujoule.providers import PowerProvider

READ = "providers.next_sample"

# Names the CLI module imported from the layers, and the span each call
# gets when the traced run reaches it through ``cli_main``.
_CLI_CALLS = {
    "find_instruction": "catalog.lookup",
    "generate_kernel": "codegen.generate",
    "load_hw_capture": "hardware.load_capture",
    "hw_power_trace": "hardware.power_trace",
    "hw_energy": "hardware.energy",
    "save_trace": "trace.save",
    "load_trace": "trace.load",
    "run_mtsm": "monitor.mtsm",
    "compare_strategies": "analysis.compare",
}


class NullTracer:
    """Tracing off: spans cost one shared no-op context, providers pass through."""

    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, n):
        pass

    def provider(self, provider):
        return provider

    def patch_cli(self):
        return self._null


class Tracer:
    def __init__(self):
        self._rows = array("d")
        self._names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.counts: Counter = Counter()

    def _ix(self, name: str) -> int:
        ix = self._name_ix.get(name)
        if ix is None:
            ix = self._name_ix[name] = len(self._names)
            self._names.append(name)
        return ix

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        """Innermost span open in the calling thread, or 0."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def record(self, name: str, parent: int, start: float, end: float) -> None:
        # one extend call per span, so rows from two threads never interleave
        self._rows.extend((next(self._ids), parent, self._ix(name), start, end))

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self._rows.extend((sid, parent, self._ix(name), start, end))

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def provider(self, provider: PowerProvider) -> "TimedProvider":
        return TimedProvider(provider, self, self.current())

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def patch_cli(self):
        """Route the CLI's calls into the layers through spans, and its
        replay provider through ``TimedProvider``, until the block exits."""
        saved = {attr: getattr(cli, attr) for attr in (*_CLI_CALLS, "ReplayProvider")}
        for attr, name in _CLI_CALLS.items():
            setattr(cli, attr, self.wrap(name, saved[attr]))
        cli.ReplayProvider = lambda trace: self.provider(saved["ReplayProvider"](trace))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(cli, attr, fn)

    def table(self):
        """Span names, durations and self times, one entry per span."""
        rows = np.frombuffer(self._rows, dtype=np.float64).reshape(-1, 5)
        ids = rows[:, 0].astype(np.int64)
        parents = rows[:, 1].astype(np.int64)
        dur = rows[:, 4] - rows[:, 3]
        child_time = np.bincount(parents, weights=dur, minlength=int(ids.max(initial=0)) + 1)
        return rows[:, 2].astype(np.int64), dur, dur - child_time[ids]


class TimedProvider(PowerProvider):
    """Delegating provider that records every read as a span.

    It forwards ``model`` and ``launch`` so synthetic-device workloads can
    bind to it. A read's parent is the innermost span open in the reading
    thread; a sampler thread has none, so its reads hang under the span
    that was open when the provider was made.
    """

    def __init__(self, inner: PowerProvider, tracer: Tracer, parent: int):
        self._inner = inner
        self._tracer = tracer
        self._parent = parent
        self.reads = 0

    @property
    def model(self):
        return self._inner.model

    def launch(self, t: float) -> None:
        self._inner.launch(t)

    def next_sample(self, clock):
        start = perf_counter()
        sample = self._inner.next_sample(clock)
        end = perf_counter()
        self.reads += 1
        self._tracer.record(READ, self._tracer.current() or self._parent, start, end)
        return sample


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans of a traced phase of ``n_ops`` operations.

    ``<name>_ms`` / ``_us`` is the median duration of the spans of that name;
    ``<layer>.self_ms`` is the layer's self time per operation; other counts
    are per operation, except ``synthetic.rows``, which set-up synthesizes once.
    """
    name_ix, dur, self_time = tracer.table()
    names = tracer._names
    per_op = 1.0 / max(n_ops, 1)
    calls = np.bincount(name_ix, minlength=len(names))
    self_by_name = np.bincount(name_ix, weights=self_time, minlength=len(names))
    layers = Counter()
    for ix, name in enumerate(names):
        layers[name.split(".", 1)[0]] += self_by_name[ix]

    def median(name: str, scale: float) -> float:
        ix = tracer._name_ix.get(name)
        return float(np.median(dur[name_ix == ix])) * scale if ix is not None else 0.0

    def spans_of(name: str) -> int:
        ix = tracer._name_ix.get(name)
        return int(calls[ix]) if ix is not None else 0

    reads = spans_of(READ)
    counts = tracer.counts
    m = {f"{layer}.self_ms": layers[layer] * 1e3 * per_op for layer in LAYERS}
    m.update({
        "providers.reads": reads * per_op,
        "providers.read_us": median(READ, 1e6),
        "monitor.mtsm_ms": median("monitor.mtsm", 1e3),
        "monitor.us_per_sample": layers["monitor"] * 1e6 / reads if reads else 0.0,
        "monitor.papi_us": median("monitor.papi", 1e6),
        "monitor.sma_ms": median("monitor.sma", 1e3),
        "codegen.generate_ms": median("codegen.generate", 1e3),
        "codegen.validate_ms": median("codegen.validate", 1e3),
        "codegen.kernels": spans_of("codegen.generate") * per_op,
        "codegen.ptx_bytes": counts["codegen.ptx_bytes"] * per_op,
        "catalog.lookup_us": median("catalog.lookup", 1e6),
        "synthetic.synthesize_ms": median("synthetic.synthesize", 1e3),
        "synthetic.rows": float(counts["synthetic.rows"]),
        "energy.from_readings_us": median("energy.from_readings", 1e6),
        "energy.integrate_ms": median("energy.integrate", 1e3),
        "energy.instruction_energy_us": median("energy.instruction_energy", 1e6),
        "trace.save_ms": median("trace.save", 1e3),
        "trace.load_ms": median("trace.load", 1e3),
        "trace.rows": counts["trace.rows"] * per_op,
        "trace.bytes": counts["trace.bytes"] * per_op,
        "hardware.save_capture_ms": median("hardware.save_capture", 1e3),
        "hardware.load_capture_ms": median("hardware.load_capture", 1e3),
        "hardware.power_trace_ms": median("hardware.power_trace", 1e3),
        "hardware.energy_ms": median("hardware.energy", 1e3),
        "analysis.compare_ms": median("analysis.compare", 1e3),
        "report.build_table_ms": median("report.build_table", 1e3),
        "report.render_ms": median("report.render", 1e3),
        "cli.gen_ms": median("cli.gen", 1e3),
        "cli.measure_ms": median("cli.measure", 1e3),
        "cli.analyze_hw_ms": median("cli.analyze_hw", 1e3),
        "cli.compare_ms": median("cli.compare", 1e3),
        "cli.json_bytes": counts["cli.json_bytes"] * per_op,
        "bench.spans": name_ix.size * per_op,
    })
    return m


LAYERS = (
    "catalog", "codegen", "synthetic", "providers", "monitor", "energy",
    "trace", "hardware", "analysis", "report", "cli", "bench",
)
