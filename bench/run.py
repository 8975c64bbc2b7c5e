"""Layered benchmark for instrujoule, one workload per run.

    python3 bench/run.py --workload catalog-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The run builds the workload from the seed,
warms it up, runs its operations for ``--seconds``, checks every output and
prints a summary followed by one JSON line with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones. With ``--trace 1`` the run spends half of ``--seconds``
untraced and half traced, and reports the per-layer metrics and the tracing
overhead. README.md in this directory defines every metric.

Between operations the run times a fixed reference loop that calls no
instrujoule code (``reference``). End-to-end timings are reported in units of
the reference loops timed around each operation, so a shared host that
slows the whole CPU for a while slows both alike and leaves the reported
figures nearly unchanged.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# Set-up is timed against a bare interpreter that imports numpy, started just
# before it, and reported at this many seconds per bare start. Starting a
# process on a shared host slows by a fifth or more for minutes at a time,
# for the bare start as much as for the set-up; the ratio stays put.
SETUP_BASE_S = 0.1
SETUP_BASE = "import numpy"
# After each operation the run spends this share of the operation's time on
# reference loops, so every stretch of the run is sampled alike.
REF_SHARE = 0.05
WARM_REFS = 20
# An operation's time is divided by the median reference loop timed within
# this many seconds, or the operation's own length if longer, of it.
REF_PAD = 0.5
# An operation that leaves one of these threads alive has failed: a runner
# must join the sampler it started.
SAMPLER_THREADS = ("mtsm-sampler", "sma-sampler")

# A cold interpreter builds the workload's set-up, so set-up time includes
# importing the package and anything it does at import.
SETUP_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
w = workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
for i in range(max(w.unit, 1)):
    w.inputs(i)
"""

# The metrics every workload prints in its summary, then each workload's own.
COMMON_SUMMARY = ("setup_s", "setup_raw_s", "setup_base_s", "failed_ops_ratio", "ref_ms_p50", "op_ms_p50", "op_samples_per_s_p50")
SUMMARY = {
    "catalog-sweep": ("extractions_per_s", "extraction_ms_p50", "extraction_ms_p90", "energy_err_pct"),
    "long-kernel": ("extractions_per_s", "extraction_ms_p50", "energy_err_pct", "samples_per_s",
                    "peak_rss_mb"),
    "rig-verify": ("peak_rss_mb", "capture_rows_per_s", "mape_pct"),
    "live-threaded": ("sampler_rate_hz", "handshake_us_p50", "handshake_us_p90",
                      "elapsed_excess_us_p50", "elapsed_excess_us_p90", "energy_err_pct"),
}


_REF_SMALL = numpy.linspace(0.0, 1.0, 1 << 13)  # 64 KiB
_REF_LARGE = numpy.linspace(0.0, 1.0, 1 << 17)  # 1 MiB


class _Reading:
    __slots__ = ("t", "power")

    def __init__(self, t: float, power: float):
        self.t, self.power = t, power


def reference() -> float:
    """Seconds one fixed mix of interpreter, numpy and float-text work takes.

    The mix stands in for the workloads' own: a Python loop over floats and a
    dict, small objects built and read back, array arithmetic on a 64 KiB and
    a 1 MiB array, and floats written to and parsed from text. It calls no
    instrujoule code, so a change to the package cannot move it; only the
    host's speed does.
    """
    collecting = gc.isenabled()
    gc.disable()  # a collection would time the workload's heap, not the host
    try:
        start = perf_counter()
        acc, seen = 0.0, {}
        for i in range(2000):
            acc += (i * 0.5) % 7.0
            seen[i & 255] = acc
        readings = [_Reading(i * 1e-4, i * 0.5) for i in range(1000)]
        acc += sum(r.power for r in readings)
        for _ in range(10):
            acc += float(numpy.cumsum(_REF_SMALL * 1.0001)[-1])
        acc += float((_REF_LARGE * 1.0001).sum())
        text = "\n".join(f"{v!r},{v * 3.0!r}" for v in _REF_LARGE[:300].tolist())
        acc += sum(float(x) for line in text.split("\n") for x in line.split(","))
        return perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _ratio(num, den) -> float:
    return sum(num) / sum(den) if sum(den) else 0.0


class Run:
    """Counts, problems and digests of one benchmark run."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.digests: list[str] = []
        self._hash = hashlib.sha256()
        self._unit_ok = True
        self._ref_debt = 0.0

    def calibrate(self, took: float, refs: list) -> None:
        """Time reference loops for ``REF_SHARE`` of an operation's ``took`` seconds."""
        self._ref_debt += took * REF_SHARE
        while self._ref_debt > 0.0:
            t = reference()
            refs.append((perf_counter(), t))
            self._ref_debt -= t

    def op(self, i: int, tr, ck, recs: list, refs: list) -> None:
        w = self.w
        rec = defaultdict(list)
        inputs = w.inputs(i)
        self.attempted += 1
        start = perf_counter()
        try:
            with tr.span("bench.op"):
                out = w.op(i, inputs, tr, rec)
        except Exception as exc:  # an operation that raises counts as failed
            out = None
            self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
        took = perf_counter() - start
        self.calibrate(took, refs)
        leaked = [t.name for t in threading.enumerate() if t.name in SAMPLER_THREADS and t.is_alive()]
        if leaked and out is not None:
            out = None
            self.errors.append(f"op {i}: sampler threads still alive: {leaked}")
        if out is None:
            self.failed += 1
            self._unit_ok = False
            return
        rec["op_s"].append(took - out.get("blocking_s", 0.0))
        rec["op_wall_s"].append(took)
        rec["start"].append(start)
        recs.append(rec)
        self.problems += w.check(i, inputs, out, i < max(w.unit, 1), ck)
        if i < w.unit:
            for part in w.digest_parts(out):
                self._hash.update(len(part).to_bytes(8, "little"))
                self._hash.update(part)
            if i == w.unit - 1:
                if self._unit_ok:
                    self.digests.append(self._hash.hexdigest())
                self._hash, self._unit_ok = hashlib.sha256(), True

    def loop(self, seconds: float, start: int, tr, ck, recs: list, refs: list) -> int:
        deadline = perf_counter() + seconds
        i = start
        while perf_counter() < deadline:
            self.op(i, tr, ck, recs, refs)
            i += 1
        return i


def source_sha256() -> str:
    h = hashlib.sha256()
    files = sorted(p for p in (*SRC.rglob("*"), *BENCH.glob("*.py")) if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "switch_interval_s": sys.getswitchinterval(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _started(argv: list[str]) -> float:
    """Seconds a fresh interpreter takes to run ``argv`` to its end."""
    start = perf_counter()
    # no timeout: with one, subprocess polls the child every 50 ms, which
    # would quantize the measurement
    subprocess.run([sys.executable, *argv], cwd=ROOT, check=True)
    return perf_counter() - start


def setup_seconds(name: str, seed: int) -> list[tuple[float, float]]:
    """(set-up, bare start) seconds of ``SETUP_REPEATS`` cold set-ups."""
    return [
        (_started(["-c", SETUP_PROBE, str(SRC), str(BENCH), name, str(seed)]), base)
        for base in (_started(["-c", SETUP_BASE]) for _ in range(SETUP_REPEATS))
    ]


def record_digest(env: dict, digest: str) -> str | None:
    """Store the digest for (workload, seed, source); return a differing earlier one."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{env['workload']}/{env['seed']}/{env['source_sha256']}"
    earlier = known.setdefault(key, digest)
    if earlier == digest:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return None
    return earlier


def merge(recs: list) -> defaultdict:
    """One record holding every list of the given per-operation records."""
    merged = defaultdict(list)
    for rec in recs:
        for key, values in rec.items():
            merged[key] += values
    return merged


def raw_timings(recs: list) -> tuple[float, float]:
    """Median operation seconds and median per-operation samples per second."""
    op_s = statistics.median(t for rec in recs for t in rec["op_s"])
    rate = statistics.median(_ratio(rec["samples"], rec["sample_s"]) for rec in recs)
    return op_s, rate


def local_refs(recs: list, refs: list) -> list[float]:
    """For each operation, the median reference time around it: over the
    reference loops timed from ``REF_PAD`` seconds (or the operation's own
    length, if longer) before it starts to as long after it ends."""
    ends = numpy.array([end for end, _ in refs])
    took = numpy.array([t for _, t in refs])
    out = []
    for rec in recs:
        start, length = rec["start"][0], rec["op_wall_s"][0]
        pad = max(length, REF_PAD)
        lo, hi = numpy.searchsorted(ends, (start - pad, start + length + pad))
        out.append(float(numpy.median(took[lo:hi])) if hi > lo else float(numpy.median(took)))
    return out


def end_to_end(recs: list, refs: list, setup: list[float]) -> dict[str, float]:
    """End-to-end metrics; timings are medians over the run, each operation
    measured in the reference loops timed around it."""
    near = local_refs(recs, refs)
    return {
        "setup_s": statistics.median(full / base for full, base in setup) * SETUP_BASE_S,
        "op_p50_ref": statistics.median(sum(rec["op_s"]) / r for rec, r in zip(recs, near)),
        "samples_per_ref": statistics.median(
            _ratio(rec["samples"], rec["sample_s"]) * r for rec, r in zip(recs, near)
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def summary_metrics(rec, recs: list, refs: list, setup: list, e2e: dict, run: Run) -> dict[str, tuple[float, str, int]]:
    """Summary metrics over the whole run, as (value, unit, sample count)."""
    n_ops = len(rec["op_s"])
    rate = _ratio(rec["samples"], rec["sample_s"])
    op_s, op_rate = raw_timings(recs)
    m = {
        "setup_s": (e2e["setup_s"], "s", SETUP_REPEATS),
        "setup_raw_s": (statistics.median(full for full, _ in setup), "s", SETUP_REPEATS),
        "setup_base_s": (statistics.median(base for _, base in setup), "s", SETUP_REPEATS),
        "failed_ops_ratio": (run.failed / max(run.attempted, 1), "ratio", run.attempted),
        "ref_ms_p50": (statistics.median(t for _, t in refs) * 1e3, "ms", len(refs)),
        "op_ms_p50": (op_s * 1e3, "ms", n_ops),
        "op_samples_per_s_p50": (op_rate, "1/s", n_ops),
        "samples_per_s": (rate, "1/s", len(rec["samples"])),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB", 1),
        "capture_rows_per_s": (rate, "1/s", n_ops),
        "sampler_rate_hz": (rate, "Hz", len(rec["samples"])),
    }
    ext = rec["extraction_s"]
    if ext:
        m["extractions_per_s"] = (len(ext) / sum(rec["op_wall_s"]), "1/s", len(ext))
        m["extraction_ms_p50"] = (statistics.median(ext) * 1e3, "ms", len(ext))
        m["extraction_ms_p90"] = (_quantile(ext, 0.9) * 1e3, "ms", len(ext))
    if rec["energy_err"]:
        err = statistics.fmean(rec["energy_err"]) * 100
        m["energy_err_pct"] = m["mape_pct"] = (err, "%", len(rec["energy_err"]))
    for key, name in (("handshake_s", "handshake_us"), ("excess_s", "elapsed_excess_us")):
        if rec[key]:
            m[f"{name}_p50"] = (statistics.median(rec[key]) * 1e6, "us", len(rec[key]))
            m[f"{name}_p90"] = (_quantile(rec[key], 0.9) * 1e6, "us", len(rec[key]))
    return m


def threaded_metrics(untraced, traced) -> dict[str, float]:
    """Threaded-runner numbers; all but ``dropped`` come from untraced runs,
    because the timing proxy slows the sampler."""

    def med_us(values):
        return statistics.median(values) * 1e6 if values else 0.0

    return {
        "monitor.threaded.rate_hz": _ratio(untraced["samples"], untraced["sample_s"])
        if untraced["handshake_s"] else 0.0,
        "monitor.threaded.handshake_us": med_us(untraced["handshake_s"]),
        "monitor.threaded.max_gap_us": med_us(untraced["max_gap_s"]),
        "monitor.threaded.dropped": statistics.fmean(traced["dropped"]) if traced["dropped"] else 0.0,
        "monitor.threaded.clear_lag_us": med_us(untraced["clear_lag_s"]),
        "monitor.sma_threaded.interval_err_us": med_us(untraced["interval_err_s"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-sweep", "long-kernel", "rig-verify", "live-threaded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "instrujoule" / "__init__.py").is_file():
        print(f"bench: no instrujoule source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import instrujoule
    import spans
    import workloads

    if Path(instrujoule.__file__).resolve().parent != SRC / "instrujoule":
        print(f"bench: imported instrujoule from {instrujoule.__file__}, not {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    setup = setup_seconds(args.workload, args.seed)

    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    null = spans.NullTracer()
    w = workloads.WORKLOADS[args.workload](args.seed, tracer)
    run = Run(w)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    w.workdir = workdir
    recs, traced_recs, refs = [], [], []
    try:
        for i in range(w.warmup):
            run.op(i, null, null, [], [])
        for _ in range(WARM_REFS):
            reference()
        if args.trace:
            half = args.seconds / 2
            nxt = run.loop(half, 0, null, null, recs, refs)
            run.loop(half, nxt, tracer, tracer, traced_recs, [])
        else:
            run.loop(args.seconds, 0, null, null, recs, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(set(run.digests)) > 1:
        run.problems.append(f"determinism: passes at seed {args.seed} disagree: {run.digests}")
    if run.digests:
        earlier = record_digest(env, run.digests[0])
        if earlier:
            run.problems.append(f"determinism: digest {run.digests[0]} differs from the recorded {earlier}")
        print(f"digest {args.workload} seed {args.seed} sha256 {run.digests[0]} passes {len(run.digests)}")

    rec, traced_rec = merge(recs), merge(traced_recs)
    if len(recs) < w.block or (args.trace and not traced_recs):
        run.problems.append("too few operations completed in the measured window")
    for line in run.errors[:20] + run.problems[:20]:
        print("problem " + line, file=sys.stderr)

    metrics: dict[str, dict] = {}
    if len(recs) >= w.block:
        e2e = end_to_end(recs, refs, setup)
        for name, (value, unit, n) in summary_metrics(rec, recs, refs, setup, e2e, run).items():
            if name in COMMON_SUMMARY or name in SUMMARY[args.workload]:
                print(f"{args.workload:14s} {name:24s} {value:16.6g} {unit:6s} n={n}")
        units = {"setup_s": "s", "op_p50_ref": "ref", "samples_per_ref": "1/ref", "peak_rss_mb": "MB"}
        if not args.trace:
            metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    if args.trace and recs and traced_recs:
        n_traced = len(traced_rec["op_s"])
        layer = spans.layer_metrics(tracer, n_traced)
        if args.workload == "live-threaded":
            layer.update(threaded_metrics(rec, traced_rec))
        else:  # only the threaded runners' workload runs SMA
            del layer["monitor.sma_ms"]
        layer["host.ref_ms"] = statistics.median(t for _, t in refs) * 1e3
        untraced_ms = statistics.median(rec["op_s"]) * 1e3
        traced_ms = statistics.median(traced_rec["op_s"]) * 1e3
        layer["tracing.overhead_ms"] = traced_ms - untraced_ms
        layer["tracing.overhead_pct"] = (traced_ms - untraced_ms) / untraced_ms * 100
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
        for k, v in metrics.items():
            print(f"{args.workload:14s} {k:38s} {v['value']:16.6g} {v['unit']}")
        print(f"tracing: untraced op {untraced_ms:.4f} ms (n={len(recs)}), traced op "
              f"{traced_ms:.4f} ms (n={n_traced})")

    correct = not run.problems
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    for tag, unit in (("_ms", "ms"), ("_us", "us"), (".us_", "us"), ("_hz", "Hz"), ("_pct", "%"), ("bytes", "B")):
        if tag in name:
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
