"""Every sink and source kind of the CSV codec, at the writer's chunk edges.

The writer formats and writes rows ``_csv._ROWS`` at a time. For row counts
on both sides of a chunk edge, each sink kind must receive exactly the bytes
of the whole file joined at once, and each source kind, CRLF line ends
included, must load the same arrays.
"""

import io

import numpy as np
import pytest

from instrujoule import (
    HwCapture,
    KernelWindow,
    PowerTrace,
    load_hw_capture,
    load_trace,
    save_hw_capture,
    save_trace,
)
from instrujoule import _csv

EDGE = 4 * _csv._ROWS  # the end of the fourth chunk
ROW_COUNTS = [0, 1, EDGE - 1, EDGE, EDGE + 1, 3 * EDGE + 5]
CHANNELS = ("v_s1", "v_g1", "v_s2", "v_g2", "i_clamp", "v_dps")


def _trace(n: int) -> PowerTrace:
    rng = np.random.default_rng(n)
    times = np.cumsum(rng.uniform(1e-4, 3e-4, n))
    powers = rng.uniform(0.0, 250_000.0, n)
    window = KernelWindow(times[0], times[-1]) if n > 1 else None
    return PowerTrace(times, powers, window)


def _capture(n: int) -> HwCapture:
    rng = np.random.default_rng(n + 1)
    channels = {name: rng.uniform(0.0, 25.0, n) for name in CHANNELS}
    return HwCapture(np.arange(n) * 2e-4, channels, 0.0125)


def _reference(head: list[str], columns) -> bytes:
    fmt = ",".join(["%.9g"] * len(columns))
    rows = [fmt % row for row in zip(*(c.tolist() for c in columns))]
    return ("\n".join(head + rows) + "\n").encode()


def _trace_reference(trace: PowerTrace) -> bytes:
    head = []
    if trace.window is not None:
        head.append("# window: %.9g,%.9g" % (trace.window.start, trace.window.end))
    return _reference(head + ["t_s,power_mw"], [trace.times, trace.powers])


def _capture_reference(capture: HwCapture) -> bytes:
    head = ["# r_s_ohm: 0.0125", "t_s,v_s1,v_g1,v_s2,v_g2,i_clamp_a,v_dps"]
    return _reference(head, [capture.times] + [capture.channels[k] for k in CHANNELS])


def _written(save, obj, tmp_path) -> dict:
    """The bytes ``save`` writes to each sink kind."""
    path = tmp_path / "out.csv"
    save(obj, path)
    text, binary = io.StringIO(), io.BytesIO()
    save(obj, text)
    save(obj, binary)
    return {
        "path": path.read_bytes(),
        "text stream": text.getvalue().encode(),
        "binary stream": binary.getvalue(),
    }


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_trace_sinks_write_reference_bytes(n, tmp_path):
    trace = _trace(n)
    reference = _trace_reference(trace)
    for kind, data in _written(save_trace, trace, tmp_path).items():
        assert data == reference, kind


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_capture_sinks_write_reference_bytes(n, tmp_path):
    capture = _capture(n)
    reference = _capture_reference(capture)
    for kind, data in _written(save_hw_capture, capture, tmp_path).items():
        assert data == reference, kind


def _sources(data: bytes, tmp_path) -> dict:
    path, crlf_path = tmp_path / "in.csv", tmp_path / "crlf.csv"
    path.write_bytes(data)
    crlf_path.write_bytes(data.replace(b"\n", b"\r\n"))
    return {
        "path": lambda: path,
        "str path": lambda: str(path),
        "crlf path": lambda: crlf_path,
        "bytes": lambda: data,
        "crlf bytes": lambda: data.replace(b"\n", b"\r\n"),
        "text stream": lambda: io.StringIO(data.decode()),
        "binary stream": lambda: io.BytesIO(data),
    }


@pytest.mark.parametrize("n", [0, 1, EDGE + 1])
def test_trace_sources_load_identical_arrays(n, tmp_path):
    data = _trace_reference(_trace(n))
    loaded = {k: load_trace(src()) for k, src in _sources(data, tmp_path).items()}
    first = loaded["bytes"]
    for kind, trace in loaded.items():
        assert trace.times.tobytes() == first.times.tobytes(), kind
        assert trace.powers.tobytes() == first.powers.tobytes(), kind
        assert trace.window == first.window, kind
    assert len(first) == n


@pytest.mark.parametrize("n", [0, 1, EDGE + 1])
def test_capture_sources_load_identical_arrays(n, tmp_path):
    data = _capture_reference(_capture(n))
    loaded = {k: load_hw_capture(src()) for k, src in _sources(data, tmp_path).items()}
    first = loaded["bytes"]
    for kind, capture in loaded.items():
        assert capture.r_s == first.r_s, kind
        for a, b in zip([capture.times, *capture.channels.values()],
                        [first.times, *first.channels.values()]):
            assert a.tobytes() == b.tobytes(), kind
    assert len(first) == n
