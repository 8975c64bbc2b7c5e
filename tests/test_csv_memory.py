"""Peak memory of the capture CSV codec, as tracemalloc sees it.

tracemalloc traces numpy's buffers as well as Python objects. Loading from a
path parses the file a chunk of lines at a time into columns allocated once,
so the peak is the arrays plus a fixed amount, whatever the row count; a
whole-file copy of the text, or of the parsed rows, breaks both bounds. Saving
checks its times and formats and writes its rows one chunk at a time, numpy
temporaries included, so its peak is set by the chunk size, not by the row
count, for captures and traces alike: about 128 B per value of a chunk.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from instrujoule import HwCapture, PowerTrace, load_hw_capture, save_hw_capture, save_trace
from instrujoule import _csv

CHANNELS = ("v_s1", "v_g1", "v_s2", "v_g2", "i_clamp", "v_dps")
ROWS = 50_000


def _capture(n: int) -> HwCapture:
    rng = np.random.default_rng(31)
    channels = {name: np.round(rng.uniform(0.0, 12.5, n), 6) for name in CHANNELS}
    return HwCapture(np.arange(n) * 2e-4, channels, 0.01)


def _trace(n: int) -> PowerTrace:
    rng = np.random.default_rng(37)
    return PowerTrace(np.arange(n) * 2e-4, np.round(rng.uniform(0.0, 60_000.0, n), 4))


def _peak(fn) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_peak_is_bounded_by_the_arrays(tmp_path):
    path = tmp_path / "capture.csv"
    save_hw_capture(_capture(ROWS), path)
    array_bytes = ROWS * (1 + len(CHANNELS)) * 8
    peak = _peak(lambda: load_hw_capture(path))
    assert peak <= 4 * array_bytes, f"{peak / array_bytes:.2f}x the parsed arrays"


def test_path_load_peak_beyond_the_arrays_does_not_grow_with_rows(tmp_path):
    excess = {}
    for n in (ROWS, 4 * ROWS):
        path = tmp_path / f"capture{n}.csv"
        save_hw_capture(_capture(n), path)
        array_bytes = n * (1 + len(CHANNELS)) * 8
        peak = _peak(lambda: load_hw_capture(path))
        excess[n] = peak - array_bytes
    # 200k rows hold 11.2 MB of arrays; the load peaks about 0.3 MB above
    # them, where a whole-file parse and a transposed copy peaked 14.2 MB above
    assert peak <= 1.3 * array_bytes, f"{peak / array_bytes:.2f}x the parsed arrays"
    assert excess[4 * ROWS] <= 1.25 * excess[ROWS], excess


@pytest.mark.parametrize("kind", ["capture", "trace"])
def test_save_peak_does_not_grow_with_rows(kind, tmp_path):
    make, save = {"capture": (_capture, save_hw_capture), "trace": (_trace, save_trace)}[kind]
    small = make(2 * _csv._ROWS)
    small_peak = _peak(lambda: save(small, tmp_path / "small.csv"))
    for n in (ROWS, 400_000):
        large = make(n)
        large_peak = _peak(lambda: save(large, tmp_path / "large.csv"))
        assert large_peak <= 1.25 * small_peak, (n, small_peak, large_peak)


def test_save_peak_of_two_capture_chunks(tmp_path):
    # 2 x 2048 rows of 7 values; the pass keeps its temporaries to the end
    # of a chunk and peaks at 1.75 MiB here, where 8192-row chunks that freed
    # each temporary once spent peaked at 6.3 MiB
    capture = _capture(2 * _csv._ROWS)
    peak = _peak(lambda: save_hw_capture(capture, tmp_path / "capture.csv"))
    assert peak <= 3 * 2**20, f"{peak / 2**20:.2f} MiB"
