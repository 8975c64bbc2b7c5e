"""Power-over-time traces and their CSV form.

A trace is a strictly time-ordered series of instantaneous board power
readings in milliwatts, with timestamps in seconds relative to the start of
recording. A trace may carry one annotated kernel window marking where the
measured kernel executed.

CSV format: an optional ``# window: <start_s>,<end_s>`` line, the header
``t_s,power_mw``, then one sample per line. Traces and hardware captures share
one CSV codec: values are written with ``%.9g``, and a malformed file raises
MalformedTrace naming the offending line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _csv
from .errors import MalformedTrace

_HEADER = "t_s,power_mw"


@dataclass(frozen=True)
class KernelWindow:
    start: float
    end: float

    def __post_init__(self):
        if not (self.end > self.start):
            raise ValueError(f"window end {self.end} must exceed start {self.start}")

    @property
    def span(self) -> float:
        return self.end - self.start


def _check_times(t: np.ndarray, error: type) -> None:
    """Raise ``error`` unless the timestamps ``t`` are finite and strictly increasing."""
    if t.size and not np.all(np.isfinite(t)):
        raise error("non-finite timestamp")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        idx = int(np.argmax(np.diff(t) <= 0))
        raise error(f"timestamps not strictly increasing at index {idx + 1}")


class PowerTrace:
    """Immutable, numpy-backed power trace.

    Construction validates the invariants: finite strictly increasing
    timestamps, finite non-negative power, and (when present) a window contained
    in the sampled span.
    """

    __slots__ = ("times", "powers", "window")

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        powers: Sequence[float] | np.ndarray,
        window: KernelWindow | None = None,
    ):
        t = np.asarray(times, dtype=np.float64)
        p = np.asarray(powers, dtype=np.float64)
        if t.shape != p.shape or t.ndim != 1:
            raise MalformedTrace("times and powers must be 1-d arrays of equal length")
        _check_times(t, MalformedTrace)
        if p.size and not np.all(np.isfinite(p)):
            raise MalformedTrace("non-finite power sample")
        if p.size and bool(np.any(p < 0)):
            raise MalformedTrace("negative power sample")
        if window is not None:
            if t.size == 0:
                raise MalformedTrace("window annotation on an empty trace")
            if window.start < t[0] or window.end > t[-1]:
                raise MalformedTrace(
                    f"window [{window.start}, {window.end}] outside sampled span "
                    f"[{t[0]}, {t[-1]}]"
                )
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "powers", p)
        object.__setattr__(self, "window", window)

    def __setattr__(self, name, value):
        raise AttributeError("PowerTrace is immutable")

    def __len__(self) -> int:
        return int(self.times.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerTrace):
            return NotImplemented
        return (
            self.window == other.window
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.powers, other.powers)
        )

    def __repr__(self) -> str:
        w = f", window=[{self.window.start}, {self.window.end}]" if self.window else ""
        return f"PowerTrace({len(self)} samples{w})"

    def with_window(self, window: KernelWindow | None) -> "PowerTrace":
        return PowerTrace(self.times, self.powers, window)


def save_trace(trace: PowerTrace, sink) -> None:
    """Write a trace as CSV to ``sink`` (path, text stream, or binary stream)."""
    head = []
    if trace.window is not None:
        head.append("# window: %.9g,%.9g" % (trace.window.start, trace.window.end))
    _csv.write(sink, head + [_HEADER], [trace.times, trace.powers])


def load_trace(source) -> PowerTrace:
    """Parse a trace CSV from a path, text stream, binary stream, or bytes.

    Raises MalformedTrace (with the offending line number) on a bad header,
    unparsable numbers, non-monotonic timestamps, or negative power.
    """
    reader = _csv.Reader(source, MalformedTrace)
    comments = reader.comments(limit=1)
    window = _parse_window_comment(comments[0], 1) if comments else None
    times, powers = reader.rows(
        _HEADER, 2, "expected 't,power', got '{line}'", nonnegative=(1, "negative power")
    )
    return PowerTrace(times, powers, window)


def _parse_window_comment(line: str, line_no: int) -> KernelWindow:
    body = line.lstrip("#").strip()
    if not body.startswith("window:"):
        raise MalformedTrace(f"unrecognized comment '{line}'", line_no)
    payload = body[len("window:"):].strip()
    parts = payload.split(",")
    if len(parts) != 2:
        raise MalformedTrace(f"window comment needs 'start,end', got '{payload}'", line_no)
    try:
        start, end = float(parts[0]), float(parts[1])
    except ValueError:
        raise MalformedTrace(f"unparsable window bounds '{payload}'", line_no) from None
    try:
        return KernelWindow(start, end)
    except ValueError as exc:
        raise MalformedTrace(str(exc), line_no) from None
