"""The one CSV codec behind power traces and hardware captures.

Both formats: ``#`` comments, a header, then rows of ``%.9g`` floats; callers
own their comments, header, width and row rule. Reading checks one
``np.loadtxt`` parse on the arrays; on any failure a line-by-line scan accepts
exactly what ``float()`` accepts and reports the offending line.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

_CHUNK = 8192  # rows formatted per batch, bounding the floats alive at once
# ASCII that str.splitlines() breaks lines on besides "\n", or that
# np.loadtxt strips from a field and float() does not
_NOT_PLAIN = "\r\x0b\x0c\x1c\x1d\x1e\x1f"


def write(sink, head: list[str], columns) -> None:
    """Write ``head``, then one row per index of ``columns``, to a path,
    text stream or binary stream."""
    fmt = ",".join(["%.9g"] * len(columns))
    parts = list(head)
    for i in range(0, len(columns[0]), _CHUNK):
        rows = zip(*(c[i:i + _CHUNK].tolist() for c in columns))
        parts.append("\n".join([fmt % row for row in rows]))
    text = "\n".join(parts) + "\n"
    if isinstance(sink, (str, Path)):
        Path(sink).write_text(text, encoding="utf-8")
    elif hasattr(sink, "encoding") or isinstance(sink, io.TextIOBase):
        sink.write(text)
    else:
        sink.write(text.encode("utf-8"))


class Reader:
    """Cursor over one CSV text: comments, then the header and rows.
    Errors are ``error_cls(message, line)``."""

    def __init__(self, source, error_cls):
        if isinstance(source, (str, Path)):
            path = Path(source)
            if not path.exists():
                raise error_cls(f"no such file: {path}")
            text = path.read_text(encoding="utf-8")
        else:
            text = source if isinstance(source, bytes) else source.read()
            if isinstance(text, bytes):
                text = text.decode("utf-8")
        # numpy parses only text whose lines and fields it splits as the scan does
        self._plain = text.isascii() and not any(c in text for c in _NOT_PLAIN)
        self._text = text if self._plain else "\n".join(text.splitlines())
        self._error, self._pos, self._line_no = error_cls, 0, 1

    def _next_line(self) -> str | None:
        text, pos = self._text, self._pos
        if pos >= len(text):
            return None
        end = text.find("\n", pos)
        end = len(text) if end < 0 else end
        self._pos, self._line_no = end + 1, self._line_no + 1
        return text[pos:end]

    def comments(self, limit: int | None = None) -> list[str]:
        """The leading lines that start with ``#``, at most ``limit`` of them."""
        out = []
        while (limit is None or len(out) < limit) and self._text.startswith("#", self._pos):
            out.append(self._next_line())
        return out

    def rows(self, header: str, width: int, width_message: str, nonnegative=None):
        """Check the header, then return the rows as a C-contiguous ``(width, n)``
        float64 array. Blank lines are skipped; values must be finite and the
        first column strictly increasing. ``width_message`` gets ``line`` and
        ``fields``; ``nonnegative=(column, message)`` rejects negatives there."""
        line_no, line = self._line_no, self._next_line()
        got = "<end of file>" if line is None else line.strip()
        if got != header:
            raise self._error(f"expected header '{header}', got '{got}'", line_no)
        body = self._text[self._pos:]
        if self._plain and body and not body.isspace():
            try:
                cols = np.loadtxt(
                    io.StringIO(body), delimiter=",", comments=None, dtype=np.float64, ndmin=2
                ).T.copy()
            except ValueError:
                cols = np.empty((0, 0))
            if (
                len(cols) == width
                and np.isfinite(cols).all()
                and (np.diff(cols[0]) > 0).all()
                and (nonnegative is None or (cols[nonnegative[0]] >= 0).all())
            ):
                return cols
        return self._scan(body, width, width_message, nonnegative)

    def _scan(self, body, width, width_message, nonnegative) -> np.ndarray:
        error, rows = self._error, []
        for line_no, line in enumerate(body.splitlines(), self._line_no):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != width:
                raise error(width_message.format(line=line, fields=len(parts)), line_no)
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise error(f"unparsable number in '{line}'", line_no) from None
            if not all(math.isfinite(v) for v in values):
                raise error(f"non-finite value in '{line}'", line_no)
            if rows and values[0] <= rows[-1][0]:
                raise error(
                    f"timestamp {values[0]:.9g} not after previous {rows[-1][0]:.9g}", line_no
                )
            if nonnegative is not None and values[nonnegative[0]] < 0:
                raise error(f"{nonnegative[1]} {values[nonnegative[0]]:.9g}", line_no)
            rows.append(values)
        return np.array(rows, dtype=np.float64).reshape(-1, width).T.copy()
