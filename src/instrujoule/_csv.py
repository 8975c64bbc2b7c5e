"""The one CSV codec behind power traces and hardware captures.

Both formats: ``#`` comments, a header, then rows of ``%.9g`` floats; callers
own their comments, header, width and row rule. Neither direction holds a
whole-file copy of the text. Writes stream in chunks of 8192 rows. Reads take
the source's bytes once and parse the body in place with one ``np.loadtxt``
pass, checked on the arrays; the bytes are freed before the arrays are copied
into columns, so peak memory is about the file size plus the parsed arrays, or
twice the arrays if that is more (at most the file size plus twice the
arrays). On any failure a line-by-line scan accepts exactly what ``float()``
accepts and reports the offending line.
"""

from __future__ import annotations

import io
import math
import re
from pathlib import Path

import numpy as np

_CHUNK = 8192  # rows formatted and written per batch, bounding the text alive at once
# ASCII that str.splitlines() breaks lines on besides "\n", or that
# np.loadtxt strips from a field and float() does not
_NOT_PLAIN = b"\r\x0b\x0c\x1c\x1d\x1e\x1f"
_NOT_NEWLINE = re.compile(rb"[^\n]")


def _chunks(head: list[str], columns):
    fmt = ",".join(["%.9g"] * len(columns))
    yield "\n".join(head) + "\n"
    for i in range(0, len(columns[0]), _CHUNK):
        rows = zip(*(c[i:i + _CHUNK].tolist() for c in columns))
        yield "\n".join([fmt % row for row in rows]) + "\n"


def write(sink, head: list[str], columns) -> None:
    """Write ``head``, then one row per index of ``columns``, to a path,
    text stream or binary stream, one chunk of rows per write."""
    if isinstance(sink, (str, Path)):
        with Path(sink).open("w", encoding="utf-8") as f:
            write(f, head, columns)
        return
    text = hasattr(sink, "encoding") or isinstance(sink, io.TextIOBase)
    for chunk in _chunks(head, columns):
        sink.write(chunk if text else chunk.encode("utf-8"))


class Reader:
    """Cursor over the bytes of one CSV file: comments, then the header and
    rows. Errors are ``error_cls(message, line)``."""

    def __init__(self, source, error_cls):
        if isinstance(source, (str, Path)):
            path = Path(source)
            if not path.exists():
                raise error_cls(f"no such file: {path}")
            data = path.read_bytes()
            if b"\r" in data:  # end lines as Path.read_text does, so CRLF files stay plain
                data = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        else:
            data = source if isinstance(source, bytes) else source.read()
        if isinstance(data, str) and data.isascii():
            data = data.encode("ascii")
        # numpy parses only text whose lines and fields it splits as the scan does
        self._plain = (
            isinstance(data, bytes)
            and data.isascii()
            and not any(c in data for c in _NOT_PLAIN)
        )
        if not self._plain:
            text = data.decode("utf-8") if isinstance(data, bytes) else data
            # the scan's lines, each ended with "\n" as a path's translated line ends are;
            # surrogatepass keeps any str a text stream gave
            data = "".join(l + "\n" for l in text.splitlines()).encode("utf-8", "surrogatepass")
        self._data, self._error, self._pos, self._line_no = data, error_cls, 0, 1

    def _next_line(self) -> str | None:
        data, pos = self._data, self._pos
        if pos >= len(data):
            return None
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        self._pos, self._line_no = end + 1, self._line_no + 1
        return data[pos:end].decode("utf-8", "surrogatepass")

    def comments(self, limit: int | None = None) -> list[str]:
        """The leading lines that start with ``#``, at most ``limit`` of them."""
        out = []
        while (limit is None or len(out) < limit) and self._data.startswith(b"#", self._pos):
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
        cols = self._loadtxt(width, nonnegative)
        return self._scan(width, width_message, nonnegative) if cols is None else cols

    def _loadtxt(self, width, nonnegative) -> np.ndarray | None:
        """The body parsed in place by numpy, or None when numpy cannot parse
        it or a check fails."""
        if not self._plain or _NOT_NEWLINE.search(self._data, self._pos) is None:
            return None
        body = io.BytesIO(self._data)  # shares the bytes, no copy
        body.seek(self._pos)
        try:
            rows = np.loadtxt(body, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            return None
        if not (
            rows.shape[1] == width
            and np.isfinite(rows).all()
            and (np.diff(rows[:, 0]) > 0).all()
            and (nonnegative is None or (rows[:, nonnegative[0]] >= 0).all())
        ):
            return None
        # the text is spent: free it before the transposed copy doubles the arrays
        del body
        self._data = b""
        return rows.T.copy()

    def _scan(self, width, width_message, nonnegative) -> np.ndarray:
        error, rows = self._error, []
        body = self._data[self._pos:].decode("utf-8", "surrogatepass")
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
