"""The one CSV codec behind power traces and hardware captures.

Both formats: ``#`` comments, a header, then rows of ``%.9g`` floats; callers
own their comments, header, width and row rule. Neither direction holds a
whole-file copy of the text: both work 2048 rows at a time, so a write's peak
memory is one chunk's temporaries whatever its length. A write chunk of at
least 384 values is formatted by one numpy pass that writes exactly the bytes
of ``'%.9g' % value``, or of ``repr(value)`` for the float lists of the
``measure`` result JSON. A value whose nine-digit rounding is certain and that
prints in fixed notation gets a 24-byte field: the separator before it, then
its nine digits twice (the first copy stops at eight), from integer arithmetic
and a 4-digit table, beside a minus sign, a zero, the point and three zeros.
One mask row per sign, exponent and count of digits shown zeroes the bytes
that are not its text, and deleting the NUL bytes joins the texts. A value's
``repr`` is that text, ended by ".0" where it shows no point, when its nine
digits give the value back exactly and it is below 10**8. A row holding any
other value (exponent notation, non-finite, within 1e-6 of a rounding tie,
rounding up to 10**9, or for ``repr`` one that its nine digits do not give
back or of nine integer digits) is formatted by ``%`` into its own fields,
which keep every byte after its separator. Smaller chunks, chunks in which
more than a quarter of the rows hold such a value, and chunks holding a row
whose text is too long for its fields (a one-column repr of 24 characters)
are formatted by ``%`` alone. A write whose neighbouring times would print
alike raises before it starts.

Reads hold their source as one seekable binary stream: a path's open file, or
a ``BytesIO`` of the bytes or stream given. A first pass in 32 KiB blocks
counts its lines and checks that the text is plain: UTF-8 whose lines and
fields the scan and numpy split alike. Numpy only parses an ASCII body, a
chunk of lines at a time into one ``(width, n)`` array, and the trace or
capture built from it checks the rows once; where either fails, a line-by-line
scan accepts exactly what ``float()`` accepts and reports the offending line.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import warnings
from pathlib import Path

import numpy as np

# Rows per chunk, formatted and written at once or parsed by one np.loadtxt
# call. A loadtxt call costs about 10 us; larger chunks raise the load's peak
# (a 50k-row capture: 2.93 MB at 1024 rows, 3.06 at 2048, 3.31 at 4096,
# against 2.80 MB of arrays) and do not load faster. A 98k-row capture saves
# to a file in 42-47 ms at 2048 rows and 50-52 ms at 8192, a 220k-row trace in
# 33-34 and 29-32 ms (best of 9, three runs).
_ROWS = 2048
# Chunks of fewer values are formatted value by value: the vector pass costs
# 60-80 us a chunk whatever its size, which it wins back only from about 400
# values on (2 and 7 columns alike, on a 2-vCPU x86-64 host).
_VECTOR_MIN = 384
# ASCII that str.splitlines() breaks lines on besides "\n", or that
# np.loadtxt strips from a field and float() does not
_NOT_PLAIN = b"\r\x0b\x0c\x1c\x1d\x1e\x1f"
_BLOCK = 1 << 15  # bytes per read of a source's text

# 0000..9999 as four ASCII digits in one word
_DIGITS4 = np.indices((10, 10, 10, 10), dtype=np.uint8).reshape(4, -1).T + ord("0")
_DIGITS4 = np.ascontiguousarray(_DIGITS4).view(np.uint32).reshape(-1)
_POW10 = 10.0 ** np.arange(13)  # exact doubles


def _shown(width: int, first: int) -> np.ndarray:
    """The digits shown by each block of ``width`` of the nine digits, from
    digit ``first`` on: the place of its last nonzero digit, 0 if none."""
    digits = np.indices((10,) * width, dtype=np.uint8).reshape(width, -1)
    places = np.arange(first, first + width, dtype=np.uint8)[:, None]
    return (places * (digits > 0)).max(axis=0)


# the digits shown by places 2-5 and 6-9 of the nine; a nonzero value shows
# its first, so the first table reads at least 1 (zero's mask row is alike at 0 and 1)
_SHOWN_HI, _SHOWN_LO = np.maximum(_shown(4, 2), 1), _shown(4, 6)
# A value's 24-byte field: its separator at byte 0, "-0" at 1-2, its first
# eight digits at 3-10, ".000" at 11-14 and its nine digits again at 15-23
_WIDTH = 24
_FIELD = np.frombuffer(b"\0-0" + bytes(8) + b".000" + bytes(9), np.uint8)


def _field_masks(point_zero: bool) -> np.ndarray:
    # Row (13 * neg + e + 4) * 10 + p keeps the text of a value of sign neg,
    # exponent e and p digits shown, after its separator: the sign, the
    # integer digits (or "0" below 1; the ninth from the second copy), and
    # when p > e + 1 the point, any zeros after it and the fraction digits;
    # with point_zero, ".0" when p <= e + 1, as repr ends a whole number. The
    # last row keeps every byte. Each row as three words of 0x00 and 0xff bytes.
    neg, e, p, byte = np.ogrid[:2, -4:9, :10, :_WIDTH]
    keep = (
        (byte == 0)
        | (byte == 1) & (neg == 1)
        | (byte == 2) & (e < 0)
        | (byte >= 3) & (byte <= np.minimum(3 + e, 10))
        | (byte == 11) & (p > e + 1)
        | (byte >= 12) & (byte <= 10 - e)
        | (byte >= 15 + np.maximum(e + 1, 0)) & (byte < 15 + p)
        | (byte == 23) & (e == 8)
        | point_zero & (byte >= 11) & (byte <= 12) & (p <= e + 1)
    )
    keep = np.concatenate([keep.reshape(-1, _WIDTH), np.ones((1, _WIDTH), bool)])
    return (keep * np.uint8(0xFF)).view(np.uint64)


# The conversions the vector pass writes, each with its mask table and whether
# a value must also be the double nearest its nine digits. Such a value's
# repr, the shortest text that reads back as it, is its %.9g text, ended by
# ".0" if it shows no point: decimals of at most nine digits lie at least 1e-9
# of their size apart, so no shorter one reads back as the same double.
# r / 10**(8 - e) is that nearest double, as r and the power of ten are exact
# and one division rounds correctly (Clinger's fast path).
_FORMS = {"%.9g": (_field_masks(False), False), "%r": (_field_masks(True), True)}


def _round9(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's leading-digit exponent ``e`` (0 outside fixed notation), its
    nine digits ``r``, and where its ``%.9g`` text is certain from its sign, e and r."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.floor(np.log10(a))
        fixed = (e >= -4) & (e <= 8)  # %.9g prints 10**e <= a < 10**9 in fixed notation
        e = np.where(fixed, e, 0).astype(np.int64)
        # a * 10**(8-e) in one rounding; off from the exact product by < 6e-8, so
        # a margin of 1e-6 from the tie leaves rint with the exact rounding
        m = a * _POW10[8 - e]
        r = np.rint(m)
        return e, r, fixed & (r >= 1e8) & (r < 1e9) & (np.abs(m - r) < 0.5 - 1e-6) | (a == 0)


def _format_block(block: np.ndarray, fmt: str, delimiter: str, masks: np.ndarray, exact: bool) -> str:
    """``block``'s rows as ``fmt % row`` lines, each ended by "\n", where
    ``fmt`` joins ``block``'s width of one ``_FORMS`` conversion and
    ``masks`` and ``exact`` are its entry. ``fmt`` writes a row written apart
    into its fields after its leading separator, padded with NULs, under the
    mask row that keeps every byte. A value's text takes at most 24 bytes (16
    in ``%.9g``), its separator one, so a chunk holding a row too long for its
    fields is formatted by ``fmt`` alone."""
    rows, k = block.shape
    x = block.reshape(-1)
    e, r, ok = _round9(x)
    if exact:
        # a whole number's repr ends with ".0", which cannot follow the ninth
        # integer digit: the field holds that digit at its end
        ok &= (r / _POW10[8 - e] == np.abs(x)) & (e < 8)
    # the rows holding a value written apart; np.unique would import numpy.ma (0.5 MB)
    apart = np.zeros(rows, bool)
    apart[np.flatnonzero(~ok) // k] = True
    bad = np.flatnonzero(apart)
    if 4 * bad.size > rows:
        # formatting this many rows apart costs about what the rest of the
        # pass saves (break-even at 35-50% of the rows for %.9g, 1 to 7
        # columns, and past 70% for one column of %r)
        return _format_each(block.T, fmt)
    if bad.size:
        texts = [(fmt % tuple(v)).encode("ascii") for v in block[bad].tolist()]
        if max(map(len, texts)) >= _WIDTH * k:
            return _format_each(block.T, fmt)
    # the nine digits as the first, the next four and the last four; a value
    # not written by the pass has digits of no use, whatever its cast gives
    with np.errstate(invalid="ignore"):
        r = r.astype(np.uint32)
    first = r // np.uint32(100_000_000)
    rest = r - first * np.uint32(100_000_000)
    hi = rest // np.uint32(10_000)
    lo = rest - hi * np.uint32(10_000)
    row_fields = np.tile(_FIELD, (k, 1))
    row_fields[:, 0] = np.frombuffer(("\n" + delimiter * (k - 1)).encode("ascii"), np.uint8)
    fields = np.tile(row_fields, (rows, 1))
    fields[0, 0] = 0  # the chunk's first value has no separator before it
    words = fields.view(np.uint32)
    # np.take gathers from a table two to ten times as fast as an index array
    # does; the point then replaces the first copy's ninth digit
    words[:, 1] = words[:, 4] = np.take(_DIGITS4, hi)
    words[:, 2] = words[:, 5] = np.take(_DIGITS4, lo)
    fields[:, 3] = fields[:, 15] = first + np.uint32(ord("0"))
    fields[:, 11] = ord(".")
    # a value's mask row; the digits shown are the place of r's last nonzero digit
    shown = np.maximum(np.take(_SHOWN_HI, hi), np.take(_SHOWN_LO, lo))
    mask_row = (13 * np.signbit(x) + e + 4) * 10 + shown
    if bad.size:
        mask_row.reshape(rows, k)[bad] = -1
        fields.reshape(rows, _WIDTH * k)[:, 1:].view(f"S{_WIDTH * k - 1}")[bad, 0] = texts
    return _compact(fields, masks, mask_row) + "\n"


def _compact(fields: np.ndarray, masks: np.ndarray, mask_row: np.ndarray) -> str:
    """The bytes of each row of ``fields`` that its mask row keeps, NULs left
    out, joined; zeroes the others in place. A row is as wide as a mask row,
    24 bytes for a value's field, and holds NUL only where its mask drops it."""
    words = fields.view(np.uint64)
    words &= np.take(masks, mask_row, axis=0)
    return fields.tobytes().translate(None, b"\0").decode("ascii")


def _format_each(columns, fmt: str) -> str:
    return "\n".join([fmt % row for row in zip(*(c.tolist() for c in columns))]) + "\n"


def format_rows(columns, delimiter: str = ",", conversion: str = "%.9g"):
    """Yield one text chunk per 2048 rows of ``columns``: each row's values
    in ``conversion``, ``"%.9g"`` or ``"%r"``, joined by ``delimiter`` (one
    ASCII character other than NUL) and ended by "\n". A chunk of at least
    384 values takes the vector pass."""
    fmt = delimiter.join([conversion] * len(columns))
    for i in range(0, len(columns[0]), _ROWS):
        chunk = [c[i:i + _ROWS] for c in columns]
        if len(chunk[0]) * len(chunk) < _VECTOR_MIN:
            yield _format_each(chunk, fmt)
        else:
            block = np.stack(chunk, axis=1, dtype=np.float64)
            yield _format_block(block, fmt, delimiter, *_FORMS[conversion])


def _check_distinct(t, error_cls) -> None:
    """Raise ``error_cls`` if two neighbours of the ascending ``t`` print as
    the same ``%.9g`` text, which would not read back as ascending."""
    # a chunk at a time, each with the next chunk's first time, so that the
    # temporaries do not grow with the column
    for start in range(0, len(t) - 1, _ROWS):
        c = np.asarray(t[start:start + _ROWS + 1], dtype=np.float64)
        # equal text needs a gap within one unit of the ninth digit, under 2e-8 of either value
        at = np.flatnonzero(c[1:] - c[:-1] < np.abs(c[1:]) * 2e-8)
        if at.size:
            _, r, ok = _round9(c)
            # confirmed by text: pairs of the same nine digits, and pairs whose digits are not certain
            for i in at[(r[at] == r[at + 1]) | ~(ok[at] & ok[at + 1])].tolist():
                if (text := "%.9g" % c[i]) == "%.9g" % c[i + 1]:
                    i += start
                    raise error_cls(f"times at rows {i} and {i + 1} both print as {text}; the CSV would not read back")


def write(sink, head: list[str], columns, error_cls: type) -> None:
    """Write ``head``, then one row per index of ``columns``, to a path, text
    stream or binary stream, one chunk of rows per write. Raises ``error_cls``,
    before it opens or writes anything, if two neighbouring times print alike."""
    _check_distinct(columns[0], error_cls)
    is_path = isinstance(sink, (str, Path))
    with Path(sink).open("w", encoding="utf-8") if is_path else contextlib.nullcontext(sink) as f:
        text = hasattr(f, "encoding") or isinstance(f, io.TextIOBase)
        for chunk in itertools.chain(["\n".join(head) + "\n"], format_rows(columns)):
            f.write(chunk if text else chunk.encode("utf-8"))


def _survey(f) -> tuple[int, int] | None:
    """The binary stream's line count and the offset past its last non-ASCII
    byte, where numpy's parse may start, or None if its text is not plain; rewinds it."""
    lines, last, end = 0, b"\n", 0
    while (block := f.read(_BLOCK)) and not any(c in block for c in _NOT_PLAIN):
        codes = np.frombuffer(block, np.uint8)
        # numpy counts about four times as fast as bytes.count
        lines += np.count_nonzero(codes == ord("\n"))
        if not block.isascii():
            end = f.tell() - codes.size + int(np.flatnonzero(codes >= 0x80)[-1]) + 1
        last = block[-1:]
    f.seek(0)
    # up to there: UTF-8 (a U+FFFD may be a decoding error) that breaks lines only at "\n"
    wide = f.read(end).decode("utf-8", "replace")
    f.seek(0)
    plain = not block and not any(c in wide for c in "\ufffd\x85\u2028\u2029")
    return (int(lines) + (last != b"\n"), end) if plain else None


class Reader:
    """Cursor over one CSV source: comments, then the header and rows.
    Errors are ``error_cls(message, line)``. A context manager: the source is
    one binary stream, open until the ``with`` block ends. Text that is not
    plain is held again with its line ends translated as ``Path.read_text``
    does, whatever the source; text still not plain, as the scan's lines."""

    def __init__(self, source, error_cls):
        self._error, self._line_no, errors = error_cls, 1, "strict"
        if isinstance(source, (str, Path)):
            path = Path(source)
            if not path.exists():
                raise error_cls(f"no such file: {path}")
            # a file read through the default 8 KiB buffer yields its lines half as fast as BytesIO
            self._f = path.open("rb", _BLOCK)
        else:
            data = source if isinstance(source, bytes) else source.read()
            if isinstance(data, str):  # surrogatepass keeps any str a text stream gave
                data, errors = data.encode("utf-8", "surrogatepass"), "surrogatepass"
            self._f = io.BytesIO(data)
        try:
            self._plain = _survey(self._f)
            if self._plain is None:
                # Path.read_text's line ends; no UTF-8 sequence holds a CR or LF byte
                data = self._f.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
                self._f.close()
                self._f = io.BytesIO(data)
                # numpy parses only text whose lines and fields it splits as the scan does
                self._plain = _survey(self._f)
            if self._plain is None:
                # the scan's lines, each ended with "\n" as translated line ends are
                lines = "".join(l + "\n" for l in data.decode("utf-8", errors).splitlines())
                self._f = io.BytesIO(lines.encode("utf-8", "surrogatepass"))
        except BaseException as exc:
            self._f.close()
            if isinstance(exc, UnicodeDecodeError):  # the decode of the translated text
                line = data.count(b"\n", 0, exc.start) + 1
                raise error_cls(f"byte 0x{data[exc.start]:02x} is not UTF-8", line) from None
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._f.close()

    def _next_line(self) -> str | None:
        line = self._f.readline()
        if not line:
            return None
        self._line_no += 1
        return line.removesuffix(b"\n").decode("utf-8", "surrogatepass")

    def comments(self, limit: int | None = None) -> list[str]:
        """The leading lines that start with ``#``, at most ``limit`` of them."""
        out = []
        while limit is None or len(out) < limit:
            at = self._f.tell()
            first = self._f.read(1)
            self._f.seek(at)
            if first != b"#":
                break
            out.append(self._next_line())
        return out

    def rows(self, header: str, width: int, width_message: str, build, nonnegative=None):
        """Check the header, then return ``build(*columns)``, the one check of
        the body's ``width`` float64 columns. If it rejects numpy's columns, the
        scan names the line: it skips blank lines and wants finite values, a
        strictly increasing first column and no negative in ``nonnegative=
        (column, message)``. ``width_message`` gets ``line`` and ``fields``."""
        line_no, line = self._line_no, self._next_line()
        got = "<end of file>" if line is None else line.strip()
        if got != header:
            raise self._error(f"expected header '{header}', got '{got}'", line_no)
        body = self._f.tell()
        if (cols := self._loadtxt(width)) is not None:
            with contextlib.suppress(self._error):
                return build(*cols)
        self._f.seek(body)
        return build(*self._scan(width, width_message, nonnegative))

    def _loadtxt(self, width) -> np.ndarray | None:
        """The body parsed by numpy a chunk of lines at a time into one array
        sized by the line count, or None when numpy cannot parse it."""
        if self._plain is None or self._f.tell() < self._plain[1]:
            return None
        # the lines left: each line read so far ended with "\n" or was the last
        n = self._plain[0] - (self._line_no - 1)
        out, filled = np.empty((width, n)), 0
        with warnings.catch_warnings():
            # loadtxt warns of a chunk that is all blank lines, which holds no row
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            for _ in range(0, n, _ROWS):
                try:
                    rows = np.loadtxt(
                        itertools.islice(self._f, _ROWS),
                        delimiter=",", comments=None, dtype=np.float64, ndmin=2,
                    )
                except ValueError:
                    return None
                k = len(rows)
                if k and rows.shape[1] != width:
                    return None
                out[:, filled:filled + k] = rows.T
                filled += k
        # fewer rows than lines only when blank lines were skipped
        return out if filled == n else np.ascontiguousarray(out[:, :filled])

    def _scan(self, width, width_message, nonnegative) -> np.ndarray:
        error, rows = self._error, []
        body = self._f.read().decode("utf-8", "surrogatepass")
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
