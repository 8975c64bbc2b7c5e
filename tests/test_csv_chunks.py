"""Loads that span many chunks, from a path and from the same bytes.

Every source is held as one binary stream, a path as its open file and bytes
and streams as a ``BytesIO``, and its body is parsed from that stream a chunk
of lines at a time. The chunk constants are shrunk here so that short files
span many chunks and blocks. Whatever the source, a load must give
bit-identical columns, or the same error class, message and line.
"""

import io
import pathlib

import numpy as np
import pytest

from instrujoule import MalformedCapture, MalformedTrace, MissingShunt, load_hw_capture, load_trace
from instrujoule import _csv

ROWS_PER_CHUNK = 4
BLOCK = 64
H = "t_s,power_mw\n"
C = "# r_s_ohm: 0.1\nt_s,v_s1,v_g1,v_s2,v_g2,i_clamp_a,v_dps\n"


def _rows(n: int, start: int = 0) -> list[str]:
    return [f"{i * 1e-3:.9g},{100 + 7 * i}.25\n" for i in range(start, start + n)]


def _with(rows: list[str], at: int, line: str) -> str:
    return H + "".join(rows[:at] + [line] + rows[at + 1:])


ROWS = _rows(22)  # lines 2-23, chunks of rows 0-3, 4-7, ..., 20-21

TRACES = {
    "many chunks": H + "".join(ROWS),
    "bad value in the first chunk": _with(ROWS, 1, "0.001,abc\n"),
    "bad value in a middle chunk": _with(ROWS, 10, "0.01,1e\n"),
    "bad value in the last chunk": _with(ROWS, 21, "0.021,nan\n"),
    "negative power in the last chunk": _with(ROWS, 20, "0.02,-1\n"),
    "wrong width in a middle chunk": _with(ROWS, 9, "0.009,1,2\n"),
    "timestamp falls across a chunk boundary": _with(ROWS, 4, "0.0025,1\n"),
    "timestamp repeats across a chunk boundary": _with(ROWS, 8, "0.007,1\n"),
    "final line with no newline": H + "".join(ROWS)[:-1],
    "final line with no newline, bad": H + "".join(ROWS) + "0.1,x",
    "a chunk of only blank lines": H + "".join(ROWS[:3]) + "\n" * 9 + "".join(ROWS[3:]),
    "trailing blank lines": H + "".join(ROWS) + "\n" * 9,
    "only blank lines": H + "\n" * 9,
    "blank lines past a bad value": _with(ROWS, 6, "0.006,?\n") + "\n" * 9,
    "whitespace-only line": _with(ROWS, 13, " \t\n"),
    "window comment longer than a block": (
        "# window:" + " " * 2 * BLOCK + "0.002,0.004\n" + H + "".join(ROWS)
    ),
    "header after the first block": "#" * 2 * BLOCK + "\n" + H + "".join(ROWS),
    "crlf": (H + "".join(ROWS)).replace("\n", "\r\n"),
    "crlf, bad value": _with(ROWS, 17, "0.017,x\n").replace("\n", "\r\n"),
    "non-ascii in a late row": _with(ROWS, 18, "0.018,\xa05\n"),
    "unit separator in a late row": _with(ROWS, 18, "0.018,\x1f5\n"),
    "file separator in a comment": "# window: 0.001,0.002\x1c\n" + H + "".join(ROWS),
    "header only": H,
    "header only, no newline": H[:-1],
    "empty": "",
}

CAPTURE_ROWS = [f"{i * 2e-4:.9g},12.1,12,3.4,3.3,1{i},12\n" for i in range(19)]

CAPTURES = {
    "many chunks": C + "".join(CAPTURE_ROWS),
    "bad value in a middle chunk": C + "".join(
        CAPTURE_ROWS[:9] + ["0.0018,12.1,12,3.4,inf,19,12\n"] + CAPTURE_ROWS[10:]),
    "short row in the last chunk": C + "".join(CAPTURE_ROWS) + "0.01,1,2\n",
}


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(_csv, "_ROWS", ROWS_PER_CHUNK)
    monkeypatch.setattr(_csv, "_BLOCK", BLOCK)


def _outcome(load, source):
    try:
        result = load(source)
    except (MalformedTrace, MalformedCapture) as exc:
        return type(exc).__name__, str(exc), exc.line
    columns = [result.times] + (
        [result.powers] if hasattr(result, "powers") else list(result.channels.values())
    )
    extra = getattr(result, "window", None) or getattr(result, "r_s", None)
    return [(c.flags.c_contiguous, c.tobytes()) for c in columns], extra


def _sources(text: str, tmp_path) -> list:
    data = text.encode("utf-8")
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    return [path, str(path), data, io.BytesIO(data)]


@pytest.mark.parametrize("name", sorted(TRACES))
def test_trace_from_a_path_loads_as_its_bytes(name, tmp_path):
    outcomes = [_outcome(load_trace, s) for s in _sources(TRACES[name], tmp_path)]
    assert outcomes[1:] == outcomes[:1] * 3


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_capture_from_a_path_loads_as_its_bytes(name, tmp_path):
    outcomes = [_outcome(load_hw_capture, s) for s in _sources(CAPTURES[name], tmp_path)]
    assert outcomes[1:] == outcomes[:1] * 3


def test_chunked_columns_are_the_scanned_values(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACES["a chunk of only blank lines"])
    trace = load_trace(path)
    expected = [[float(v) for v in row.split(",")] for row in ROWS]
    assert trace.times.tolist() == [t for t, _ in expected]
    assert trace.powers.tolist() == [p for _, p in expected]


@pytest.mark.parametrize("name, line", [
    ("bad value in the first chunk", 3),
    ("bad value in a middle chunk", 12),
    ("bad value in the last chunk", 23),
    ("timestamp falls across a chunk boundary", 6),
    ("timestamp repeats across a chunk boundary", 10),
    ("final line with no newline, bad", 24),
])
def test_error_lines(name, line, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACES[name])
    with pytest.raises(MalformedTrace) as exc:
        load_trace(path)
    assert exc.value.line == line


def _count_whole_reads(monkeypatch) -> list:
    reads = []
    read_bytes = pathlib.Path.read_bytes

    def counted(self):
        reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", counted)
    return reads


def test_a_plain_path_is_never_read_whole(monkeypatch, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACES["trailing blank lines"])
    reads = _count_whole_reads(monkeypatch)
    assert len(load_trace(path)) == len(ROWS)
    assert reads == []


def _record_opens(monkeypatch) -> list:
    handles = []
    open_ = pathlib.Path.open

    def recorded(self, *args, **kwargs):
        handles.append(open_(self, *args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(pathlib.Path, "open", recorded)
    return handles


@pytest.mark.parametrize("name", [
    "many chunks", "bad value in a middle chunk", "window comment longer than a block", "crlf",
])
def test_a_path_is_opened_once_and_closed(name, monkeypatch, tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(TRACES[name].encode())
    reads, handles = _count_whole_reads(monkeypatch), _record_opens(monkeypatch)
    try:
        load_trace(path)
    except MalformedTrace:
        pass
    assert reads == []
    assert len(handles) == 1 and handles[0].closed


FAILED_LOADS = {
    "bad header": (load_trace, "t,p\n" + "".join(ROWS)),
    "bad window comment": (load_trace, "# window: 0.002\n" + H + "".join(ROWS)),
    "bad value in a middle chunk": (load_trace, TRACES["bad value in a middle chunk"]),
    "missing shunt": (load_hw_capture, CAPTURES["many chunks"].split("\n", 1)[1]),
    "unparsable shunt value": (
        load_hw_capture, CAPTURES["many chunks"].replace("r_s_ohm: 0.1", "r_s_ohm: x")),
    "bad capture value in a middle chunk": (load_hw_capture, CAPTURES["bad value in a middle chunk"]),
}


@pytest.mark.parametrize("name", sorted(FAILED_LOADS))
def test_a_failed_path_load_leaves_no_handle_open(name, monkeypatch, tmp_path):
    load, text = FAILED_LOADS[name]
    path = tmp_path / "data.csv"
    path.write_text(text)
    handles = _record_opens(monkeypatch)
    with pytest.raises((MalformedTrace, MalformedCapture, MissingShunt)):
        load(path)
    assert len(handles) == 1 and handles[0].closed


@pytest.mark.parametrize("source", ["path", "bytes"])
def test_an_error_that_is_not_a_decode_error_closes_the_stream_and_propagates(source, monkeypatch, tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(TRACES["many chunks"])
    error, streams = OSError("device went away"), []

    def failing_survey(f):
        streams.append(f)
        raise error

    monkeypatch.setattr(_csv, "_survey", failing_survey)
    with pytest.raises(OSError) as exc:
        _csv.Reader(path if source == "path" else path.read_bytes(), MalformedTrace)
    assert exc.value is error and exc.value.__cause__ is None
    assert len(streams) == 1 and streams[0].closed


@pytest.mark.parametrize("name", [
    "many chunks", "a chunk of only blank lines", "window comment longer than a block",
])
def test_crlf_bytes_and_streams_take_the_numpy_pass(name, monkeypatch, tmp_path):
    path = tmp_path / "lf.csv"
    path.write_text(TRACES[name])
    expected = _outcome(load_trace, path)
    crlf = TRACES[name].replace("\n", "\r\n")

    def no_scan(*args):
        raise AssertionError("the line scan ran")

    monkeypatch.setattr(_csv.Reader, "_scan", no_scan)
    sources = [crlf.encode(), io.BytesIO(crlf.encode()), io.StringIO(crlf)]
    assert [_outcome(load_trace, s) for s in sources] == [expected] * 3


def test_a_failed_chunk_scans_from_the_body_start(tmp_path):
    # the numpy pass fails on the last chunk; the scan accepts the whole body,
    # underscores included, and its columns replace the partial ones
    text = _with(ROWS, 21, "0.021,1_0\n")
    path = tmp_path / "t.csv"
    path.write_text(text)
    trace = load_trace(path)
    assert trace.powers.tolist()[-1] == 10.0
    assert np.array_equal(trace.times, [float(r.split(",")[0]) for r in ROWS])


# UTF-8 beyond ASCII in a comment or a header; every body is ASCII
WIDE_HEADS = {
    "capture comment": (load_hw_capture, "# scope: 5 \xb5s/div\n" + CAPTURES["many chunks"]),
    "capture comment across a block boundary": (
        load_hw_capture, "#" * (BLOCK - 1) + "\u2026\n" + CAPTURES["many chunks"]),
    "capture comment after the first block": (
        load_hw_capture, "#" * 3 * BLOCK + "\xe9\n" + CAPTURES["many chunks"]),
    "window comment": (load_trace, "# window: 0.002,0.004\u3000\n" + H + "".join(ROWS)),
    "header": (load_trace, H[:-1] + "\xa0\n" + "".join(ROWS)),
}


def _old_path_outcome(load, source, monkeypatch):
    # the path of text that is not plain: line ends translated, then the text
    # rebuilt from str.splitlines() and scanned
    with monkeypatch.context() as m:
        m.setattr(_csv, "_survey", lambda f: None)
        return _outcome(load, source)


@pytest.mark.parametrize("name", sorted(WIDE_HEADS))
def test_non_ascii_comments_and_headers_take_the_numpy_pass(name, monkeypatch, tmp_path):
    load, text = WIDE_HEADS[name]
    expected = _old_path_outcome(load, text.encode(), monkeypatch)
    assert isinstance(expected[0], list)  # loads

    def no_scan(*args):
        raise AssertionError("the line scan ran")

    monkeypatch.setattr(_csv.Reader, "_scan", no_scan)
    sources = _sources(text, tmp_path) + [io.StringIO(text), text.replace("\n", "\r\n").encode()]
    assert [_outcome(load, s) for s in sources] == [expected] * 6


NOT_PLAIN = {
    "next line": "\x85".encode(),
    "line separator": "\u2028".encode(),
    "paragraph separator": "\u2029".encode(),
    "replacement character": "\ufffd".encode(),
    "latin-1": b"\xb5",
    "cut sequence": b"\xe2\x80",
}


@pytest.mark.parametrize("name", sorted(NOT_PLAIN))
@pytest.mark.parametrize("where", ["comment", "body"])
def test_other_line_breaks_and_invalid_utf8_are_not_plain(name, where):
    # such text is rebuilt from str.splitlines() and scanned, so its lines split
    # where Python splits them, and bytes that are not UTF-8 fail with their line
    wide = NOT_PLAIN[name]
    head = b"# r_s_ohm: 0.1 " + wide + b"x\n" + C.split("\n", 1)[1].encode()
    body = "".join(CAPTURE_ROWS).encode()
    data = head + body if where == "comment" else C.encode() + wide + body
    assert _csv._survey(io.BytesIO(data)) is None


@pytest.mark.parametrize(
    "load, data, error, message",
    [
        (load_trace, b"t_s,power_mw\n0,1\n1,\xff2\n", MalformedTrace, "line 3: byte 0xff"),
        # lines counted with their ends translated: "\r\n" is one, a lone "\r" one too
        (load_trace, b"# x\r\nt_s,power_mw\r0,1\r\n1,2\n2,3\xe2\x80\n", MalformedTrace,
         "line 5: byte 0xe2"),
        (load_hw_capture, b"# r_s_ohm: 0.1\n# scope: 5 \xb5s/div\n" + C.split("\n", 1)[1].encode(),
         MalformedCapture, "line 2: byte 0xb5"),
    ],
)
def test_bytes_that_are_not_utf8_name_their_line(load, data, error, message, tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    for source in (path, data, io.BytesIO(data)):
        with pytest.raises(error) as exc:
            load(source)
        assert type(exc.value) is error
        assert str(exc.value) == f"{message} is not UTF-8"
        assert exc.value.line == int(message.split()[1].rstrip(":"))
