"""Malformed and unusual CSV input for both formats.

The reader parses the body in one numpy pass, and the trace or capture
built from its columns checks them; it falls back to a line-by-line scan
when numpy cannot parse the text or the build rejects the rows. These cases
pin what the scan reports: the error class, the message and the line
number. They also pin input that the numpy pass rejects but the scan
accepts, with the arrays it loads, and fuzz that every load gives the same
arrays or the same error whether or not the numpy pass runs.
"""

import io

import numpy as np
import pytest

from instrujoule import (
    MalformedCapture,
    MalformedTrace,
    MissingShunt,
    load_hw_capture,
    load_trace,
)
from instrujoule import _csv

H = "t_s,power_mw\n"
C = "# r_s_ohm: 0.1\nt_s,v_s1,v_g1,v_s2,v_g2,i_clamp_a,v_dps\n"
R = "0,12.1,12,3.4,3.3,10,12\n"
LONG = H + "".join(f"{i * 0.001:.9g},{100 + i}\n" for i in range(300))

TRACE_ERRORS = {
    "bad header": (
        "t,p\n0,1\n", "line 1: expected header 't_s,power_mw', got 't,p'", 1),
    "bad header after window": (
        "# window: 0,1\ntime,power\n0,1\n",
        "line 2: expected header 't_s,power_mw', got 'time,power'", 2),
    "two comments": (
        "# window: 0,1\n# window: 0,1\n" + H + "0,1\n1,1\n",
        "line 2: expected header 't_s,power_mw', got '# window: 0,1'", 2),
    "unrecognized comment": ("# hello\n" + H, "line 1: unrecognized comment '# hello'", 1),
    "empty file": ("", "line 1: expected header 't_s,power_mw', got '<end of file>'", 1),
    "wrong field count": (H + "0,1\n1,2,3\n", "line 3: expected 't,power', got '1,2,3'", 3),
    # numpy parses rows of one width; the width check sends them to the scan
    "every row too wide": (H + "0,1,2\n1,2,3\n", "line 2: expected 't,power', got '0,1,2'", 2),
    "abc": (H + "0,1\nabc,2\n", "line 3: unparsable number in 'abc,2'", 3),
    "nan": (H + "0,1\n1,nan\n", "line 3: non-finite value in '1,nan'", 3),
    "inf": (H + "0,1\ninf,2\n", "line 3: non-finite value in 'inf,2'", 3),
    "non-increasing": (
        H + "0,1\n0.5,1\n0.5,2\n", "line 4: timestamp 0.5 not after previous 0.5", 4),
    "negative power": (H + "0,1\n1,-2\n", "line 3: negative power -2", 3),
    "hash in row": (H + "0,1\n1,2 # note\n", "line 3: unparsable number in '1,2 # note'", 3),
    "hash line between rows": (
        H + "0,1\n# note\n1,2\n", "line 3: expected 't,power', got '# note'", 3),
    "line number past blanks": (
        "# window: 0,1\n" + H + "0,1\n\n1,2\n2,x\n", "line 6: unparsable number in '2,x'", 6),
    "late fault in a long trace": (
        LONG + "0.2985,7\n", "line 302: timestamp 0.2985 not after previous 0.299", 302),
    # np.loadtxt strips \x1f around a number; float() does not
    "unit separator in a field": (
        H + "0,1\n1,\x1f2\n", "line 3: unparsable number in '1,\x1f2'", 3),
    "window on header only": ("# window: 0,1\n" + H, "window annotation on an empty trace", None),
}

TRACE_LOADS = {
    "underscore digits": (H + "0,1_000\n1,2\n", [0.0, 1.0], [1000.0, 2.0], None),
    "whitespace-only line": (H + "0,1\n   \n1,2\n", [0.0, 1.0], [1.0, 2.0], None),
    "trailing blank lines": (H + "0,1\n1,2\n\n \n\t\n", [0.0, 1.0], [1.0, 2.0], None),
    "header only": (H, [], [], None),
    "crlf line ends": (
        "# window: 0,1\r\nt_s,power_mw\r\n0,1\r\n1,2\r\n", [0.0, 1.0], [1.0, 2.0], (0.0, 1.0)),
    "no-break space": (H + "0,\xa01\n1,2\n", [0.0, 1.0], [1.0, 2.0], None),
}

CAPTURE_ERRORS = {
    "bad header": (
        "# r_s_ohm: 0.1\nt_s,v_s1\n" + R, MalformedCapture,
        "line 2: expected header 't_s,v_s1,v_g1,v_s2,v_g2,i_clamp_a,v_dps', got 't_s,v_s1'", 2),
    "missing shunt": (
        C.split("\n", 1)[1] + R, MissingShunt,
        "capture has no '# r_s_ohm: <value>' comment", None),
    "second shunt": (
        "# r_s_ohm: 0.1\n# r_s_ohm: 0.2\n" + C.split("\n", 1)[1] + R, MalformedCapture,
        "line 2: a second '# r_s_ohm:' comment", 2),
    "second shunt after another comment": (
        "# r_s_ohm: 0.2\n# scope: x\n" + C + R, MalformedCapture, "line 3: a second '# r_s_ohm:' comment", 3),
    "unparsable shunt": (
        "# r_s_ohm: x\n" + C.split("\n", 1)[1] + R, MalformedCapture,
        "line 1: unparsable shunt value 'x'", 1),
    "wrong field count": (
        C + R + "0.001,1,2\n", MalformedCapture, "line 4: expected 7 fields, got 3", 4),
    "every row too short": (
        C + "0,12.1,12,3.4,3.3,10\n0.001,12.1,12,3.4,3.3,10\n", MalformedCapture,
        "line 3: expected 7 fields, got 6", 3),
    "abc": (
        C + R + "0.001,12.1,abc,3.4,3.3,10,12\n", MalformedCapture,
        "line 4: unparsable number in '0.001,12.1,abc,3.4,3.3,10,12'", 4),
    "nan": (
        C + R + "0.001,12.1,12,nan,3.3,10,12\n", MalformedCapture,
        "line 4: non-finite value in '0.001,12.1,12,nan,3.3,10,12'", 4),
    "inf": (
        C + R + "0.001,12.1,12,3.4,3.3,10,-inf\n", MalformedCapture,
        "line 4: non-finite value in '0.001,12.1,12,3.4,3.3,10,-inf'", 4),
    "non-increasing": (
        C + R + R, MalformedCapture, "line 4: timestamp 0 not after previous 0", 4),
    "hash in row": (
        C + R + "0.001,12.1,12,3.4,3.3,10,12#\n", MalformedCapture,
        "line 4: unparsable number in '0.001,12.1,12,3.4,3.3,10,12#'", 4),
    "hash line between rows": (
        "# note\n" + C + R + "# more\n0.001,12.1,12,3.4,3.3,10,12\n", MalformedCapture,
        "line 5: expected 7 fields, got 1", 5),
}

ROW = [12.1, 12.0, 3.4, 3.3, 10.0, 12.0]

CAPTURE_LOADS = {
    "underscore digits": (
        C + "0,1_2.5,12,3.4,3.3,10,12\n", [0.0], [[12.5, 12.0, 3.4, 3.3, 10.0, 12.0]], 0.1),
    "whitespace-only line": (
        C + R + " \t \n0.001,12.1,12,3.4,3.3,10,12\n", [0.0, 0.001], [ROW, ROW], 0.1),
    "trailing blank lines": (C + R + "\n\n  \n", [0.0], [ROW], 0.1),
    "header only": (C, [], [], 0.1),
    "negative channel value": (
        C + "0,-12.1,12,3.4,3.3,-10,12\n", [0.0], [[-12.1, 12.0, 3.4, 3.3, -10.0, 12.0]], 0.1),
}


@pytest.mark.parametrize("name", sorted(TRACE_ERRORS))
def test_trace_error(name):
    text, message, line = TRACE_ERRORS[name]
    with pytest.raises(MalformedTrace) as exc:
        load_trace(text.encode())
    assert type(exc.value) is MalformedTrace
    assert (str(exc.value), exc.value.line) == (message, line)


@pytest.mark.parametrize("name", sorted(TRACE_LOADS))
def test_trace_loads(name):
    text, times, powers, window = TRACE_LOADS[name]
    trace = load_trace(text.encode())
    assert trace.times.tolist() == times
    assert trace.powers.tolist() == powers
    assert (None if trace.window is None else (trace.window.start, trace.window.end)) == window


@pytest.mark.parametrize("name", sorted(CAPTURE_ERRORS))
def test_capture_error(name):
    text, cls, message, line = CAPTURE_ERRORS[name]
    with pytest.raises(cls) as exc:
        load_hw_capture(text.encode())
    assert type(exc.value) is cls
    assert (str(exc.value), getattr(exc.value, "line", None)) == (message, line)


@pytest.mark.parametrize("name", sorted(CAPTURE_LOADS))
def test_capture_loads(name):
    text, times, rows, r_s = CAPTURE_LOADS[name]
    capture = load_hw_capture(text.encode())
    assert capture.times.tolist() == times
    assert capture.r_s == r_s
    expected = np.array(rows, dtype=np.float64).reshape(len(times), 6)
    got = np.column_stack([capture.channels[k] for k in capture.channels]).reshape(len(times), 6)
    assert got.tolist() == expected.tolist()


NO_HEADER = (MalformedTrace, "line 1: expected header 't_s,power_mw', got ''", 1)


def _load_outcome(source):
    try:
        trace = load_trace(source)
    except MalformedTrace as exc:
        return type(exc), str(exc), exc.line
    return trace.times.tolist(), trace.powers.tolist()


@pytest.mark.parametrize("text, outcome", [
    ("\r\n", NO_HEADER),
    ("\r\n\r\n", NO_HEADER),
    ("t_s,power_mw\r\n", ([], [])),
], ids=["crlf", "two crlf", "crlf header only"])
def test_line_ends_report_alike_from_every_source(text, outcome, tmp_path):
    data = text.encode()
    path = tmp_path / "trace.csv"
    path.write_bytes(data)
    sources = [path, data, io.BytesIO(data), io.StringIO(text)]
    assert [_load_outcome(s) for s in sources] == [outcome] * 4


# characters a mutation inserts or substitutes: number syntax, separators
# and whitespace that numpy and float() might treat differently
MUTATION_CHARS = "0123456789.,+-eE_xp #\n\t \x1f\xa0\r"
# whole fields a mutation puts in place of one
MUTATION_FIELDS = ["inf", "-Infinity", "nan", "1e999", "-0", "+5", "1_0", ".5", "5.", "0x1", " 3 ", ""]
FUZZ_BASES = {
    "trace": (
        "# window: 0.001,0.004\n" + H + "".join(f"{i * 1e-3:.9g},{90 + 7 * i}\n" for i in range(6)),
        load_trace),
    "capture": (
        C + "".join(f"{i * 2e-4:.9g},12.1,12,3.4,3.3,1{i},12\n" for i in range(4)),
        load_hw_capture),
}


def _mutate(text: str, rng) -> str:
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(len(text)))
        kind = rng.integers(4)
        if kind == 0:
            text = text[:i] + MUTATION_CHARS[rng.integers(len(MUTATION_CHARS))] + text[i:]
        elif kind == 1:
            text = text[:i] + text[i + 1:]
        elif kind == 2:
            text = text[:i] + MUTATION_CHARS[rng.integers(len(MUTATION_CHARS))] + text[i + 1:]
        else:
            start = max(text.rfind(",", 0, i), text.rfind("\n", 0, i)) + 1
            ends = [e for e in (text.find(",", i), text.find("\n", i)) if e >= 0]
            field = MUTATION_FIELDS[rng.integers(len(MUTATION_FIELDS))]
            text = text[:start] + field + text[min(ends, default=len(text)):]
    return text


def _fuzz_outcome(load, text: str):
    try:
        result = load(text.encode())
    except (MalformedTrace, MissingShunt) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    columns = [result.times] + (
        [result.powers] if hasattr(result, "powers") else list(result.channels.values())
    )
    extra = getattr(result, "window", None) or getattr(result, "r_s", None)
    return [c.tobytes() for c in columns], extra


@pytest.mark.parametrize("name", sorted(FUZZ_BASES))
def test_numpy_path_accepts_only_what_the_scan_accepts(name, monkeypatch):
    # every mutated text loads, or fails with the same class, message and
    # line, whether numpy parses its body and the build checks it, or the
    # line scan checks it alone
    base, load = FUZZ_BASES[name]
    loadtxt, parsed = _csv.Reader._loadtxt, []

    def counted(self, width):
        cols = loadtxt(self, width)
        parsed.append(cols is not None)
        return cols

    rng = np.random.default_rng(2024)
    for _ in range(3000):
        text = _mutate(base, rng)
        with monkeypatch.context() as m:
            m.setattr(_csv.Reader, "_loadtxt", counted)
            fast = _fuzz_outcome(load, text)
        with monkeypatch.context() as m:
            m.setattr(_csv.Reader, "_loadtxt", lambda self, width: None)
            assert _fuzz_outcome(load, text) == fast, text
    assert sum(parsed) >= 600
