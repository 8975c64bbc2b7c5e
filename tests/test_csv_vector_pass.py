"""The vector pass's ``"%r"`` mask table, its compaction, and when it runs.

The ``measure`` result JSON's float lists are written as one-column ``"%r"``
rows. Those rows are checked here mask row by mask row against ``repr``, and
the compaction of either conversion's fields against a boolean index of the
same bytes. The other cases pin that the pass, not ``%``, formats chunks of
the shapes the codec writes, and its rules for rows written apart: where
their separators go, a repr of exponent 8, and a repr too long for its row.
"""

import itertools

import numpy as np
import pytest

from instrujoule import _csv

import oracles


def test_every_repr_mask_row():
    # a value for every sign, exponent and count of digits shown, twice over
    # with random digits to fill a chunk the vector pass takes, plus 0 and -0:
    # every row of the ".0" table that a value can reach (a whole number
    # shows at most its exponent + 1 digits; a value of exponent 8 is written
    # apart). Values written apart reach the row that keeps every byte
    rng = np.random.default_rng(12)
    texts = ["0", "-0"]
    for _, sign, e, shown in itertools.product(range(2), "+-", range(-4, 9), range(1, 10)):
        n = int(rng.integers(10 ** (shown - 1), 10**shown))
        digits = str(n + (n % 10 == 0))  # the last digit shown is not 0
        texts.append(f"{sign}{digits[0]}.{digits[1:]}e{e}")
    values = np.array([float(t) for t in texts + ["1e-5"]])
    e, r, ok = _csv._round9(values)
    exact = ok & (r / _csv._POW10[8 - e] == np.abs(values))
    assert values.size >= _csv._VECTOR_MIN and exact[:-1].all() and not exact[-1]
    text = "".join(_csv.format_rows([values], conversion="%r"))
    assert text == "".join(repr(v) + "\n" for v in values.tolist())
    assert text.count(".0\n") > 100


@pytest.mark.parametrize("conversion", _csv._FORMS)
def test_compaction_matches_a_boolean_mask(conversion):
    # random bytes, none of the kept ones NUL, under random mask rows; -1 is
    # the last row, which keeps every byte, as for a spliced row
    masks = _csv._FORMS[conversion][0]
    rng = np.random.default_rng(13)
    for n in (1, _csv._VECTOR_MIN, _csv._ROWS, 7 * _csv._ROWS):
        table = masks.view(np.uint8).reshape(len(masks), -1)
        fields = rng.integers(0, 128, (n, table.shape[1]), dtype=np.uint8)
        mask_row = rng.integers(-1, len(masks), n)
        keep = table[mask_row] != 0
        fields[keep & (fields == 0)] = ord("0")
        expected = oracles.compact_by_mask(fields, masks, mask_row)
        assert _csv._compact(fields, masks, mask_row) == expected


def _no_format_each(monkeypatch):
    def refuse(columns, fmt):
        raise AssertionError("a chunk fell back to % alone")
    monkeypatch.setattr(_csv, "_format_each", refuse)


def _printed(columns, conversion: str, delimiter: str = ",") -> str:
    fmt = delimiter.join([conversion] * len(columns))
    return "".join(fmt % row + "\n" for row in zip(*(c.tolist() for c in columns)))


def test_the_codec_shapes_take_the_vector_pass(monkeypatch):
    # a capture chunk of channels quantized to 1 uV / 1 uA on a 5 kHz clock,
    # a power-trace chunk and a chunk of the measure JSON's times: each is
    # formatted by the pass, its rows written apart included, never by %
    rng = np.random.default_rng(14)
    n = _csv._ROWS
    t = 0.25 + np.arange(n) / 5000
    volts = [np.round(level + rng.normal(0.0, 0.01, n), 6) for level in (12.1, 12.0, 3.4, 3.3)]
    amps = np.round(rng.uniform(2.0, 9.0, n), 6)
    capture = [t, *volts, amps, np.round(12.0 + rng.normal(0.0, 0.01, n), 6)]
    trace = [t, (volts[0] - volts[1]) / 0.01 * volts[1] * 1000.0]
    times = [np.arange(n) / 5000]
    expected = [_printed(capture, "%.9g"), _printed(trace, "%.9g"), _printed(times, "%r")]
    _no_format_each(monkeypatch)
    for columns, conversion, text in zip((capture, trace, times), ("%.9g", "%.9g", "%r"), expected):
        assert "".join(_csv.format_rows(columns, conversion=conversion)) == text


def test_a_repr_of_exponent_8_is_written_apart(monkeypatch):
    # its ".0" would follow the ninth digit, which the field keeps at its end
    values = np.concatenate([
        [123456789.0, -123456789.0, 100000000.0, 999999999.0],
        np.arange(_csv._VECTOR_MIN) * 0.25,
    ])
    expected = _printed([values], "%r")
    assert expected.startswith("123456789.0\n-123456789.0\n100000000.0\n999999999.0\n")
    _no_format_each(monkeypatch)
    assert "".join(_csv.format_rows([values], conversion="%r")) == expected


@pytest.mark.parametrize("width", range(1, 4))
def test_a_repr_longer_than_its_row(width):
    # a one-column row holds 23 bytes after its separator: the 24 of this
    # repr send its chunk to %; wider rows hold it
    column = np.arange(_csv._VECTOR_MIN) * 0.25
    column[100] = -2.2250738585072014e-308
    assert len(repr(float(column[100]))) == 24
    columns = [column] + [np.arange(column.size) * 0.5] * (width - 1)
    assert "".join(_csv.format_rows(columns, conversion="%r")) == _printed(columns, "%r")


@pytest.mark.parametrize("conversion", _csv._FORMS)
@pytest.mark.parametrize("width", range(1, 8))
def test_rows_written_apart_at_chunk_edges(monkeypatch, conversion, width):
    # rows written apart at the first and last row of each chunk and at the
    # very last row keep their separators: "\n" before a row, none before a
    # chunk's first value, and the delimiter between values
    n = 2 * _csv._ROWS + _csv._VECTOR_MIN + 16
    columns = [1.0 + np.arange(n) * 0.5] + [np.arange(n) * 0.125 - 7.0 for _ in range(width - 1)]
    for i, row in enumerate([0, _csv._ROWS - 1, _csv._ROWS, 2 * _csv._ROWS - 1, 2 * _csv._ROWS, n - 1]):
        columns[i % width][row] = 1e-5 * (i + 1)  # exponent notation
    expected = _printed(columns, conversion, ";")
    _no_format_each(monkeypatch)
    assert "".join(_csv.format_rows(columns, ";", conversion)) == expected
