"""The vector pass's ``"%r"`` mask table and its compaction.

The ``measure`` result JSON's float lists are written as one-column ``"%r"``
rows. Those rows are checked here mask row by mask row against ``repr``, and
the compaction of either conversion's fields against a boolean index of the
same bytes.
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
    # shows at most its exponent + 1 digits). Two values written apart reach
    # the row that keeps every byte, one with the longest repr of a float
    rng = np.random.default_rng(12)
    texts = ["0", "-0"]
    for _, sign, e, shown in itertools.product(range(2), "+-", range(-4, 9), range(1, 10)):
        n = int(rng.integers(10 ** (shown - 1), 10**shown))
        digits = str(n + (n % 10 == 0))  # the last digit shown is not 0
        texts.append(f"{sign}{digits[0]}.{digits[1:]}e{e}")
    values = np.array([float(t) for t in texts + ["1e-5", "-2.2250738585072014e-308"]])
    e, r, ok = _csv._round9(values)
    exact = ok & (r / _csv._POW10[8 - e] == np.abs(values))
    assert values.size >= _csv._VECTOR_MIN and exact[:-2].all() and not exact[-2:].any()
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
        fields = rng.integers(0, 128, (n, 32), dtype=np.uint8)
        mask_row = rng.integers(-1, len(masks), n)
        keep = masks.view(np.uint8).reshape(len(masks), 32)[mask_row] != 0
        fields[keep & (fields == 0)] = ord("0")
        expected = oracles.compact_by_mask(fields, masks, mask_row)
        assert _csv._compact(fields, masks, mask_row) == expected
