"""The CSV row formatter against ``'%.9g' % v``, value by value.

Each class holds 200k seeded values, written as rows of seven columns so the
vector pass sees whole chunks as well as a short last one. The
near-tie and power-of-ten classes sit where a scaled product could round
the other way than the exact value, or where ``%.9g`` switches between
fixed and exponent notation; the sprinkled class mixes such values into
rows the vector pass formats.
"""

import itertools

import numpy as np
import pytest

from instrujoule import _csv

WIDTH = 7
N = 28_572 * WIDTH  # at least 200k values
LAST_SMALL = (_csv._VECTOR_MIN - 1) // WIDTH  # the most rows of seven formatted value by value


def _near_ties(rng) -> np.ndarray:
    # (r + 0.5) * 10**(e - 8): a tie at the ninth digit, moved by -4..4 ulps
    r = rng.integers(100_000_000, 1_000_000_000, N)
    e = rng.integers(-4, 9, N)
    values = (r + 0.5) * 10.0 ** (e - 8)
    steps = rng.integers(-4, 5, N)
    for _ in range(4):
        values = np.where(steps > 0, np.nextafter(values, np.inf), values)
        values = np.where(steps < 0, np.nextafter(values, 0.0), values)
        steps -= np.sign(steps)
    return values


def _around_powers_of_ten(rng) -> np.ndarray:
    powers = 10.0 ** np.arange(-6, 11)
    below = np.nextafter(powers, 0.0)
    near = np.concatenate([powers, below, np.nextafter(below, 0.0), np.nextafter(powers, np.inf)])
    return rng.choice([-1.0, 1.0], N) * np.resize(near, N)


EDGES = [
    0.0, -0.0, 9.9999999995, 999999999.5, 1e9, 1e-4, 9.99999999e-05, 123456789.5,
    5e-324, np.finfo(np.float64).max, 0.5, 2.5, 99999.99995, np.nan, np.inf, -np.inf,
]


def _sprinkled(rng) -> np.ndarray:
    # fixed-notation values with one in a hundred swapped for an edge value
    # or a near-tie, so most rows take the vector pass and the rest are spliced in
    values = np.round(rng.uniform(0.0, 12.5, N), 6)
    swap = rng.random(N) < 0.01
    values[swap] = rng.choice(np.concatenate([EDGES, _near_ties(rng)[:100]]), swap.sum())
    return values


CLASSES = {
    "uniform": lambda rng: rng.uniform(-1e6, 1e6, N),
    "log-uniform": lambda rng: rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-12, 12, N),
    "quantized": lambda rng: np.round(rng.uniform(0.0, 12.5, N), 6),
    "time-grid": lambda rng: np.arange(N) / 5000,
    "bit-patterns": lambda rng: rng.integers(0, 2**64, N, dtype=np.uint64).view(np.float64),
    "near-ties": _near_ties,
    "powers-of-ten": _around_powers_of_ten,
    "edges": lambda rng: rng.permutation(np.resize(np.array(EDGES), N)),
    "sprinkled": _sprinkled,
}


@pytest.mark.parametrize("name", CLASSES)
def test_rows_match_printf(name):
    values = CLASSES[name](np.random.default_rng(list(CLASSES).index(name)))
    columns = list(values.reshape(-1, WIDTH).T.copy())
    texts = ["%.9g" % v for v in values.tolist()]
    expected = "".join(",".join(texts[i:i + WIDTH]) + "\n" for i in range(0, N, WIDTH))
    got = "".join(_csv.format_rows(columns))
    if got != expected:
        wrong = [(g, e) for g, e in zip(got.splitlines(), expected.splitlines()) if g != e]
        pytest.fail(f"{len(wrong)} rows differ, first {wrong[:3]}")


@pytest.mark.parametrize("rows", [1, LAST_SMALL, LAST_SMALL + 1, 4 * _csv._ROWS, 4 * _csv._ROWS + 1])
def test_chunk_sizes_and_delimiter(rows):
    rng = np.random.default_rng(rows)
    columns = [np.arange(rows) * 2e-4] + [rng.uniform(-5.0, 5.0, rows) for _ in range(WIDTH - 1)]
    expected = "".join(
        " ".join("%.9g" % v for v in row) + "\n" for row in zip(*(c.tolist() for c in columns))
    )
    assert "".join(_csv.format_rows(columns, " ")) == expected


@pytest.mark.parametrize("decade", range(-4, 9))
def test_chunks_of_one_decade(decade):
    # every value of the chunks in one decade, either sign and rounded to
    # nine digits, so that decade's mask rows meet many digit patterns
    rng = np.random.default_rng(100 + decade)
    values = rng.uniform(10.0**decade, 10.0 ** (decade + 1), 8192 * WIDTH)
    values = rng.choice([-1.0, 1.0], values.size) * np.round(values, 8 - decade)
    columns = list(values.reshape(-1, WIDTH).T.copy())
    texts = ["%.9g" % v for v in values.tolist()]
    expected = "".join(",".join(texts[i:i + WIDTH]) + "\n" for i in range(0, values.size, WIDTH))
    assert "".join(_csv.format_rows(columns)) == expected


def test_every_mask_row():
    # a value for every sign, exponent and count of digits shown, twice over
    # with random digits to fill a chunk the vector pass takes, plus 0 and -0
    rng = np.random.default_rng(11)
    texts = ["0", "-0"]
    for _, sign, e, shown in itertools.product(range(2), "+-", range(-4, 9), range(1, 10)):
        n = int(rng.integers(10 ** (shown - 1), 10**shown))
        digits = str(n + (n % 10 == 0))  # the last digit shown is not 0
        texts.append(f"{sign}{digits[0]}.{digits[1:]}e{e}")
    values = np.array([float(t) for t in texts])
    assert values.size >= _csv._VECTOR_MIN and _csv._round9(values)[2].all()
    assert "".join(_csv.format_rows([values])).splitlines() == ["%.9g" % v for v in values.tolist()]


@pytest.mark.parametrize("at", [0, _csv._ROWS - 1, _csv._ROWS, 2 * _csv._ROWS - 1])
def test_refuses_the_first_alike_pair_across_chunks(at):
    # the pair at rows at and at + 1 prints alike, and so does a later one
    t = 1.0 + np.arange(3 * _csv._ROWS) * 1e-3
    t[at + 1], t[-1] = np.nextafter(t[at], np.inf), np.nextafter(t[-2], np.inf)
    with pytest.raises(ValueError) as exc:
        _csv._check_distinct(t, ValueError)
    assert str(exc.value) == f"times at rows {at} and {at + 1} both print as {t[at]:.9g}; the CSV would not read back"


def _ascending_grids(rng):
    # neighbours one or a few units of the ninth digit apart, where their text
    # may or may not coincide: grids at any origin and step, grids of ties at
    # the ninth digit, grids across a power of ten, runs of adjacent floats
    for case in range(2000):
        n = int(rng.integers(2, 40))
        kind, e = case % 4, int(rng.integers(-6, 12))
        if kind == 0:
            t = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, 12) + np.arange(n) * 10.0 ** rng.uniform(-14, 0)
        elif kind == 1:
            t = (rng.integers(10**8, 10**9) + np.arange(n) * 0.5) * 10.0 ** (e - 8)
        elif kind == 2:
            t = 10.0**e + (np.arange(n) - n // 2) * 10.0 ** (e - 9) * rng.uniform(0.3, 3)
        else:
            x = rng.uniform(1.0, 1e9)
            t = x + np.arange(n) * np.spacing(x) * int(rng.integers(1, 1000))
        yield np.unique(t)


def test_refuses_exactly_the_times_that_print_alike():
    outcomes = []
    for t in _ascending_grids(np.random.default_rng(7)):
        texts = ["%.9g" % v for v in t.tolist()]
        alike = [i for i in range(t.size - 1) if texts[i] == texts[i + 1]]
        try:
            _csv._check_distinct(t, ValueError)
            assert not alike, f"{texts} not refused"
        except ValueError as exc:
            assert alike and str(exc).startswith(f"times at rows {alike[0]} and {alike[0] + 1} both print as ")
        outcomes.append(bool(alike))
    assert 200 < sum(outcomes) < len(outcomes) - 200  # both outcomes well covered
