"""The ``measure`` result JSON's float lists against ``json.dumps``, value by value.

``json.dumps(payload, indent=2)`` writes each float as its ``repr``. These
seeded lists hold the values where a shortcut to that text could go wrong:
every sign, fixed-notation exponent and count of digits shown, whole numbers
(whose repr ends in ".0"), both zeros, the edges of fixed notation, values
near a tie at the ninth digit, clock times of 17 digits and the extreme
floats, in lists shorter than one chunk of the CSV codec and longer than two.
"""

import itertools
import json

import numpy as np
import pytest

from instrujoule import _csv
from instrujoule.cli import _result_json_text

import oracles

EDGES = [
    0.0, -0.0, 9.99999999995e-5, 1e-5, 1e9, 1e16, 5e-324, -5e-324,
    np.finfo(np.float64).max, -np.finfo(np.float64).max, 1e-4, 99999999.95, 999999999.0,
]


def _shown_digits(rng) -> list[float]:
    # a value for every sign, exponent -4..8 and count of digits shown 1..9
    values = []
    for sign, e, shown in itertools.product((1.0, -1.0), range(-4, 9), range(1, 10)):
        n = int(rng.integers(10 ** (shown - 1), 10**shown))
        digits = str(n + (n % 10 == 0))  # the last digit shown is not 0
        values.append(sign * float(f"{digits[0]}.{digits[1:]}e{e}"))
    return values


def _whole(rng) -> list[float]:
    # whole numbers of 1..9 digits, each with trailing zeros or none
    digits = rng.integers(1, 10**9, 200)
    scale = 10.0 ** rng.integers(0, 9, 200)
    values = np.floor(digits / scale) * rng.choice([1.0, 10.0, 100.0], 200)
    values = values[values < 1e9]
    return (rng.choice([-1.0, 1.0], values.size) * values).tolist()


def _near_ties(rng) -> list[float]:
    # within 1e-6 of a tie at the ninth digit, in units of that digit
    r = rng.integers(100_000_000, 1_000_000_000, 1000)
    e = rng.integers(-4, 9, 1000)
    offset = rng.uniform(-1e-6, 1e-6, 1000)
    return (rng.choice([-1.0, 1.0], 1000) * (r + 0.5 + offset) * 10.0 ** (e - 8)).tolist()


def _clock_times(rng) -> list[float]:
    # times on a grid from an odd origin: many need 16 or 17 digits
    start = float(rng.uniform(0.0, 100.0))
    values = (start + np.arange(1500) * 1e-3).tolist() + (1.0 + np.arange(1500) * 1e-3).tolist()
    return values + [1.0010000000000001, 0.1 + 0.2, 1 / 3]


def _pool(seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    values = _shown_digits(rng) + _whole(rng) + _near_ties(rng) + _clock_times(rng) + EDGES
    assert any(len(repr(v).replace("-", "").replace(".", "").lstrip("0")) == 17 for v in values)
    return [values[i] for i in rng.permutation(len(values))]


def _fixed(rng, n: int) -> np.ndarray:
    # values of 1..9 digits at exponents -4..8, each the double nearest its
    # decimal, as a replayed trace's powers are: the vector pass writes them
    shown = rng.integers(1, 10, n)
    whole = rng.integers(10 ** (shown - 1), 10**shown)
    scale = rng.integers(-4, 9, n) - shown + 1
    values = np.where(scale >= 0, whole * 10.0 ** np.maximum(scale, 0), whole / 10.0 ** np.maximum(-scale, 0))
    return rng.choice([-1.0, 1.0], n) * values


def _mixed(seed: int) -> list[float]:
    # the pool, each value three times among values the vector pass writes,
    # so that most chunks take the pass and splice the pool's other values in
    rng, pool = np.random.default_rng(seed), _pool(seed)
    values = np.concatenate([np.tile(pool, 3), _fixed(rng, 9 * len(pool))])
    return rng.permutation(values).tolist()


def _payload(t_s: list[float], power_mw: list[float]) -> dict:
    return {
        "strategy": "mtsm", "label": "kernel", "energy_mj": 1.5, "elapsed_s": 0.25,
        "n_samples": len(t_s), "flag_set_s": 0.0, "flag_clear_s": 0.25,
        "trace": {"t_s": t_s, "power_mw": power_mw, "window": [0.0, 0.25]},
    }


# shorter than the vector pass takes, one chunk, longer than two chunks
LENGTHS = [1, _csv._VECTOR_MIN - 1, _csv._VECTOR_MIN, _csv._ROWS - 1, 2 * _csv._ROWS + 1, 3 * _csv._ROWS + 7]


@pytest.mark.parametrize("n", LENGTHS)
def test_float_lists_match_indented_dumps(n):
    values = _mixed(n)
    payload = _payload(values[:n], values[-n:])
    assert _result_json_text(payload) == json.dumps(payload, indent=2) + "\n"


def test_the_whole_pool_matches_indented_dumps():
    # every value of the pool, among values the pass writes, in one list
    values = _mixed(0)
    e, r, ok = _csv._round9(np.array(values))
    assert len(values) > 2 * _csv._ROWS and ok.mean() > 0.8
    payload = _payload(values, values[:1])
    assert _result_json_text(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("seed", range(4))
def test_float_lists_match_the_c_encoder(seed):
    # random lists of values the vector pass writes mixed with up to 40% of
    # values it splices in, so that some chunks are formatted by "%r" alone
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4 * _csv._ROWS))
    values = _fixed(rng, n)
    spliced = rng.random(n) < rng.uniform(0.0, 0.4)
    values[spliced] = rng.choice(_pool(seed) + rng.uniform(0, 20, 500).tolist(), spliced.sum())
    payload = _payload(values.tolist(), values[::-1].tolist())
    assert _result_json_text(payload) == oracles.result_json_text(payload)
