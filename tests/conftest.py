"""Shared fixtures: no test may leave a sampler thread or a pair's reader
thread running, or the interpreter's switch interval changed."""

import sys
import threading

import pytest


@pytest.fixture(autouse=True)
def no_sampler_left_running():
    yield
    alive = [th.name for th in threading.enumerate() if th.name.endswith(("-sampler", "-reader"))]
    assert alive == [], f"sampler or reader threads still alive: {alive}"


@pytest.fixture(autouse=True)
def switch_interval_restored():
    before = sys.getswitchinterval()
    yield
    after = sys.getswitchinterval()
    sys.setswitchinterval(before)  # the next test starts from the same value either way
    assert after == before, f"switch interval left at {after:g} s, was {before:g} s"
