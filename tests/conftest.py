"""Shared fixtures: no test may leave a sampler thread running."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_sampler_left_running():
    yield
    alive = [th.name for th in threading.enumerate() if th.name.endswith("-sampler")]
    assert alive == [], f"sampler threads still alive: {alive}"
