"""Smoke test: every demo script runs to completion without raising."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos may write files (e.g. a png) to the cwd
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
