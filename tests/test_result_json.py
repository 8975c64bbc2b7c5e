"""The ``measure`` result JSON against ``json.dumps(payload, indent=2)``.

``cli`` writes the trace's float arrays as the CSV codec's one-column ``"%r"``
rows and splices them into the indented text of the rest of the result;
every case here must give the text the indenting encoder gives for the
arrays as lists, labels that look like JSON included.
"""

import dataclasses
import json

import numpy as np
import pytest

from instrujoule import (
    KernelLaunchWorkload,
    ReplayProvider,
    SyntheticDeviceProvider,
    SyntheticModel,
    TimedWorkload,
    VirtualClock,
    run_mtsm,
    run_papi_style,
    synthesize,
)
from instrujoule.cli import _energy_result_json, _result_json_text, cli_main

MODEL = SyntheticModel(
    kernel_duration=0.5, idle_lead=0.2, idle_tail=0.2, decay_step_duration=0.05,
    sample_rate=2000.0, noise_stddev=750.0, rng_seed=5,
)


def _virtual_mtsm():
    return run_mtsm(SyntheticDeviceProvider(MODEL), KernelLaunchWorkload(),
                    clock=VirtualClock(read_cost=0.001))


def _replayed_mtsm():
    trace = synthesize(MODEL)[0]
    clock = VirtualClock(start=float(trace.times[0]), read_cost=0.001)
    return run_mtsm(ReplayProvider(trace), TimedWorkload(0.6), clock=clock)


def _papi():
    return run_papi_style(SyntheticDeviceProvider(MODEL), KernelLaunchWorkload(),
                          clock=VirtualClock(read_cost=0.001))


RUNS = {"virtual mtsm": _virtual_mtsm, "replayed mtsm": _replayed_mtsm, "papi": _papi}
# a PAPI trace holds one sample, so no window fits in its span: set the payload's
WINDOWS = {
    "window": lambda payload: [payload["flag_set_s"], payload["flag_clear_s"]],
    "no window": lambda payload: None,
}
LABELS = [
    "kernel",
    'say "hi"',
    "back\\slash",
    "two\nlines",
    "énergie µJ ✓",
    "a, b, c",
    "[1.0, 2.5, 3e-05]",
    '"t_s": []',
    '", "power_mw": [',
]


def _expected(payload: dict) -> str:
    trace = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload["trace"].items()}
    return json.dumps({**payload, "trace": trace}, indent=2) + "\n"


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("window", WINDOWS)
def test_results_match_indented_dumps(run, window):
    payload = _energy_result_json(RUNS[run]())
    payload["trace"]["window"] = WINDOWS[window](payload)
    assert _result_json_text(payload) == _expected(payload)


def test_papi_has_one_sample():
    payload = _energy_result_json(_papi())
    assert len(payload["trace"]["t_s"]) == 1
    assert _result_json_text(payload) == _expected(payload)


@pytest.mark.parametrize("label", LABELS)
def test_labels_match_indented_dumps(label):
    payload = _energy_result_json(dataclasses.replace(_virtual_mtsm(), label=label))
    assert _result_json_text(payload) == _expected(payload)


def test_empty_and_extreme_lists():
    payload = _energy_result_json(_papi())
    for values in ([], [0.0], [-0.0, 5e-324, 1e300, 1.7976931348623157e308, 0.1 + 0.2]):
        payload["trace"]["t_s"] = payload["trace"]["power_mw"] = values
        assert _result_json_text(payload) == _expected(payload)


@pytest.mark.parametrize("label", ["kernel", '"t_s": [] "', "[0.5, 1.5]"])
def test_measure_writes_indented_dumps(tmp_path, label):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(MODEL.to_dict()))
    out = tmp_path / "result.json"
    argv = ["measure", "--strategy", "mtsm", "--provider", f"synth:{model_path}",
            "--read-cost", "0.001", "--label", label, "--out", str(out)]
    assert cli_main(argv) == 0
    text = out.read_text(encoding="utf-8")
    payload = json.loads(text)  # floats read back exactly, keys keep their order
    assert payload["label"] == label
    assert text == _expected(payload)

