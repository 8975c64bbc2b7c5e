"""Golden SHA-256 hashes pinning the results of the measurement strategies.

Each case runs a strategy on a seeded synthetic model, noise-free or noisy
with a ramp, and hashes what it produces: the ``measure`` JSON that
``cli_main`` writes for ``mtsm`` and ``papi`` (from a synthetic model and
from a replayed trace), the trace CSV that ``sma`` writes, and the ``repr``
of the energies ``measure_instruction`` extracts. Any change to a reading,
a timestamp, an energy or the output format changes a hash.
"""

import hashlib
import json

import pytest

from instrujoule import (
    KernelLaunchWorkload,
    Strategy,
    SyntheticDeviceProvider,
    SyntheticModel,
    measure_instruction,
    save_trace,
    synthesize,
)
from instrujoule.cli import cli_main

_SHORT = dict(
    kernel_duration=0.5, idle_lead=0.2, idle_tail=0.2, decay_step_duration=0.05,
    sample_rate=2000.0,
)

MODELS = {
    "noise-free": SyntheticModel(**_SHORT),
    "noisy, ramp": SyntheticModel(noise_stddev=750.0, rng_seed=11, ramp_mw=5000.0, **_SHORT),
}

# (model, command) -> SHA-256 of the file the command writes
CLI_HASHES = {
    ("noise-free", "mtsm"):
        "12833f94f18ce5338bf7dee133156cf8a00225f75fb8c58a3568d3e59e5e1f78",
    ("noise-free", "papi"):
        "b49bc9a8b8a78159ecc06113c532e11a47fb1890ff586ad5337ed2db14246f26",
    ("noise-free", "sma"):
        "488e2a6307bb1997964b1ee36c3be1d0f3653068e72c29065c04ee2ebc860056",
    ("noise-free", "replay mtsm"):
        "add673fbcdc2c768c3b9308d75c48723bb82f9b7e8258d90ddeb42c8dae80efe",
    ("noisy, ramp", "mtsm"):
        "7e06b9457d08bf7cb554325d030665c0af66dea150480c8314486e4c4e6850f6",
    ("noisy, ramp", "papi"):
        "56f163657f92afd865cd44c7d58c3a1adc57c210180232764f1b1ff997e5f1d0",
    ("noisy, ramp", "sma"):
        "ee4756c600c6ce236fbbc943f60e4d2c559fb09fbf7f636e49b8bfb87e540be1",
    ("noisy, ramp", "replay mtsm"):
        "f1b2fc06f449af6eb26670d3678f955dd40390bf461feb689d4fc6dea5c41251",
}

# (model, strategy) -> SHA-256 of the repr of the extracted energies
EXTRACTION_HASHES = {
    ("noise-free", "mtsm"):
        "5210e95620a6bd511fe8dea67fa8f1173485f0358f5a6d7ced030953572fc888",
    ("noise-free", "papi"):
        "a387ec29a377405017ed7440a1206b304031acad4b16cee66e1324415bb250f8",
    ("noisy, ramp", "mtsm"):
        "21e107639e4c2c85f851ae1d9c876641010a743b50091f9812e34ff84dd8f58c",
    ("noisy, ramp", "papi"):
        "0ade2b94223c22eea20e1b44c87a8155500fe4901db076ec4fb10a8c6ab714ed",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_output(tmp_path, model: SyntheticModel, command: str) -> bytes:
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(model.to_dict()))
    out = tmp_path / "out"
    argv = ["measure", "--read-cost", "0.001", "--out", str(out)]
    if command == "sma":
        argv += ["--strategy", "sma", "--provider", f"synth:{model_path}",
                 "--interval", "0.005", "--lead", "0.1", "--tail", "0.1"]
    elif command == "replay mtsm":
        trace_path = tmp_path / "trace.csv"
        save_trace(synthesize(model)[0], trace_path)
        argv += ["--strategy", "mtsm", "--provider", f"replay:{trace_path}",
                 "--workload", "synth:0.6"]
    else:
        argv += ["--strategy", command, "--provider", f"synth:{model_path}"]
    assert cli_main(argv) == 0
    return out.read_bytes()


def _extraction(model: SyntheticModel, strategy: Strategy) -> bytes:
    total = SyntheticModel(**{**model.to_dict(), "p_kernel": model.p_kernel + 400.0,
                              "rng_seed": model.rng_seed + 1})
    result = measure_instruction(
        (lambda: SyntheticDeviceProvider(total), lambda: SyntheticDeviceProvider(model)),
        KernelLaunchWorkload(), KernelLaunchWorkload(), 1_000_000, strategy,
    )
    energies = (result.energy_per_instruction, result.e_total, result.e_overhead,
                result.total_result.n_samples, result.overhead_result.n_samples)
    return repr(energies).encode()


@pytest.mark.parametrize("model, command", sorted(CLI_HASHES))
def test_cli_result_golden(tmp_path, model, command):
    assert _sha(_cli_output(tmp_path, MODELS[model], command)) == CLI_HASHES[model, command]


@pytest.mark.parametrize("model, strategy", sorted(EXTRACTION_HASHES))
def test_extraction_golden(model, strategy):
    got = _sha(_extraction(MODELS[model], Strategy(strategy)))
    assert got == EXTRACTION_HASHES[model, strategy]
