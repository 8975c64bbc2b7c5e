"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (each test also prints its own PASS line, visible with ``-s``).
All tolerances are pinned here; nothing is deferred to calibration.
"""

import difflib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from instrujoule import (
    KernelLaunchWorkload,
    KernelVariant,
    SyntheticDeviceProvider,
    SyntheticModel,
    VirtualClock,
    generate_kernel,
    hw_power,
    instruction_energy,
    list_catalog,
    load_reference_table,
    mape,
    render_table,
    rmse,
    run_mtsm,
    run_papi_style,
    validate_kernel,
)
from instrujoule.cli import cli_main
from instrujoule.hardware import HwSample

GOLDEN = Path(__file__).parent / "data" / "golden_table.csv"


def _report(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


def _mtsm_for(model: SyntheticModel, read_cost=0.0005):
    provider = SyntheticDeviceProvider(model)
    return run_mtsm(provider, KernelLaunchWorkload(), clock=VirtualClock(read_cost=read_cost))


def test_c1_sample_mean_energy_matches_synthetic_truth():
    """Criterion 1: 50 seeded noise-free models, >= 2 kHz effective rate,
    synchronized-strategy energy within 0.5% of the closed-form truth,
    total runtime under 5 s."""
    start = time.monotonic()
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        model = SyntheticModel(
            p_idle=float(rng.uniform(1e4, 4e4)),
            p_kernel=float(rng.uniform(3e4, 2e5)),
            kernel_duration=float(rng.uniform(1.0, 2.0)),
            pre_rise_lead=float(rng.uniform(0.001, 0.003)),
            decay_steps=int(rng.integers(1, 6)),
            noise_stddev=0.0,
            rng_seed=seed,
        )
        result = _mtsm_for(model, read_cost=0.0005)  # 2 kHz effective
        truth = model.true_window_energy()
        rel = abs(result.energy - truth) / truth
        worst = max(worst, rel)
        assert rel <= 0.005, f"seed {seed}: relative error {rel:.4%}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _report(f"1 energy-integration oracle (worst {worst:.4%}, {elapsed:.2f} s)")


def test_c2_instruction_energy_exact_against_arbitrary_precision():
    """Criterion 2: per-instruction extraction matches a Fraction oracle on
    1000 random triples to 1e-12 relative."""
    rng = np.random.default_rng(2024)
    for i in range(1000):
        e_total = float(rng.uniform(0.0, 1e6))
        e_overhead = float(rng.uniform(0.0, 1e6))
        n = int(rng.integers(1, 100_000_000))
        got = instruction_energy(e_total, e_overhead, n)
        exact = (Fraction(e_total) - Fraction(e_overhead)) / n * 1000
        if exact == 0:
            assert got == 0.0
        else:
            rel = abs(Fraction(got) - exact) / abs(exact)
            assert rel <= Fraction(1, 10**12), f"triple {i}: rel {float(rel):.3e}"
    _report("2 per-instruction arithmetic exactness")


def test_c3_hw_power_matches_independent_oracle():
    """Criterion 3: rig power equation vs an independently coded scalar
    evaluation, 1000 random samples to 1 ulp; the 135.3 W worked example
    reproduces to 1e-12 relative."""

    def oracle(v_s1, v_g1, v_s2, v_g2, i_clamp, v_dps, r_s):
        shunt_current_12v = (v_s1 - v_g1) / r_s
        shunt_current_3v3 = (v_s2 - v_g2) / r_s
        return shunt_current_12v * v_g1 + shunt_current_3v3 * v_g2 + i_clamp * v_dps

    worked = hw_power(HwSample(0.0, 12.1, 12.0, 3.4, 3.3, 10.0, 12.0), r_s=0.1)
    assert abs(worked.p_total - 135.3) / 135.3 <= 1e-12

    rng = np.random.default_rng(3)
    for i in range(1000):
        channels = (
            float(rng.uniform(10.0, 13.0)),
            float(rng.uniform(10.0, 13.0)),
            float(rng.uniform(3.0, 4.0)),
            float(rng.uniform(3.0, 4.0)),
            float(rng.uniform(0.0, 30.0)),
            float(rng.uniform(11.0, 13.0)),
        )
        r_s = float(rng.uniform(0.01, 0.5))
        got = hw_power(HwSample(0.0, *channels), r_s).p_total
        want = oracle(*channels, r_s)
        if got != want:
            ulps = abs(got - want) / math.ulp(max(abs(got), abs(want)))
            assert ulps <= 1.0, f"sample {i}: {ulps:.2f} ulp apart"
    _report("3 rig power equation oracle + 135.3 W worked example")


def test_c4_flag_ordering_invariants_over_100_runs():
    """Criterion 4: over 100 simulated synchronized runs, every recorded
    sample timestamp lies in [flag_set, flag_clear] and
    flag_set <= workload_start < workload_end <= flag_clear."""
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        model = SyntheticModel(
            p_idle=float(rng.uniform(1e3, 5e4)),
            p_kernel=float(rng.uniform(1e4, 2e5)),
            kernel_duration=float(rng.uniform(0.02, 0.15)),
            pre_rise_lead=float(rng.uniform(0.0005, 0.004)),
            noise_stddev=float(rng.uniform(0.0, 2e3)),
            rng_seed=seed,
        )
        read_cost = float(rng.uniform(0.0002, 0.001))
        clock = VirtualClock(read_cost=read_cost)
        t0 = clock.now
        result = run_mtsm(SyntheticDeviceProvider(model), KernelLaunchWorkload(), clock=clock)
        flag_set, flag_clear = result.flag_timeline
        workload_start = t0 + read_cost
        workload_end = workload_start + model.pre_rise_lead + model.kernel_duration
        assert flag_set <= workload_start < workload_end <= flag_clear
        assert np.all(result.trace.times >= flag_set)
        assert np.all(result.trace.times <= flag_clear)
    _report("4 flag/workload ordering invariants, 100/100 runs")


def test_c5_single_reading_at_least_synchronized_on_peaking_family():
    """Criterion 5: on the synthetic family whose power at kernel completion
    is at least the window mean (flat plateau plus a ramp peaking at the
    end, noise-free), the single-reading energy is >= the synchronized
    energy in 100/100 seeded runs."""
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(5000 + seed)
        model = SyntheticModel(
            p_idle=float(rng.uniform(5e3, 3e4)),
            p_kernel=float(rng.uniform(2e4, 1e5)),
            ramp_mw=float(rng.uniform(0.0, 4e4)),
            kernel_duration=float(rng.uniform(0.2, 0.8)),
            pre_rise_lead=float(rng.uniform(0.001, 0.003)),
            noise_stddev=0.0,
            rng_seed=seed,
        )
        # the family's defining premise, checked per run
        window = model.window_for_launch(0.0)
        device = SyntheticDeviceProvider(model)
        device.launch(0.0)
        p_end = device.sample_grid(np.array([window.end]))[0]
        window_mean = model.true_window_energy() / model.kernel_duration
        assert p_end >= window_mean

        papi = run_papi_style(
            SyntheticDeviceProvider(model), KernelLaunchWorkload(), clock=VirtualClock()
        )
        mtsm = _mtsm_for(model)
        assert papi.energy >= mtsm.energy, f"seed {seed}"
        hits += 1
    assert hits == 100
    _report("5 single-reading >= synchronized, 100/100 runs")


def test_c6_generator_round_trip_whole_catalog():
    """Criterion 6: for every catalog entry the generated Total kernel
    validates all-pass, and the Total/Overhead text diff is exactly
    unroll_factor lines."""
    unroll = 5
    for spec in list_catalog():
        total = generate_kernel(spec, KernelVariant.TOTAL, 1_000_000, unroll)
        report = validate_kernel(total)
        assert report.all_pass, f"{spec.opcode}.{spec.operand_type.value}: {report.summary()}"
        overhead = generate_kernel(spec, KernelVariant.OVERHEAD, 1_000_000, unroll)
        assert validate_kernel(overhead).all_pass
        diff = [
            line
            for line in difflib.ndiff(
                total.ptx_text.splitlines(), overhead.ptx_text.splitlines()
            )
            if line[:1] in "+-"
        ]
        assert len(diff) == unroll, f"{spec.opcode}: diff is {len(diff)} lines"
        assert all(line.startswith("- ") for line in diff)
    _report(f"6 generator/validator round trip over {len(list_catalog())} entries")


def test_c7_fixture_regression_and_data_trends():
    """Criterion 7: CSV rendering of the bundled table is byte-identical to
    the golden file; non-optimized synchronized values never undercut the
    optimized ones; single-reading >= synchronized per cell outside the
    documented whitelist."""
    from test_report import PAPI_BELOW_MTSM_WHITELIST

    table = load_reference_table()
    assert render_table(table, format="csv") == GOLDEN.read_text()

    violations = set()
    for row in table.rows:
        for gen in ("Maxwell", "Pascal", "Volta", "Turing"):
            opt, nonopt = row.cell(gen, True), row.cell(gen, False)
            if opt is not None and nonopt is not None:
                assert nonopt.mtsm >= opt.mtsm, (row.label, gen)
            for optimized, cell in ((True, opt), (False, nonopt)):
                if cell is not None and not cell.papi >= cell.mtsm:
                    violations.add((row.category, row.label, gen, optimized))
    assert violations == PAPI_BELOW_MTSM_WHITELIST
    _report(f"7 fixture golden file + data trends ({len(violations)} whitelisted cells)")


def test_c8_mape_rmse_hand_cases_and_permutation_invariance():
    """Criterion 8: the hand-computed statistics cases are exact to 1e-12
    and both statistics are invariant under 100 permutations."""
    assert abs(mape([110.0], [100.0]) - 10.0) <= 1e-12
    assert abs(mape([3.9, 4.2], [4.0, 4.0]) - 3.75) <= 1e-12 * 3.75
    want = math.sqrt(12.5)
    assert abs(rmse([3.0, 4.0], [0.0, 0.0]) - want) <= 1e-12 * want

    rng = np.random.default_rng(8)
    pred = rng.uniform(1.0, 100.0, 40)
    truth = rng.uniform(1.0, 100.0, 40)
    base_mape, base_rmse = mape(pred, truth), rmse(pred, truth)
    for _ in range(100):
        order = rng.permutation(len(pred))
        assert abs(mape(pred[order], truth[order]) - base_mape) <= 1e-12 * base_mape
        assert abs(rmse(pred[order], truth[order]) - base_rmse) <= 1e-12 * base_rmse
    _report("8 statistics hand cases exact, permutation-invariant x100")


def test_c9_end_to_end_pipeline_recovers_injected_energy(tmp_path, capsys):
    """Criterion 9: generate paired kernels, measure paired synthetic
    providers carrying an injected 1 uJ/instruction difference with the
    synchronized strategy through the CLI, and recover 1 uJ within 1%,
    all in under 10 s."""
    start = time.monotonic()
    iterations, unroll = 1_000_000, 5
    n_instructions = iterations * unroll

    total_ptx = tmp_path / "total.ptx"
    overhead_ptx = tmp_path / "overhead.ptx"
    assert cli_main(["gen", "--inst", "div.u32", "--variant", "total",
                     "--iters", str(iterations), "--unroll", str(unroll),
                     "--out", str(total_ptx)]) == 0
    assert cli_main(["gen", "--inst", "div.u32", "--variant", "overhead",
                     "--iters", str(iterations), "--unroll", str(unroll),
                     "--out", str(overhead_ptx)]) == 0
    assert total_ptx.read_text().count("div.u32") == unroll + 1  # header comment
    capsys.readouterr()

    # paired device models: identical timing, the total run drawing exactly
    # n_instructions x 1 uJ = 5000 mJ more over the 2 s kernel window
    duration = 2.0
    injected_uj = 1.0
    extra_mw = n_instructions * injected_uj / 1000.0 / duration
    overhead_model = SyntheticModel(
        p_idle=20_000.0, p_kernel=20_000.0, kernel_duration=duration, noise_stddev=0.0
    )
    total_model = SyntheticModel(
        p_idle=20_000.0, p_kernel=20_000.0 + extra_mw,
        kernel_duration=duration, noise_stddev=0.0,
    )
    total_json = tmp_path / "total_model.json"
    overhead_json = tmp_path / "overhead_model.json"
    total_json.write_text(json.dumps(total_model.to_dict()))
    overhead_json.write_text(json.dumps(overhead_model.to_dict()))

    total_out = tmp_path / "total_result.json"
    overhead_out = tmp_path / "overhead_result.json"
    assert cli_main(["measure", "--strategy", "mtsm",
                     "--provider", f"synth:{total_json}",
                     "--out", str(total_out)]) == 0
    assert cli_main(["measure", "--strategy", "mtsm",
                     "--provider", f"synth:{overhead_json}",
                     "--out", str(overhead_out)]) == 0
    capsys.readouterr()

    e_total = json.loads(total_out.read_text())["energy_mj"]
    e_overhead = json.loads(overhead_out.read_text())["energy_mj"]
    recovered = instruction_energy(e_total, e_overhead, n_instructions)
    rel = abs(recovered - injected_uj) / injected_uj
    elapsed = time.monotonic() - start
    assert rel <= 0.01, f"recovered {recovered:.6f} uJ ({rel:.3%} off)"
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f} s"
    _report(f"9 end-to-end pipeline recovered {recovered:.4f} uJ in {elapsed:.2f} s")
