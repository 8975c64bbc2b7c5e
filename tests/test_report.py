"""Fixture integrity, table rendering, data-trend tests, plot emission."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from instrujoule import (
    Category,
    ConstantPowerProvider,
    FixtureCorrupt,
    GENERATIONS,
    KernelWindow,
    PowerTrace,
    TableCell,
    TableRow,
    TimedWorkload,
    build_results_table,
    catalog_rows,
    emit_plot_data,
    find_instruction,
    list_catalog,
    load_reference_table,
    render_table,
    run_mtsm,
)
from instrujoule import report
from instrujoule.report import ResultsTable

GOLDEN = Path(__file__).parent / "data" / "golden_table.csv"

# Cells where the single-reading strategy measured below the synchronized
# one. Every entry was found during digitization of the reference table and
# verified against the source values; the dominant trend is papi >= mtsm.
PAPI_BELOW_MTSM_WHITELIST = {
    (Category.INTEGER_ARITHMETIC, "{s} div", "Pascal", False),
    (Category.INTEGER_ARITHMETIC, "{s} rem", "Maxwell", False),
    (Category.INTEGER_ARITHMETIC, "abs", "Pascal", False),
    (Category.INTEGER_ARITHMETIC, "abs", "Turing", False),
    (Category.LOGIC_SHIFT, "cnot", "Volta", True),
    (Category.DOUBLE, "add / sub / min / max", "Pascal", False),
    (Category.SPECIAL_MATH, "rcp", "Volta", True),
    (Category.SPECIAL_MATH, "rsqrt", "Pascal", False),
    (Category.SPECIAL_MATH, "sin / cos", "Pascal", True),
    (Category.SPECIAL_MATH, "lg2", "Maxwell", False),
    (Category.SPECIAL_MATH, "lg2", "Turing", True),
    (Category.SPECIAL_MATH, "ex2", "Pascal", True),
    (Category.INTEGER_INTRINSIC, "sad()", "Pascal", False),
    (Category.INTEGER_INTRINSIC, "popc()", "Pascal", True),
    (Category.INTEGER_INTRINSIC, "popc()", "Pascal", False),
    (Category.INTEGER_INTRINSIC, "popc()", "Volta", True),
    (Category.INTEGER_INTRINSIC, "clz()", "Pascal", True),
    (Category.INTEGER_INTRINSIC, "clz()", "Pascal", False),
    (Category.INTEGER_INTRINSIC, "clz()", "Turing", False),
    (Category.INTEGER_INTRINSIC, "bfind()", "Pascal", True),
    (Category.INTEGER_INTRINSIC, "bfind()", "Pascal", False),
}


@pytest.fixture()
def table():
    return load_reference_table()


class TestFixtureLoad:
    def test_spot_checks(self, table):
        sdiv = table.row("{s} div").cell("Volta", True)
        assert sdiv.mtsm_text == "4.0660"
        assert sdiv.mtsm == 4.0660
        sqrt = table.row("sqrt").cell("Turing", False)
        assert sqrt.papi_text == "19.7800"

    def test_every_generation_and_level_populated(self, table):
        for gen in GENERATIONS:
            for optimized in (True, False):
                populated = sum(
                    1 for row in table.rows if row.cell(gen, optimized) is not None
                )
                assert populated >= 31  # everything except Maxwell half precision

    def test_unknown_row_raises_key_error(self, table):
        with pytest.raises(KeyError, match="frobnicate"):
            table.row("frobnicate")
        with pytest.raises(KeyError):
            table.row("sqrt", Category.HALF)

    def test_row_count_matches_reference(self, table):
        assert len(table) == 32

    def test_maxwell_half_precision_is_na(self, table):
        half = table.row("add / sub / mul", Category.HALF)
        assert half.cell("Maxwell", True) is None
        assert half.cell("Maxwell", False) is None
        assert half.cell("Pascal", True) is not None

    def test_tampered_file_rejected(self, table, tmp_path, monkeypatch):
        copy = tmp_path / "tampered.csv"
        shutil.copy(report._fixture_path(), copy)
        text = copy.read_text().replace("4.0660", "4.0661")
        copy.write_text(text)
        monkeypatch.setattr(report, "_fixture_path", lambda: copy)
        with pytest.raises(FixtureCorrupt):
            load_reference_table()

    def test_missing_file_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "_fixture_path", lambda: tmp_path / "missing.csv")
        with pytest.raises(FixtureCorrupt, match="cannot read fixture"):
            load_reference_table()


class TestCatalogAlignment:
    def test_catalog_rows_match_fixture_rows(self, table):
        fixture_rows = {(row.category, row.label) for row in table.rows}
        assert set(catalog_rows()) == fixture_rows

    def test_every_catalog_entry_resolves_to_a_cell(self, table):
        for spec in list_catalog():
            cell = table.lookup(spec, "Volta", True)
            assert cell is not None
            assert cell.papi > 0 and cell.mtsm > 0

    def test_half_precision_lookup_na_on_maxwell(self, table):
        spec = find_instruction("add", "f16")
        assert table.lookup(spec, "Maxwell", True) is None


class TestRenderTable:
    def test_golden_csv_byte_identical(self, table):
        assert render_table(table, format="csv") == GOLDEN.read_text()

    def test_text_mode_has_category_banners(self, table):
        text = render_table(table, format="text")
        assert "(1) Integer Arithmetic Instructions" in text
        assert "(8) Integer Intrinsic Instructions" in text
        assert "0.0064 , 0.0012" in text  # Volta optimized integer add cell
        assert "NA" in text

    def test_unknown_format_rejected(self, table):
        with pytest.raises(ValueError):
            render_table(table, format="html")

    @pytest.mark.parametrize("papi, mtsm", [("0.5", ""), ("", "0.5")])
    def test_half_populated_cell_rejected(self, papi, mtsm):
        row = TableRow(Category.INTEGER_ARITHMETIC, "add", {("Volta", True): TableCell(papi, mtsm)})
        with pytest.raises(ValueError) as exc:
            ResultsTable([row])
        assert str(exc.value) == "row 'add' cell ('Volta', True) is half-populated"

    def test_empty_table_headers_only(self):
        empty = ResultsTable([])
        csv = render_table(empty, format="csv")
        assert csv.splitlines() == [csv.splitlines()[0]]
        assert render_table(empty, format="text").strip() != ""

    def test_computed_table_uses_four_decimals(self):
        spec = find_instruction("div", "u32")
        table = build_results_table([(spec, "Volta", True, 3.92541234, 3.87060001)])
        csv = render_table(table, format="csv")
        assert "3.9254,3.8706" in csv


class TestFixtureDataTrends:
    def test_nonoptimized_mtsm_never_below_optimized(self, table):
        for row in table.rows:
            for gen in GENERATIONS:
                opt, nonopt = row.cell(gen, True), row.cell(gen, False)
                if opt is None or nonopt is None:
                    continue
                assert nonopt.mtsm >= opt.mtsm, (row.label, gen)

    def test_papi_at_least_mtsm_outside_whitelist(self, table):
        violations = set()
        for row in table.rows:
            for gen in GENERATIONS:
                for optimized in (True, False):
                    cell = row.cell(gen, optimized)
                    if cell is None:
                        continue
                    if not cell.papi >= cell.mtsm:
                        violations.add((row.category, row.label, gen, optimized))
        assert violations == PAPI_BELOW_MTSM_WHITELIST

    def test_whitelist_entries_really_violate(self, table):
        # guards against a stale whitelist hiding fixed cells
        for category, label, gen, optimized in PAPI_BELOW_MTSM_WHITELIST:
            cell = table.row(label, category).cell(gen, optimized)
            assert cell.papi < cell.mtsm


class TestEmitPlotData:
    def test_windowed_trace_two_plus_two(self):
        trace = PowerTrace([0.0, 1.0], [100.0, 200.0], KernelWindow(0.0, 1.0))
        lines = emit_plot_data(trace).splitlines()
        assert len(lines) == 4
        assert lines[0] == "# window-start 0"
        assert lines[1] == "# window-end 1"
        assert lines[2] == "0 100"
        assert lines[3] == "1 200"

    def test_windowless_trace_data_only(self):
        trace = PowerTrace([0.0, 0.5, 1.0], [1.0, 2.0, 3.0])
        lines = emit_plot_data(trace).splitlines()
        assert len(lines) == 3
        assert not any(l.startswith("#") for l in lines)

    def test_long_windowed_trace_matches_a_reference_join(self):
        rng = np.random.default_rng(8)
        times = np.arange(20_000) * 5e-4
        powers = np.round(rng.uniform(0.0, 60_000.0, times.size), 4)
        powers[::997] = 0.0
        trace = PowerTrace(times, powers, KernelWindow(1.0025, 8.775))
        lines = ["# window-start 1.0025", "# window-end 8.775"]
        lines += ["%.9g %.9g" % (t, p) for t, p in zip(times.tolist(), powers.tolist())]
        assert emit_plot_data(trace) == "\n".join(lines) + "\n"

    def test_empty_trace_is_one_newline(self):
        assert emit_plot_data(PowerTrace([], [])) == "\n"

    def test_mtsm_result_markers_equal_flag_timeline(self):
        result = run_mtsm(ConstantPowerProvider(10.0), TimedWorkload(0.1))
        lines = emit_plot_data(result.trace).splitlines()
        start = float(lines[0].split()[-1])
        end = float(lines[1].split()[-1])
        assert (start, end) == result.flag_timeline
