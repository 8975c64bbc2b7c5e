"""Results-table rendering, bundled reference fixtures, and plot-data emission.

The reference table of per-instruction energies ships as package data and is
loaded through ``load_reference_table``, which verifies a pinned checksum so a
silently edited fixture cannot masquerade as the measured reference. Cells
keep their original digit strings (some have inconsistent significant
figures); rendering computed values uses four decimals.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import _csv
from .catalog import CATEGORY_ORDER, Category, InstructionSpec
from .errors import FixtureCorrupt
from .trace import PowerTrace

GENERATIONS = ("Maxwell", "Pascal", "Volta", "Turing")

_FIXTURE_NAME = "instruction_energy_table.csv"
_FIXTURE_SHA256 = "d8e49b261375b907f680c44b97b17b1a18aa805d3377bc3091b5f5c35589d569"

_CATEGORY_BANNERS = {
    Category.INTEGER_ARITHMETIC: "(1) Integer Arithmetic Instructions",
    Category.LOGIC_SHIFT: "(2) Logic and Shift Instructions",
    Category.FLOAT_SINGLE: "(3) Floating Single Precision Instructions",
    Category.DOUBLE: "(4) Double Precision Instructions",
    Category.HALF: "(5) Half Precision Instructions",
    Category.MULTI_PRECISION: "(6) Multi Precision Instructions",
    Category.SPECIAL_MATH: "(7) Special Mathematical Instructions",
    Category.INTEGER_INTRINSIC: "(8) Integer Intrinsic Instructions",
}

# (generation, optimized) per column, in the order of the CSV and both renderings
_COLUMNS = tuple((gen, optimized) for optimized in (True, False) for gen in GENERATIONS)

_CSV_HEADER = "category,row," + ",".join(
    f"{'opt' if optimized else 'nonopt'}_{gen.lower()}_{m}"
    for gen, optimized in _COLUMNS
    for m in ("papi", "mtsm")
)


@dataclass(frozen=True)
class TableCell:
    """One (generation, optimization) cell: paired papi and mtsm values.

    The ``*_text`` fields hold the original digit strings; the float
    properties parse them on demand.
    """

    papi_text: str
    mtsm_text: str

    @property
    def papi(self) -> float:
        return float(self.papi_text)

    @property
    def mtsm(self) -> float:
        return float(self.mtsm_text)


@dataclass(frozen=True)
class TableRow:
    category: Category
    label: str
    # keyed by (generation, optimized); None marks an NA cell
    cells: dict

    def cell(self, generation: str, optimized: bool) -> TableCell | None:
        return self.cells[(generation, optimized)]


class ResultsTable:
    """Per-instruction energy results grouped the way reports print them."""

    def __init__(self, rows: list[TableRow]):
        for row in rows:
            for key, cell in row.cells.items():
                if cell is not None and (not cell.papi_text or not cell.mtsm_text):
                    raise ValueError(f"row {row.label!r} cell {key} is half-populated")
        self.rows = list(rows)

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, label: str, category: Category | None = None) -> TableRow:
        for r in self.rows:
            if r.label == label and (category is None or r.category == category):
                return r
        raise KeyError(label)

    def lookup(
        self, spec: InstructionSpec, generation: str, optimized: bool
    ) -> TableCell | None:
        """Cell for a catalog instruction, resolved through its table row."""
        return self.row(spec.table_row, spec.category).cell(generation, optimized)


def _fixture_path() -> Path:
    return Path(resources.files("instrujoule.data") / _FIXTURE_NAME)


def load_reference_table() -> ResultsTable:
    """Load the bundled reference table, verifying its checksum.

    The table is read from the package's own data; bytes that do not match
    the pinned checksum, or a file that cannot be read, raise FixtureCorrupt.
    """
    p = _fixture_path()
    try:
        raw = p.read_bytes()
    except OSError as exc:
        raise FixtureCorrupt(f"cannot read fixture {p}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    if digest != _FIXTURE_SHA256:
        raise FixtureCorrupt(
            f"fixture {p} checksum {digest[:12]}... does not match the pinned reference"
        )
    return _parse_fixture(raw.decode("utf-8"))


def _parse_fixture(text: str) -> ResultsTable:
    # only the pinned bytes reach here, so the layout needs no checks: one
    # header line, then rows of category, label and a pair per column
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    rows = []
    for ln in lines[1:]:
        category, label, *texts = ln.split(",")
        cells = {
            key: None if papi == "NA" else TableCell(papi, mtsm)
            for key, papi, mtsm in zip(_COLUMNS, texts[::2], texts[1::2])
        }
        rows.append(TableRow(Category(category), label, cells))
    return ResultsTable(rows)


def _row_texts(row: TableRow) -> list[tuple[str, str]]:
    """The (papi, mtsm) digit strings of each column, NA for an NA cell."""
    cells = (row.cells[key] for key in _COLUMNS)
    return [("NA", "NA") if c is None else (c.papi_text, c.mtsm_text) for c in cells]


def _by_category(rows) -> list[tuple[Category, list[TableRow]]]:
    """The rows of each category, in report order; rows keep their order."""
    return [(c, [r for r in rows if r.category == c]) for c in CATEGORY_ORDER]


def render_table(table: ResultsTable, format: str = "text") -> str:
    """Render a results table as pretty text or machine-readable CSV.

    Both forms group rows by the eight category banners in report order.
    Cells render their stored digit strings verbatim (NA literally);
    computed tables built with 4-decimal strings therefore print with four
    decimal places.
    """
    groups = _by_category(table.rows)
    if format == "csv":
        lines = [_CSV_HEADER]
        for category, rows in groups:
            for row in rows:
                texts = [text for pair in _row_texts(row) for text in pair]
                lines.append(",".join([category.value, row.label, *texts]))
        return "\n".join(lines) + "\n"

    if format != "text":
        raise ValueError(f"unknown table format {format!r}")

    label_w = max([len(r.label) for r in table.rows] or [4])
    col_w = 19
    header_cells = "".join(f"{gen:>{col_w}}" for gen in GENERATIONS)
    lines = []
    lines.append(f"{'':{label_w}}  {'Optimized'.center(4 * col_w)} | {'Non-Optimized'.center(4 * col_w)}")
    lines.append(f"{'Instruction':{label_w}}  {header_cells} | {header_cells}")
    lines.append("-" * (label_w + 2 + 8 * col_w + 3))
    for category, rows in groups:
        if not rows:
            continue
        lines.append(f"== {_CATEGORY_BANNERS[category]} ==")
        for row in rows:
            pairs = _row_texts(row)
            cells = [f"{papi} , {mtsm}" if papi != "NA" else "NA" for papi, mtsm in pairs]
            left = "".join(f"{c:>{col_w}}" for c in cells[:4])
            right = "".join(f"{c:>{col_w}}" for c in cells[4:])
            lines.append(f"{row.label:{label_w}}  {left} | {right}")
    return "\n".join(lines) + "\n"


def build_results_table(
    entries: list[tuple[InstructionSpec, str, bool, float, float]]
) -> ResultsTable:
    """Assemble a ResultsTable from measured values.

    ``entries`` holds (spec, generation, optimized, papi_uj, mtsm_uj); cells
    are formatted with four decimal places. Rows appear in catalog order.
    """
    rows: dict[tuple[Category, str], TableRow] = {}
    for spec, gen, optimized, papi_uj, mtsm_uj in entries:
        key = (spec.category, spec.table_row)
        if key not in rows:
            rows[key] = TableRow(spec.category, spec.table_row, dict.fromkeys(_COLUMNS))
        rows[key].cells[(gen, optimized)] = TableCell(f"{papi_uj:.4f}", f"{mtsm_uj:.4f}")
    return ResultsTable([r for _, group in _by_category(rows.values()) for r in group])


def emit_plot_data(trace: PowerTrace) -> str:
    """Two-column (t, power) series plus window-marker records.

    Marker lines are comments, so the payload plots directly in any tool
    that skips '#' lines; tools that want the kernel window parse the
    markers. No rendering happens in-process.
    """
    lines = []
    if trace.window is not None:
        lines.append("# window-start %.9g\n" % trace.window.start)
        lines.append("# window-end %.9g\n" % trace.window.end)
    lines += _csv.format_rows([trace.times, trace.powers], " ")
    return "".join(lines) or "\n"
