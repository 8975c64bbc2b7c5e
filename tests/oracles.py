"""Reference computations the tests check the package against."""

import json
import re

import numpy as np

from instrujoule import EmptyWindow, KernelWindow, ParseFailure, PowerTrace

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback


def integrate_energy_trapezoid(trace: PowerTrace, window: KernelWindow) -> float:
    """Trapezoidal-rule energy (mJ) over the in-window samples.

    A cross-check of ``integrate_energy``: it integrates the sampled
    sub-span, so it equals the sample-mean form exactly on constant traces
    and within one sample quantum elsewhere.
    """
    mask = (trace.times >= window.start) & (trace.times <= window.end)
    if not bool(np.any(mask)):
        raise EmptyWindow(
            f"no samples inside window [{window.start:.9g}, {window.end:.9g}]"
        )
    if np.count_nonzero(mask) == 1:
        return 0.0
    return float(_trapezoid(trace.powers[mask], trace.times[mask]))


# The validator's per-line scan as it was before the one-regex scan, which
# tests pin to it: the same instructions, line numbers and errors on any text.
_INSTR_RE = re.compile(r"^\s*(?:@%p\d+\s+)?([a-z][\w.]*)\s+(.*);\s*$")
_LABEL_RE = re.compile(r"^\s*(\$?\w+):\s*$")
_RET_RE = re.compile(r"^\s*ret\s*;")


def scan_kernel_by_line(lines: list[str]):
    """Line-level structural scan: (preamble, body, postlude) instruction lists.

    Each instruction is a (mnemonic, operand text, line number) tuple. The
    body lies between the loop label and its branch back, which neither
    list holds. Raises ParseFailure when the text lacks the basic kernel
    shape (entry directive, loop label, predicate-guarded back branch,
    return).
    """
    has_entry = has_ret = False
    preamble, body, postlude = [], [], []
    section = preamble
    for no, raw in enumerate(lines, start=1):
        line = raw.split("//", 1)[0]
        if not line.strip():
            continue
        has_entry = has_entry or ".entry" in line
        if section is preamble and (m := _LABEL_RE.match(line)):
            label = m.group(1)
            branch = re.compile(rf"^\s*@%p\d+\s+bra\s+{re.escape(label)}\s*;\s*$")
            section = body
            continue
        if section is body and branch.match(line):
            section = postlude
            continue
        if section is postlude:
            has_ret = has_ret or _RET_RE.match(line) is not None
        if m := _INSTR_RE.match(line):
            section.append((m.group(1), m.group(2), no))

    if not has_entry:
        raise ParseFailure("no .entry directive found")
    if section is preamble:
        raise ParseFailure("no loop label found")
    if section is body:
        raise ParseFailure(f"no predicate-guarded branch back to {label}")
    if not has_ret:
        raise ParseFailure("no ret after the loop")
    return preamble, body, postlude


def compact_by_mask(fields: np.ndarray, masks: np.ndarray, mask_row: np.ndarray) -> str:
    """The CSV codec's compaction as a boolean index: the bytes of each row
    of ``fields`` that its row of ``masks`` (0x00 or 0xff bytes, as many as a
    row of ``fields``) keeps, joined. It leaves ``fields`` as it was."""
    keep = masks.view(np.uint8).reshape(len(masks), -1)[mask_row] != 0
    return fields.reshape(-1)[keep.reshape(-1)].tobytes().decode("ascii")


def result_json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` for a ``measure`` result
    payload, its float lists by the C encoder: ``json.dumps`` of a list, with
    no indent, writes each float's ``repr`` joined by ", ", which needs only
    the indenting re-applied."""
    trace = payload["trace"]
    text = json.dumps({**payload, "trace": {**trace, "t_s": [], "power_mw": []}}, indent=2)
    for key in ("t_s", "power_mw"):
        if trace[key]:
            items = json.dumps(trace[key])[1:-1].replace(", ", ",\n      ")
            text = text.replace(f'"{key}": []', f'"{key}": [\n      {items}\n    ]', 1)
    return text + "\n"
