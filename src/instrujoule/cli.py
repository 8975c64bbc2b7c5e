"""Command-line interface.

Subcommands: gen (emit microbenchmark PTX), measure (run a strategy against
a provider), analyze-hw (oscilloscope capture to power trace or energy),
compare (MAPE/RMSE between result files), report (render a results table),
fixtures (dump the verified bundled reference table).

Exit codes: 0 success, 1 domain error (printed with its error name),
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._checks import check_number
from ._csv import format_rows
from .analysis import compare_strategies
from .catalog import find_instruction, list_catalog
from .codegen import (
    DEFAULT_ITERATIONS,
    DEFAULT_UNROLL,
    KernelVariant,
    emit_build_recipe,
    generate_kernel,
)
from .errors import InstrujouleError, LengthMismatch, MalformedTrace, SensorUnavailable
from .hardware import hw_energy, hw_power_trace, load_hw_capture
from .monitor import (
    DEFAULT_READ_COST,
    DEFAULT_SMA_INTERVAL,
    EnergyResult,
    KernelLaunchWorkload,
    SamplerConfig,
    Strategy,
    TimedWorkload,
    VirtualClock,
    run_mtsm,
    run_papi_style,
    run_sma,
)
from .providers import ReplayProvider, SyntheticDeviceProvider
from .report import load_reference_table, render_table, emit_plot_data
from .synthetic import SyntheticModel
from .trace import KernelWindow, PowerTrace, load_trace, save_trace


def _write_out(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _energy_result_json(result: EnergyResult) -> dict:
    return {
        "strategy": result.strategy.value,
        "label": result.label,
        "energy_mj": result.energy,
        "elapsed_s": result.elapsed,
        "n_samples": result.n_samples,
        "flag_set_s": result.flag_timeline[0],
        "flag_clear_s": result.flag_timeline[1],
        "trace": {
            "t_s": result.trace.times,
            "power_mw": result.trace.powers,
            "window": (
                [result.trace.window.start, result.trace.window.end]
                if result.trace.window
                else None
            ),
        },
    }


def _result_json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"`` for an ``_energy_result_json``
    payload, its two trace arrays of finite floats written as lists (lists
    are taken too). ``indent`` runs the pure-Python encoder, so the two float
    lists are written apart and spliced in: each item is its float's ``repr``
    on a line of its own, which the CSV codec writes as one-column ``"%r"``
    rows, mostly by its vector pass."""
    trace = payload["trace"]
    text = json.dumps({**payload, "trace": {**trace, "t_s": [], "power_mw": []}}, indent=2)
    for key in ("t_s", "power_mw"):
        if len(trace[key]):
            lines = "".join(format_rows([np.asarray(trace[key])], conversion="%r"))
            items = lines[:-1].replace("\n", ",\n      ")
            # '"t_s": []' occurs only as the key: a '"' inside a JSON string is
            # always escaped, so no label can spell it
            text = text.replace(f'"{key}": []', f'"{key}": [\n      {items}\n    ]', 1)
    return text + "\n"


# the fields of each `gen --list` record, in order; an enum field is written as its value
_LISTED_FIELDS = (
    "opcode", "operand_type", "category", "arity", "signedness", "table_row", "ptx_mnemonic",
)


def _cmd_gen(args) -> int:
    if args.list:
        records = [
            json.dumps({field: getattr(spec, field) for field in _LISTED_FIELDS})
            for spec in list_catalog()
        ]
        _write_out("\n".join(records) + "\n", args.out)
        return 0
    if not args.inst:
        raise _Usage("gen requires --inst <opcode.type> (or --list)")
    if "." not in args.inst:
        raise _Usage(f"--inst must look like 'div.u32', got {args.inst!r}")
    opcode, _, otype = args.inst.rpartition(".")
    spec = find_instruction(opcode, otype)
    kernel = generate_kernel(spec, args.variant, iterations=args.iters, unroll_factor=args.unroll)
    _write_out(emit_build_recipe(kernel) if args.recipe else kernel.ptx_text, args.out)
    return 0


def _parse_provider(arg: str) -> PowerTrace | SyntheticModel:
    """The trace a replay provider plays, or the model a simulated device follows."""
    kind, _, payload = arg.partition(":")
    if kind == "replay":
        if not payload:
            raise _Usage("replay provider needs a file: replay:<trace.csv>")
        trace = load_trace(payload)
        if len(trace) == 0:
            raise MalformedTrace(f"replay trace {payload} has no samples")
        return trace
    if kind == "synth":
        if not payload:
            raise _Usage("synthetic provider needs a model: synth:<model.json>")
        data = json.loads(Path(payload).read_text(encoding="utf-8"))
        return SyntheticModel.from_dict(data)
    if kind == "live":
        raise SensorUnavailable(
            "no live sensor adapter is bundled; use replay or synthetic providers"
        )
    raise _Usage(f"unknown provider {arg!r}; use replay:<file>, synth:<model.json>, or live")


def _parse_float(text: str, name: str) -> float:
    """``text`` as a float: one that does not parse is a usage error naming ``name``."""
    try:
        return float(text)
    except ValueError:
        raise _Usage(f"{name} must be a number, got {text!r}") from None


def _cmd_measure(args) -> int:
    source = _parse_provider(args.provider)
    synthetic = isinstance(source, SyntheticModel)
    start = 0.0 if synthetic else float(source.times[0])
    clock = VirtualClock(start=start, read_cost=args.read_cost)

    workload_arg = args.workload
    seconds = None
    label = args.label
    if workload_arg.startswith("synth:"):
        seconds = _parse_float(workload_arg[len("synth:"):], "workload duration")
        check_number("workload duration", seconds, "> 0", _Usage)
        label = label or "kernel"
    else:
        label = label or workload_arg

    if synthetic:
        if seconds is not None and seconds != source.kernel_duration:
            source = dataclasses.replace(source, kernel_duration=seconds)
        provider = SyntheticDeviceProvider(source)
        workload = KernelLaunchWorkload(label=label)
    else:
        if seconds is None:
            raise _Usage(
                "replay providers need an explicit duration: --workload synth:<secs>"
            )
        provider = ReplayProvider(source)
        workload = TimedWorkload(seconds, label=label)

    strategy = Strategy(args.strategy)
    if strategy == Strategy.SMA:
        config = SamplerConfig(args.interval)
        trace = run_sma(provider, workload, config, lead=args.lead, tail=args.tail, clock=clock)
        save_trace(trace, sys.stdout if args.out == "-" else args.out)
        return 0

    runner = run_papi_style if strategy == Strategy.PAPI_STYLE else run_mtsm
    result = runner(provider, workload, clock=clock)
    _write_out(_result_json_text(_energy_result_json(result)), args.out)
    return 0


def _cmd_analyze_hw(args) -> int:
    capture = load_hw_capture(args.capture)
    window = None
    if args.window:
        parts = args.window.split(",")
        if len(parts) != 2:
            raise _Usage("--window must be '<start>,<end>'")
        start, end = _parse_float(parts[0], "window start"), _parse_float(parts[1], "window end")
        window = KernelWindow(start, end)

    wants_energy = args.out.endswith(".json") or (args.out == "-" and window is not None)
    if wants_energy:
        if window is None:
            raise _Usage("energy output requires --window <start>,<end>")
        energy = hw_energy(capture, window)
        payload = {
            "window_s": [window.start, window.end],
            "energy_mj": energy,
            "n_rows": len(capture),
            "r_s_ohm": capture.r_s,
        }
        _write_out(json.dumps(payload, indent=2) + "\n", args.out)
        return 0

    trace = hw_power_trace(capture)
    if window is not None:
        trace = trace.with_window(window)
    save_trace(trace, sys.stdout if args.out == "-" else args.out)
    return 0


def _load_energies(path: str) -> dict[str, float]:
    """Label to energy from a result JSON; every energy a finite number."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    energies = data.get("energies") if isinstance(data, dict) else None
    if energies is None and isinstance(data, dict) and "energy_mj" in data:
        energies = {str(data.get("label", "kernel")): data["energy_mj"]}
    if not isinstance(energies, dict):
        raise LengthMismatch(
            f"{path}: expected an EnergyResult JSON, or an object with 'energies'"
        )
    for label, value in energies.items():
        check_number(f"{path}: energy of '{label}'", value, error=LengthMismatch)
    return {label: float(value) for label, value in energies.items()}


def _cmd_compare(args) -> int:
    pred = _load_energies(args.pred)
    ref = _load_energies(args.ref)
    labels = sorted(set(pred) & set(ref))
    if not labels:
        raise LengthMismatch("prediction and reference share no labels")
    comparison = compare_strategies([(lbl, pred[lbl], ref[lbl]) for lbl in labels])
    payload = {
        "mape_percent": comparison.stats.mape,
        "rmse": comparison.stats.rmse,
        "n": comparison.stats.n,
        "items": [
            {
                "label": item.label,
                "predicted": item.predicted,
                "reference": item.reference,
                "relative_error_percent": item.relative_error,
            }
            for item in comparison.items
        ],
    }
    _write_out(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_report(args) -> int:
    if args.plot_trace:
        trace = load_trace(args.plot_trace)
        _write_out(emit_plot_data(trace), args.out)
        return 0
    table = load_reference_table()
    _write_out(render_table(table, format=args.format), args.out)
    return 0


class _Usage(Exception):
    pass


@functools.cache  # parse_args does not change the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="instrujoule",
        description="Instruction-level GPU energy measurement toolkit",
    )
    parser.add_argument("--version", action="version", version=f"instrujoule {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate microbenchmark PTX")
    p.add_argument("--inst", help="instruction as <opcode>.<type>, e.g. div.u32")
    p.add_argument("--variant", choices=[v.value for v in KernelVariant], default="total")
    p.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS, help="loop trip count")
    p.add_argument("--unroll", type=int, default=DEFAULT_UNROLL, help="dependent chain depth")
    p.add_argument("--recipe", action="store_true", help="emit the build recipe instead of PTX")
    p.add_argument("--list", action="store_true", help="dump the catalog as JSON lines")
    p.add_argument("--out", default="-", help="output file, or - for stdout")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("measure", help="run a measurement strategy")
    p.add_argument("--strategy", choices=[s.value for s in Strategy], required=True)
    p.add_argument(
        "--provider",
        required=True,
        help="replay:<trace.csv> | synth:<model.json> | live",
    )
    p.add_argument(
        "--workload",
        default="kernel",
        help="synth:<secs> for a fixed duration, or a label (synthetic models "
        "use their own kernel duration)",
    )
    p.add_argument("--label", help="label stored in the result")
    p.add_argument("--read-cost", type=float, default=DEFAULT_READ_COST,
                   help="simulated seconds per sensor read")
    p.add_argument("--interval", type=float, default=DEFAULT_SMA_INTERVAL,
                   help="sma sampling interval in seconds")
    p.add_argument("--lead", type=float, default=1.0, help="sma lead seconds")
    p.add_argument("--tail", type=float, default=1.0, help="sma tail seconds")
    p.add_argument("--out", default="-", help="result file (json; sma writes a trace csv)")
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("analyze-hw", help="hardware capture to power trace or energy")
    p.add_argument("--capture", required=True, help="capture csv file")
    p.add_argument("--window", help="kernel window '<start>,<end>' in seconds")
    p.add_argument("--out", default="-",
                   help="output: *.csv power trace, *.json window energy, - for stdout")
    p.set_defaults(fn=_cmd_analyze_hw)

    p = sub.add_parser("compare", help="MAPE/RMSE of predictions against a reference")
    p.add_argument("--pred", required=True, help="prediction results json")
    p.add_argument("--ref", required=True, help="reference results json")
    p.add_argument("--out", default="-", help="stats json output")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("report", help="render a results table or plot data")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.add_argument("--plot-trace", help="emit plot data for a trace csv instead")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("fixtures", help="dump the verified bundled reference table as csv")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=_cmd_report, format="csv", plot_trace=None)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (InstrujouleError, OSError, ValueError, MemoryError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
