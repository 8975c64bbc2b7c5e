"""instrujoule: instruction-level GPU energy measurement toolkit.

Generates single-instruction PTX microbenchmarks, runs three power
measurement strategies against pluggable power providers (recorded traces,
synthetic models with known ground truth, or any sensor adapter that maps a
time to a power), extracts per-instruction energies from paired
total/overhead runs, computes ground-truth power from oscilloscope captures
of a shunt/clamp sensing rig, and statistically compares measurement methods.
"""

from .analysis import (
    ComparisonItem,
    ComparisonStats,
    StrategyComparison,
    compare_strategies,
    mape,
    rmse,
)
from .catalog import (
    CATEGORY_ORDER,
    Category,
    InstructionSpec,
    OperandType,
    catalog_rows,
    find_instruction,
    in_catalog,
    list_catalog,
)
from .codegen import (
    BenchmarkKernel,
    KernelVariant,
    ValidationReport,
    emit_build_recipe,
    entry_name_for,
    generate_kernel,
    validate_kernel,
)
from .energy import (
    energy_from_readings,
    instruction_energy,
    integrate_energy,
)
from .errors import (
    EmptyWindow,
    FixtureCorrupt,
    InstrujouleError,
    InvalidModel,
    LengthMismatch,
    MalformedCapture,
    MalformedTrace,
    MissingShunt,
    ParseFailure,
    ProviderExhausted,
    SamplerStalled,
    SamplerStartupFailure,
    SensorUnavailable,
    UnsupportedInstruction,
    ZeroInstructions,
    ZeroReference,
)
from .hardware import (
    HwCapture,
    HwPowerPoint,
    HwSample,
    hw_energy,
    hw_power,
    hw_power_trace,
    load_hw_capture,
    save_hw_capture,
)
from .monitor import (
    CallableWorkload,
    EnergyResult,
    InstructionEnergy,
    KernelLaunchWorkload,
    RealClock,
    SamplerConfig,
    Strategy,
    TimedWorkload,
    VirtualClock,
    Workload,
    measure_instruction,
    run_mtsm,
    run_papi_style,
    run_sma,
)
from .providers import (
    ConstantPowerProvider,
    PowerProvider,
    ReplayProvider,
    SyntheticDeviceProvider,
)
from .report import (
    GENERATIONS,
    ResultsTable,
    TableCell,
    TableRow,
    build_results_table,
    emit_plot_data,
    load_reference_table,
    render_table,
)
from .synthetic import SyntheticModel, SyntheticTruth, synthesize
from .trace import KernelWindow, PowerTrace, load_trace, save_trace

__version__ = "0.1.0"
