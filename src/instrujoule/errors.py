"""Exception taxonomy shared across the toolkit.

Every domain error derives from :class:`InstrujouleError` so callers (and the
CLI) can distinguish domain failures from programming errors.
"""


class InstrujouleError(Exception):
    """Base class for all toolkit domain errors."""


class UnsupportedInstruction(InstrujouleError):
    """Requested instruction is not part of the benchmark catalog."""


class ParseFailure(InstrujouleError):
    """Kernel text is not recognizable by the validator's PTX scan."""


class MalformedTrace(InstrujouleError):
    """Power-trace CSV violates the format or trace invariants."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedCapture(MalformedTrace):
    """Hardware capture CSV violates the format or capture invariants."""


class MissingShunt(InstrujouleError):
    """Hardware capture lacks the shunt resistance header comment."""


class InvalidModel(InstrujouleError):
    """Synthetic power model violates its invariants."""


class ProviderExhausted(InstrujouleError):
    """Replay provider was queried outside the span of its trace."""


class SensorUnavailable(InstrujouleError):
    """Live power sensor cannot be reached."""


class SamplerStartupFailure(InstrujouleError):
    """Background sampler failed to take a reading before the workload started."""


class SamplerStalled(InstrujouleError):
    """Background sampler was still inside a provider read when its join timed out."""


class EmptyWindow(InstrujouleError):
    """No trace samples fall inside the integration window."""


class ZeroInstructions(InstrujouleError):
    """Per-instruction extraction requires a positive instruction count."""


class ZeroReference(InstrujouleError):
    """Percentage error is undefined for a zero reference value."""


class LengthMismatch(InstrujouleError):
    """Prediction and reference series must have equal, non-zero length."""


class FixtureCorrupt(InstrujouleError):
    """Bundled reference table failed its checksum."""
