"""Catalog of PTX instructions covered by the microbenchmark generator.

The catalog enumerates the ALU instruction families of modern NVIDIA GPUs in
eight groups: integer arithmetic, logic and shift, single-precision float,
double precision, half precision, multi-precision (carry chain) arithmetic,
special math functions, and integer intrinsics. Each entry describes one
concrete opcode and operand type; display rows group related opcodes the way
energy results are conventionally reported (e.g. "add / sub / min / max"
share one row because they exercise the same functional unit).

Entries carry no GPU-generation applicability flags. Whether a given device
supports an instruction (e.g. f16 before Pascal) is a property of the results
table, not of the instruction itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class OperandType(str, Enum):
    U16 = "u16"
    U32 = "u32"
    U64 = "u64"
    S32 = "s32"
    F16 = "f16"
    F32 = "f32"
    F64 = "f64"

    @property
    def is_float(self) -> bool:
        return self in (OperandType.F16, OperandType.F32, OperandType.F64)


class Category(str, Enum):
    INTEGER_ARITHMETIC = "IntegerArithmetic"
    LOGIC_SHIFT = "LogicShift"
    FLOAT_SINGLE = "FloatSingle"
    DOUBLE = "Double"
    HALF = "Half"
    MULTI_PRECISION = "MultiPrecision"
    SPECIAL_MATH = "SpecialMath"
    INTEGER_INTRINSIC = "IntegerIntrinsic"


#: Report ordering of the eight groups.
CATEGORY_ORDER = tuple(Category)

#: Operand types each category may legally use.
_CATEGORY_TYPES = {
    Category.INTEGER_ARITHMETIC: {OperandType.U16, OperandType.U32, OperandType.U64, OperandType.S32},
    Category.LOGIC_SHIFT: {OperandType.U16, OperandType.U32, OperandType.U64},
    Category.FLOAT_SINGLE: {OperandType.F32},
    Category.DOUBLE: {OperandType.F64},
    Category.HALF: {OperandType.F16},
    Category.MULTI_PRECISION: {OperandType.U32},
    Category.SPECIAL_MATH: {OperandType.F32},
    Category.INTEGER_INTRINSIC: {OperandType.U32},
}


@dataclass(frozen=True)
class InstructionSpec:
    """One benchmarkable instruction: opcode, operand type and grouping.

    ``signedness`` is a display label ("{s}" or "{u}") used where both signed
    and unsigned variants of an opcode are reported separately. ``table_row``
    is the row label of the results table this instruction belongs to.
    """

    opcode: str
    operand_type: OperandType
    category: Category
    arity: int
    table_row: str
    signedness: str = ""

    def __post_init__(self):
        if self.operand_type not in _CATEGORY_TYPES[self.category]:
            raise ValueError(
                f"operand type {self.operand_type.value} is not valid for "
                f"category {self.category.value}"
            )
        if self.arity not in (1, 2, 3):
            raise ValueError(f"unsupported arity {self.arity}")

    @property
    def display_name(self) -> str:
        """Human-readable name, e.g. '{u} div' or 'rsqrt'."""
        if self.signedness:
            return f"{self.signedness} {self.opcode}"
        return self.opcode

    @property
    def key(self) -> tuple[str, str]:
        return (self.opcode, self.operand_type.value)


def _spec(opcode, otype, category, arity, row, sign=""):
    return InstructionSpec(
        opcode=opcode,
        operand_type=otype,
        category=category,
        arity=arity,
        table_row=row,
        signedness=sign,
    )


def _build_catalog() -> tuple[InstructionSpec, ...]:
    U32, S32 = OperandType.U32, OperandType.S32
    F16, F32, F64 = OperandType.F16, OperandType.F32, OperandType.F64
    entries: list[InstructionSpec] = []

    # (1) Integer arithmetic
    cat = Category.INTEGER_ARITHMETIC
    for op in ("add", "sub", "min", "max"):
        entries.append(_spec(op, U32, cat, 2, "add / sub / min / max"))
    entries.append(_spec("mul", U32, cat, 2, "mul / mad"))
    entries.append(_spec("mad", U32, cat, 3, "mul / mad"))
    entries.append(_spec("div", S32, cat, 2, "{s} div", "{s}"))
    entries.append(_spec("rem", S32, cat, 2, "{s} rem", "{s}"))
    entries.append(_spec("abs", S32, cat, 1, "abs"))
    entries.append(_spec("div", U32, cat, 2, "{u} div", "{u}"))
    entries.append(_spec("rem", U32, cat, 2, "{u} rem", "{u}"))

    # (2) Logic and shift
    cat = Category.LOGIC_SHIFT
    for op in ("and", "or", "xor"):
        entries.append(_spec(op, U32, cat, 2, "and / or / not / xor"))
    entries.append(_spec("not", U32, cat, 1, "and / or / not / xor"))
    entries.append(_spec("cnot", U32, cat, 1, "cnot"))
    for op in ("shl", "shr"):
        entries.append(_spec(op, U32, cat, 2, "shl / shr"))

    # (3) Floating single precision
    cat = Category.FLOAT_SINGLE
    for op in ("add", "sub", "min", "max"):
        entries.append(_spec(op, F32, cat, 2, "add / sub / min / max"))
    entries.append(_spec("mul", F32, cat, 2, "mul / mad / fma"))
    entries.append(_spec("mad", F32, cat, 3, "mul / mad / fma"))
    entries.append(_spec("fma", F32, cat, 3, "mul / mad / fma"))
    entries.append(_spec("div", F32, cat, 2, "div"))

    # (4) Double precision
    cat = Category.DOUBLE
    for op in ("add", "sub", "min", "max"):
        entries.append(_spec(op, F64, cat, 2, "add / sub / min / max"))
    entries.append(_spec("div", F64, cat, 2, "div"))

    # (5) Half precision (scalar f16 forms)
    cat = Category.HALF
    for op in ("add", "sub", "mul"):
        entries.append(_spec(op, F16, cat, 2, "add / sub / mul"))

    # (6) Multi precision (carry in/out chains)
    cat = Category.MULTI_PRECISION
    for op in ("add.cc", "addc", "sub.cc"):
        entries.append(_spec(op, U32, cat, 2, "add.cc / addc / sub.cc"))
    entries.append(_spec("subc", U32, cat, 2, "subc"))
    entries.append(_spec("mad.cc", U32, cat, 3, "mad.cc / madc"))
    entries.append(_spec("madc", U32, cat, 3, "mad.cc / madc"))

    # (7) Special mathematical functions
    cat = Category.SPECIAL_MATH
    entries.append(_spec("rcp", F32, cat, 1, "rcp"))
    entries.append(_spec("sqrt", F32, cat, 1, "sqrt"))
    entries.append(_spec("approx.sqrt", F32, cat, 1, "approx.sqrt"))
    entries.append(_spec("rsqrt", F32, cat, 1, "rsqrt"))
    entries.append(_spec("sin", F32, cat, 1, "sin / cos"))
    entries.append(_spec("cos", F32, cat, 1, "sin / cos"))
    entries.append(_spec("lg2", F32, cat, 1, "lg2"))
    entries.append(_spec("ex2", F32, cat, 1, "ex2"))
    entries.append(_spec("copysign", F32, cat, 2, "copysign"))

    # (8) Integer intrinsics
    cat = Category.INTEGER_INTRINSIC
    entries.append(_spec("mul24", U32, cat, 2, "mul24() / mad24()"))
    entries.append(_spec("mad24", U32, cat, 3, "mul24() / mad24()"))
    entries.append(_spec("sad", U32, cat, 3, "sad()"))
    entries.append(_spec("popc", U32, cat, 1, "popc()"))
    entries.append(_spec("clz", U32, cat, 1, "clz()"))
    entries.append(_spec("bfind", U32, cat, 1, "bfind()"))

    return tuple(entries)


_CATALOG = _build_catalog()
_BY_KEY = {spec.key: spec for spec in _CATALOG}


def list_catalog() -> list[InstructionSpec]:
    """Return every catalog entry in stable report order.

    Ordering is category order (the eight groups above), then row order
    within the category, so repeated calls always agree.
    """
    return list(_CATALOG)


def find_instruction(opcode: str, operand_type: str | OperandType) -> InstructionSpec:
    """Look up a catalog entry by opcode and operand type.

    Raises UnsupportedInstruction if the pair is not in the catalog.
    """
    from .errors import UnsupportedInstruction

    if isinstance(operand_type, OperandType):
        operand_type = operand_type.value
    try:
        return _BY_KEY[(opcode, operand_type)]
    except KeyError:
        raise UnsupportedInstruction(
            f"{opcode}.{operand_type} is not in the benchmark catalog"
        ) from None


def in_catalog(spec: InstructionSpec) -> bool:
    """True when ``spec`` equals a catalog entry (not merely same key)."""
    return _BY_KEY.get(spec.key) == spec


def catalog_rows() -> list[tuple[Category, str]]:
    """Distinct (category, table_row) pairs in report order."""
    seen = []
    for spec in _CATALOG:
        pair = (spec.category, spec.table_row)
        if pair not in seen:
            seen.append(pair)
    return seen
