"""Catalog of PTX instructions covered by the microbenchmark generator.

The catalog enumerates the ALU instruction families of modern NVIDIA GPUs in
eight groups: integer arithmetic, logic and shift, single-precision float,
double precision, half precision, multi-precision (carry chain) arithmetic,
special math functions, and integer intrinsics. Each entry describes one
concrete opcode and operand type and is the one place its PTX spelling is
written; display rows group related opcodes the way energy results are
conventionally reported (e.g. "add / sub / min / max" share one row because
they exercise the same functional unit).

Entries carry no GPU-generation applicability flags. Whether a given device
supports an instruction (e.g. f16 before Pascal) is a property of the results
table, not of the instruction itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ._checks import check_integer
from .errors import UnsupportedInstruction


class OperandType(str, Enum):
    U32 = "u32"
    S32 = "s32"
    F16 = "f16"
    F32 = "f32"
    F64 = "f64"


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
    Category.INTEGER_ARITHMETIC: {OperandType.U32, OperandType.S32},
    Category.LOGIC_SHIFT: {OperandType.U32},
    Category.FLOAT_SINGLE: {OperandType.F32},
    Category.DOUBLE: {OperandType.F64},
    Category.HALF: {OperandType.F16},
    Category.MULTI_PRECISION: {OperandType.U32},
    Category.SPECIAL_MATH: {OperandType.F32},
    Category.INTEGER_INTRINSIC: {OperandType.U32},
}


@dataclass(frozen=True)
class InstructionSpec:
    """One benchmarkable instruction: opcode, operand type, grouping and PTX.

    ``signedness`` is a display label ("{s}" or "{u}") used where both signed
    and unsigned variants of an opcode are reported separately. ``table_row``
    is the row label of the results table this instruction belongs to.
    ``ptx_mnemonic`` is the full PTX spelling that codegen emits; the loop
    harness never uses any catalog mnemonic, so counting it in the loop body
    is unambiguous.
    """

    opcode: str
    operand_type: OperandType
    category: Category
    arity: int
    table_row: str
    signedness: str = ""
    ptx_mnemonic: str = ""

    def __post_init__(self):
        if self.operand_type not in _CATEGORY_TYPES[self.category]:
            raise ValueError(
                f"operand type {self.operand_type.value} is not valid for "
                f"category {self.category.value}"
            )
        check_integer("arity", self.arity, 1, 3)

    @property
    def display_name(self) -> str:
        """Human-readable name, e.g. '{u} div' or 'rsqrt'."""
        if self.signedness:
            return f"{self.signedness} {self.opcode}"
        return self.opcode

    @property
    def key(self) -> tuple[str, str]:
        return (self.opcode, self.operand_type.value)


def _spec(opcode, ptx, otype, category, arity, row, sign=""):
    return InstructionSpec(
        opcode=opcode,
        operand_type=otype,
        category=category,
        arity=arity,
        table_row=row,
        signedness=sign,
        ptx_mnemonic=ptx,
    )


def _build_catalog() -> tuple[InstructionSpec, ...]:
    U32, S32 = OperandType.U32, OperandType.S32
    F16, F32, F64 = OperandType.F16, OperandType.F32, OperandType.F64
    entries: list[InstructionSpec] = []

    # (1) Integer arithmetic
    cat = Category.INTEGER_ARITHMETIC
    for op, ptx in (("add", "add.u32"), ("sub", "sub.u32"), ("min", "min.u32"), ("max", "max.u32")):
        entries.append(_spec(op, ptx, U32, cat, 2, "add / sub / min / max"))
    entries.append(_spec("mul", "mul.lo.u32", U32, cat, 2, "mul / mad"))
    entries.append(_spec("mad", "mad.lo.u32", U32, cat, 3, "mul / mad"))
    entries.append(_spec("div", "div.s32", S32, cat, 2, "{s} div", "{s}"))
    entries.append(_spec("rem", "rem.s32", S32, cat, 2, "{s} rem", "{s}"))
    entries.append(_spec("abs", "abs.s32", S32, cat, 1, "abs"))
    entries.append(_spec("div", "div.u32", U32, cat, 2, "{u} div", "{u}"))
    entries.append(_spec("rem", "rem.u32", U32, cat, 2, "{u} rem", "{u}"))

    # (2) Logic and shift
    cat = Category.LOGIC_SHIFT
    for op, ptx in (("and", "and.b32"), ("or", "or.b32"), ("xor", "xor.b32")):
        entries.append(_spec(op, ptx, U32, cat, 2, "and / or / not / xor"))
    entries.append(_spec("not", "not.b32", U32, cat, 1, "and / or / not / xor"))
    entries.append(_spec("cnot", "cnot.b32", U32, cat, 1, "cnot"))
    for op, ptx in (("shl", "shl.b32"), ("shr", "shr.u32")):
        entries.append(_spec(op, ptx, U32, cat, 2, "shl / shr"))

    # (3) Floating single precision
    cat = Category.FLOAT_SINGLE
    for op, ptx in (("add", "add.f32"), ("sub", "sub.f32"), ("min", "min.f32"), ("max", "max.f32")):
        entries.append(_spec(op, ptx, F32, cat, 2, "add / sub / min / max"))
    entries.append(_spec("mul", "mul.f32", F32, cat, 2, "mul / mad / fma"))
    entries.append(_spec("mad", "mad.rn.f32", F32, cat, 3, "mul / mad / fma"))
    entries.append(_spec("fma", "fma.rn.f32", F32, cat, 3, "mul / mad / fma"))
    entries.append(_spec("div", "div.rn.f32", F32, cat, 2, "div"))

    # (4) Double precision
    cat = Category.DOUBLE
    for op, ptx in (("add", "add.f64"), ("sub", "sub.f64"), ("min", "min.f64"), ("max", "max.f64")):
        entries.append(_spec(op, ptx, F64, cat, 2, "add / sub / min / max"))
    entries.append(_spec("div", "div.rn.f64", F64, cat, 2, "div"))

    # (5) Half precision (scalar f16 forms)
    cat = Category.HALF
    for op, ptx in (("add", "add.f16"), ("sub", "sub.f16"), ("mul", "mul.f16")):
        entries.append(_spec(op, ptx, F16, cat, 2, "add / sub / mul"))

    # (6) Multi precision (carry in/out chains)
    cat = Category.MULTI_PRECISION
    for op, ptx in (("add.cc", "add.cc.u32"), ("addc", "addc.u32"), ("sub.cc", "sub.cc.u32")):
        entries.append(_spec(op, ptx, U32, cat, 2, "add.cc / addc / sub.cc"))
    entries.append(_spec("subc", "subc.u32", U32, cat, 2, "subc"))
    entries.append(_spec("mad.cc", "mad.lo.cc.u32", U32, cat, 3, "mad.cc / madc"))
    entries.append(_spec("madc", "madc.lo.u32", U32, cat, 3, "mad.cc / madc"))

    # (7) Special mathematical functions
    cat = Category.SPECIAL_MATH
    entries.append(_spec("rcp", "rcp.rn.f32", F32, cat, 1, "rcp"))
    entries.append(_spec("sqrt", "sqrt.rn.f32", F32, cat, 1, "sqrt"))
    entries.append(_spec("approx.sqrt", "sqrt.approx.f32", F32, cat, 1, "approx.sqrt"))
    entries.append(_spec("rsqrt", "rsqrt.approx.f32", F32, cat, 1, "rsqrt"))
    entries.append(_spec("sin", "sin.approx.f32", F32, cat, 1, "sin / cos"))
    entries.append(_spec("cos", "cos.approx.f32", F32, cat, 1, "sin / cos"))
    entries.append(_spec("lg2", "lg2.approx.f32", F32, cat, 1, "lg2"))
    entries.append(_spec("ex2", "ex2.approx.f32", F32, cat, 1, "ex2"))
    entries.append(_spec("copysign", "copysign.f32", F32, cat, 2, "copysign"))

    # (8) Integer intrinsics
    cat = Category.INTEGER_INTRINSIC
    entries.append(_spec("mul24", "mul24.lo.u32", U32, cat, 2, "mul24() / mad24()"))
    entries.append(_spec("mad24", "mad24.lo.u32", U32, cat, 3, "mul24() / mad24()"))
    entries.append(_spec("sad", "sad.u32", U32, cat, 3, "sad()"))
    entries.append(_spec("popc", "popc.b32", U32, cat, 1, "popc()"))
    entries.append(_spec("clz", "clz.b32", U32, cat, 1, "clz()"))
    entries.append(_spec("bfind", "bfind.u32", U32, cat, 1, "bfind()"))

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
