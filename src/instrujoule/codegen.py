"""PTX microbenchmark generation and structural validation.

Each benchmark kernel stresses exactly one instruction: a counted loop whose
body contains ``unroll_factor`` back-to-back copies of the target instruction
with a data dependency between consecutive copies (the destination of one is
a source of the next), so the assembler cannot collapse or reorder them. The
first chain operand is re-derived from the loop counter every iteration so
each pass computes fresh values, and the loop body ends with a
load-add-store of the chain result followed by a predicate-guarded back
branch, keeping the whole loop observable from the final output store.

One template serves every instruction. The register bank (32-bit integer,
or the f16, f32 or f64 float bank) picks only the data registers, the set-up
before the loop, the chain's seed and a float bank's conversion to an integer.

Every kernel comes in two variants. ``Total`` carries the unrolled
instruction block; ``Overhead`` is the identical kernel with the block
omitted and nothing else changed (same entry symbol, same registers, same
loop). Measuring both and subtracting isolates the energy of the unrolled
instructions from loop and static overheads.

The emitted text targets PTX ISA 6.4 / sm_70. This module never invokes
ptxas; ``emit_build_recipe`` documents the offline build steps for users
with real hardware, and ``validate_kernel`` checks the structural
invariants on one regular-expression scan of the kernel text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from ._checks import check_integer
from .catalog import InstructionSpec, OperandType, in_catalog
from .errors import ParseFailure, UnsupportedInstruction

PTX_VERSION = "6.4"
PTX_TARGET = "sm_70"
DEFAULT_ITERATIONS = 1_000_000
DEFAULT_UNROLL = 5

_LOOP_LABEL = "BB0_1"
_U32_MAX = 2**32 - 1  # the loop counter is a u32 register


class KernelVariant(str, Enum):
    TOTAL = "total"
    OVERHEAD = "overhead"


@dataclass(frozen=True)
class BenchmarkKernel:
    """A generated PTX kernel plus the metadata needed to interpret it."""

    ptx_text: str
    spec: InstructionSpec
    variant: KernelVariant
    iterations: int
    unroll_factor: int
    entry_name: str
    n_instructions: int


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        return "; ".join(
            f"{c.name}={'pass' if c.passed else 'FAIL'}" for c in self.checks
        )


# Data-register bank per float operand type: declaration type, name prefix,
# constant-literal pair, and cvt type suffix used by the float harness. Every
# other type runs in the 32-bit integer registers.
_FLOAT_BANKS = {
    OperandType.F32: (".f32", "%f", ("0f40490FDB", "0f3FC90FDB"), "f32"),
    OperandType.F64: (".f64", "%fd", ("0d400921FB54442D18", "0d3FF921FB54442D18"), "f64"),
    OperandType.F16: (".b16", "%h", ("0x4248", "0x3C00"), "f16"),
}


def entry_name_for(spec: InstructionSpec) -> str:
    """PTX entry symbol. Identical for the Total and Overhead variants."""
    op = spec.opcode.replace(".", "_")
    return f"bench_{op}_{spec.operand_type.value}"


def _chain_line(mnemonic: str, arity: int, dst: str, src: str, c1: str, c2: str) -> str:
    return f"\t{mnemonic} \t{', '.join((dst, src, c1, c2)[: arity + 1])};"


def _chain_registers(head: str, prefix: str, first_free: int, n: int) -> list[tuple[str, str]]:
    """(src, dst) register pairs for an n-deep dependency chain.

    The chain starts and ends at ``head`` so the surrounding code is
    identical whether or not the chain is present.
    """
    regs = [head] + [f"{prefix}{first_free + i}" for i in range(n - 1)] + [head]
    return [(regs[i], regs[i + 1]) for i in range(n)]


def generate_kernel(
    spec: InstructionSpec,
    variant: KernelVariant,
    iterations: int = DEFAULT_ITERATIONS,
    unroll_factor: int = DEFAULT_UNROLL,
) -> BenchmarkKernel:
    """Emit the PTX microbenchmark for one catalog instruction.

    ``iterations`` sets the loop trip count, an integer from 1 to 2**32 - 1
    (the u32 counter's range), and ``unroll_factor`` the depth of the
    dependent chain in the loop body. ``variant`` may be given by value; the
    Overhead variant omits the chain lines and changes nothing else.
    """
    variant = KernelVariant(variant)
    if not in_catalog(spec):
        raise UnsupportedInstruction(
            f"{spec.opcode}.{spec.operand_type.value} is not in the benchmark catalog"
        )
    check_integer("iterations", iterations, 1, _U32_MAX)
    check_integer("unroll_factor", unroll_factor, 1)
    iterations, unroll_factor = int(iterations), int(unroll_factor)

    mnemonic = spec.ptx_mnemonic
    entry = entry_name_for(spec)
    param = f"{entry}_param_0"
    k = unroll_factor
    depth = k if variant == KernelVariant.TOTAL else 0  # the Overhead variant has no chain

    float_bank = _FLOAT_BANKS.get(spec.operand_type)
    if float_bank:
        decl_type, prefix, (c1_lit, c2_lit), cvt_t = float_bank
        head, first_free, c1, c2 = f"{prefix}3", 4, f"{prefix}1", f"{prefix}2"
        acc, folded, counter = "%r3", "%r2", "%r1"
        data_decls = ["\t.reg .b32 \t%r<4>;", f"\t.reg {decl_type} \t{prefix}<{3 + k}>;"]
        if spec.operand_type == OperandType.F16:
            data_decls.reverse()
        setup = [
            f"\tmov{decl_type} \t{c1}, {c1_lit};",
            f"\tmov{decl_type} \t{c2}, {c2_lit};",
            f"\tmov.u32 \t{counter}, {iterations};",
            f"\tmov.u32 \t{acc}, 0;",
            f"\tst.global.u32 \t[%rd2], {acc};",
        ]
        seed = f"\tcvt.rn.{cvt_t}.s32 \t{head}, {counter};"
        convert = [f"\tcvt.rzi.s32.{cvt_t} \t{folded}, {head};"]
    else:
        prefix, head, first_free, c1, c2 = "%r", "%r5", 6, "%r2", "%r3"
        acc, folded, counter = f"%r{5 + k}", head, "%r4"
        data_decls = [f"\t.reg .b32 \t%r<{6 + k}>;"]
        setup = [
            "\tmov.u32 \t%r1, 2654435769;",
            f"\tmov.u32 \t{c1}, 11;",
            f"\tmov.u32 \t{c2}, 5;",
            "\tst.global.u32 \t[%rd2], %r1;",
            f"\tmov.u32 \t{counter}, {iterations};",
        ]
        seed = f"\tadd.s32 \t{head}, %r1, {counter};"
        convert = []

    pairs = _chain_registers(head, prefix, first_free, depth)
    chain = [_chain_line(mnemonic, spec.arity, dst, src, c1, c2) for src, dst in pairs]
    lines = [
        f"// instrujoule microbenchmark: {mnemonic}",
        f".version {PTX_VERSION}",
        f".target {PTX_TARGET}",
        ".address_size 64",
        "",
        f".visible .entry {entry}(",
        f"\t.param .u64 {param}",
        ")",
        "{",
        "\t.reg .pred \t%p<2>;",
        *data_decls,
        "\t.reg .b64 \t%rd<3>;",
        "",
        f"\tld.param.u64 \t%rd1, [{param}];",
        "\tcvta.to.global.u64 \t%rd2, %rd1;",
        *setup,
        "",
        f"{_LOOP_LABEL}:",
        seed,
        *chain,
        *convert,
        f"\tld.global.u32 \t{acc}, [%rd2];",
        f"\tadd.s32 \t{acc}, {acc}, {folded};",
        f"\tst.global.u32 \t[%rd2], {acc};",
        f"\tadd.s32 \t{counter}, {counter}, -1;",
        f"\tsetp.ne.s32 \t%p1, {counter}, 0;",
        f"\t@%p1 bra \t{_LOOP_LABEL};",
        "",
        f"\tst.global.u32 \t[%rd2], {acc};",
        "\tret;",
        "}",
        "",
    ]
    return BenchmarkKernel(
        ptx_text="\n".join(lines),
        spec=spec,
        variant=variant,
        iterations=iterations,
        unroll_factor=unroll_factor,
        entry_name=entry,
        n_instructions=iterations * depth,
    )


# One line of comment-stripped text, from the newline that opens it: an
# instruction, guard predicate optional, or a label. [^\S\n] is \s within a line.
_LINE_RE = re.compile(
    r"\n[^\S\n]*(?:(@%p\d+[^\S\n]+)?([a-z][\w.]*)[^\S\n]+(.*);[^\S\n]*$|(\$?\w+):[^\S\n]*$)",
    re.MULTILINE,
)
_RET_RE = re.compile(r"\n[^\S\n]*ret[^\S\n]*;")
_COMMENT_RE = re.compile(r"//.*")
_REG_RE = re.compile(r"%[a-z]+\d+")


def _scan_kernel(text: str):
    """Structural scan: the scanned text and its (preamble, body, postlude)
    instruction lists.

    The scanned text is ``text`` with every line break a newline, a newline
    in front and the comments gone. Each instruction is a (mnemonic, operand
    text, offset) tuple; ``_line_no`` turns the offset into the line number.
    The body lies between the loop label, the first label line, and the
    predicate-guarded branch back to it, which neither list holds. Raises
    ParseFailure when the text lacks the basic kernel shape (entry
    directive, loop label, branch back, return after it).
    """
    # every line break splitlines knows (\r\n, \r, \x85, \u2028, ...) made the \n the regexes know
    text = _COMMENT_RE.sub("", "\n" + "\n".join(text.splitlines()))
    if ".entry" not in text:
        raise ParseFailure("no .entry directive found")
    preamble, body, postlude = [], [], []
    section, label = preamble, None
    for m in _LINE_RE.finditer(text):
        guard, mnemonic, operands, name = m.groups()
        if section is preamble and name:
            section, label = body, name
        elif section is body and guard and mnemonic == "bra" and operands.rstrip() == label:
            # the branch back: "@%p<n> bra <label>;" and whitespace
            section, branch_end = postlude, m.end()
        elif mnemonic:
            section.append((mnemonic, operands, m.start()))
    if section is preamble:
        raise ParseFailure("no loop label found")
    if section is body:
        raise ParseFailure(f"no predicate-guarded branch back to {label}")
    if not _RET_RE.search(text, branch_end):
        raise ParseFailure("no ret after the loop")
    return text, (preamble, body, postlude)


def _line_no(text: str, offset: int) -> int:
    """The 1-based line number of the line that opens at ``offset`` of a scanned text."""
    return text.count("\n", 0, offset + 1)


def _operands(operand_text: str) -> tuple[str | None, list[str]]:
    """Destination and source registers of one target instruction."""
    head, _, rest = operand_text.partition(",")
    dest = _REG_RE.search(head)
    return (dest.group() if dest else None), _REG_RE.findall(rest)


def validate_kernel(kernel: BenchmarkKernel) -> ValidationReport:
    """Check a kernel's text against the structural invariants.

    Four checks: target-opcode count in the loop body, dependency chain
    between consecutive target instructions, loop-bound literal in the
    preamble, and presence of the final output store. The report passes
    overall only when all four pass.
    """
    if not kernel.ptx_text.strip():
        raise ParseFailure("empty kernel text")
    text, (preamble, body, postlude) = _scan_kernel(kernel.ptx_text)

    mnemonic = kernel.spec.ptx_mnemonic
    expected = kernel.unroll_factor if kernel.variant == KernelVariant.TOTAL else 0
    targets = [(offset, *_operands(operands)) for mn, operands, offset in body if mn == mnemonic]

    chain_ok = True
    chain_detail = "chain intact" if len(targets) > 1 else "fewer than 2 chained instructions"
    for (_, dest, _), (offset, _, sources) in zip(targets, targets[1:]):
        if dest is None or dest not in sources:
            chain_ok = False
            chain_detail = f"line {_line_no(text, offset)}: {dest} not consumed by the next instruction"
            break

    bound = str(kernel.iterations)
    # the mov's own last operand, its comment already stripped
    bound_ok = any(
        mn.startswith("mov.") and operands.rpartition(",")[2].strip() == bound
        for mn, operands, _ in preamble
    )
    store_ok = any(mn.startswith("st.global") for mn, _, _ in postlude)
    return ValidationReport((
        CheckResult(
            "opcode_count",
            len(targets) == expected,
            f"found {len(targets)} x {mnemonic} in loop body, expected {expected}",
        ),
        CheckResult("dependency_chain", chain_ok, chain_detail),
        CheckResult(
            "loop_bound",
            bound_ok,
            f"loop counter initialized to {bound}" if bound_ok else f"no mov of literal {bound} before the loop",
        ),
        CheckResult(
            "final_store",
            store_ok,
            "final store present" if store_ok else "no st.global after the loop",
        ),
    ))


def emit_build_recipe(kernel: BenchmarkKernel) -> str:
    """Human-readable build and run steps for users with real hardware.

    Purely documentary: the toolkit itself never invokes the CUDA binary
    tools. Artifact file names are tagged by variant so the paired Total
    and Overhead runs cannot be mixed up.
    """
    stem = f"{kernel.entry_name}.{kernel.variant.value}"
    lines = [
        f"Build and run recipe for {kernel.entry_name} ({kernel.variant.value} variant)",
        "",
        f"1. Save the kernel text as {stem}.ptx.",
        f"2. Assemble to a CUDA binary:  ptxas -arch={PTX_TARGET} {stem}.ptx -o {stem}.cubin",
        f"3. Wrap in a fat binary:       fatbinary --create={stem}.fatbin"
        f" --image=profile={PTX_TARGET},file={stem}.cubin",
        f"4. Link with host code: declare an empty kernel named {kernel.entry_name}"
        " taking one u64 pointer parameter, then substitute this fat binary for"
        " the compiler-produced one in the embedded .fatbin.c before host linking.",
        "5. Launch with one block and one thread (grid=1, block=1) and read back"
        " the output word to confirm the loop really executed.",
        "6. Run the paired total and overhead variants back to back under the same"
        " measurement strategy and feed both energies to the per-instruction"
        " extraction; only the difference isolates the instruction itself.",
    ]
    return "\n".join(lines) + "\n"
