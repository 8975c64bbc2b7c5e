"""PTX microbenchmark generation and structural validation.

Each benchmark kernel stresses exactly one instruction: a counted loop whose
body contains ``unroll_factor`` back-to-back copies of the target instruction
with a data dependency between consecutive copies (the destination of one is
a source of the next), so the assembler cannot collapse or reorder them. The
first chain operand is re-derived from the loop counter every iteration so
each pass computes fresh values, and the loop body ends with a
load-add-store of the chain result followed by a predicate-guarded back
branch, keeping the whole loop observable from the final output store.

Every kernel comes in two variants. ``Total`` carries the unrolled
instruction block; ``Overhead`` is the identical kernel with the block
omitted and nothing else changed (same entry symbol, same registers, same
loop). Measuring both and subtracting isolates the energy of the unrolled
instructions from loop and static overheads.

The emitted text targets PTX ISA 6.4 / sm_70. This module never invokes
ptxas; ``emit_build_recipe`` documents the offline build steps for users
with real hardware, and ``validate_kernel`` checks the structural
invariants with a line-level scanner.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .catalog import InstructionSpec, OperandType, in_catalog
from .errors import ParseFailure, UnsupportedInstruction

PTX_VERSION = "6.4"
PTX_TARGET = "sm_70"
DEFAULT_ITERATIONS = 1_000_000
DEFAULT_UNROLL = 5

_LOOP_LABEL = "BB0_1"


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


# Full PTX mnemonic for each catalog entry. The loop harness never uses any
# of these, so counting occurrences of the mnemonic inside the loop body is
# unambiguous.
_PTX_MNEMONIC = {
    ("add", "u32"): "add.u32",
    ("sub", "u32"): "sub.u32",
    ("min", "u32"): "min.u32",
    ("max", "u32"): "max.u32",
    ("mul", "u32"): "mul.lo.u32",
    ("mad", "u32"): "mad.lo.u32",
    ("div", "s32"): "div.s32",
    ("rem", "s32"): "rem.s32",
    ("abs", "s32"): "abs.s32",
    ("div", "u32"): "div.u32",
    ("rem", "u32"): "rem.u32",
    ("and", "u32"): "and.b32",
    ("or", "u32"): "or.b32",
    ("xor", "u32"): "xor.b32",
    ("not", "u32"): "not.b32",
    ("cnot", "u32"): "cnot.b32",
    ("shl", "u32"): "shl.b32",
    ("shr", "u32"): "shr.u32",
    ("add", "f32"): "add.f32",
    ("sub", "f32"): "sub.f32",
    ("min", "f32"): "min.f32",
    ("max", "f32"): "max.f32",
    ("mul", "f32"): "mul.f32",
    ("mad", "f32"): "mad.rn.f32",
    ("fma", "f32"): "fma.rn.f32",
    ("div", "f32"): "div.rn.f32",
    ("add", "f64"): "add.f64",
    ("sub", "f64"): "sub.f64",
    ("min", "f64"): "min.f64",
    ("max", "f64"): "max.f64",
    ("div", "f64"): "div.rn.f64",
    ("add", "f16"): "add.f16",
    ("sub", "f16"): "sub.f16",
    ("mul", "f16"): "mul.f16",
    ("add.cc", "u32"): "add.cc.u32",
    ("addc", "u32"): "addc.u32",
    ("sub.cc", "u32"): "sub.cc.u32",
    ("subc", "u32"): "subc.u32",
    ("mad.cc", "u32"): "mad.lo.cc.u32",
    ("madc", "u32"): "madc.lo.u32",
    ("rcp", "f32"): "rcp.rn.f32",
    ("sqrt", "f32"): "sqrt.rn.f32",
    ("approx.sqrt", "f32"): "sqrt.approx.f32",
    ("rsqrt", "f32"): "rsqrt.approx.f32",
    ("sin", "f32"): "sin.approx.f32",
    ("cos", "f32"): "cos.approx.f32",
    ("lg2", "f32"): "lg2.approx.f32",
    ("ex2", "f32"): "ex2.approx.f32",
    ("copysign", "f32"): "copysign.f32",
    ("mul24", "u32"): "mul24.lo.u32",
    ("mad24", "u32"): "mad24.lo.u32",
    ("sad", "u32"): "sad.u32",
    ("popc", "u32"): "popc.b32",
    ("clz", "u32"): "clz.b32",
    ("bfind", "u32"): "bfind.u32",
}

# Data-register bank per operand type: declaration type, name prefix,
# constant-literal pair, and cvt type suffix used by the float harness.
_FLOAT_BANKS = {
    OperandType.F32: (".f32", "%f", ("0f40490FDB", "0f3FC90FDB"), "f32"),
    OperandType.F64: (".f64", "%fd", ("0d400921FB54442D18", "0d3FF921FB54442D18"), "f64"),
    OperandType.F16: (".b16", "%h", ("0x4248", "0x3C00"), "f16"),
}


def ptx_mnemonic(spec: InstructionSpec) -> str:
    """Full PTX mnemonic emitted for a catalog entry (e.g. 'div.u32')."""
    try:
        return _PTX_MNEMONIC[spec.key]
    except KeyError:
        raise UnsupportedInstruction(
            f"{spec.opcode}.{spec.operand_type.value} has no PTX template"
        ) from None


def entry_name_for(spec: InstructionSpec) -> str:
    """PTX entry symbol. Identical for the Total and Overhead variants."""
    op = spec.opcode.replace(".", "_")
    return f"bench_{op}_{spec.operand_type.value}"


def _chain_line(mnemonic: str, arity: int, dst: str, src: str, c1: str, c2: str) -> str:
    if arity == 1:
        ops = f"{dst}, {src}"
    elif arity == 2:
        ops = f"{dst}, {src}, {c1}"
    else:
        ops = f"{dst}, {src}, {c1}, {c2}"
    return f"\t{mnemonic} \t{ops};"


def _chain_registers(head: str, prefix: str, first_free: int, n: int) -> list[tuple[str, str]]:
    """(src, dst) register pairs for an n-deep dependency chain.

    The chain starts and ends at ``head`` so the surrounding code is
    identical whether or not the chain is present.
    """
    if n == 1:
        return [(head, head)]
    regs = [head] + [f"{prefix}{first_free + i}" for i in range(n - 1)] + [head]
    return [(regs[i], regs[i + 1]) for i in range(n)]


def generate_kernel(
    spec: InstructionSpec,
    variant: KernelVariant,
    iterations: int = DEFAULT_ITERATIONS,
    unroll_factor: int = DEFAULT_UNROLL,
) -> BenchmarkKernel:
    """Emit the PTX microbenchmark for one catalog instruction.

    ``iterations`` sets the loop trip count and ``unroll_factor`` the depth
    of the dependent instruction chain in the loop body. The Overhead
    variant omits the chain lines and changes nothing else.
    """
    if not in_catalog(spec):
        raise UnsupportedInstruction(
            f"{spec.opcode}.{spec.operand_type.value} is not in the benchmark catalog"
        )
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if unroll_factor < 1:
        raise ValueError("unroll_factor must be >= 1")

    mnemonic = ptx_mnemonic(spec)
    entry = entry_name_for(spec)
    param = f"{entry}_param_0"
    k = unroll_factor
    total = variant == KernelVariant.TOTAL

    if spec.operand_type.is_float:
        decl_type, prefix, (c1_lit, c2_lit), cvt_t = _FLOAT_BANKS[spec.operand_type]
        decls = [
            "\t.reg .pred \t%p<2>;",
            "\t.reg .b32 \t%r<4>;",
            f"\t.reg {decl_type} \t{prefix}<{3 + k}>;",
            "\t.reg .b64 \t%rd<3>;",
        ]
        if spec.operand_type == OperandType.F16:
            decls[2], decls[1] = decls[1], decls[2]
        preamble = [
            f"\tld.param.u64 \t%rd1, [{param}];",
            "\tcvta.to.global.u64 \t%rd2, %rd1;",
            f"\tmov{decl_type} \t{prefix}1, {c1_lit};",
            f"\tmov{decl_type} \t{prefix}2, {c2_lit};",
            f"\tmov.u32 \t%r1, {iterations};",
            "\tmov.u32 \t%r3, 0;",
            "\tst.global.u32 \t[%rd2], %r3;",
        ]
        seed = [f"\tcvt.rn.{cvt_t}.s32 \t{prefix}3, %r1;"]
        chain = [
            _chain_line(mnemonic, spec.arity, dst, src, f"{prefix}1", f"{prefix}2")
            for src, dst in _chain_registers(f"{prefix}3", prefix, 4, k)
        ]
        tail = [
            f"\tcvt.rzi.s32.{cvt_t} \t%r2, {prefix}3;",
            "\tld.global.u32 \t%r3, [%rd2];",
            "\tadd.s32 \t%r3, %r3, %r2;",
            "\tst.global.u32 \t[%rd2], %r3;",
            "\tadd.s32 \t%r1, %r1, -1;",
            "\tsetp.ne.s32 \t%p1, %r1, 0;",
            f"\t@%p1 bra \t{_LOOP_LABEL};",
        ]
        acc = "%r3"
    else:
        acc = f"%r{5 + k}"
        decls = [
            "\t.reg .pred \t%p<2>;",
            f"\t.reg .b32 \t%r<{6 + k}>;",
            "\t.reg .b64 \t%rd<3>;",
        ]
        preamble = [
            f"\tld.param.u64 \t%rd1, [{param}];",
            "\tcvta.to.global.u64 \t%rd2, %rd1;",
            "\tmov.u32 \t%r1, 2654435769;",
            "\tmov.u32 \t%r2, 11;",
            "\tmov.u32 \t%r3, 5;",
            "\tst.global.u32 \t[%rd2], %r1;",
            f"\tmov.u32 \t%r4, {iterations};",
        ]
        seed = ["\tadd.s32 \t%r5, %r1, %r4;"]
        chain = [
            _chain_line(mnemonic, spec.arity, dst, src, "%r2", "%r3")
            for src, dst in _chain_registers("%r5", "%r", 6, k)
        ]
        tail = [
            f"\tld.global.u32 \t{acc}, [%rd2];",
            f"\tadd.s32 \t{acc}, {acc}, %r5;",
            f"\tst.global.u32 \t[%rd2], {acc};",
            "\tadd.s32 \t%r4, %r4, -1;",
            "\tsetp.ne.s32 \t%p1, %r4, 0;",
            f"\t@%p1 bra \t{_LOOP_LABEL};",
        ]

    body = seed + (chain if total else []) + tail
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
        *decls,
        "",
        *preamble,
        "",
        f"{_LOOP_LABEL}:",
        *body,
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
        n_instructions=iterations * unroll_factor if total else 0,
    )


_INSTR_RE = re.compile(r"^\s*(?:@%p\d+\s+)?([a-z][\w.]*)\s+(.*);\s*$")
_LABEL_RE = re.compile(r"^\s*(\$?\w+):\s*$")
_REG_RE = re.compile(r"%[a-z]+\d+")


@dataclass(frozen=True)
class _ScannedInstruction:
    mnemonic: str
    dest: str | None
    sources: tuple[str, ...]
    line_no: int


def _scan_instruction(line: str, line_no: int) -> _ScannedInstruction | None:
    m = _INSTR_RE.match(line)
    if not m:
        return None
    mnemonic, operand_text = m.group(1), m.group(2)
    parts = [p.strip() for p in operand_text.split(",")]
    dest = None
    sources: list[str] = []
    for i, part in enumerate(parts):
        regs = _REG_RE.findall(part)
        if i == 0 and not part.startswith("["):
            dest = regs[0] if regs else None
        else:
            sources.extend(regs)
    return _ScannedInstruction(mnemonic, dest, tuple(sources), line_no)


def _scan_kernel(ptx_text: str):
    """Line-level structural scan: (preamble, body, postlude) instruction lists.

    Raises ParseFailure when the text lacks the basic kernel shape (entry
    directive, loop label, predicate-guarded back branch, return).
    """
    stripped = []
    for no, raw in enumerate(ptx_text.splitlines(), start=1):
        line = raw.split("//", 1)[0].rstrip()
        if line.strip():
            stripped.append((no, line))

    if not any(".entry" in line for _, line in stripped):
        raise ParseFailure("no .entry directive found")

    label = None
    label_idx = None
    for idx, (_, line) in enumerate(stripped):
        m = _LABEL_RE.match(line)
        if m and not line.lstrip().startswith("."):
            label, label_idx = m.group(1), idx
            break
    if label is None:
        raise ParseFailure("no loop label found")

    branch_idx = None
    for idx in range(label_idx + 1, len(stripped)):
        _, line = stripped[idx]
        if re.match(rf"^\s*@%p\d+\s+bra\s+{re.escape(label)}\s*;\s*$", line):
            branch_idx = idx
            break
    if branch_idx is None:
        raise ParseFailure(f"no predicate-guarded branch back to {label}")

    if not any(re.match(r"^\s*ret\s*;", line) for _, line in stripped[branch_idx:]):
        raise ParseFailure("no ret after the loop")

    def instructions(pairs):
        out = []
        for no, line in pairs:
            scanned = _scan_instruction(line, no)
            if scanned is not None:
                out.append(scanned)
        return out

    preamble = instructions(stripped[:label_idx])
    body = instructions(stripped[label_idx + 1 : branch_idx])
    postlude = instructions(stripped[branch_idx + 1 :])
    return preamble, body, postlude


def validate_kernel(kernel: BenchmarkKernel) -> ValidationReport:
    """Check a kernel's text against the structural invariants.

    Four checks: target-opcode count in the loop body, dependency chain
    between consecutive target instructions, loop-bound literal in the
    preamble, and presence of the final output store. The report passes
    overall only when all four pass.
    """
    if not kernel.ptx_text.strip():
        raise ParseFailure("empty kernel text")
    preamble, body, postlude = _scan_kernel(kernel.ptx_text)

    mnemonic = ptx_mnemonic(kernel.spec)
    expected = kernel.unroll_factor if kernel.variant == KernelVariant.TOTAL else 0
    targets = [ins for ins in body if ins.mnemonic == mnemonic]

    checks = []
    checks.append(
        CheckResult(
            "opcode_count",
            len(targets) == expected,
            f"found {len(targets)} x {mnemonic} in loop body, expected {expected}",
        )
    )

    chain_ok = True
    chain_detail = "chain intact" if len(targets) > 1 else "fewer than 2 chained instructions"
    for prev, cur in zip(targets, targets[1:]):
        if prev.dest is None or prev.dest not in cur.sources:
            chain_ok = False
            chain_detail = (
                f"line {cur.line_no}: {prev.dest} not consumed by the next instruction"
            )
            break
    checks.append(CheckResult("dependency_chain", chain_ok, chain_detail))

    bound = str(kernel.iterations)
    bound_ok = any(
        ins.mnemonic.startswith("mov.") and re.search(rf"(?<![\w.]){re.escape(bound)}(?![\w.])", kernel.ptx_text.splitlines()[ins.line_no - 1])
        for ins in preamble
    )
    checks.append(
        CheckResult(
            "loop_bound",
            bound_ok,
            f"loop counter initialized to {bound}" if bound_ok else f"no mov of literal {bound} before the loop",
        )
    )

    store_ok = any(ins.mnemonic.startswith("st.global") for ins in postlude)
    checks.append(
        CheckResult(
            "final_store",
            store_ok,
            "final store present" if store_ok else "no st.global after the loop",
        )
    )
    return ValidationReport(tuple(checks))


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
