"""Kernel generator structure and the validator that checks it."""

import dataclasses
import difflib
import hashlib

import numpy as np
import pytest

from instrujoule import (
    BenchmarkKernel,
    InstructionSpec,
    KernelVariant,
    OperandType,
    ParseFailure,
    UnsupportedInstruction,
    emit_build_recipe,
    find_instruction,
    generate_kernel,
    list_catalog,
    validate_kernel,
)
from instrujoule import codegen
from instrujoule.catalog import Category
from instrujoule.codegen import CheckResult
from oracles import scan_kernel_by_line

DIV_U32 = find_instruction("div", "u32")


def line_diff(a: str, b: str) -> list[str]:
    return [l for l in difflib.ndiff(a.splitlines(), b.splitlines()) if l[:1] in "+-"]


class TestGenerateTotal:
    def setup_method(self):
        self.kernel = generate_kernel(DIV_U32, KernelVariant.TOTAL, 1_000_000, 5)

    def test_unrolled_count(self):
        body = self.kernel.ptx_text.split("BB0_1:")[1]
        assert body.count("div.u32") == 5

    def test_loop_bound_literal(self):
        assert "1000000" in self.kernel.ptx_text

    def test_n_instructions(self):
        assert self.kernel.n_instructions == 5_000_000

    def test_fig_structure_order(self):
        text = self.kernel.ptx_text
        anchors = [
            ".visible .entry",
            ".reg .pred",
            "ld.param.u64",
            "BB0_1:",
            "div.u32",
            "ld.global.u32",
            "st.global.u32",
            "setp.ne.s32",
            "bra",
            "ret;",
        ]
        pos = -1
        for anchor in anchors:
            nxt = text.find(anchor, pos + 1)
            assert nxt > pos, f"{anchor!r} missing or out of order"
            pos = nxt

    def test_validator_all_pass(self):
        assert validate_kernel(self.kernel).all_pass

    def test_minimal_loop_single_instruction(self):
        add = find_instruction("add", "u32")
        kernel = generate_kernel(add, KernelVariant.TOTAL, 1, 1)
        body = kernel.ptx_text.split("BB0_1:")[1].split("@%p1")[0]
        assert body.count("add.u32") == 1
        assert kernel.n_instructions == 1
        assert validate_kernel(kernel).all_pass


class TestGenerateOverhead:
    def test_zero_target_instructions(self):
        kernel = generate_kernel(DIV_U32, KernelVariant.OVERHEAD, 1_000_000, 5)
        # the header comment may name the instruction; the code must not
        body = kernel.ptx_text.split("BB0_1:")[1]
        assert "div.u32" not in body
        assert kernel.n_instructions == 0
        report = validate_kernel(kernel)
        assert report.all_pass
        assert report.check("opcode_count").passed

    def test_unknown_check_raises_key_error(self):
        report = validate_kernel(generate_kernel(DIV_U32, KernelVariant.TOTAL))
        with pytest.raises(KeyError, match="frobnicate"):
            report.check("frobnicate")

    def test_same_entry_name_as_total(self):
        total = generate_kernel(DIV_U32, KernelVariant.TOTAL)
        over = generate_kernel(DIV_U32, KernelVariant.OVERHEAD)
        assert total.entry_name == over.entry_name

    def test_diff_is_exactly_the_unrolled_block(self):
        for unroll in (1, 3, 5, 8):
            total = generate_kernel(DIV_U32, KernelVariant.TOTAL, 1000, unroll)
            over = generate_kernel(DIV_U32, KernelVariant.OVERHEAD, 1000, unroll)
            diff = line_diff(total.ptx_text, over.ptx_text)
            assert len(diff) == unroll
            assert all(d.startswith("- ") for d in diff)
            assert all("div.u32" in d for d in diff)


class TestGeneratePreconditions:
    def test_uncataloged_instruction_rejected(self):
        rogue = InstructionSpec(
            opcode="madd",
            operand_type=OperandType.U32,
            category=Category.INTEGER_ARITHMETIC,
            arity=2,
            table_row="nope",
        )
        with pytest.raises(UnsupportedInstruction):
            generate_kernel(rogue, KernelVariant.TOTAL)

    def test_misspelled_variant_rejected(self):
        # a misspelled name must not fall through to an Overhead kernel, which validates
        with pytest.raises(ValueError, match="^'totl' is not a valid KernelVariant$"):
            generate_kernel(DIV_U32, "totl")

    @pytest.mark.parametrize("variant", list(KernelVariant))
    def test_variant_given_by_value(self, variant):
        kernel = generate_kernel(DIV_U32, variant.value)
        assert kernel.variant is variant
        assert kernel == generate_kernel(DIV_U32, variant)
        assert f"Save the kernel text as bench_div_u32.{variant.value}.ptx." in emit_build_recipe(kernel)

    def test_bad_iterations(self):
        with pytest.raises(ValueError, match="^iterations must be >= 1, got 0$"):
            generate_kernel(DIV_U32, KernelVariant.TOTAL, iterations=0)

    @pytest.mark.parametrize("iterations, problem", [
        (-7, "must be >= 1, got -7"),
        (2**32, "must be <= 4294967295, got 4294967296"),
        (2.5, "must be an integer, got 2.5"),
        (True, "must be an integer, got True"),
        (np.float64(3.0), f"must be an integer, got {np.float64(3.0)!r}"),
        (np.True_, f"must be an integer, got {np.True_!r}"),
    ], ids=["-7", "4294967296", "2.5", "True", "3.0", "iterations5"])  # the ids from before the problem column
    def test_iterations_the_u32_counter_cannot_hold(self, iterations, problem):
        # the counter holds 1 .. 2**32 - 1; a float or bool would be written
        # into the PTX as it prints
        with pytest.raises(ValueError) as exc:
            generate_kernel(DIV_U32, KernelVariant.TOTAL, iterations=iterations)
        assert str(exc.value) == f"iterations {problem}"

    def test_bad_unroll(self):
        with pytest.raises(ValueError, match="^unroll_factor must be >= 1, got 0$"):
            generate_kernel(DIV_U32, KernelVariant.TOTAL, unroll_factor=0)

    @pytest.mark.parametrize("unroll", [2.5, True])
    def test_non_integer_unroll(self, unroll):
        with pytest.raises(ValueError, match=f"^unroll_factor must be an integer, got {unroll}$"):
            generate_kernel(DIV_U32, KernelVariant.TOTAL, unroll_factor=unroll)

    @pytest.mark.parametrize("iterations", [2**32 - 1, np.uint32(2**32 - 1), np.int64(7)])
    def test_largest_and_numpy_loop_counts(self, iterations):
        kernel = generate_kernel(DIV_U32, KernelVariant.TOTAL, iterations=iterations, unroll_factor=np.int8(5))
        assert f"mov.u32 \t%r4, {int(iterations)};" in kernel.ptx_text
        assert type(kernel.iterations) is type(kernel.unroll_factor) is type(kernel.n_instructions) is int
        assert kernel.n_instructions == int(iterations) * 5
        assert validate_kernel(kernel).all_pass


class TestWholeCatalog:
    def test_round_trip_every_entry(self):
        for spec in list_catalog():
            for variant in KernelVariant:
                kernel = generate_kernel(spec, variant, 1000, 5)
                report = validate_kernel(kernel)
                assert report.all_pass, f"{spec.opcode}.{spec.operand_type.value} {variant}: {report.summary()}"

    def test_chain_arity_matches_spec(self):
        for spec in list_catalog():
            kernel = generate_kernel(spec, KernelVariant.TOTAL, 10, 3)
            mnemonic = spec.ptx_mnemonic
            lines = [l for l in kernel.ptx_text.splitlines() if l.strip().startswith(mnemonic)]
            assert len(lines) == 3
            for line in lines:
                operands = line.split(mnemonic)[1].strip().rstrip(";")
                assert len(operands.split(",")) == spec.arity + 1

    def test_n_instructions_scales(self):
        for iters, unroll in ((1, 1), (10, 2), (1000, 7)):
            k = generate_kernel(DIV_U32, KernelVariant.TOTAL, iters, unroll)
            assert k.n_instructions == iters * unroll


class TestGeneratorGolden:
    def test_whole_catalog_text(self):
        """Every kernel text, pinned by hash, so a rewrite of the generator
        that changes one byte of PTX fails here."""
        digest = hashlib.sha256()
        for spec in list_catalog():
            for variant in KernelVariant:
                for iters, unroll in ((1_000_000, 5), (1, 1), (7, 2), (2**32 - 1, 9)):
                    digest.update(generate_kernel(spec, variant, iters, unroll).ptx_text.encode())
        assert digest.hexdigest() == "0e4d012fc56566b090affe9d482b35d8813bc2333ea041323d2ca5667247c851"


class TestValidatorNegatives:
    def test_broken_chain_detected(self):
        kernel = generate_kernel(DIV_U32, KernelVariant.TOTAL, 1000, 3)
        # cut the dependency chain: make every div consume fresh registers
        broken_text = kernel.ptx_text.replace(
            "div.u32 \t%r7, %r6, %r2", "div.u32 \t%r7, %r1, %r2"
        )
        assert broken_text != kernel.ptx_text
        report = validate_kernel(dataclasses.replace(kernel, ptx_text=broken_text))
        assert not report.check("dependency_chain").passed
        assert not report.all_pass

    def test_wrong_loop_bound_detected(self):
        kernel = generate_kernel(DIV_U32, KernelVariant.TOTAL, 1000, 3)
        tampered = dataclasses.replace(
            kernel, ptx_text=kernel.ptx_text.replace("mov.u32 \t%r4, 1000;", "mov.u32 \t%r4, 999;")
        )
        report = validate_kernel(tampered)
        assert not report.check("loop_bound").passed

    def test_missing_count_detected(self):
        total = generate_kernel(DIV_U32, KernelVariant.TOTAL, 1000, 5)
        over = generate_kernel(DIV_U32, KernelVariant.OVERHEAD, 1000, 5)
        mislabeled = dataclasses.replace(total, ptx_text=over.ptx_text)
        report = validate_kernel(mislabeled)
        assert not report.check("opcode_count").passed

    def test_garbage_text_parse_failure(self):
        kernel = generate_kernel(DIV_U32, KernelVariant.TOTAL)
        garbage = dataclasses.replace(kernel, ptx_text="this is not ptx at all\njust words\n")
        with pytest.raises(ParseFailure) as info:
            validate_kernel(garbage)
        assert str(info.value) == "no .entry directive found"

    @pytest.mark.parametrize(
        "deleted, message",
        [
            ("BB0_1:", "no loop label found"),
            ("\t@%p1 bra \tBB0_1;", "no predicate-guarded branch back to BB0_1"),
            ("\tret;", "no ret after the loop"),
        ],
    )
    def test_missing_loop_part_parse_failure(self, deleted, message):
        kernel = generate_kernel(DIV_U32, KernelVariant.TOTAL)
        lines = kernel.ptx_text.splitlines()
        lines.remove(deleted)
        with pytest.raises(ParseFailure) as info:
            validate_kernel(dataclasses.replace(kernel, ptx_text="\n".join(lines)))
        assert str(info.value) == message

    def test_empty_text_parse_failure(self):
        kernel = generate_kernel(DIV_U32, KernelVariant.TOTAL)
        with pytest.raises(ParseFailure) as info:
            validate_kernel(dataclasses.replace(kernel, ptx_text="   \n"))
        assert str(info.value) == "empty kernel text"


class TestBuildRecipe:
    def test_mentions_one_block_one_thread(self):
        recipe = emit_build_recipe(generate_kernel(DIV_U32, KernelVariant.TOTAL))
        assert "one block and one thread" in recipe
        assert "grid=1, block=1" in recipe

    def test_variants_tagged_distinctly(self):
        total = emit_build_recipe(generate_kernel(DIV_U32, KernelVariant.TOTAL))
        over = emit_build_recipe(generate_kernel(DIV_U32, KernelVariant.OVERHEAD))
        assert total != over
        assert "bench_div_u32.total.ptx" in total
        assert "bench_div_u32.overhead.ptx" in over

    def test_ends_with_pairing_instruction(self):
        recipe = emit_build_recipe(generate_kernel(DIV_U32, KernelVariant.OVERHEAD))
        last_step = recipe.strip().splitlines()[-1]
        assert "total and overhead" in recipe
        assert "difference" in last_step


def _outcome(kernel: BenchmarkKernel) -> str:
    try:
        report = validate_kernel(kernel)
    except ParseFailure as exc:
        return f"{type(exc).__name__}: {exc}"
    return ";".join(f"{c.name}={c.passed}:{c.detail}" for c in report.checks)


def _edits(kernel: BenchmarkKernel):
    """Each line deleted, commented out, duplicated and swapped with the next."""
    lines = kernel.ptx_text.splitlines()
    for i, line in enumerate(lines):
        yield f"delete {i}", lines[:i] + lines[i + 1 :]
        if line.strip():
            yield f"comment {i}", lines[:i] + ["// " + line] + lines[i + 1 :]
        yield f"duplicate {i}", lines[: i + 1] + lines[i:]
        if i + 1 < len(lines):
            yield f"swap {i}", lines[:i] + [lines[i + 1], line] + lines[i + 2 :]


EDITED = [("div", "u32"), ("mad", "f32"), ("add", "f64"), ("mul", "f16"), ("popc", "u32")]


class TestValidatorGolden:
    """Every report and every error the validator gives, pinned by hash."""

    def test_whole_catalog(self):
        outcomes = [
            f"{spec.ptx_mnemonic} {variant.value} {iters}x{unroll}|"
            + _outcome(generate_kernel(spec, variant, iters, unroll))
            for iters, unroll in ((1_000_000, 5), (1, 1))
            for spec in list_catalog()
            for variant in KernelVariant
        ]
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == "5d7e2f71a693b98bd38bdd254c92769d3fabf5b612e565917d2665c1de9fc281"

    def test_edited_kernels(self):
        outcomes = []
        for opcode, type_ in EDITED:
            for variant in KernelVariant:
                kernel = generate_kernel(find_instruction(opcode, type_), variant)
                for label, lines in _edits(kernel):
                    edited = dataclasses.replace(kernel, ptx_text="\n".join(lines) + "\n")
                    outcomes.append(f"{opcode}.{type_} {variant.value} {label}|" + _outcome(edited))
        assert len(outcomes) == 1418
        joined = "\n".join(outcomes)
        # the edit set reaches every outcome: a pass, each check failing and
        # each structural parse failure
        assert "=False" not in outcomes[0]
        for name in ("opcode_count", "dependency_chain", "loop_bound", "final_store"):
            assert f"{name}=False" in joined
        for message in (
            "no .entry directive found",
            "no loop label found",
            "no predicate-guarded branch back to BB0_1",
            "no ret after the loop",
        ):
            assert f"|ParseFailure: {message}\n" in joined
        assert hashlib.sha256(joined.encode()).hexdigest() == (
            "5acaca378d29823206b97e43d467e324e0c871ccf38aff147c49537ca0b9701a"
        )


class TestValidatorMessages:
    def test_missing_final_store_fails_its_check(self):
        kernel = generate_kernel(DIV_U32, KernelVariant.TOTAL)
        lines = kernel.ptx_text.splitlines()
        del lines[lines.index("\tret;") - 1]
        report = validate_kernel(dataclasses.replace(kernel, ptx_text="\n".join(lines)))
        assert report.check("final_store") == CheckResult(
            "final_store", False, "no st.global after the loop"
        )
        assert [c.name for c in report.checks if not c.passed] == ["final_store"]

    @pytest.mark.parametrize(
        "opcode, type_, literal, iterations, passed, detail",
        [
            ("div", "u32", None, 0, False, "no mov of literal 0 before the loop"),
            ("div", "u32", None, -5, False, "no mov of literal -5 before the loop"),
            # the float harness zeroes %r3 with a mov before the loop
            ("mad", "f32", None, 0, True, "loop counter initialized to 0"),
            ("div", "u32", "-5", -5, True, "loop counter initialized to -5"),
            ("div", "u32", "-7", 7, False, "no mov of literal 7 before the loop"),
            ("div", "u32", "x-5", -5, False, "no mov of literal -5 before the loop"),
            ("div", "u32", "--5", -5, False, "no mov of literal -5 before the loop"),
            ("div", "u32", "-50", -5, False, "no mov of literal -5 before the loop"),
            # the count only in the comment, or negated
            ("div", "u32", "7; // 1000000", 1_000_000, False, "no mov of literal 1000000 before the loop"),
            ("div", "u32", "-1000000", 1_000_000, False, "no mov of literal 1000000 before the loop"),
        ],
    )
    def test_loop_bound_of_hand_built_counts(self, opcode, type_, literal, iterations, passed, detail):
        kernel = generate_kernel(find_instruction(opcode, type_), KernelVariant.TOTAL)
        text = kernel.ptx_text
        if literal is not None:
            text = text.replace(f", {kernel.iterations};", f", {literal};")
        hand_built = dataclasses.replace(kernel, ptx_text=text, iterations=iterations)
        assert validate_kernel(hand_built).check("loop_bound") == CheckResult("loop_bound", passed, detail)


def _both_scans(text: str):
    """The one-regex scan and the per-line oracle on ``text``: each its three
    (mnemonic, operands, line number) lists, or its ParseFailure."""

    def regex_scan():
        scanned, sections = codegen._scan_kernel(text)
        return tuple(
            [(mn, operands, codegen._line_no(scanned, offset)) for mn, operands, offset in section]
            for section in sections
        )

    outcomes = []
    for scan in (regex_scan, lambda: scan_kernel_by_line(text.splitlines())):
        try:
            outcomes.append(scan())
        except ParseFailure as exc:
            outcomes.append(f"ParseFailure: {exc}")
    return outcomes


def _div_text(old: str, new: str) -> str:
    text = generate_kernel(DIV_U32, KernelVariant.TOTAL).ptx_text
    assert old in text
    return text.replace(old, new)


# every line break str.splitlines knows but \n
BREAKS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# whitespace to \s and str.strip alike, none of them a line break
SPACES = ["\x1f", "\xa0", "\u2003", "\u3000"]

HAND_TEXTS = {
    **{f"break {ch!r}": _div_text("\n", ch) for ch in BREAKS},
    "mixed breaks": _div_text("\n", "\r\n").replace("\r\n\r\n", "\n\x85", 1).replace("\r\n", "\u2028", 5),
    "carriage return inside a line": _div_text("\tret;", "\tret\r;"),
    **{f"space {ch!r}": _div_text("\t", ch) for ch in SPACES},
    "spaces around the branch": _div_text("\t@%p1 bra \tBB0_1;", "\xa0@%p1\u2003bra\x1fBB0_1\u3000;\xa0"),
    "non-ASCII label": _div_text("BB0_1", "BBé_1"),
    "non-ASCII digit in the guard": _div_text("@%p1", "@%p\u0661"),
    "non-ASCII comment": _div_text("// instrujoule", "// 5 µs/div — instrujoule"),
    "non-ASCII operand": _div_text("div.u32 \t%r7, %r6", "div.u32 \t%r7é, %r6"),
    "ret only in a comment": _div_text("\tret;", "\t// ret;"),
    "ret after a comment marker": _div_text("\tret;", "\tst.global.u32 \t[%rd2], %r1; // ret;"),
    "label only in a comment": _div_text("BB0_1:", "// BB0_1:"),
    "label in a comment before it": _div_text("BB0_1:", "// BB0_9:\nBB0_1:"),
    "entry only in a comment": _div_text(".visible .entry", ".visible // .entry"),
    "entry in a trailing comment": _div_text(".visible .entry bench_div_u32(", ".visible bench_div_u32( // .entry"),
    "second label after the loop": _div_text("\n\tst.global.u32 \t[%rd2], %r", "\nBB0_2:\n\tst.global.u32 \t[%rd2], %r"),
    "second label in the body": _div_text("\tld.global", "BB0_2:\n\tld.global"),
    "label with a dollar": _div_text("BB0_1", "$L__BB0_1"),
    "branch to another label": _div_text("\tld.global", "\t@%p1 bra \tBB0_9;\n\tld.global"),
    "branch only to another label": _div_text("bra \tBB0_1;", "bra \tBB0_9;"),
    "bra.uni back to the label": _div_text("\t@%p1 bra \tBB0_1;", "\tbra.uni \tBB0_1;"),
    "bra.uni and the branch back": _div_text("\t@%p1 bra", "\tbra.uni \tBB0_1;\n\t@%p1 bra"),
    "unguarded branch back": _div_text("\t@%p1 bra", "\tbra"),
    "branch with a second statement": _div_text("bra \tBB0_1;", "bra \tBB0_1; ;"),
    "branch back before the label": _div_text("BB0_1:", "\t@%p1 bra \tBB0_1;\nBB0_1:"),
    "second branch back": _div_text("\n\tst.global.u32 \t[%rd2], %r", "\n\t@%p1 bra \tBB0_1;\n\tst.global.u32 \t[%rd2], %r"),
    "ret only before the loop": _div_text("\tret;", "").replace("BB0_1:", "\tret;\nBB0_1:"),
    "ret only in the body": _div_text("\tret;", "").replace("\tld.global", "\tret;\n\tld.global"),
    "ret with a space": _div_text("\tret;", "\tret ;"),
    "ret with text after it": _div_text("\tret;", "\tret; exit"),
    "instruction without a space": _div_text("\tret;", "\tret;\n\tst.global.u32[%rd2];"),
    "no trailing newline": _div_text("}\n", "}"),
    "empty": "",
    "blank lines only": "\n \r\n\t\x85",
}


class TestScanOracle:
    """The one-regex scan against the per-line scan it replaced: the same
    instructions, line numbers and errors on every text."""

    def test_catalog_kernels(self):
        for spec in list_catalog():
            for variant in KernelVariant:
                for iters, unroll in ((1_000_000, 5), (1, 1), (7, 9)):
                    new, old = _both_scans(generate_kernel(spec, variant, iters, unroll).ptx_text)
                    assert new == old

    def test_edited_kernels(self):
        compared = 0
        for opcode, type_ in EDITED:
            for variant in KernelVariant:
                kernel = generate_kernel(find_instruction(opcode, type_), variant)
                for _, lines in _edits(kernel):
                    new, old = _both_scans("\n".join(lines) + "\n")
                    assert new == old
                    compared += 1
        assert compared == 1418

    @pytest.mark.parametrize("name", list(HAND_TEXTS))
    def test_hand_built_texts(self, name):
        new, old = _both_scans(HAND_TEXTS[name])
        assert new == old

    def test_hand_built_texts_reach_every_outcome(self):
        outcomes = [str(_both_scans(text)[1]) for text in HAND_TEXTS.values()]
        for message in (
            "no .entry directive found",
            "no loop label found",
            "no predicate-guarded branch back to",
            "no ret after the loop",
        ):
            assert any(outcome.startswith(f"ParseFailure: {message}") for outcome in outcomes)
        assert any(not outcome.startswith("ParseFailure") for outcome in outcomes)

    def test_random_splices(self):
        # pieces of kernel syntax, line breaks and spaces spliced in at random places
        pieces = BREAKS + SPACES + [
            "\n", " ", ";", ":", ",", "//", "@%p1 ", "bra ", "bra.uni ", "ret", ".entry",
            "BB0_1", "BB0_1:", "%r9", "é", "\u0661",
        ]
        rng = np.random.default_rng(5)
        base = generate_kernel(find_instruction("mad", "f32"), KernelVariant.TOTAL).ptx_text
        for _ in range(400):
            text = base
            for _ in range(int(rng.integers(1, 6))):
                at = int(rng.integers(len(text) + 1))
                text = text[:at] + pieces[int(rng.integers(len(pieces)))] + text[at:]
            new, old = _both_scans(text)
            assert new == old, repr(text)
