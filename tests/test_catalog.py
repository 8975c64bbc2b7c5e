"""Catalog coverage and consistency."""

import pytest

from instrujoule import (
    CATEGORY_ORDER,
    Category,
    InstructionSpec,
    OperandType,
    UnsupportedInstruction,
    catalog_rows,
    find_instruction,
    in_catalog,
    list_catalog,
)


class TestCoverage:
    def test_all_eight_categories_present(self):
        categories = {spec.category for spec in list_catalog()}
        assert categories == set(Category)
        assert len(CATEGORY_ORDER) == 8

    def test_unsigned_div_present(self):
        spec = find_instruction("div", "u32")
        assert spec.category == Category.INTEGER_ARITHMETIC
        assert spec.operand_type == OperandType.U32
        assert spec.signedness == "{u}"
        assert spec.display_name == "{u} div"

    def test_rsqrt_present(self):
        spec = find_instruction("rsqrt", "f32")
        assert spec.category == Category.SPECIAL_MATH
        assert spec.operand_type == OperandType.F32

    def test_signed_and_unsigned_div_distinct(self):
        assert find_instruction("div", "s32") != find_instruction("div", "u32")

    def test_half_precision_entries_carry_no_gpu_flags(self):
        # device applicability (e.g. f16 predating Maxwell support) belongs
        # to the results table, never to the instruction itself
        halves = [s for s in list_catalog() if s.operand_type == OperandType.F16]
        assert halves
        flagged = {"generation", "maxwell", "gpu", "supported", "arch"}
        for spec in halves:
            fields = {f.lower() for f in spec.__dataclass_fields__}
            assert not (fields & flagged)

    def test_every_row_has_specs(self):
        rows = catalog_rows()
        assert len(rows) == 32
        by_row = {(s.category, s.table_row) for s in list_catalog()}
        assert by_row == set(rows)


class TestOrdering:
    def test_stable_across_calls(self):
        assert list_catalog() == list_catalog()

    def test_category_blocks_in_report_order(self):
        seen = []
        for spec in list_catalog():
            if not seen or seen[-1] != spec.category:
                seen.append(spec.category)
        assert seen == list(CATEGORY_ORDER)


class TestSpecValidation:
    def test_category_type_consistency_enforced(self):
        with pytest.raises(ValueError):
            InstructionSpec(
                opcode="add",
                operand_type=OperandType.F32,
                category=Category.HALF,
                arity=2,
                table_row="x",
            )

    @pytest.mark.parametrize("arity", [0, 4])
    def test_unsupported_arity(self, arity):
        bound = ">= 1" if arity < 1 else "<= 3"
        with pytest.raises(ValueError, match=f"^arity must be {bound}, got {arity}$"):
            InstructionSpec(
                opcode="add",
                operand_type=OperandType.U32,
                category=Category.INTEGER_ARITHMETIC,
                arity=arity,
                table_row="x",
            )

    def test_half_implies_f16(self):
        for spec in list_catalog():
            if spec.category == Category.HALF:
                assert spec.operand_type == OperandType.F16

    def test_unknown_lookup_raises(self):
        with pytest.raises(UnsupportedInstruction):
            find_instruction("frobnicate", "u32")

    def test_lookup_by_operand_type_member(self):
        assert find_instruction("div", OperandType.U32) is find_instruction("div", "u32")
        with pytest.raises(UnsupportedInstruction, match="^frobnicate.f64 is not in the benchmark catalog$"):
            find_instruction("frobnicate", OperandType.F64)

    def test_in_catalog_checks_full_equality(self):
        spec = find_instruction("add", "u32")
        assert in_catalog(spec)
        tweaked = InstructionSpec(
            opcode="add",
            operand_type=OperandType.U32,
            category=Category.INTEGER_ARITHMETIC,
            arity=3,  # wrong arity
            table_row=spec.table_row,
        )
        assert not in_catalog(tweaked)
