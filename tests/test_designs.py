import pytest

from pircodes.budget import Budget
from pircodes.errors import FileFormatError, UsageError
from pircodes.designs import (
    PackingDesign,
    all_pairs_design,
    dump_packing,
    exact_packing,
    greedy_packing,
    is_packing,
    packing_number_formula,
    parse_packing,
)

# Hand-audited values of the packing number for 4-blocks, r = 4..20: the
# closed form, minus one at r = 7, 10 mod 12, with the six sporadic drops.
PACKING_NUMBERS = {
    4: 1, 5: 1, 6: 1, 7: 2, 8: 2, 9: 3, 10: 5, 11: 6, 12: 9, 13: 13,
    14: 14, 15: 15, 16: 20, 17: 20, 18: 22, 19: 25, 20: 30,
}


class TestFormula:
    @pytest.mark.parametrize("r,expected", sorted(PACKING_NUMBERS.items()))
    def test_hand_audited_table(self, r, expected):
        assert packing_number_formula(r) == expected

    def test_example_values(self):
        assert packing_number_formula(12) == 9
        assert packing_number_formula(15) == 15
        assert packing_number_formula(16) == 20
        assert packing_number_formula(8) == 2  # U=4, one of the sporadic drops

    def test_rejects_small_r(self):
        with pytest.raises(UsageError):
            packing_number_formula(3)


class TestIsPacking:
    def test_all_pairs(self):
        d = PackingDesign(3, 2, 2, 1, ((1, 2), (1, 3), (2, 3)))
        ok, violator = is_packing(d)
        assert ok and violator is None

    def test_shared_pair_detected(self):
        d = PackingDesign(4, 3, 2, 1, ((1, 2, 3), (1, 2, 4)))
        ok, violator = is_packing(d)
        assert not ok and violator == (1, 2)

    def test_fano_plane(self):
        fano = ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
                (3, 4, 7), (3, 5, 6))
        ok, _ = is_packing(PackingDesign(7, 3, 2, 1, fano))
        assert ok

    def test_malformed_blocks_rejected(self):
        with pytest.raises(UsageError):
            is_packing(PackingDesign(4, 3, 2, 1, ((1, 2),)))
        with pytest.raises(UsageError):
            is_packing(PackingDesign(4, 3, 2, 1, ((1, 2, 9),)))
        with pytest.raises(UsageError):
            is_packing(PackingDesign(4, 3, 2, 1, ((3, 2, 1),)))


class TestGreedy:
    def test_v7_blocksize4(self):
        d = greedy_packing(7, 4)
        assert d.blocks == ((1, 2, 3, 4), (1, 5, 6, 7))

    def test_all_pairs_when_blocksize_two(self):
        for v in (3, 5, 8):
            d = greedy_packing(v, 2)
            assert d.num_blocks == v * (v - 1) // 2

    def test_outputs_are_packings(self):
        for v, b in ((6, 3), (9, 3), (10, 4), (13, 4)):
            ok, _ = is_packing(greedy_packing(v, b))
            assert ok

    def test_all_pairs_design_is_lexicographic(self):
        d = all_pairs_design(4)
        assert d.blocks == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


class TestExactPacking:
    def test_steiner_13(self):
        res = exact_packing(13, 4, 13)
        assert res.status == "found"
        ok, _ = is_packing(res.design)
        assert ok and res.design.num_blocks == 13

    def test_v8_target3_impossible(self):
        res = exact_packing(8, 4, 3)
        assert res.status == "impossible"

    def test_v12_target9_found(self, packing_12_4):
        ok, _ = is_packing(packing_12_4)
        assert ok and packing_12_4.num_blocks == 9

    @pytest.mark.parametrize("r", range(4, 11))
    def test_formula_value_found_and_next_impossible(self, r):
        target = packing_number_formula(r)
        found = exact_packing(r, 4, target)
        assert found.status == "found"
        ok, _ = is_packing(found.design)
        assert ok
        beyond = exact_packing(r, 4, target + 1)
        assert beyond.status == "impossible"

    def test_budget_yields_unknown(self):
        # the clique search needs 65 nodes to find this design; 50 cannot
        res = exact_packing(15, 4, 15, budget=Budget(50))
        assert res.status == "unknown"

    def test_first_block_is_pinned(self):
        res = exact_packing(9, 4, 3)
        assert res.status == "found"
        assert res.design.blocks[0] == (1, 2, 3, 4)


class TestPackingFiles:
    def test_round_trip(self, packing_12_4):
        text = dump_packing(packing_12_4)
        again = parse_packing(text)
        assert again.blocks == packing_12_4.blocks
        assert (again.v, again.blocksize, again.lam) == (12, 4, 1)

    def test_header_required(self):
        with pytest.raises(FileFormatError):
            parse_packing("1 2\n")
        with pytest.raises(FileFormatError):
            parse_packing("")
