"""exact_packing against a brute-force maximum pair packing, and the
contract of its results: sorted designs that start with the pinned block,
and "impossible" only after a complete search."""

from itertools import combinations

import pytest

from pircodes.budget import Budget
from pircodes.constructions import auto_packing
from pircodes.designs import PackingDesign, exact_packing, greedy_packing, is_packing


def brute_max_packing(v: int, b: int) -> int:
    """Size of the largest pair packing of b-blocks on v points: every
    packing is grown block by block in lexicographic order, no pruning."""
    blocks = list(combinations(range(1, v + 1), b))
    pairs = [set(combinations(block, 2)) for block in blocks]
    best = 0

    def grow(start: int, covered: frozenset, size: int) -> None:
        nonlocal best
        best = max(best, size)
        for i in range(start, len(blocks)):
            if not pairs[i] & covered:
                grow(i + 1, covered | pairs[i], size + 1)

    grow(0, frozenset(), 0)
    return best


def assert_packing_contract(design: PackingDesign, v: int, b: int, target: int) -> None:
    ok, _ = is_packing(design)
    assert ok and design.num_blocks == target
    assert (design.v, design.blocksize) == (v, b)
    assert list(design.blocks) == sorted(design.blocks)
    assert design.blocks[0] == tuple(range(1, b + 1))


@pytest.mark.parametrize("v,b", [(v, b) for v in range(3, 9) for b in (3, 4, 5) if b <= v])
def test_found_exactly_up_to_brute_force_maximum(v, b):
    best = brute_max_packing(v, b)
    for target in range(1, best + 2):
        res = exact_packing(v, b, target)
        assert res.status == ("found" if target <= best else "impossible"), target
        if res.status == "found":
            assert_packing_contract(res.design, v, b, target)


@pytest.mark.parametrize("v,b,target", [(8, 3, 8), (10, 4, 5), (12, 3, 19), (14, 4, 14)])
def test_searched_designs_meet_contract(v, b, target):
    assert greedy_packing(v, b).num_blocks < target  # not the greedy shortcut
    res = exact_packing(v, b, target)
    assert res.status == "found"
    assert_packing_contract(res.design, v, b, target)


def test_cut_search_of_impossible_instance_is_unknown():
    # (17,4,21) is impossible, but no certificate refutes it: only a
    # complete search may say so, and 100 nodes are not one
    assert exact_packing(17, 4, 21, budget=Budget(100)).status == "unknown"
    # a certificate needs no nodes, so a budget cannot cut it
    res = exact_packing(11, 4, 7, budget=Budget(100))
    assert (res.status, res.nodes) == ("impossible", 0)


def test_auto_packing_fewest_points_under_budget():
    # (12,3,20) is settled within the budget, so 12 points suffice
    design = auto_packing(20, 4, budget=200_000)
    assert design.v == 12
    assert_packing_contract(design, 12, 3, 20)
