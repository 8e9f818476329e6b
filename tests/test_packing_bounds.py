"""The counting certificates of `exact_packing`: sound, exact where they
reduce a search to one check, and as strong as the published packing
numbers where those are known.

`_refutation` checks each bound on the balanced point degrees only.  It is
held to a reference that tries every multiset of point degrees, and its
Erdős–Gallai test to brute force over all small graphs.  Every sub-design
of a design that `exact_packing` returns passes every certificate.  The
certificates are checked before the greedy packing, so a refuted target
builds none.
"""

from collections import Counter
from itertools import combinations, product

from hypothesis import given, settings, strategies as st

from pircodes import designs
from pircodes.budget import Budget
from pircodes.designs import (
    _graphical,
    _refutation,
    exact_packing,
    packing_bound,
    packing_number_formula,
)

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def spencer_d3(v: int) -> int:
    """D(v,3,2), the triple packing number (Spencer 1968)."""
    j = v * ((v - 1) // 2) // 3
    return j - 1 if v % 6 == 5 else j


def test_bound_is_attained_and_one_more_is_refuted():
    for v in range(3, 16):
        for s in (3, 4, 5, 6):
            if s > v:
                continue
            b = packing_bound(v, s)
            found = exact_packing(v, s, b, budget=Budget(200_000))
            assert found.status == "found", (v, s, b)
            beyond = exact_packing(v, s, b + 1)
            assert (beyond.status, beyond.nodes) == ("impossible", 0), (v, s, b)
            assert beyond.certificate in ("counting", "block_pairs", "leave_graph")


def test_bound_matches_formula_for_4_blocks():
    beyond_formula = {17: 21, 19: 27}  # the only values still taken from the literature
    for v in range(4, 26):
        assert packing_bound(v, 4) == beyond_formula.get(v, packing_number_formula(v)), v


def test_bound_matches_spencer_for_triples():
    for v in range(3, 26):
        assert packing_bound(v, 3) == spencer_d3(v), v


def test_each_certificate_decides_at_zero_nodes_on_a_used_budget():
    cases = {(10, 4, 99): "counting", (8, 4, 3): "block_pairs", (9, 4, 4): "block_pairs",
             (10, 4, 6): "block_pairs", (11, 4, 7): "block_pairs", (13, 5, 4): "block_pairs",
             # ten points in 5 blocks, one in 4: a leave of degrees 2, 0, ..., 0
             (11, 3, 18): "leave_graph"}
    for (v, s, target), certificate in cases.items():
        budget = Budget(None, used=1_000)
        res = exact_packing(v, s, target, budget=budget)
        assert (res.status, res.nodes, res.certificate) == ("impossible", 0, certificate)
        assert budget.used == 1_000


def test_refuted_targets_build_no_greedy_packing(monkeypatch):
    """The impossible targets of the packing benchmark, and one past the
    bound for every v <= 15 and s <= 6, decide the same without
    `greedy_packing`."""
    cases = [(r, 4, packing_number_formula(r) + 1) for r in range(4, 11)]
    cases += [(11, 4, 7), (13, 5, 4)]
    cases += [(v, s, packing_bound(v, s) + 1) for v in range(3, 16) for s in (3, 4, 5, 6)
              if s <= v]
    before = {}
    for case in cases:
        res = exact_packing(*case)
        before[case] = (res.status, res.certificate, res.nodes)

    def refuse(v, blocksize):
        raise AssertionError(f"greedy packing built for ({v}, {blocksize})")

    monkeypatch.setattr(designs, "greedy_packing", refuse)
    for case in cases:
        res = exact_packing(*case)
        assert (res.status, res.certificate, res.nodes) == before[case], case
        assert res.status == "impossible", case


def point_degree_multisets(total: int, parts: int, cap: int):
    """Every nonincreasing tuple of `parts` integers in 0..cap summing to
    `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total), -1, -1):
        if first * parts < total:
            break
        for rest in point_degree_multisets(total - first, parts - 1, first):
            yield (first, *rest)


def reference_allows(v: int, s: int, b: int) -> bool:
    """Some multiset of point degrees r_p <= R with sum b*s meets the
    block-pair inequality and leaves a graphical degree sequence."""
    big_r = (v - 1) // (s - 1)
    return any(sum(r * (r - 1) // 2 for r in rs) <= b * (b - 1) // 2
               and _graphical([v - 1 - (s - 1) * r for r in reversed(rs)])
               for rs in point_degree_multisets(b * s, v, big_r))


def test_balanced_check_matches_every_multiset():
    for v in range(3, 16):
        for s in range(3, min(6, v) + 1):
            top = v * ((v - 1) // (s - 1)) // s
            for b in range(1, top + 2):
                assert (_refutation(v, s, b) is None) == reference_allows(v, s, b), (v, s, b)


def test_graphical_matches_brute_force():
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for chosen in product((0, 1), repeat=len(pairs)):
            deg = [0] * n
            for (p, q), bit in zip(pairs, chosen):
                deg[p] += bit
                deg[q] += bit
            seen.add(tuple(sorted(deg, reverse=True)))
        for seq in product(range(n), repeat=n):
            if list(seq) == sorted(seq, reverse=True):
                assert _graphical(list(seq)) == (seq in seen), seq


@st.composite
def found_designs(draw):
    s = draw(st.integers(3, 5))
    v = draw(st.integers(s, 13))
    target = draw(st.integers(1, packing_bound(v, s)))
    res = exact_packing(v, s, target, budget=Budget(200_000))
    assert res.status == "found", (v, s, target)
    keep = draw(st.lists(st.booleans(), min_size=target, max_size=target))
    blocks = [block for block, k in zip(res.design.blocks, keep) if k]
    return v, s, blocks or [res.design.blocks[0]]


@SETTINGS
@given(found_designs())
def test_sub_designs_pass_every_certificate(case):
    v, s, blocks = case
    b = len(blocks)
    assert _refutation(v, s, b) is None
    big_r = (v - 1) // (s - 1)
    through = Counter(p for block in blocks for p in block)
    r = [through[p] for p in range(1, v + 1)]
    assert sum(x * (x - 1) // 2 for x in r) <= b * (b - 1) // 2
    leave = Counter()
    covered = {pair for block in blocks for pair in combinations(block, 2)}
    for p, q in combinations(range(1, v + 1), 2):
        if (p, q) not in covered:
            leave[p] += 1
            leave[q] += 1
    c = v - 1 - (s - 1) * big_r
    degrees = [leave[p] for p in range(1, v + 1)]
    assert degrees == [c + (s - 1) * (big_r - x) for x in r]
    assert _graphical(sorted(degrees, reverse=True))
