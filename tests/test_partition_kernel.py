"""Differential tests: the partition-only triple/component kernel against a
reference that scans every disjoint triple of position sets, the memoised
per-partition scan against a memo-free reference, and the Hamming scan's
subspace test against the components it replaces.

The references live only here.  They enumerate all unordered triples of
pairwise disjoint nonempty position sets, find components by pairwise
agreement, and list balanced unions by brute force, so they share no code
with `pircodes.search` beyond the public `Code` type.
"""

import random
from itertools import combinations, product

from hypothesis import example, given, settings, strategies as st

from pircodes.budget import Budget
from pircodes.gf2 import BitMatrix, Code, LinearCode, mask_to_positions, xor_basis_add
from pircodes.hamming import (
    _agreement_rank,
    _disjoint_triple_count,
    build_hamming,
    check_no_3pir_any_encoder,
)
from pircodes.search import (
    _agreement_components,
    _iter_partitions,
    _mask_indices,
    _scan_partitions,
    encoder_exists_3pir,
    recoverable_functions,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def all_disjoint_triples(n):
    """Every unordered triple of disjoint nonempty subsets of 1..n, as
    position-set triples, via labellings in {0,1,2,3}^n (0 = unused) whose
    labels 1, 2, 3 first appear in that order."""
    for labels in product(range(4), repeat=n):
        order = [lab for i, lab in enumerate(labels) if lab and lab not in labels[:i]]
        if order == [1, 2, 3]:
            yield tuple(
                frozenset(p + 1 for p, lab in enumerate(labels) if lab == b) for b in (1, 2, 3)
            )


def reference_components(values, n, triple):
    """Components, as frozensets of codeword values, of "agree on some set"."""
    masks = [sum(1 << (n - p) for p in s) for s in triple]
    comps = []
    unseen = set(values)
    while unseen:
        stack = [unseen.pop()]
        comp = set(stack)
        while stack:
            v = stack.pop()
            for u in list(unseen):
                if any((u ^ v) & mk == 0 for mk in masks):
                    unseen.discard(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(frozenset(comp))
    return comps


def reference_unions(comps, half):
    """All unions of components with `half` codewords (brute force)."""
    out = []
    for r in range(len(comps) + 1):
        for pick in combinations(comps, r):
            side = frozenset().union(*pick)
            if len(side) == half:
                out.append(side)
    return out


def half_reachable(comps, half):
    sums = {0}
    for c in comps:
        sums |= {s + len(c) for s in sums}
    return half in sums


def reference_scan(code, max_components):
    """(colorings, truncated) over all disjoint triples; each coloring is the
    side of a balanced split that excludes the smallest codeword."""
    values = code.values
    half = len(values) // 2
    colorings = set()
    truncated = False
    for triple in all_disjoint_triples(code.n):
        comps = reference_components(values, code.n, triple)
        if not half_reachable(comps, half):
            continue
        if len(comps) > max_components:
            truncated = True
            continue
        for side in reference_unions(comps, half):
            colorings.add(frozenset(values) - side if values[0] in side else side)
    return colorings, truncated


@st.composite
def small_codes(draw):
    n = draw(st.integers(3, 6))
    k = draw(st.integers(1, min(4, n)))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << k,
                          max_size=1 << k, unique=True))
    return Code.from_values(n, words)


@SETTINGS
@given(code=small_codes(), max_components=st.integers(1, 6))
@example(code=Code.from_strings(["000", "111"]), max_components=1)  # truncated
@example(code=Code.from_strings(["000001", "010110", "101011", "111100"]),
         max_components=3)  # truncated, with colorings on other triples
def test_partitions_match_all_triples(code, max_components):
    ref_colorings, ref_truncated = reference_scan(code, max_components)
    colorings = set()
    truncated = False
    for rec in recoverable_functions(code, max_components=max_components):
        colorings |= {frozenset(c) for c in rec.colorings}
        truncated |= rec.truncated
    assert truncated == ref_truncated
    # Every partition is itself a triple, so its colorings are always found
    # by the reference; without truncation nothing is missing either.
    assert colorings <= ref_colorings
    if not truncated:
        assert colorings == ref_colorings
        res = encoder_exists_3pir(code, max_components=max_components)
        assert res.candidates == len(ref_colorings)
        assert res.status != "unknown"


def reference_partition(values, n, masks, max_components):
    """(components, colorings, truncated) of one partition, as the kernel
    reports them but computed afresh: components as index bitmasks ordered
    by lowest index, colorings as the sorted index bitmasks of the balanced
    unions that leave out index 0."""
    index = {v: i for i, v in enumerate(values)}

    def to_mask(side):
        return sum(1 << index[v] for v in side)

    blocks = [frozenset(p for p in range(1, n + 1) if mk >> (n - p) & 1) for mk in masks]
    comps = reference_components(values, n, blocks)
    comp_masks = sorted((to_mask(c) for c in comps), key=lambda c: c & -c)
    half = len(values) // 2
    if not half_reachable(comps, half):
        return comp_masks, [], False
    if len(comps) > max_components:
        return comp_masks, [], True
    full = (1 << len(values)) - 1
    colorings = {to_mask(side) for side in reference_unions(comps, half)}
    return comp_masks, sorted({c ^ full if c & 1 else c for c in colorings}), False


@SETTINGS
@given(code=small_codes(), max_components=st.integers(1, 6))
@example(code=build_hamming(3).code(), max_components=20)  # n = 7, 301 partitions
@example(code=Code.from_strings(["000001", "010110", "101011", "111100"]),
         max_components=3)
def test_memoised_scan_matches_memo_free_reference(code, max_components):
    scanned = list(_scan_partitions(code, Budget(None), max_components))
    assert [masks for masks, *_ in scanned] == list(_iter_partitions(code.n))
    for masks, comps, colorings, truncated in scanned:
        assert (comps, colorings, truncated) == reference_partition(
            code.values, code.n, masks, max_components)


def reference_hamming(r):
    """(verdict, max_components) of the full-triple Hamming scan."""
    code = build_hamming(r).code()
    values = code.values
    all_one = (1 << code.n) - 1
    half = len(values) // 2
    failing = 0
    max_components = 0
    for triple in all_disjoint_triples(code.n):
        comps = reference_components(values, code.n, triple)
        max_components = max(max_components, len(comps))
        if any({v ^ all_one for v in side} != side
               for side in reference_unions(comps, half)):
            failing += 1
    if failing == 0:
        return "no_encoder", max_components
    return ("encoder_exists" if r == 2 else "inconclusive"), max_components


def test_hamming_scan_matches_all_triples():
    for r in (2, 3):
        report = check_no_3pir_any_encoder(r)
        assert (report.verdict, report.max_components) == reference_hamming(r)


def test_hamming_scan_pinned():
    # Pinned from the scan before agreement classes were memoised.
    for r, expected in ((2, ("encoder_exists", 1, 2)), (3, ("no_encoder", 301, 2))):
        report = check_no_3pir_any_encoder(r)
        assert (report.verdict, report.partitions_scanned, report.max_components) == expected


@st.composite
def codes_with_all_one(draw):
    """(n, rows): independent generator rows, one of them the all-one word,
    of a linear code of length n <= 7 and dimension <= 4."""
    n = draw(st.integers(3, 7))
    all_one = (1 << n) - 1
    basis = {}
    xor_basis_add(basis, all_one)
    rows = [v for v in draw(st.lists(st.integers(1, all_one), max_size=3))
            if xor_basis_add(basis, v)]
    rows.insert(draw(st.integers(0, len(rows))), all_one)
    return n, rows


@SETTINGS
@given(code=codes_with_all_one())
@example(code=(7, list(build_hamming(3).generator.rows)))
@example(code=(3, [0b111]))  # the r = 2 Hamming code: every partition fails
def test_subspace_test_matches_reference_components(code):
    n, rows = code
    values = LinearCode(BitMatrix(n, tuple(rows))).span().values
    all_one = (1 << n) - 1
    half = len(values) // 2
    memo = {}
    for masks in _iter_partitions(n):
        dim, fails = _agreement_rank(rows, n, masks, memo)
        comps = reference_components(
            values, n, [frozenset(mask_to_positions(n, mk)) for mk in masks])
        ref_fails = any({v ^ all_one for v in side} != side
                        for side in reference_unions(comps, half))
        assert (fails, 1 << (len(rows) - dim)) == (ref_fails, len(comps)), masks


def test_hamming_r4_sample_components_are_cosets():
    # A seeded sample of order-4 partitions, block sizes drawn uniformly: the
    # generic component finder must see 2^(11 - dim W) components, all fixed
    # by complementation exactly when the subspace test passes.
    ham = build_hamming(4)
    rows, n = ham.generator.rows, ham.n
    values = ham.code().values
    index = {v: i for i, v in enumerate(values)}
    complement = [index[v ^ ((1 << n) - 1)] for v in values]
    rng = random.Random(4)
    memo, classes = {}, {}
    for _ in range(1500):
        positions = rng.sample(range(1, n + 1), n)
        i, j = sorted(rng.sample(range(1, n), 2))
        masks = tuple(sum(1 << (n - p) for p in block)
                      for block in (positions[:i], positions[i:j], positions[j:]))
        dim, fails = _agreement_rank(rows, n, masks, memo)
        comps = _agreement_components(values, masks, classes)
        assert len(comps) == 1 << (ham.k - dim)
        fixed = all(sum(1 << complement[q] for q in _mask_indices(c)) == c for c in comps)
        assert fixed == (not fails)


def test_triple_count_closed_form():
    for n in range(3, 8):
        assert sum(1 for _ in all_disjoint_triples(n)) == _disjoint_triple_count(n)


def test_partitions_are_the_set_partitions_into_three_blocks():
    for n in range(3, 9):
        parts = list(_iter_partitions(n))
        assert len(parts) == (3**n - 3 * 2**n + 3) // 6  # S(n,3)
        assert len(set(parts)) == len(parts)
        for a, b, c in parts:
            assert a and b and c and not (a & b or a & c or b & c)
            assert a | b | c == (1 << n) - 1
            # blocks ordered by smallest position: position 1 is the top bit
            assert a.bit_length() > b.bit_length() > c.bit_length()
