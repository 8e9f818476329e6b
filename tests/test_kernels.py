"""Differential tests for the shared GF(2) and recovery kernels.

`gf2.gray_span` is the one span walk (`LinearCode.span`, linear
`min_distance`, `UnitSolution.all_solutions`), `gf2.xor_basis_add` the one
XOR basis (`BitMatrix.rank`, `recovery._linear_recovers`, the independence
test of `recovery._linear_minimal_masks`), and
`find_disjoint_family` is `serve_query` on the constant query.  Each is held
here to the code it replaced, kept only in these tests: Gauss-Jordan rank,
the inline Gray walks, the sorted-basis `min` reduction, the row-parity
syndrome loop and the dedicated disjoint-family backtracker.  That
backtracker reads the layered minimal-set lists of `brute_force`, built from
the definitions under the node rule of `serve_query`, and must agree with it
on status, sets and nodes at every budget; at an unlimited budget it must
also agree on status and sets when it reads the eager enumeration.  The two
minimal-recovery-set enumerators are held to the ones they replaced (in
`brute_force`): the per-node coset walk with a full basis reduction, and the
superset-scan subset enumerator with restriction tables.  The separating
supports of the explicit path are built once per encoder and bit; the
cached ones match a fresh build.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from pircodes.budget import Budget, ensure_budget
from pircodes.errors import UsageError
from pircodes.gf2 import BitMatrix, LinearCode, mask_to_positions, min_distance, solve_unit
from pircodes.hamming import build_hamming
from pircodes.recovery import (
    ExplicitEncoder,
    LinearEncoder,
    RecoveryFamily,
    _linear_recovers,
    _separating_supports,
    as_explicit,
    check_family,
    find_disjoint_family,
    minimal_recovery_sets,
    verify_pir,
)
from brute_force import (
    EagerSets,
    ReferenceLayers,
    reference_explicit_minimal_masks,
    reference_linear_minimal_masks,
)
from test_minimal_sets import full_rank_generators, reference_minimal_sets

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
K2 = BitMatrix.from_strings(["10110", "01101"])
HAMMING3 = BitMatrix.from_strings(["1110000", "1001100", "0101010", "1101001"])


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_rank(m):
    """Gauss-Jordan elimination on the rows."""
    work = list(m.rows)
    rank = 0
    for col in range(m.cols):
        bit = 1 << (m.cols - 1 - col)
        piv = next((i for i in range(rank, len(work)) if work[i] & bit), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for i in range(len(work)):
            if i != rank and work[i] & bit:
                work[i] ^= work[rank]
        rank += 1
    return rank


def reference_recovers(g, j, mask):
    """e_j against a reduced basis kept sorted by leading bit."""
    basis = []
    for p in range(1, g.cols + 1):
        if mask >> (g.cols - p) & 1:
            v = g.column(p)
            for b in basis:
                v = min(v, v ^ b)
            if v:
                basis.append(v)
                basis.sort(reverse=True)
    v = 1 << (g.nrows - j)
    for b in basis:
        v = min(v, v ^ b)
    return v == 0


def reference_walk(base, vectors):
    """The inline Gray walk: base, then one vector XORed in per step."""
    out = [base]
    x = base
    for m in range(1, 1 << len(vectors)):
        x ^= vectors[(m & -m).bit_length() - 1]
        out.append(x)
    return out


def reference_syndrome(h, value):
    """Parity of each parity-check row against the word."""
    out = 0
    for i, row in enumerate(h.parity_check.rows):
        out |= ((row & value).bit_count() & 1) << (h.r - 1 - i)
    return out


def reference_family(encoder, j, t, max_width=None, budget=None, lists=ReferenceLayers):
    """The dedicated disjoint-family backtracker, reading bit j's minimal
    sets from `lists`: the layered lists under the node rule of
    `serve_query`, or `EagerSets`, the whole enumeration up front.
    Returns (status, sets, nodes)."""
    budget = ensure_budget(budget)
    sets = lists(encoder, j, max_width, budget)
    masks = sets.masks
    chosen = []
    cut = False

    def backtrack(start, used):
        nonlocal cut
        if len(chosen) == t:
            return True
        idx = start
        while sets.has(idx, budget):
            m = masks[idx]
            idx += 1
            if m & used:
                continue
            if not budget.spend():
                cut = True
                return False
            chosen.append(idx - 1)
            if backtrack(idx, used | m):
                return True
            chosen.pop()
            if cut:
                return False
        cut = cut or not sets.complete
        return False

    n = encoder.n
    if backtrack(0, 0):
        found = [sorted(p for p in range(1, n + 1) if masks[i] >> (n - p) & 1)
                 for i in chosen]
        return "found", found, budget.used
    if not cut:
        return "impossible", None, budget.used
    return "unknown", None, budget.used


def _family(res):
    sets = None if res.family is None else [sorted(s) for s in res.family.sets]
    return res.status, sets, res.nodes


# ---------------------------------------------------------------------------
# One XOR basis
# ---------------------------------------------------------------------------


@SETTINGS
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.integers(0, (1 << n) - 1), min_size=1, max_size=7).map(
        lambda rows: BitMatrix(n, tuple(rows)))))
@example(BitMatrix(3, (0, 0, 0)))
@example(BitMatrix(5, (0b10110, 0b01101, 0b11011)))
def test_rank_matches_gauss_jordan(m):
    assert m.rank() == reference_rank(m)


@SETTINGS
@given(full_rank_generators(max_k=5, max_n=10), st.data())
def test_linear_recovers_matches_sorted_basis(g, data):
    j = data.draw(st.integers(1, g.nrows))
    for mask in data.draw(st.lists(st.integers(1, (1 << g.cols) - 1), min_size=1,
                                   max_size=20)):
        assert _linear_recovers(g, j, mask) == reference_recovers(g, j, mask)


# ---------------------------------------------------------------------------
# One span walk
# ---------------------------------------------------------------------------


@SETTINGS
@given(full_rank_generators(max_k=6, max_n=12))
@example(HAMMING3)
def test_span_and_min_distance_match_inline_walk(g):
    words = reference_walk(0, g.rows)
    code = LinearCode(g)
    assert code.span().values == tuple(sorted(set(words)))
    assert min_distance(code) == min(w.bit_count() for w in words[1:])


@SETTINGS
@given(full_rank_generators(max_k=5, max_n=12), st.data())
def test_all_solutions_matches_inline_walk(g, data):
    sol = solve_unit(g, data.draw(st.integers(1, g.nrows)))
    assert list(sol.all_solutions()) == reference_walk(sol.solution, sol.kernel)


def test_unsolvable_walk_is_empty():
    sol = solve_unit(BitMatrix.from_strings(["11", "11"]), 1)
    assert not sol.solvable and list(sol.all_solutions()) == []


def test_syndrome_matches_row_parity():
    for r in (2, 3, 4):
        h = build_hamming(r)
        for value in range(1 << h.n):
            assert h.syndrome(value) == reference_syndrome(h, value)


# ---------------------------------------------------------------------------
# One disjoint-set backtracker, one witness checker
# ---------------------------------------------------------------------------


@SETTINGS
@given(full_rank_generators(max_k=4, max_n=9))
@example(K2)
@example(HAMMING3)
def test_family_matches_reference_backtracker(g):
    encoders = [LinearEncoder(g)]
    if g.nrows <= 3:
        encoders.append(as_explicit(encoders[0]))
    for encoder in encoders:
        for j in range(1, g.nrows + 1):
            for t in range(1, 5):
                for w in (None, 1, 2, 3):
                    for limit in (None, 3, 10):
                        got = find_disjoint_family(encoder, j, t, w, Budget(limit))
                        assert _family(got) == reference_family(encoder, j, t, w,
                                                                Budget(limit))
                    unlimited = _family(find_disjoint_family(encoder, j, t, w))
                    eager = reference_family(encoder, j, t, w, lists=EagerSets)
                    assert unlimited[:2] == eager[:2]


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda k: st.integers(k + 1, 6).flatmap(
    lambda n: st.permutations(range(1 << n)).map(
        lambda p: ExplicitEncoder(k, n, tuple(p[:1 << k]))))))
def test_family_matches_reference_on_tables(encoder):
    for j in range(1, encoder.k + 1):
        for t in range(1, 4):
            for limit in (None, 3, 10):
                got = find_disjoint_family(encoder, j, t, None, Budget(limit))
                assert _family(got) == reference_family(encoder, j, t, None, Budget(limit))
            unlimited = _family(find_disjoint_family(encoder, j, t))
            assert unlimited[:2] == reference_family(encoder, j, t, lists=EagerSets)[:2]


def test_check_family_reports_the_failing_position_or_set(k2_encoder):
    with pytest.raises(UsageError, match="family for bit 1: position 1 used more"):
        check_family(k2_encoder, RecoveryFamily(1, (frozenset({1}), frozenset({1, 4}))))
    with pytest.raises(UsageError, match=r"family for bit 1: set \[5\] does not recover"):
        check_family(k2_encoder, RecoveryFamily(1, (frozenset({4}), frozenset({5}))))
    check_family(k2_encoder, RecoveryFamily(1, (frozenset({1}), frozenset({4}),
                                                frozenset({3, 5}))))


# ---------------------------------------------------------------------------
# Minimal recovery sets against the enumerators they replaced
# ---------------------------------------------------------------------------


def _against_reference(reference, encoder, j, w, limit, used):
    """Run `minimal_recovery_sets` and `reference` on equal budgets that
    arrive with `used` nodes spent; return both sides' (sets, nodes,
    complete, budget.used, budget.exhausted)."""
    sides = []
    for run in ("new", "reference"):
        budget = Budget(limit, used)
        if run == "new":
            res = minimal_recovery_sets(encoder, j, w, budget)
            sets, complete, nodes = res.sets, res.complete, res.nodes
        else:
            masks, complete = reference(encoder, j, encoder.n if w is None else w, budget)
            sets = tuple(frozenset(mask_to_positions(encoder.n, m)) for m in masks)
            nodes = budget.used - used
        sides.append((sets, nodes, complete, budget.used, budget.exhausted))
    return sides


@st.composite
def explicit_tables(draw, max_k=4, max_n=8):
    """Random one-to-one tables, sized like the `verify` benchmark corpus."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, max_n))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1 << k,
                          max_size=1 << k, unique=True))
    return ExplicitEncoder(k, n, tuple(words))


@SETTINGS
@given(explicit_tables())
@example(ExplicitEncoder(2, 3, (0b000, 0b011, 0b101, 0b110)))  # (3,4,2) even-weight
@example(ExplicitEncoder(1, 1, (1, 0)))
def test_explicit_matches_brute_force_at_every_width(encoder):
    for j in range(1, encoder.k + 1):
        reference = reference_minimal_sets(encoder, j)
        for w in [*range(1, encoder.n + 1), None]:
            res = minimal_recovery_sets(encoder, j, w)
            got = [tuple(sorted(s)) for s in res.sets]
            assert res.complete and got == [s for s in reference
                                            if w is None or len(s) <= w], (j, w)


@SETTINGS
@given(explicit_tables(), st.data())
def test_explicit_budget_cut_matches_superset_scan(encoder, data):
    j = data.draw(st.integers(1, encoder.k))
    w = data.draw(st.sampled_from([None, *range(1, encoder.n + 1)]))
    full = _against_reference(reference_explicit_minimal_masks, encoder, j, w, None, 0)
    assert full[0] == full[1]
    used = data.draw(st.integers(0, 3))
    room = data.draw(st.integers(-2, full[1][1] + 1))  # below 0: arrives overspent
    limit = max(0, used + room)
    new, ref = _against_reference(reference_explicit_minimal_masks, encoder, j, w,
                                  limit, used)
    assert new == ref, (limit, used)


@SETTINGS
@given(explicit_tables(), st.sampled_from([None, 1, 2]))
def test_separating_supports_cached_per_encoder_and_bit(encoder, w):
    def fresh():
        return ExplicitEncoder(encoder.k, encoder.n, encoder.codewords)

    for j in range(1, encoder.k + 1):
        supports = _separating_supports(encoder, j)
        assert _separating_supports(encoder, j) is supports
        assert supports == _separating_supports(fresh(), j)
    for t in (1, 2, 3):
        cached, built = verify_pir(encoder, t, w), verify_pir(fresh(), t, w)
        assert (cached.verdict, cached.complete, cached.nodes, cached.witnesses) == (
            built.verdict, built.complete, built.nodes, built.witnesses)


@SETTINGS
@given(full_rank_generators(max_k=5, max_n=11))
@example(K2)
@example(HAMMING3)
@example(BitMatrix.from_strings(["1000", "0100"]))  # zero columns
def test_linear_budget_contract_matches_per_node_walk(g):
    encoder = LinearEncoder(g)
    coset = 1 << (g.cols - g.nrows)
    limits = [None, 0, 1, coset - 1, coset, coset + 1]
    for j in range(1, encoder.k + 1):
        for w in (None, 1, 2):
            for limit in limits:
                # fresh, arriving partly used, arriving overspent
                for used in {0, 1 if limit is None else limit // 2,
                             3 if limit is None else limit + 2}:
                    new, ref = _against_reference(reference_linear_minimal_masks,
                                                  encoder, j, w, limit, used)
                    assert new == ref, (j, w, limit, used)
