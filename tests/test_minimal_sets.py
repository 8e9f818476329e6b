"""Differential tests for minimal recovery sets of linear encoders.

`minimal_recovery_sets` keeps a coset support exactly when its columns are
linearly independent.  These tests hold it to a brute-force reference that
lives only here (every subset tested with `is_recovery_set`, kept when no
one-point removal still recovers), to the explicit-encoder path, and to
results pinned for two small codes.
"""

from hypothesis import example, given, settings, strategies as st

from pircodes.budget import Budget
from pircodes.gf2 import BitMatrix
from pircodes.recovery import (
    LinearEncoder,
    as_explicit,
    is_recovery_set,
    minimal_recovery_sets,
    verify_pir,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def full_rank_generators(draw, max_k=5, max_n=12):
    """A.[I_k | P] with its columns permuted: every full-rank k x n matrix
    has this form (A invertible, here a product of row additions)."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, max_n))
    rows = [(1 << (n - 1 - i)) | draw(st.integers(0, (1 << (n - k)) - 1)) for i in range(k)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                              max_size=2 * k)):
        if i != j:
            rows[i] ^= rows[j]
    perm = draw(st.permutations(range(n)))
    rows = [sum((r >> (n - 1 - perm[c]) & 1) << (n - 1 - c) for c in range(n)) for r in rows]
    return BitMatrix(n, tuple(rows))


def reference_minimal_sets(encoder, j):
    """All inclusion-minimal recovery sets for bit j, sorted by (size,
    positions).  Recovery sets are closed under supersets, so a recovery set
    is minimal when no one-point removal of it still recovers."""
    n = encoder.n
    recovers = {
        mask: is_recovery_set(encoder, j, _positions(n, mask))
        for mask in range(1, 1 << n)
    }
    minimal = [
        _positions(n, mask)
        for mask, ok in recovers.items()
        if ok and not any(recovers.get(mask ^ (1 << b)) for b in range(n) if mask >> b & 1)
    ]
    return sorted(minimal, key=lambda s: (len(s), s))


def _positions(n, mask):
    return tuple(p for p in range(1, n + 1) if mask >> (n - p) & 1)


def _listed(res):
    return [tuple(sorted(s)) for s in res.sets]


K2 = ["10110", "01101"]
HAMMING3 = ["1110000", "1001100", "0101010", "1101001"]
# (sets, nodes) per data bit with max_width=None, as the enumeration that
# sorted every coset support and dropped supersets returned them; narrower
# widths keep the sets that fit.
PINNED = {
    tuple(K2): {
        1: ([(1,), (4,), (2, 3), (3, 5)], 8),
        2: ([(2,), (5,), (1, 3), (3, 4)], 8),
    },
    tuple(HAMMING3): {
        1: ([(3,), (1, 4, 6), (1, 5, 7), (2, 4, 5), (2, 6, 7)], 8),
        2: ([(5,), (1, 2, 6), (1, 3, 7), (2, 3, 4), (4, 6, 7)], 8),
        3: ([(6,), (1, 2, 5), (1, 3, 4), (2, 3, 7), (4, 5, 7)], 8),
        4: ([(7,), (1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)], 8),
    },
}


def test_pinned_codes(hamming3):
    assert hamming3.generator.row_strings() == HAMMING3
    for rows, per_bit in PINNED.items():
        encoder = LinearEncoder(BitMatrix.from_strings(rows))
        for j, (sets, nodes) in per_bit.items():
            for w in [*range(1, encoder.n + 1), None]:
                res = minimal_recovery_sets(encoder, j, w)
                fits = [s for s in sets if w is None or len(s) <= w]
                assert (_listed(res), res.nodes, res.complete) == (fits, nodes, True), (rows, j, w)


@SETTINGS
@given(full_rank_generators())
@example(BitMatrix.from_strings(K2))
@example(BitMatrix.from_strings(["1000", "0100"]))  # zero columns
@example(BitMatrix.from_strings(["110011", "011110"]))  # repeated columns
def test_linear_matches_reference_and_explicit(g):
    linear = LinearEncoder(g)
    explicit = as_explicit(linear)
    coset = 1 << (g.cols - g.nrows)
    for j in range(1, linear.k + 1):
        reference = reference_minimal_sets(linear, j)
        for w in [*range(1, linear.n + 1), None]:
            res = minimal_recovery_sets(linear, j, w)
            assert res.complete and res.nodes == coset, (j, w)
            assert _listed(res) == [s for s in reference if w is None or len(s) <= w], (j, w)
            assert res.sets == minimal_recovery_sets(explicit, j, w).sets, (j, w)
    for t in (1, 2, 3):
        lin, exp = verify_pir(linear, t), verify_pir(explicit, t)
        assert (lin.verdict, lin.complete) == (exp.verdict, exp.complete), t


@SETTINGS
@given(full_rank_generators(), st.integers(0, 2**16), st.integers(0, 2**16))
# cut after five coset elements of bit 2: a walk that filtered only the
# supports it reached would keep (1, 4, 5), a superset of the unreached {5}
@example(BitMatrix.from_strings(K2), 1, 5)
def test_cut_walk_keeps_only_minimal_sets(g, j_draw, limit_draw):
    linear = LinearEncoder(g)
    coset = 1 << (g.cols - g.nrows)
    if coset == 1:
        return  # a one-node walk cannot be cut once it starts
    j = 1 + j_draw % linear.k
    limit = limit_draw % coset
    budget = Budget(limit)
    res = minimal_recovery_sets(linear, j, budget=budget)
    for s in res.sets:
        assert is_recovery_set(linear, j, s)
        if len(s) > 1:
            assert not any(is_recovery_set(linear, j, s - {p}) for p in s)
    assert not res.complete and res.nodes == budget.used == limit
    # each kept set is one of the complete run's, in the same order
    rest = iter(minimal_recovery_sets(linear, j).sets)
    assert all(s in rest for s in res.sets)
