"""Differential tests for serving from minimal recovery sets built lazily.

`serve_query` reads each requested bit's minimal sets from a list that is
built only when the backtracker reads past it, one size layer at a time.
These tests hold it to the eager server it replaced (`brute_force`): at an
unlimited budget `verify_pir`, `verify_batch` and `find_disjoint_family`
give the same verdicts, witnesses and failures, and place the same sets.
Each linear lookup layer is the size-s slice of `minimal_recovery_sets`,
and a list read to its end costs at most twice the coset walk.  Each
explicit layer is the size-s slice too, at the nodes the enumerator spends
on size s, so a list read to its end costs what the enumerator does.  The
backtracker tests a set against one mask of the positions used mu times;
it must place the same sets at the same nodes as the reference backtracker,
which counts the uses of every position.  Under cut budgets a served plan
still passes the witness check, and "unservable" never follows a cut.
"""

from itertools import combinations_with_replacement
from math import comb

from hypothesis import example, given, settings, strategies as st

from pircodes.budget import Budget
from pircodes.gf2 import BitMatrix
from pircodes.recovery import (
    ExplicitEncoder,
    LinearEncoder,
    Query,
    _check_witness_sets,
    _LazySets,
    _minimal_masks,
    as_explicit,
    find_disjoint_family,
    is_recovery_set,
    serve_query,
    verify_batch,
    verify_pir,
)
from brute_force import (
    ReferenceLayers,
    reference_explicit_minimal_masks,
    reference_serve_query,
    reference_verify,
)
from test_kernels import explicit_tables
from test_minimal_sets import full_rank_generators

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
K2 = BitMatrix.from_strings(["10110", "01101"])
ZERO_COLUMNS = BitMatrix.from_strings(["1000", "0100"])
REPEATED_COLUMNS = BitMatrix.from_strings(["110011", "011110"])

encoders = st.one_of(full_rank_generators(max_k=4, max_n=9).map(LinearEncoder),
                     explicit_tables(max_k=3, max_n=6))


def _report(rep):
    return rep.verdict, rep.complete, rep.witnesses, rep.failure, rep.backtrack_nodes


@SETTINGS
@given(encoders)
@example(LinearEncoder(K2))
@example(LinearEncoder(ZERO_COLUMNS))
@example(LinearEncoder(REPEATED_COLUMNS))
def test_unlimited_budget_matches_eager_server(encoder):
    for t in range(1, 5):
        for w in (None, 1, 2, 3):
            for mu in (1, 2):
                rep = verify_pir(encoder, t, w, mu)
                assert rep.nodes == rep.set_nodes + rep.backtrack_nodes
                assert _report(rep) == reference_verify(encoder, "pir", t, w, mu), (t, w, mu)
            for j in range(1, encoder.k + 1):
                fam = find_disjoint_family(encoder, j, t, w)
                status, plan, _, _ = reference_serve_query(encoder, (j,) * t, w)
                sets = None if fam.family is None else [sorted(s) for s in fam.family.sets]
                assert (fam.status, sets) == (
                    {"served": "found", "unservable": "impossible"}[status], plan)
        rep = verify_batch(encoder, t)
        assert rep.nodes == rep.set_nodes + rep.backtrack_nodes
        assert _report(rep) == reference_verify(encoder, "batch", t), t


@SETTINGS
@given(full_rank_generators(max_k=5, max_n=11), st.sampled_from([None, 1, 2, 3]))
@example(K2, None)
@example(ZERO_COLUMNS, None)
@example(REPEATED_COLUMNS, 2)
def test_linear_layers_are_slices_of_the_walk(g, w):
    encoder = LinearEncoder(g)
    n, k = g.cols, g.nrows
    coset = 1 << (n - k)
    for j in range(1, k + 1):
        full, _ = _minimal_masks(encoder, j, w, Budget(None))
        sets = _LazySets(encoder, j, w)
        budget = Budget(None)
        while sets.size < sets.width:
            size, built, used = sets.size, len(sets.masks), budget.used
            walk = sets.lookup_nodes + comb(n, size) > coset
            sets._grow_linear(budget)  # one layer, as `has` builds them
            layer = sets.masks[built:]
            if walk:
                assert layer == [m for m in full if m.bit_count() > size]
                assert budget.used - used == coset and sets.size == sets.width
                break
            assert sets.size == size + 1 and budget.used - used == comb(n, size)
            assert layer == [m for m in full if m.bit_count() == size + 1], (j, size + 1)
        assert sets.complete and sets.masks == full
        assert not sets.has(len(full), budget)
        assert budget.used <= 2 * coset


@SETTINGS
@given(explicit_tables(max_k=3, max_n=7), st.sampled_from([None, 1, 2, 3]))
@example(as_explicit(LinearEncoder(K2)), None)
@example(ExplicitEncoder(2, 3, (0b000, 0b011, 0b101, 0b110)), None)  # (3,4,2) even-weight
def test_explicit_layers_are_slices_of_the_enumerator(encoder, w):
    for j in range(1, encoder.k + 1):
        eager = Budget(None)
        full, _ = _minimal_masks(encoder, j, w, eager)
        sets = _LazySets(encoder, j, w)
        budget = Budget(None)
        while sets.size < sets.width:
            size, built, used = sets.size, len(sets.masks), budget.used
            sets._grow_explicit(budget)  # one layer, as `has` builds them
            spend = Budget(None)
            reference, _ = reference_explicit_minimal_masks(encoder, j, size + 1, spend,
                                                            above=size)
            assert sets.size == size + 1 and sets.complete
            assert sets.masks[built:] == reference == [m for m in full
                                                       if m.bit_count() == size + 1]
            assert budget.used - used == spend.used, (j, size + 1)
        assert sets.masks == full and budget.used == eager.used
        assert not sets.has(len(full), budget)


def _with_extra_columns(g, extras):
    """g with a zero column (None) or a copy of column c inserted for each
    (place, c) in `extras`."""
    columns = [g.column(p) for p in range(1, g.cols + 1)]
    for place, c in extras:
        columns.insert(place % (len(columns) + 1), 0 if c is None else columns[c % g.cols])
    n, k = len(columns), g.nrows
    return BitMatrix(n, tuple(sum((col >> (k - 1 - i) & 1) << (n - 1 - q)
                                  for q, col in enumerate(columns)) for i in range(k)))


padded_generators = st.tuples(
    full_rank_generators(max_k=4, max_n=7),
    st.lists(st.tuples(st.integers(0, 10), st.one_of(st.none(), st.integers(0, 10))),
             max_size=3),
).map(lambda ge: LinearEncoder(_with_extra_columns(*ge)))


@SETTINGS
@given(st.one_of(padded_generators, explicit_tables(max_k=3, max_n=6)), st.data())
@example(LinearEncoder(ZERO_COLUMNS), None)
@example(LinearEncoder(REPEATED_COLUMNS), None)
@example(as_explicit(LinearEncoder(K2)), None)
def test_mask_backtracker_matches_per_position_usage(encoder, data):
    if data is None:  # the fixed examples: every request multiset of up to 3
        cases = [(r, w, mu, limit) for t in (1, 2, 3)
                 for r in combinations_with_replacement(range(1, encoder.k + 1), t)
                 for w in (None, 2) for mu in (1, 2, 3) for limit in (None, 4, 12)]
    else:
        requests = data.draw(st.lists(st.integers(1, encoder.k), min_size=1, max_size=5))
        if data.draw(st.booleans()):
            requests.sort()  # equal requests adjacent, as in a constant query
        cases = [(tuple(requests), data.draw(st.sampled_from([None, 1, 2, 3])),
                  data.draw(st.integers(1, 3)),
                  data.draw(st.one_of(st.none(), st.integers(0, 80))))]
    for requests, w, mu, limit in cases:
        res = serve_query(encoder, Query(requests), w, mu, Budget(limit))
        plan = None if res.plan is None else [sorted(s) for s in res.plan.sets]
        assert (res.status, plan, res.nodes, res.backtrack_nodes) == reference_serve_query(
            encoder, requests, w, mu, Budget(limit), lists=ReferenceLayers), (
            requests, w, mu, limit)


@SETTINGS
@given(encoders, st.data())
def test_cut_budgets_serve_checked_plans_and_never_refute(encoder, data):
    requests = tuple(data.draw(st.lists(st.integers(1, encoder.k), min_size=1, max_size=4)))
    w = data.draw(st.sampled_from([None, 1, 2, 3]))
    mu = data.draw(st.integers(1, 2))
    limit = data.draw(st.integers(0, 60))
    budget = Budget(limit)
    res = serve_query(encoder, Query(requests), w, mu, budget)
    assert res.nodes == budget.used == res.set_nodes + res.backtrack_nodes
    plan = None if res.plan is None else [sorted(s) for s in res.plan.sets]
    assert (res.status, plan, res.nodes, res.backtrack_nodes) == reference_serve_query(
        encoder, requests, w, mu, Budget(limit), lists=ReferenceLayers)
    if res.status == "served":
        assert (w is None or res.plan.width <= w) and res.plan.multiplicity <= mu
        assert all(is_recovery_set(encoder, j, s) for j, s in zip(requests, res.plan.sets))
    elif res.status == "unservable":
        assert not budget.exhausted
        assert reference_serve_query(encoder, requests, w, mu)[0] == "unservable"
    else:
        assert res.status == "unknown" and budget.exhausted
    t = len(requests)
    rep = verify_pir(encoder, t, w, mu, budget=Budget(limit))
    for wit in rep.witnesses:
        ok, why = _check_witness_sets(encoder, wit["bit"], [frozenset(s) for s in wit["sets"]],
                                      t, w, mu)
        assert ok, why
    if rep.complete and not rep.verdict:
        assert not reference_verify(encoder, "pir", t, w, mu)[0]
    fam = find_disjoint_family(encoder, requests[0], t, w, Budget(limit))
    if fam.status == "impossible":
        assert reference_serve_query(encoder, (requests[0],) * t, w)[0] == "unservable"
    batch = verify_batch(encoder, t, Budget(limit))
    for wit in batch.witnesses:
        sets = [frozenset(s) for s in wit["sets"]]
        assert sum(map(len, sets)) == len(frozenset().union(*sets))
        assert all(is_recovery_set(encoder, j, s) for j, s in zip(wit["query"], sets))
    if batch.complete and not batch.verdict:
        assert not reference_verify(encoder, "batch", t)[0]


def test_backtracking_reads_no_layer_it_does_not_need(k2_encoder):
    """K2's bit 1 has {1} and {4} in layer 1: one set is placed after one
    lookup node, where the eager server walked the whole coset of 8."""
    res = serve_query(k2_encoder, Query((1,)))
    assert (res.status, res.set_nodes, res.backtrack_nodes) == ("served", 1, 1)
    assert reference_serve_query(k2_encoder, (1,)) == ("served", [[1]], 9, 1)
    assert [sorted(s) for s in res.plan.sets] == [[1]]
