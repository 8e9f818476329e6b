"""Every result reports the nodes its own call spent.

A `Budget` may be shared between calls, so `used` can hold nodes spent
earlier.  Each test runs one call on a fresh budget and on a budget that
arrives with 1,000 nodes already used: `nodes` must be the same, and the
shared counter must grow by exactly that much.
"""

import pytest

from pircodes.budget import Budget
from pircodes.designs import exact_packing
from pircodes.gf2 import Code
from pircodes.recovery import (
    Query,
    as_explicit,
    find_disjoint_family,
    minimal_recovery_sets,
    serve_query,
    verify_batch,
    verify_pir,
)
from pircodes.search import encoder_exists_3pir

EARLIER = 1_000


def _own_nodes(call):
    """(nodes on a fresh budget, nodes on a pre-used one, growth of its counter)."""
    fresh = call(Budget(None)).nodes
    shared = Budget(None, used=EARLIER)
    nodes = call(shared).nodes
    return fresh, nodes, shared.used - EARLIER


@pytest.mark.parametrize("call", [
    pytest.param(lambda enc, b: minimal_recovery_sets(enc, 1, budget=b),
                 id="MinimalSetsResult"),
    pytest.param(lambda enc, b: find_disjoint_family(enc, 1, 3, budget=b),
                 id="FamilyResult"),
    pytest.param(lambda enc, b: serve_query(enc, Query((1, 1, 2)), budget=b),
                 id="ServeResult"),
    pytest.param(lambda enc, b: verify_pir(enc, 3, budget=b), id="VerifyReport-pir"),
    pytest.param(lambda enc, b: verify_batch(enc, 2, budget=b), id="VerifyReport-batch"),
])
def test_recovery_results_count_their_own_nodes(call, hamming3_encoder):
    for encoder in (hamming3_encoder, as_explicit(hamming3_encoder)):
        fresh, nodes, growth = _own_nodes(lambda b: call(encoder, b))
        assert fresh > 0
        assert nodes == growth == fresh


def test_exact_packing_counts_its_own_nodes():
    fresh, nodes, growth = _own_nodes(lambda b: exact_packing(14, 4, 14, budget=b))
    assert fresh > 0
    assert nodes == growth == fresh


def test_exact_packing_shortcuts_spend_nothing():
    for target in (2, 99):  # the greedy packing; the counting bound
        res = exact_packing(10, 4, target, budget=Budget(None, used=EARLIER))
        assert res.nodes == 0


def test_encoder_exists_counts_its_own_nodes(hamming3_code):
    for code in (hamming3_code, Code.from_strings(["000", "111"])):
        fresh, nodes, growth = _own_nodes(lambda b: encoder_exists_3pir(code, budget=b))
        assert fresh > 0
        assert nodes == growth == fresh


def test_cut_call_reports_what_it_spent(hamming3_encoder):
    budget = Budget(EARLIER + 5, used=EARLIER)
    res = minimal_recovery_sets(hamming3_encoder, 1, budget=budget)
    assert not res.complete
    assert res.nodes == 5 and budget.used == EARLIER + 5


def test_serve_cut_inside_a_lookup_layer(hamming3_encoder):
    """Bit 1 of the Hamming [7,4] code: layer 1 (one node) finds {3}, which
    the backtracker places (one node); the second request reads on, and
    layer 2 would cost seven nodes, one per position, of which one is left."""
    budget = Budget(EARLIER + 3, used=EARLIER)
    res = serve_query(hamming3_encoder, Query((1, 1)), budget=budget)
    assert res.status == "unknown" and budget.exhausted
    assert (res.nodes, res.set_nodes, res.backtrack_nodes) == (3, 2, 1)
    assert res.nodes == budget.used - EARLIER
