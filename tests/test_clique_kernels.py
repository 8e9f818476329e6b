"""Differential tests for the clique-engine kernels.

`bounds._CliqueGraph` builds the distance graph with a bitsliced plane
counter, and `CliqueSearch._color_order` sweeps with one precomputed mask
per vertex.  Each is held here to the code it replaced, kept only in these
tests: the pairwise distance loop and the two-step sweep
(``avail &= ~adj[v]; avail ^= low``).  The node counts, values, witnesses
and designs pinned below are those of the pairwise graph and the two-step
sweep; a faster kernel must reproduce them exactly.  The serial A2 pins are
those of the one-chunk decomposition `max_code_size` uses at every thread
count; the per-weight-class loop it replaced is kept here as a reference
for values and completeness.  The engine itself is held to a Bron-Kerbosch
maximum clique on small random graphs.
"""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from pircodes.budget import Budget
from pircodes.bounds import _CliqueGraph, max_code_size
from pircodes.clique import CliqueSearch
from pircodes.designs import _search_packing, exact_packing, packing_number_formula

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_adjacency(n):
    """Rows of the distance->=d graph for every d, by one distance test per
    word pair; the words in (weight, value) order."""
    words = sorted(range(1 << n), key=lambda w: (w.bit_count(), w))
    rows = []
    for w in words:
        at = [0] * (n + 1)  # at[k]: the indices at distance exactly k
        for j, u in enumerate(words):
            at[(w ^ u).bit_count()] |= 1 << j
        rows.append(at)

    def adjacency(d):
        return [sum(at[k] for k in range(max(d, 1), n + 1)) for at in rows]

    return adjacency


def reference_color_order(adj, cand):
    """The colouring as it was: the two-step sweep."""
    classes = []
    uncolored = cand
    while uncolored:
        avail = uncolored
        members = 0
        while avail:
            low = avail & -avail
            members |= low
            avail &= ~adj[low.bit_length() - 1]
            avail ^= low
        uncolored &= ~members
        classes.append(members)
    return classes


def reference_weight_branch_a2(n, d):
    """The threads=1 search as it was: one engine seeded with the start
    pair expands each weight class in turn from {0, class seed}; return
    (value, complete, nodes)."""
    graph = _CliqueGraph(n, d)
    adj = graph.adj_mask
    zero_idx = graph.index[0]
    search = CliqueSearch(adj, Budget(None))
    start = [0, (1 << d) - 1] if d <= n else [0]
    search.seed(len(start), [graph.index[w] for w in start])
    for w in range(d, n + 1):
        i_rep = graph.index[(1 << w) - 1]
        cand = adj[i_rep] & adj[zero_idx]
        cand &= ~((1 << (i_rep + 1)) - 1)
        search.expand([zero_idx, i_rep], cand)
        if search.aborted:
            break
    return search.best_size, not search.aborted, search.nodes


def reference_max_clique_size(adj):
    """The size of a largest clique, by Bron-Kerbosch with pivoting."""
    best = 0

    def extend(size, cand, done):
        nonlocal best
        if not cand and not done:
            best = max(best, size)
            return
        pivot = (cand | done).bit_length() - 1
        rest = cand & ~adj[pivot]
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            extend(size + 1, cand & adj[v], done & adj[v])
            cand ^= low
            done |= low

    extend(0, (1 << len(adj)) - 1, 0)
    return best


def random_graph(seed, nverts, density):
    rng = random.Random(seed)
    adj = [0] * nverts
    for i in range(nverts):
        for j in range(i + 1, nverts):
            if rng.random() < density:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj, rng


# ---------------------------------------------------------------------------
# The bitsliced distance graph
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(1, 11))
def test_graph_matches_pairwise_reference(n):
    # d > n has no edges; a counter too narrow to hold d would wrap and
    # add some, and max_code_size never searches there, so only this
    # direct check sees it
    adjacency = reference_adjacency(n)
    for d in range(1, n + 3):
        graph = _CliqueGraph(n, d)
        assert graph.adj_mask == adjacency(d), (n, d)
        assert graph.words == sorted(range(1 << n), key=lambda w: (w.bit_count(), w))


# ---------------------------------------------------------------------------
# The one-mask colouring sweep
# ---------------------------------------------------------------------------


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nverts=st.integers(1, 70),
       density=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
@example(seed=0, nverts=1, density=0.5)
def test_color_order_matches_two_step_sweep(seed, nverts, density):
    adj, rng = random_graph(seed, nverts, density)
    search = CliqueSearch(adj, Budget(None))
    for _ in range(4):
        cand = rng.getrandbits(nverts)
        assert search._color_order(cand) == reference_color_order(adj, cand), cand


# ---------------------------------------------------------------------------
# The branch and bound against brute force
# ---------------------------------------------------------------------------


@settings(SETTINGS, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), nverts=st.integers(1, 20),
       density=st.floats(0.1, 0.9))
def test_engine_reaches_the_maximum_clique(seed, nverts, density):
    adj, _ = random_graph(seed, nverts, density)
    search = CliqueSearch(adj, Budget(None))
    search.expand([], (1 << nverts) - 1)
    clique = search.best_clique
    assert not search.aborted
    assert search.best_size == len(clique) == reference_max_clique_size(adj)
    assert all(adj[u] >> v & 1 for u, v in combinations(clique, 2)), clique


# ---------------------------------------------------------------------------
# Node counts, values, witnesses and designs of the replaced kernels
# ---------------------------------------------------------------------------

# (n, d): (A2(n,d), serial nodes)
SERIAL_A2 = {
    (3, 1): (8, 5), (3, 2): (4, 1), (3, 3): (2, 0), (3, 4): (1, 0), (3, 5): (1, 0),
    (4, 1): (16, 13), (4, 2): (8, 5), (4, 3): (2, 0), (4, 4): (2, 0), (4, 5): (1, 0),
    (4, 6): (1, 0),
    (5, 1): (32, 29), (5, 2): (16, 13), (5, 3): (4, 1), (5, 4): (2, 0), (5, 5): (2, 0),
    (5, 6): (1, 0), (5, 7): (1, 0),
    (6, 1): (64, 61), (6, 2): (32, 29), (6, 3): (8, 5), (6, 4): (4, 1), (6, 5): (2, 0),
    (6, 6): (2, 0), (6, 7): (1, 0), (6, 8): (1, 0),
    (7, 1): (128, 125), (7, 2): (64, 61), (7, 3): (16, 209), (7, 4): (8, 5),
    (7, 5): (2, 0), (7, 6): (2, 0), (7, 7): (2, 0), (7, 8): (1, 0), (7, 9): (1, 0),
    (9, 5): (6, 122),
}

# Nodes of the per-weight-class loop that served threads=1 before, which
# counted the choice of the second word as an engine node
WEIGHT_BRANCH_NODES = {
    (3, 1): 6, (3, 2): 2, (4, 1): 14, (4, 2): 6, (5, 1): 30, (5, 2): 14, (5, 3): 2,
    (6, 1): 62, (6, 2): 30, (6, 3): 20, (6, 4): 2, (7, 1): 126, (7, 2): 62,
    (7, 3): 649, (7, 4): 15, (9, 5): 69,
}

SERIAL_WITNESSES = {
    (6, 3): (0, 7, 25, 30, 42, 45, 51, 52),
    (7, 3): (0, 7, 25, 30, 43, 44, 50, 53, 74, 77, 83, 84, 97, 102, 120, 127),
    (7, 4): (0, 15, 51, 60, 85, 90, 102, 105),
    (9, 5): (0, 31, 227, 374, 440, 461),
}

# (n, d, threads): (nodes, witness); the values are those of SERIAL_A2
PARALLEL = {
    (6, 3, 2): (10, SERIAL_WITNESSES[6, 3]),
    (6, 3, 3): (15, SERIAL_WITNESSES[6, 3]),
    (7, 3, 2): (286, (0, 7, 25, 30, 43, 44, 50, 53, 74, 77, 83, 84, 97, 102, 120, 127)),
    (7, 3, 3): (357, (0, 7, 25, 30, 43, 44, 50, 53, 74, 77, 83, 84, 97, 102, 120, 127)),
    (9, 5, 2): (124, (0, 31, 227, 374, 440, 461)),
    (9, 5, 3): (126, (0, 31, 227, 374, 440, 461)),
}

# The exact_packing instances of the benchmark's packing workload:
# (v, b, target): (status, nodes)
PACKINGS = {
    **{(r, 4, packing_number_formula(r)): ("found", 0) for r in (4, 5, 6, 7, 8, 9, 11, 12, 13)},
    (10, 4, 5): ("found", 4), (14, 4, 14): ("found", 89), (12, 3, 19): ("found", 18),
    **{(r, 4, packing_number_formula(r) + 1): ("impossible", 0) for r in range(4, 9)},
    **{inst: ("impossible", 0) for inst in ((9, 4, 4), (10, 4, 6), (11, 4, 7), (13, 5, 4))},
}

# The same four impossible instances, proved by the clique search alone
# (the block-pair bound settles them ahead of it in exact_packing).
SEARCH_ALONE = {(9, 4, 4): 20, (10, 4, 6): 50, (11, 4, 7): 6310, (13, 5, 4): 315}

DESIGNS = {
    (10, 4, 5): ((1, 2, 3, 4), (1, 5, 9, 10), (2, 7, 8, 10), (3, 6, 8, 9), (4, 5, 6, 7)),
    (14, 4, 14): ((1, 2, 3, 4), (1, 5, 13, 14), (1, 6, 9, 11), (1, 8, 10, 12),
                  (2, 5, 10, 11), (2, 6, 12, 14), (2, 7, 8, 9), (3, 5, 9, 12),
                  (3, 6, 8, 13), (3, 7, 10, 14), (4, 5, 6, 7), (4, 8, 11, 14),
                  (4, 9, 10, 13), (7, 11, 12, 13)),
    (12, 3, 19): ((1, 2, 3), (1, 4, 12), (1, 5, 11), (1, 6, 8), (1, 9, 10), (2, 4, 10),
                  (2, 5, 9), (2, 6, 12), (2, 8, 11), (3, 4, 11), (3, 5, 12), (3, 6, 10),
                  (3, 8, 9), (4, 7, 8), (5, 6, 7), (5, 8, 10), (6, 9, 11), (7, 9, 12),
                  (10, 11, 12)),
}


def test_serial_a2_nodes_values_and_witnesses_pinned():
    for (n, d), (value, nodes) in SERIAL_A2.items():
        entry = max_code_size(n, d, force_compute=True)
        assert (entry.value, entry.nodes, entry.complete) == (value, nodes, True), (n, d)
        if (n, d) in SERIAL_WITNESSES:
            assert entry.witness == SERIAL_WITNESSES[n, d], (n, d)


def test_weight_branch_reference_agrees_on_values():
    for (n, d), (value, _) in SERIAL_A2.items():
        assert reference_weight_branch_a2(n, d) == (
            value, True, WEIGHT_BRANCH_NODES.get((n, d), 0)), (n, d)


@pytest.mark.parametrize("n,d", [(n, d) for n in range(3, 8) for d in range(1, n + 2)]
                         + [(9, 5)])
def test_every_thread_count_returns_the_same_result(n, d):
    results = {threads: max_code_size(n, d, force_compute=True, threads=threads)
               for threads in (1, 2, 3)}
    assert len({(e.value, e.witness, e.complete) for e in results.values()}) == 1, (
        {t: (e.value, e.witness, e.complete) for t, e in results.items()})


@pytest.mark.parametrize("n,d,threads", sorted(PARALLEL))
def test_parallel_nodes_and_witnesses_pinned(n, d, threads):
    nodes, witness = PARALLEL[n, d, threads]
    entry = max_code_size(n, d, force_compute=True, threads=threads)
    assert (entry.value, entry.nodes, entry.witness, entry.complete) == (
        SERIAL_A2[n, d][0], nodes, witness, True)


def test_packing_workload_nodes_and_designs_pinned():
    for (v, b, target), (status, nodes) in PACKINGS.items():
        res = exact_packing(v, b, target)
        assert (res.status, res.nodes) == (status, nodes), (v, b, target)
        if (v, b, target) in DESIGNS:
            assert res.design.blocks == DESIGNS[v, b, target], (v, b, target)


def test_search_alone_proves_impossible_instances():
    for (v, b, target), nodes in SEARCH_ALONE.items():
        res = _search_packing(v, b, target, Budget())
        assert (res.status, res.nodes, res.certificate) == ("impossible", nodes, "search")
