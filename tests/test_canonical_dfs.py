"""Differential tests: the canonical-form DFS against a brute-force minimum
over all n! column permutations, and the census streams it drives.

The brute force lives only here.  Codes are drawn with repeated columns on
purpose, because the DFS branches once per distinct column vector: equal
columns give equal subtrees, so only the first is searched.
"""

import hashlib
import json
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from pircodes.gf2 import Code
from pircodes.search import SearchStats, canonical_form, is_canonical, search_codes

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def brute_force_form(code):
    """Minimum over all column permutations of the sorted word sequence."""
    n = code.n
    columns = [[(v >> (n - 1 - j)) & 1 for v in code.values] for j in range(n)]
    best = None
    for order in permutations(range(n)):
        words = [0] * code.size
        for j in order:
            words = [(w << 1) | b for w, b in zip(words, columns[j])]
        form = tuple(sorted(words))
        if best is None or form < best:
            best = form
    return best


@st.composite
def codes_with_repeated_columns(draw):
    """Up to 12 distinct words on n <= 6 positions, built from n0 <= n base
    columns: the other n - n0 columns copy base columns, then all columns
    are shuffled.  Words stay distinct, because the base words are."""
    n = draw(st.integers(1, 6))
    n0 = draw(st.integers(1, n))
    size = draw(st.integers(1, min(12, 1 << n0)))
    base = draw(st.lists(st.integers(0, (1 << n0) - 1), min_size=size, max_size=size,
                         unique=True))
    if draw(st.booleans()) and 0 not in base:  # orderly generation's codes hold 0
        base[0] = 0
    copies = draw(st.lists(st.integers(0, n0 - 1), min_size=n - n0, max_size=n - n0))
    order = draw(st.permutations(list(range(n0)) + copies))
    words = [sum(((v >> (n0 - 1 - j)) & 1) << (n - 1 - i) for i, j in enumerate(order))
             for v in base]
    return Code.from_values(n, words)


@SETTINGS
@given(code=codes_with_repeated_columns())
@example(code=Code.from_strings(["000", "111"]))  # three equal columns
@example(code=Code.from_strings(["0000", "0011", "1100", "1111"]))  # two pairs
@example(code=Code.from_strings(["000000", "110100", "110010", "001111"]))
def test_matches_brute_force(code):
    form = brute_force_form(code)
    assert canonical_form(code).values == form
    assert is_canonical(code) == (code.values == form)
    # The form itself is canonical, which is the stop_below search on it.
    assert is_canonical(Code(code.n, form))


def stream_digest(codes):
    return hashlib.sha256(json.dumps([list(c.values) for c in codes]).encode()).hexdigest()


# Pinned from the DFS that branched once per column (before equal columns were
# skipped): class count, SearchStats.nodes, first and last representative and
# the SHA-256 of the JSON list of every representative in emission order.
CENSUS = {
    (7, 4, 3): (74, 701, (0, 7, 25, 30), (0, 31, 103, 123),
                "0a8c25297f9708b1354dc159452e4620cc9dd925a05660e6759ba0f8fe9e2868"),
    (8, 3, 3): (33, 832, (0, 7, 25), (0, 63, 223),
                "f29624913b6ec2f5a162d7383f1bada73e16e16745a71ca0343d01e5e188f125"),
    (6, 8, 3): (1, 150, (0, 7, 25, 30, 42, 45, 51, 52), (0, 7, 25, 30, 42, 45, 51, 52),
                "34a748ea5caba2a8340a60e8051b59c8d9949cfe15203b7e80c522c248a5af1a"),
    (8, 4, 3): (251, 3260, (0, 7, 25, 30), (0, 63, 207, 247),
                "f38d911566e80286b62de8c9c4b0de82b44aabed698a5ad40134b0e36b8bbbab"),
}


@pytest.mark.parametrize("params", sorted(CENSUS))
def test_census_stream_pinned(params):
    count, nodes, first, last, digest = CENSUS[params]
    stats = SearchStats()
    codes = list(search_codes(*params, stats=stats))
    assert stats.complete
    assert (len(codes), stats.nodes) == (count, nodes)
    assert (codes[0].values, codes[-1].values) == (first, last)
    assert stream_digest(codes) == digest
