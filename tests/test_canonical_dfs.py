"""Differential tests: the canonical-form DFS against a brute-force minimum
over all n! column permutations and against the column-order DFS it
replaced (`tests/brute_force.py`), and the census streams it drives.

The brute force lives only here.  Codes are drawn with repeated columns on
purpose: their cells never become single columns, so the search reaches
its leaves only when one word is left.  Linear spans, the even-weight code
and the full space have large automorphism groups, which exercise the
return to the level where two equal leaves part.
"""

import hashlib
import json
from itertools import permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from brute_force import reference_min_form_search
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


@st.composite
def random_codes(draw):
    """Distinct words at n = 7..10, about half holding the zero word; fewer
    words at n >= 9, where the column-order reference gets slow."""
    n = draw(st.integers(7, 10))
    size = draw(st.integers(1, 16 if n <= 8 else 6))
    words = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size,
                          unique=True))
    if draw(st.booleans()) and 0 not in words:
        words[0] = 0
    return Code.from_values(n, words)


@st.composite
def symmetric_codes(draw):
    """A linear span or one of its cosets (n <= 8, dimension <= 4), the
    even-weight code (n <= 6) or the full space (n <= 5)."""
    kind = draw(st.sampled_from(["span", "even", "full"]))
    if kind == "even":
        n = draw(st.integers(1, 6))
        return Code.from_values(n, [v for v in range(1 << n) if v.bit_count() % 2 == 0])
    if kind == "full":
        n = draw(st.integers(1, 5))
        return Code.from_values(n, range(1 << n))
    n = draw(st.integers(2, 8))
    span = {0}
    for g in draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=4)):
        span |= {v ^ g for v in span}
    shift = draw(st.integers(0, (1 << n) - 1))
    return Code.from_values(n, [v ^ shift for v in span])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(code=st.one_of(random_codes(), symmetric_codes()))
@example(code=Code.from_values(6, [v for v in range(64) if v.bit_count() % 2 == 0]))
@example(code=Code.from_values(5, range(32)))
@example(code=Code.from_values(8, [0, 15, 51, 60, 85, 90, 102, 105, 150, 153, 165, 170,
                                   195, 204, 240, 255]))  # extended Hamming code
def test_matches_column_order_search(code):
    _, form = reference_min_form_search(code.values, code.n, stop_below=False)
    smaller, _ = reference_min_form_search(code.values, code.n, stop_below=True)
    assert canonical_form(code).values == form
    assert is_canonical(code) == (not smaller)


def stream_digest(codes):
    return hashlib.sha256(json.dumps([list(c.values) for c in codes]).encode()).hexdigest()


# Pinned from the DFS that branched once per column (before equal columns were
# skipped): class count, SearchStats.nodes, first and last representative and
# the SHA-256 of the JSON list of every representative in emission order.
# (7,16,3) was pinned from the column-order DFS that skipped equal columns.
HAMMING_7 = (0, 7, 25, 30, 42, 45, 51, 52, 75, 76, 82, 85, 97, 102, 120, 127)
CENSUS = {
    (7, 4, 3): (74, 701, (0, 7, 25, 30), (0, 31, 103, 123),
                "0a8c25297f9708b1354dc159452e4620cc9dd925a05660e6759ba0f8fe9e2868"),
    (8, 3, 3): (33, 832, (0, 7, 25), (0, 63, 223),
                "f29624913b6ec2f5a162d7383f1bada73e16e16745a71ca0343d01e5e188f125"),
    (6, 8, 3): (1, 150, (0, 7, 25, 30, 42, 45, 51, 52), (0, 7, 25, 30, 42, 45, 51, 52),
                "34a748ea5caba2a8340a60e8051b59c8d9949cfe15203b7e80c522c248a5af1a"),
    (8, 4, 3): (251, 3260, (0, 7, 25, 30), (0, 63, 207, 247),
                "f38d911566e80286b62de8c9c4b0de82b44aabed698a5ad40134b0e36b8bbbab"),
    (7, 16, 3): (1, 5744, HAMMING_7, HAMMING_7,
                 "02215237f1b52d6c2fdb7d59c4459a8fd18b1f6f6a0db86878e0611896696b56"),
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
