"""Hamming codes, projective lines, and the 3-availability impossibility scan.

The impossibility check is encoder-free.  Any encoder that gives some data
bit three pairwise disjoint recovery sets induces a balanced 2-coloring of
the code that is constant on each "agreement" class (equal restriction to
one of the three sets), hence constant on the connected components of the
union of the three agreement relations.  Complementing every codeword
permutes those components, so if every balanced union of components is
closed under complementation, every candidate data bit takes equal values
on c and its complement; a full encoder would then decode complementary
codewords identically, contradicting injectivity.

One rank test per triple.  The Hamming code C is linear and holds the
all-one word 1, and two codewords agree on a set exactly when their sum
has no 1 there.  So for a triple (A, B, D), with W the span of the
codewords with no 1 on A, on B or on D, the components are the m cosets of
W.  Complementation adds 1: it fixes every coset when 1 lies in W, and else
pairs them off, so one coset of a pair and any m/2 - 1 of the other m - 2
form a balanced union that is not closed.  The triple fails exactly when
1 lies outside W.

Partitions dominate triples.  The codewords with no 1 on a set only get
fewer as the set grows, so W shrinks, and a failing triple grows to a
failing partition.  Scanning the S(n,3) partitions of [n] into three blocks
(301 for r = 3) decides exactly what all (4^n - 3*3^n + 3*2^n - 1)/6
disjoint triples (1,701) would, and proves that no 3-availability encoder
of any kind exists.  The scan memoises one basis per block mask; at r = 4
it covers 2,375,101 partitions in about 25 s.  The partition generator is
shared with the encoder-existence decision in `pircodes.search`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import UsageError
from .gf2 import BitMatrix, Code, LinearCode, positions_to_mask, xor_basis_add
from .search import _block_positions, _iter_partitions

__all__ = [
    "HammingCode",
    "Line",
    "ImpossibilityReport",
    "ClaimReport",
    "build_hamming",
    "lines_pg",
    "line_word_value",
    "check_no_3pir_any_encoder",
    "check_triple_geometry",
    "coset_triples",
]


@dataclass(frozen=True)
class HammingCode:
    """Order-r Hamming code; parity-check columns are 1..2^r-1 in integer order."""

    r: int
    parity_check: BitMatrix
    generator: BitMatrix

    @property
    def n(self) -> int:
        return (1 << self.r) - 1

    @property
    def k(self) -> int:
        return self.n - self.r

    def syndrome(self, value: int) -> int:
        return self.parity_check.column_combination(value)

    def is_codeword(self, value: int) -> bool:
        return self.syndrome(value) == 0

    def code(self) -> Code:
        return LinearCode(self.generator).span()


def build_hamming(r: int) -> HammingCode:
    """Construct the order-r Hamming code with a deterministic layout.

    Position i carries the column equal to the binary expansion of i; the
    generator is systematic on the non-power-of-two positions (row for data
    position p: 1 at p plus 1 at each parity position 2^b with bit b set
    in p), listed in ascending p.
    """
    if r < 2:
        raise UsageError("Hamming order must be >= 2")
    n = (1 << r) - 1
    h_rows = []
    for b in range(r):
        row = 0
        for i in range(1, n + 1):
            if (i >> (r - 1 - b)) & 1:
                row |= 1 << (n - i)
        h_rows.append(row)
    parity_check = BitMatrix(n, tuple(h_rows))
    g_rows = []
    for p in range(1, n + 1):
        if p & (p - 1) == 0:
            continue  # power of two: parity position
        row = 1 << (n - p)
        bit = 1
        while bit <= p:
            if p & bit:
                row |= 1 << (n - bit)
            bit <<= 1
        g_rows.append(row)
    generator = BitMatrix(n, tuple(g_rows))
    return HammingCode(r, parity_check, generator)


@dataclass(frozen=True)
class Line:
    """Three distinct nonzero points closed under XOR (a ^ b == c)."""

    points: tuple[int, int, int]

    def __post_init__(self) -> None:
        a, b, c = self.points
        if not (0 < a < b < c):
            raise UsageError("line points must be distinct, positive, ascending")
        if a ^ b != c:
            raise UsageError(f"{self.points} is not closed under addition")


def lines_pg(r: int) -> tuple[Line, ...]:
    """All (2^r-1)(2^r-2)/6 lines of the binary projective geometry of order r."""
    if r < 2:
        raise UsageError("need r >= 2")
    n = (1 << r) - 1
    out = []
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            c = a ^ b
            if c > b:
                out.append(Line((a, b, c)))
    return tuple(out)


def line_word_value(line: Line, n: int) -> int:
    """Characteristic vector of a line as an n-bit word value."""
    return positions_to_mask(n, line.points)


# ---------------------------------------------------------------------------
# Impossibility scan
# ---------------------------------------------------------------------------


@dataclass
class ImpossibilityReport:
    """Outcome of `check_no_3pir_any_encoder`.  `triples_checked` is the
    number of disjoint triples the scan covers; `partitions_scanned` the
    partitions actually visited; `failing_triples` counts failing partitions.
    """

    verdict: str  # "no_encoder" | "encoder_exists" | "inconclusive"
    r: int
    triples_checked: int
    partitions_scanned: int
    failing_triples: int
    counterexample: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None
    max_components: int
    elapsed: float

    def to_jsonable(self) -> dict:
        return {
            "verdict": self.verdict,
            "order": self.r,
            "triples_checked": self.triples_checked,
            "partitions_scanned": self.partitions_scanned,
            "failing_triples": self.failing_triples,
            "counterexample": [list(s) for s in self.counterexample]
            if self.counterexample
            else None,
            "statistics": {"max_components": self.max_components, "elapsed": self.elapsed},
        }


def _disjoint_triple_count(n: int) -> int:
    """Unordered triples of pairwise disjoint nonempty subsets of [n]."""
    return (4**n - 3 * 3**n + 3 * 2**n - 1) // 6


def _zero_on(rows: Sequence[int], block: int) -> list[int]:
    """A basis of the codewords spanned by the independent `rows` with no 1
    on `block`: the rows left without one by elimination on the block."""
    pivots: list[tuple[int, int]] = []
    basis = []
    for row in rows:
        for bit, pivot in pivots:
            if row & bit:
                row ^= pivot
        on_block = row & block
        if on_block:
            pivots.append((on_block & -on_block, row))
        else:
            basis.append(row)
    return basis


def _agreement_rank(rows: Sequence[int], n: int, masks: Sequence[int],
                    memo: dict[int, list[int]]) -> tuple[int, bool]:
    """(dim W, whether the all-one word lies outside W) for one partition of
    the code spanned by the independent `rows` (see the module notes).
    `memo` maps a block mask to its `_zero_on` basis, one dict per code."""
    basis: dict[int, int] = {}
    for mk in masks:
        sub = memo.get(mk)
        if sub is None:
            sub = memo[mk] = _zero_on(rows, mk)
        for v in sub:
            xor_basis_add(basis, v)
    return len(basis), xor_basis_add(basis, (1 << n) - 1)


def check_no_3pir_any_encoder(r: int = 3, progress=None) -> ImpossibilityReport:
    """Scan every partition of the positions of the order-r Hamming code into
    three blocks for a balanced component union that is not closed under
    complementation.  If none exists, no encoder of any kind can give any
    data bit three disjoint recovery sets.  `max_components` is the largest
    2^(k - dim W).  Exhaustive regime: r <= 4.
    """
    if r not in (2, 3, 4):
        raise UsageError("exhaustive partition scan is supported for r in {2, 3, 4}")
    start = time.monotonic()
    ham = build_hamming(r)
    rows = ham.generator.rows
    n, k = ham.n, ham.k

    scanned = failing = 0
    min_dim = k
    counterexample = None
    memo: dict[int, list[int]] = {}
    for masks in _iter_partitions(n):
        scanned += 1
        dim, fails = _agreement_rank(rows, n, masks, memo)
        min_dim = min(min_dim, dim)
        if fails:
            failing += 1
            if counterexample is None:
                counterexample = _block_positions(n, masks)
        if progress is not None and scanned % 100 == 0:
            progress(f"partitions={scanned} failing={failing}")

    elapsed = time.monotonic() - start
    if failing == 0:
        verdict = "no_encoder"
    elif k == 1:
        # One data bit: a split balanced union is itself an injective encoder.
        verdict = "encoder_exists"
    else:
        verdict = "inconclusive"
    return ImpossibilityReport(
        verdict, r, _disjoint_triple_count(n), scanned, failing, counterexample,
        1 << (k - min_dim), elapsed,
    )


# ---------------------------------------------------------------------------
# Structural claims about disjoint minimal recovery-set triples
# ---------------------------------------------------------------------------


@dataclass
class ClaimReport:
    r: int
    triple: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    line_closure: bool
    no_line_inside: bool
    coset_structure: bool
    sizes: tuple[int, int, int]
    expected_size: int

    @property
    def all_hold(self) -> bool:
        return self.line_closure and self.no_line_inside and self.coset_structure

    def to_jsonable(self) -> dict:
        return {
            "order": self.r,
            "triple": [list(s) for s in self.triple],
            "claims": {
                "line_closure": self.line_closure,
                "no_line_inside": self.no_line_inside,
                "coset_structure": self.coset_structure,
            },
            "sizes": list(self.sizes),
            "expected_size": self.expected_size,
        }


def check_triple_geometry(r: int, triple) -> ClaimReport:
    """Evaluate the geometric facts that hold for any disjoint triple of
    minimal recovery sets of one data bit: every line meeting two of the
    sets meets the third; no set contains a line; the unused points plus
    zero form a subspace whose three other cosets are exactly the sets,
    each of size 2^(r-2)."""
    if r < 2:
        raise UsageError("need r >= 2")
    n = (1 << r) - 1
    sets = [frozenset(s) for s in triple]
    if len(sets) != 3 or any(not s for s in sets):
        raise UsageError("triple must consist of three nonempty sets")
    for s in sets:
        if any(not 1 <= p <= n for p in s):
            raise UsageError(f"positions must lie in 1..{n}")
    if sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2]:
        raise UsageError("triple sets must be pairwise disjoint")

    lines = lines_pg(r)
    line_closure = True
    no_line_inside = True
    for line in lines:
        pts = set(line.points)
        hits = sum(1 for s in sets if pts & s)
        if hits == 2:
            line_closure = False
        if any(pts <= s for s in sets):
            no_line_inside = False

    union = sets[0] | sets[1] | sets[2]
    subgroup = {0} | (set(range(1, n + 1)) - union)
    closed = all((a ^ b) in subgroup for a in subgroup for b in subgroup)
    expected = 1 << (r - 2)
    coset_structure = closed and len(subgroup) == expected
    if coset_structure:
        for s in sets:
            rep = next(iter(s))
            if {rep ^ h for h in subgroup} != set(s):
                coset_structure = False
                break
    sizes = tuple(len(s) for s in sets)
    return ClaimReport(r, tuple(tuple(sorted(s)) for s in sets),
                       line_closure, no_line_inside, coset_structure,
                       sizes, expected)


def coset_triples(r: int) -> list[tuple[frozenset[int], frozenset[int], frozenset[int]]]:
    """All triples of nonzero cosets of index-4 subspaces of the r-space,
    expressed over the nonzero points 1..2^r-1."""
    if r < 2:
        raise UsageError("need r >= 2")
    n = (1 << r) - 1
    size = 1 << (r - 2)
    out = []
    for combo in combinations(range(1, n + 1), size - 1) if size > 1 else [()]:
        subgroup = {0, *combo}
        if len(subgroup) != size:
            continue
        if not all((a ^ b) in subgroup for a in subgroup for b in subgroup):
            continue
        rest = sorted(set(range(1, n + 1)) - subgroup)
        cosets = []
        seen: set[int] = set()
        for p in rest:
            if p in seen:
                continue
            coset = frozenset(p ^ h for h in subgroup)
            seen |= coset
            cosets.append(coset)
        assert len(cosets) == 3
        out.append(tuple(cosets))
    return out
