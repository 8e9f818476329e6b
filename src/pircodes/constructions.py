"""Systematic availability-code constructions with recovery witnesses.

Every constructor returns a generator matrix of shape (I_k | P) together
with one explicit family of pairwise disjoint recovery sets per data bit;
the families are re-validated against the recovery module at construction
time, so a ConstructedCode is verified by checking, not trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .designs import (
    PackingDesign,
    all_pairs_design,
    exact_packing,
    is_packing,
    packing_number_formula,
)
from .errors import UsageError
from .gf2 import BitMatrix
from .recovery import LinearEncoder, RecoveryFamily, check_family

__all__ = [
    "ConstructedCode",
    "build_pir3",
    "build_packing_pir",
    "extend_for_even_t",
    "linear_length_table",
    "min_redundancy_pir3",
    "auto_packing",
]


@dataclass(frozen=True)
class ConstructedCode:
    """A linear encoder plus one disjoint recovery family per data bit."""

    encoder: LinearEncoder
    witnesses: tuple[tuple[frozenset[int], ...], ...]
    provenance: str

    def __post_init__(self) -> None:
        if len(self.witnesses) != self.encoder.k:
            raise UsageError("need exactly one witness family per data bit")
        for j, sets in enumerate(self.witnesses, start=1):
            check_family(self.encoder, RecoveryFamily(j, sets))

    @property
    def k(self) -> int:
        return self.encoder.k

    @property
    def n(self) -> int:
        return self.encoder.n

    @property
    def t(self) -> int:
        return min(len(sets) for sets in self.witnesses)

    def witness_map(self) -> dict[int, tuple[frozenset[int], ...]]:
        return {j + 1: sets for j, sets in enumerate(self.witnesses)}


def min_redundancy_pir3(k: int) -> int:
    """Smallest r with r(r-1)/2 >= k."""
    if k < 1:
        raise UsageError("k must be >= 1")
    r = 2
    while r * (r - 1) // 2 < k:
        r += 1
    return r


def build_packing_pir(k: int, t: int, design: PackingDesign) -> ConstructedCode:
    """t-availability code from a pair-packing with blocks of size t-1.

    P stacks the incidence vectors of the first k blocks (lexicographic
    order).  Bit j is recovered by {j} itself and, for each point p of its
    block, by the parity position of p together with the other data bits
    whose blocks pass through p; distinct blocks share at most one point,
    which makes the t sets pairwise disjoint.
    """
    if k < 1:
        raise UsageError("k must be >= 1")
    if t < 3:
        raise UsageError("t must be >= 3: strength-2 packings need blocks of >= 2 points")
    if design.blocksize != t - 1:
        raise UsageError(f"design blocks must have size t-1={t - 1}")
    if design.strength != 2 or design.lam != 1:
        raise UsageError("need a strength-2, lambda-1 packing")
    if design.num_blocks < k:
        raise UsageError(f"design has {design.num_blocks} blocks, need {k}")
    ok, violator = is_packing(design)
    if not ok:
        raise UsageError(f"not a packing: subset {violator} is over-covered")

    r = design.v
    blocks = sorted(design.blocks)[:k]
    if len(set(blocks)) != k:
        raise UsageError("blocks must be pairwise distinct")
    n = k + r
    rows = []
    for i, block in enumerate(blocks):
        row = 1 << (n - 1 - i)
        for p in block:
            row |= 1 << (r - p)
        rows.append(row)
    encoder = LinearEncoder(BitMatrix(n, tuple(rows)))

    point_to_bits: dict[int, list[int]] = {}
    for j, block in enumerate(blocks, start=1):
        for p in block:
            point_to_bits.setdefault(p, []).append(j)
    witnesses = []
    for j, block in enumerate(blocks, start=1):
        family = [frozenset({j})]
        for p in block:
            family.append(frozenset({k + p} | {j2 for j2 in point_to_bits[p] if j2 != j}))
        witnesses.append(tuple(family))
    return ConstructedCode(
        encoder,
        tuple(witnesses),
        f"packing-pir(k={k}, t={t}, v={r})",
    )


def build_pir3(k: int) -> ConstructedCode:
    """3-availability code with the fewest parity columns: the packing
    construction on all pairs of r points, r minimal with r(r-1)/2 >= k, so
    P's rows are the first k weight-2 vectors of length r in lexicographic
    support order."""
    return build_packing_pir(k, 3, all_pairs_design(min_redundancy_pir3(k)))


def extend_for_even_t(code: ConstructedCode) -> ConstructedCode:
    """Append an overall parity position and one extra recovery set per bit.

    The extra set is the complement of the union of the bit's existing sets
    inside the extended position range: with an odd number of existing sets,
    each summing to the bit, the overall parity check makes the untouched
    positions sum to the bit as well.  The result is re-validated rather
    than trusted.
    """
    t = code.t
    if t % 2 == 0:
        raise UsageError("extension expects an odd number of witness sets per bit")
    if any(len(sets) != t for sets in code.witnesses):
        raise UsageError("witness families must all have the same size")
    n = code.n
    gen = code.encoder.generator
    rows = tuple((row << 1) | (row.bit_count() & 1) for row in gen.rows)
    encoder = LinearEncoder(BitMatrix(n + 1, rows))
    witnesses = []
    for sets in code.witnesses:
        used = set().union(*sets)
        extra = frozenset(range(1, n + 2)) - used
        if not extra:
            raise UsageError("no positions left for the parity recovery set")
        witnesses.append(tuple(sets) + (extra,))
    return ConstructedCode(
        encoder,
        tuple(witnesses),
        f"even-extend({code.provenance})",
    )


def linear_length_table(kmax: int, t: int = 3) -> list[tuple[int, int]]:
    """Shortest lengths k + min{r : r(r-1)/2 >= k} of the systematic
    3-availability family, for k = 1..kmax."""
    if t != 3:
        raise UsageError("the closed-form length table is defined for t=3 only")
    if kmax < 1:
        raise UsageError("kmax must be >= 1")
    return [(k, k + min_redundancy_pir3(k)) for k in range(1, kmax + 1)]


def auto_packing(k: int, t: int, budget=None) -> PackingDesign:
    """Find a pair-packing with blocks of size t-1 and at least k blocks over
    as few points as the search settles within budget.

    Block size 4 starts at the closed-form point count; every size probes
    upward, which always terminates because (t-1) disjoint blocks of fresh
    points are a packing.  For block size 2, `exact_packing`'s greedy shortcut
    or counting bound settles every probe at zero nodes, and the first v
    found is `min_redundancy_pir3(k)`.
    """
    if t < 3:
        raise UsageError("t must be >= 3: strength-2 packings need blocks of >= 2 points")
    blocksize = t - 1
    if blocksize == 4:
        v = 4
        while packing_number_formula(v) < k:
            v += 1
    else:
        v = blocksize
    while True:
        res = exact_packing(v, blocksize, k, budget=budget)
        if res.status == "found":
            return res.design
        if v > k * blocksize:
            raise UsageError(
                f"no packing with {k} blocks of size {blocksize} found within budget"
            )
        v += 1


def construction_to_jsonable(code: ConstructedCode) -> dict:
    return {
        "provenance": code.provenance,
        "k": code.k,
        "n": code.n,
        "t": code.t,
        "generator": code.encoder.generator.row_strings(),
        "witnesses": [[sorted(s) for s in sets] for sets in code.witnesses],
    }


def construction_from_jsonable(obj: dict) -> ConstructedCode:
    try:
        generator = BitMatrix.from_strings(obj["generator"])
        witnesses = tuple(
            tuple(frozenset(int(p) for p in s) for s in sets)
            for sets in obj["witnesses"]
        )
        provenance = str(obj.get("provenance", "file"))
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed construction object: {exc}") from exc
    return ConstructedCode(LinearEncoder(generator), witnesses, provenance)
