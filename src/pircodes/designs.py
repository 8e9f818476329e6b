"""Packing designs: validation, the (r,4,2) packing-number formula, and
pair-packing constructors (greedy lower bounds and an exact decision).

Constructors are specialized to strength 2 with lambda = 1, the only case
the PIR constructions consume; `is_packing` validates general parameters.

`exact_packing` decides a target in this order: three counting
certificates that prove `impossible` at zero nodes (point degrees, block
pairs, leave graph; see `_refutation`), then the lexicographic greedy
packing, then a clique search.  A pair packing is a clique in the graph on
all blocks, two blocks adjacent when they share at most one point; the
search runs the `clique` engine on it with {1..blocksize} pinned and the
blocks in reverse-lexicographic order (see `_search_packing`).
`packing_bound` is the largest target the certificates allow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .budget import Budget, ensure_budget
from .clique import CliqueSearch
from .errors import FileFormatError, UsageError

__all__ = [
    "PackingDesign",
    "ExactPackingResult",
    "is_packing",
    "packing_number_formula",
    "packing_bound",
    "greedy_packing",
    "exact_packing",
    "all_pairs_design",
    "parse_packing",
    "dump_packing",
    "read_packing",
    "write_packing",
]

FOUND = "found"
IMPOSSIBLE = "impossible"
UNKNOWN = "unknown"

# Exceptions to the closed-form count, from the published determination of
# the (r,4,2) packing numbers.  `packing_bound` proves those at 8, 9, 10 and
# 11 (the block-pair bound); only 17 and 19 still rest on the literature.
_FORMULA_EXCEPTIONS = {9: 1, 10: 1, 17: 1, 8: 2, 11: 2, 19: 2}


@dataclass(frozen=True)
class PackingDesign:
    """Blocks of size `blocksize` over points 1..v, every strength-subset
    covered at most `lam` times."""

    v: int
    blocksize: int
    strength: int
    lam: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not 1 <= self.strength <= self.blocksize <= self.v:
            raise UsageError("need strength <= blocksize <= v")
        if self.lam < 1:
            raise UsageError("lambda must be >= 1")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def _validate_blocks(d: PackingDesign) -> None:
    for block in d.blocks:
        if len(block) != d.blocksize:
            raise UsageError(f"block {block} has size {len(block)}, want {d.blocksize}")
        if len(set(block)) != len(block):
            raise UsageError(f"block {block} repeats a point")
        if any(not 1 <= p <= d.v for p in block):
            raise UsageError(f"block {block} leaves the point range 1..{d.v}")
        if tuple(sorted(block)) != block:
            raise UsageError(f"block {block} must be sorted ascending")


def is_packing(d: PackingDesign) -> tuple[bool, tuple[int, ...] | None]:
    """Exhaustive coverage count; on failure returns the first over-covered
    strength-subset (in lexicographic order)."""
    _validate_blocks(d)
    counts: dict[tuple[int, ...], int] = {}
    for block in d.blocks:
        for sub in combinations(block, d.strength):
            counts[sub] = counts.get(sub, 0) + 1
    bad = sorted(sub for sub, c in counts.items() if c > d.lam)
    if bad:
        return False, bad[0]
    return True, None


def packing_number_formula(r: int) -> int:
    """Largest number of 4-blocks on r points with pairwise intersections <= 1.

    Closed form: start from floor((r/4) * floor((r-1)/3)), subtract 1 when
    r = 7 or 10 mod 12, then apply the six sporadic exceptions.
    """
    if r < 4:
        raise UsageError("formula needs r >= 4")
    u = (r * ((r - 1) // 3)) // 4
    j = u - 1 if r % 12 in (7, 10) else u
    return j - _FORMULA_EXCEPTIONS.get(r, 0)


def _pair_index(v: int, p: int, q: int) -> int:
    # p < q, both 1-based; dense index into the C(v,2) pair bitmap.
    return (p - 1) * (2 * v - p) // 2 + (q - p - 1)


def _block_pairmask(v: int, block: tuple[int, ...]) -> int:
    mask = 0
    for p, q in combinations(block, 2):
        mask |= 1 << _pair_index(v, p, q)
    return mask


def greedy_packing(v: int, blocksize: int) -> PackingDesign:
    """Lexicographic greedy pair-packing: one pass over all blocks in lex
    order, keeping each block whose pairs are all uncovered.

    A single pass suffices because coverage only grows: a block rejected
    once can never become admissible later.
    """
    if not 2 <= blocksize <= v:
        raise UsageError("need 2 <= blocksize <= v")
    covered = 0
    blocks: list[tuple[int, ...]] = []
    for block in combinations(range(1, v + 1), blocksize):
        mask = _block_pairmask(v, block)
        if covered & mask:
            continue
        covered |= mask
        blocks.append(block)
    return PackingDesign(v, blocksize, 2, 1, tuple(blocks))


def all_pairs_design(r: int) -> PackingDesign:
    """The complete pair packing: every 2-subset of [r] as a block."""
    return greedy_packing(r, 2)


def _graphical(degrees: list[int]) -> bool:
    """Erdős–Gallai: a nonincreasing sequence is the degree sequence of a
    simple graph iff its sum is even and every prefix of k degrees sums to
    at most k(k-1) + sum(min(d, k)) over the rest."""
    if sum(degrees) % 2:
        return False
    head = 0
    for k, d in enumerate(degrees, 1):
        head += d
        if head > k * (k - 1) + sum(min(x, k) for x in degrees[k:]):
            return False
    return True


def _refutation(v: int, s: int, b: int) -> str | None:
    """The first counting certificate that no pair packing of `b` blocks of
    size `s` on `v` points exists, or None when all three allow it.

    With r_p blocks through point p, sum r_p = b*s, and:

    - counting: r_p <= R = floor((v-1)/(s-1)), so b*s <= v*R;
    - block_pairs: two blocks share at most one point, so the pairs of
      blocks through the points are disjoint and sum C(r_p, 2) <= C(b, 2)
      (Johnson 1962);
    - leave_graph: the pairs no block covers form a simple graph in which
      point p has degree v-1-(s-1)*r_p (Schönheim 1966).

    Each is checked on the balanced r_p (as equal as possible), which
    suffices.  Balanced r_p minimise sum C(r_p, 2), a convex sum.  Their
    leave degrees are majorised by the leave degrees of any other r_p with
    the same sum, and a majorised degree sequence of a graph is again one
    (move one edge end at a time from a larger to a smaller degree), so no
    leave is graphical if the balanced one is not.
    """
    big_r = (v - 1) // (s - 1)
    if b * s > v * big_r:
        return "counting"
    q, rem = divmod(b * s, v)
    if rem * (q + 1) * q // 2 + (v - rem) * q * (q - 1) // 2 > b * (b - 1) // 2:
        return "block_pairs"
    degree = v - 1 - (s - 1) * q  # of a point in q blocks; rem points are in q + 1
    if not _graphical([degree] * (v - rem) + [degree - (s - 1)] * rem):
        return "leave_graph"
    return None


def packing_bound(v: int, blocksize: int) -> int:
    """Largest number of blocks that no counting certificate of
    `exact_packing` refutes: an upper bound on the pair-packing number.

    For blocksize 3 it equals Spencer's D(v,3,2), and for blocksize 4
    `packing_number_formula(v)` except at v = 17 and 19 (checked for
    v <= 30).
    """
    if not 2 <= blocksize <= v:
        raise UsageError("need 2 <= blocksize <= v")
    top = v * ((v - 1) // (blocksize - 1)) // blocksize
    return next(b for b in range(top, 0, -1) if _refutation(v, blocksize, b) is None)


@dataclass(frozen=True)
class ExactPackingResult:
    status: str  # found | impossible | unknown
    design: PackingDesign | None
    nodes: int
    certificate: str  # greedy | counting | block_pairs | leave_graph | search


def exact_packing(
    v: int,
    blocksize: int,
    target: int,
    budget: Budget | int | None = None,
) -> ExactPackingResult:
    """Decide whether a pair-packing with `target` blocks exists.

    Three counting certificates answer first, proving "impossible" at zero
    nodes, in order (see `_refutation`): the point degree bound
    b <= floor(v * floor((v-1)/(blocksize-1)) / blocksize) ("counting"),
    the block-pair bound ("block_pairs") and the leave-graph bound
    ("leave_graph").  They are sound, so they never refute a target the
    greedy packing reaches, and a refuted target builds no packing.  The
    lexicographic greedy packing then answers when it is big enough
    (certificate "greedy").  Every other target goes to a clique search
    ("search", see `_search_packing`), also when it is cut.

    A found design lists its blocks in lexicographic order, starting with
    {1..blocksize}.  "impossible" requires a certificate or a search that
    exhausted all branches within budget; a cut search reports "unknown".
    """
    if not 2 <= blocksize <= v:
        raise UsageError("need 2 <= blocksize <= v")
    if target < 1:
        raise UsageError("target must be >= 1")
    budget = ensure_budget(budget)

    refuted = _refutation(v, blocksize, target)
    if refuted is not None:
        return ExactPackingResult(IMPOSSIBLE, None, 0, refuted)
    greedy = greedy_packing(v, blocksize)
    if greedy.num_blocks >= target:
        design = PackingDesign(v, blocksize, 2, 1, greedy.blocks[:target])
        return ExactPackingResult(FOUND, design, 0, "greedy")
    return _search_packing(v, blocksize, target, budget)


def _search_packing(v: int, blocksize: int, target: int, budget: Budget) -> ExactPackingResult:
    """The clique engine looks for `target` blocks that pairwise share at
    most one point.  The block {1..blocksize} is pinned (any packing can be
    relabeled to contain it) and the threshold starts at target - 1, so the
    colouring bound prunes every branch that cannot reach `target`, and the
    search stops at the first clique that does.  The engine branches first
    on high indices; with the blocks indexed in reverse-lexicographic
    order, it grows the design from the pinned block through the lowest
    points (indexed lexicographically, (14,4,14) takes 852,501 nodes
    instead of 89)."""
    cands = list(combinations(range(1, v + 1), blocksize))[::-1]
    containing = [0] * (v * (v - 1) // 2)  # per pair: the blocks holding it
    for idx, block in enumerate(cands):
        for p, q in combinations(block, 2):
            containing[_pair_index(v, p, q)] |= 1 << idx
    everything = (1 << len(cands)) - 1
    adj = []
    for block in cands:
        conflicts = 0
        for p, q in combinations(block, 2):
            conflicts |= containing[_pair_index(v, p, q)]
        adj.append(everything & ~conflicts)

    pinned = len(cands) - 1  # the block {1..blocksize}
    search = CliqueSearch(adj, budget, stop_at=target)
    search.best_size = target - 1
    search.expand([pinned], adj[pinned])
    if search.best_size >= target:
        blocks = tuple(sorted(cands[i] for i in search.best_clique)[:target])
        design = PackingDesign(v, blocksize, 2, 1, blocks)
        return ExactPackingResult(FOUND, design, search.nodes, "search")
    status = UNKNOWN if search.aborted else IMPOSSIBLE
    return ExactPackingResult(status, None, search.nodes, "search")


# ---------------------------------------------------------------------------
# Packing file: header "v blocksize lambda", then one block per line as
# ascending 1-based points.
# ---------------------------------------------------------------------------


def parse_packing(text: str) -> PackingDesign:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FileFormatError("packing file is empty")
    head = lines[0].split()
    if len(head) != 3:
        raise FileFormatError("header must be 'v blocksize lambda'")
    try:
        v, blocksize, lam = (int(x) for x in head)
        blocks = tuple(tuple(int(x) for x in ln.split()) for ln in lines[1:])
        return PackingDesign(v, blocksize, 2, lam, blocks)
    except (ValueError, UsageError) as exc:
        raise FileFormatError(str(exc)) from exc


def dump_packing(d: PackingDesign) -> str:
    out = [f"{d.v} {d.blocksize} {d.lam}"]
    out.extend(" ".join(str(p) for p in block) for block in d.blocks)
    return "\n".join(out) + "\n"


def read_packing(path: str) -> PackingDesign:
    with open(path, "r", encoding="ascii") as fh:
        return parse_packing(fh.read())


def write_packing(d: PackingDesign, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dump_packing(d))
